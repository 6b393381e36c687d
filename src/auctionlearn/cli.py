"""Command-line surface binding the toolkit into reproducible runs.

Option precedence everywhere: explicit flags override values from a JSON
``--config`` file, which override built-in defaults.  Numeric output is
printed with 6 significant digits; files carry full precision.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import experiments as exp_mod
from . import splitsample as split_mod
from .erm import DEFAULT_CANDIDATE_CEILING, ClassSpec, empirical_revenue, erm
from .errors import AuctionLearnError
from .mechanisms import CLASS_TAGS, hypothesis_to_record
from .model import (DistributionSpec, Discrete, SampleSet, Seed,
                    TruncatedExponential, Uniform, load_samples, sample_values,
                    save_samples)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def parse_marginal(text: str):
    """Compact marginal syntax: uniform:a,b | texp:rate,cap | discrete:x@p,x@p,..."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "uniform":
            a, b = (float(x) for x in rest.split(","))
            return Uniform(a, b)
        if kind in ("texp", "trunc-exp"):
            rate, cap = (float(x) for x in rest.split(","))
            return TruncatedExponential(rate, cap)
        if kind == "discrete":
            points, probs = [], []
            for pair in rest.split(","):
                x, _, p = pair.partition("@")
                points.append(float(x))
                probs.append(float(p))
            return Discrete(tuple(points), tuple(probs))
    except ValueError as exc:
        raise AuctionLearnError(f"cannot parse marginal {text!r}: {exc}") from exc
    raise AuctionLearnError(f"unknown marginal kind {kind!r}")


def parse_values(text: str, value_range) -> SampleSet:
    """Inline sample syntax: profiles by ',', bidders by ';', items by '/'."""
    try:
        profiles = [[[float(x) for x in bidder.split("/")] for bidder in rec.split(";")]
                    for rec in text.split(",")]
        values = np.asarray(profiles, dtype=float)
    except ValueError as exc:
        raise AuctionLearnError(f"cannot parse values {text!r}: {exc}") from exc
    return SampleSet(values, value_range, provenance="cli:--values")


def _convert(kind, name: str, raw):
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        what = "an integer" if kind is int else "a number"
        raise AuctionLearnError(f"--{name.replace('_', '-')} needs {what}, got {raw!r}") from exc


class Options:
    """Flag > config-file > default resolution for one subcommand run."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = {}
        path = getattr(args, "config", None)
        if path:
            try:
                with open(path, encoding="utf-8") as fh:
                    self.config = json.load(fh)
            except (OSError, ValueError) as exc:
                raise AuctionLearnError(f"cannot read config {path!r}: {exc}") from exc
            if not isinstance(self.config, dict):
                raise AuctionLearnError(f"config {path!r} must hold a JSON object, "
                                        f"got {type(self.config).__name__}")

    def get(self, name: str, default=None):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        if name in self.config:
            return self.config[name]
        return default

    def number(self, kind, name: str, default=None):
        """Option `name` converted by `kind` (int or float); None stays None."""
        raw = self.get(name, default)
        return None if raw is None else _convert(kind, name, raw)

    def numbers(self, kind, name: str, default: str) -> tuple:
        """A comma list (or a config-file list) of numbers."""
        raw = self.get(name, default)
        if isinstance(raw, str):
            raw = raw.split(",")
        try:
            return tuple(_convert(kind, name, x) for x in raw)
        except TypeError as exc:
            raise AuctionLearnError(f"--{name.replace('_', '-')} needs a list, "
                                    f"got {raw!r}") from exc

    def class_spec(self) -> ClassSpec:
        tag = self.get("klass")
        if tag is None:
            raise AuctionLearnError("--class is required")
        per_player = bool(self.get("per_player", False))
        return ClassSpec(tag, levels=self.number(int, "levels"), per_player=per_player)

    def value_range(self) -> tuple[float, float]:
        raw = self.get("range", "0,1")
        try:
            a, b = (float(x) for x in (raw.split(",") if isinstance(raw, str) else raw))
        except (TypeError, ValueError) as exc:
            raise AuctionLearnError(f"cannot parse range {raw!r}: {exc}") from exc
        return (a, b)

    def dist(self) -> DistributionSpec:
        raw = self.get("dist")
        if raw is None:
            raise AuctionLearnError("--dist is required")
        if isinstance(raw, dict):
            return DistributionSpec.from_dict(raw)
        marginal = parse_marginal(raw)
        return DistributionSpec.iid(marginal, self.number(int, "n", 1),
                                    self.number(int, "k", 1), self.value_range())

    def seed(self) -> Seed:
        return Seed(self.number(int, "seed", 0))

    def sample(self) -> SampleSet:
        values = self.get("values")
        if values is not None:
            return parse_values(values, self.value_range())
        path = self.get("infile")
        if path is not None:   # a declared range must match the file's header
            declared = None if self.get("range") is None else self.value_range()
            return load_samples(path, value_range=declared)
        raise AuctionLearnError("provide a sample via --values or --in")


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    opt = Options(args)
    spec = opt.dist()
    m = opt.number(int, "m", 100)
    sample = sample_values(spec, m, opt.seed())
    out = opt.get("out")
    if out:
        save_samples(sample, out)
        print(f"wrote {sample.m} profiles (n={sample.n}, k={sample.k}) to {out}")
    else:
        for t in range(sample.m):
            print(json.dumps(sample.values[t].tolist()))
    return 0


def cmd_erm(args) -> int:
    opt = Options(args)
    spec = opt.class_spec()
    S = opt.sample()
    ceiling = opt.number(int, "ceiling", DEFAULT_CANDIDATE_CEILING)
    h = erm(spec, S, ceiling)
    rev = empirical_revenue(h, S)
    print(json.dumps(hypothesis_to_record(h)))
    print(f"empirical revenue: {_fmt(rev)}")
    return 0


def cmd_split_sample(args) -> int:
    opt = Options(args)
    spec = opt.class_spec()
    S = opt.sample()
    mode = opt.get("mode", "exact")
    space = split_mod.split_sample_space(
        spec, S, mode, trials=opt.number(int, "trials"), seed=opt.seed(),
        subset_ceiling=opt.number(int, "subset_ceiling", split_mod.DEFAULT_SUBSET_CEILING),
        candidate_ceiling=opt.number(int, "ceiling", DEFAULT_CANDIDATE_CEILING))
    print(f"{len(space)} distinct hypotheses over {space.subsets_examined} "
          f"subsets of size {space.subset_size}")
    for h in space.hypotheses:
        print(json.dumps(hypothesis_to_record(h)))
    return 0


def cmd_growth(args) -> int:
    opt = Options(args)
    spec = opt.class_spec()
    dist = opt.dist()
    est = split_mod.growth_rate_estimate(
        spec, opt.number(int, "m", 8), dist, opt.number(int, "draws", 20), opt.seed(),
        subset_ceiling=opt.number(int, "subset_ceiling", split_mod.DEFAULT_SUBSET_CEILING))
    header = "class,m,n,k,s,draws,observed_max,log_bound"
    row = ",".join(str(x) for x in split_mod.growth_csv_row(est))
    out = opt.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + row + "\n")
        print(f"wrote {out}")
    else:
        print(header)
        print(row)
    return 0


def cmd_bound(args) -> int:
    opt = Options(args)
    spec = opt.class_spec()
    report = bounds_mod.main_bound(
        spec, opt.number(int, "m", 100), opt.number(int, "n", 1), opt.number(int, "k", 1),
        delta=opt.number(float, "delta"), value_range=opt.value_range())
    out = opt.get("out")
    if out:
        header = "class,m,n,k,s,delta,log_tau_2m,bound,hp_bound,vacuous_flag"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.write(",".join(str(x) for x in report.csv_row()) + "\n")
        print(f"wrote {out}")
        return 0
    print(_fmt(report.expected_gap_bound))
    if report.high_prob_bound is not None:
        print(f"high-probability (delta={report.delta:g}): {_fmt(report.high_prob_bound)}")
    if report.vacuous:
        print("warning: bound exceeds the revenue range (vacuous)", file=sys.stderr)
    return 0


def cmd_rademacher(args) -> int:
    opt = Options(args)
    spec = opt.class_spec()
    S = opt.sample()
    space = split_mod.split_sample_space(
        spec, S, "exact",
        subset_ceiling=opt.number(int, "subset_ceiling", split_mod.DEFAULT_SUBSET_CEILING))
    est = bounds_mod.rademacher_estimate(S, space, opt.number(int, "draws", 10000), opt.seed())
    path = (f"exact over {est.draws} sign vectors" if est.method == "exact"
            else f"monte-carlo over {est.draws} sign draws")
    print(f"rademacher estimate: {_fmt(est.estimate)} +/- {_fmt(est.std_error)} "
          f"({path}, {est.set_size} hypotheses)")
    massart = bounds_mod.massart_bound(est.set_size, S.m,
                                       bounds_mod.revenue_range(S.k, S.value_range))
    print(f"finite-class bound: {_fmt(massart)}")
    return 0


def _experiment_config(opt: Options) -> exp_mod.ExperimentConfig:
    return exp_mod.ExperimentConfig(
        class_spec=opt.class_spec(),
        dist=opt.dist(),
        m_grid=opt.numbers(int, "m_grid", "50,100,200"),
        replicates=opt.number(int, "replicates", 1000),
        delta=opt.number(float, "delta", 0.1),
        seed=opt.seed(),
        eval_draws=opt.number(int, "eval_draws", 100_000),
        eval_method=opt.get("eval_method", "auto"),
        candidate_ceiling=opt.number(int, "ceiling", DEFAULT_CANDIDATE_CEILING),
        optimum_grid_step=opt.number(float, "optimum_grid_step", 1e-3),
        optimum_draws=opt.number(int, "optimum_draws", 10**6),
    )


def _print_rows(rows) -> None:
    print("class m mean_revenue std_error optimum gap bound viol_frac")
    for r in rows:
        print(f"{r.class_tag} {r.m} {_fmt(r.mean_revenue)} {_fmt(r.std_error)} "
              f"{_fmt(r.optimum)} {_fmt(r.gap)} {_fmt(r.bound)} "
              f"{_fmt(r.hp_violation_fraction)}")


def cmd_experiment(args) -> int:
    opt = Options(args)
    config = _experiment_config(opt)
    rows = exp_mod.generalization_experiment(config)
    _print_rows(rows)
    out = opt.get("out")
    if out:
        exp_mod.write_rows_csv(rows, out + ".csv")
        exp_mod.write_rows_jsonl(rows, out + ".jsonl")
        written = [out + ".csv", out + ".jsonl"]
        if opt.get("svg"):
            exp_mod.write_gap_svg(rows, out + ".svg")
            written.append(out + ".svg")
        print("wrote " + ", ".join(written))
    return 0


def cmd_curve(args) -> int:
    opt = Options(args)
    config = _experiment_config(opt)
    eps_grid = opt.numbers(float, "eps", "0.5,0.2,0.1")
    rows, curve = exp_mod.sample_complexity_curve(config, eps_grid)
    _print_rows(rows)
    print("epsilon m_bound m_empirical")
    for c in curve:
        emp = "-" if c.m_empirical is None else str(c.m_empirical)
        print(f"{_fmt(c.epsilon)} {c.m_bound} {emp}")
    out = opt.get("out")
    if out:
        exp_mod.write_rows_jsonl(curve, out + ".curve.jsonl")
        exp_mod.write_rows_csv(rows, out + ".csv")
        print(f"wrote {out}.curve.jsonl, {out}.csv")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser, *, klass=False, dist=False,
                sample=False) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--seed", type=int, help="master seed, 64-bit unsigned (default 0)")
    sub.add_argument("--range", dest="range",
                     help="value range 'alpha,beta' (default 0,1)")
    if klass:
        sub.add_argument("--class", dest="klass", choices=CLASS_TAGS,
                         help="hypothesis class tag")
        sub.add_argument("--levels", type=int,
                         help="t-level only: thresholds per bidder (count)")
        sub.add_argument("--per-player", dest="per_player", action="store_const",
                         const=True, help="per-player reserves for pricing classes")
    if dist:
        sub.add_argument("--dist",
                         help="marginal: uniform:a,b | texp:rate,cap | discrete:x@p,...")
        sub.add_argument("--n", type=int, help="bidders (default 1)")
        sub.add_argument("--k", type=int, help="items (default 1)")
    if sample:
        sub.add_argument("--values",
                         help="inline sample: profiles ',', bidders ';', items '/'")
        sub.add_argument("--in", dest="infile", help="sample file path")


def _add_experiment(sub: argparse.ArgumentParser) -> None:
    """The flags that `experiment` and `curve` share."""
    _add_common(sub, klass=True, dist=True)
    sub.add_argument("--m-grid", dest="m_grid", help="comma list of sample sizes")
    sub.add_argument("--replicates", type=int, help="replicates per m (default 1000)")
    sub.add_argument("--delta", type=float, help="failure probability (default 0.1)")
    sub.add_argument("--eval-draws", dest="eval_draws", type=int,
                     help="Monte Carlo draws per revenue evaluation (default 100000)")
    sub.add_argument("--eval-method", dest="eval_method",
                     choices=("auto", "analytic", "monte-carlo"),
                     help="revenue evaluation method (default auto)")
    sub.add_argument("--threads", type=int,
                     help="accepted and ignored; replicates run in one thread")
    sub.add_argument("--ceiling", type=int, help="ceiling on candidate rows scored")
    sub.add_argument("--out", help="output file prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auctionlearn",
        description="Sample-based revenue maximization for simple auction classes, "
                    "with split-sample growth rates and bound certification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample", help="draw i.i.d. profiles and write a sample file")
    _add_common(p, dist=True)
    p.add_argument("--m", type=int, help="number of profiles (default 100)")
    p.add_argument("--out", help="output sample file (prints records when omitted)")
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("erm", help="empirical revenue maximizer on a sample")
    _add_common(p, klass=True, sample=True)
    p.add_argument("--ceiling", type=int,
                   help=f"ceiling on candidate rows scored (default {DEFAULT_CANDIDATE_CEILING})")
    p.set_defaults(func=cmd_erm)

    p = subs.add_parser("split-sample",
                        help="distinct ERM outputs over half-size subsets")
    _add_common(p, klass=True, sample=True)
    p.add_argument("--mode", choices=("exact", "monte-carlo"),
                   help="subset enumeration mode (default exact)")
    p.add_argument("--trials", type=int, help="monte-carlo subset draws")
    p.add_argument("--subset-ceiling", dest="subset_ceiling", type=int,
                   help=f"ceiling on subsets scored (default {split_mod.DEFAULT_SUBSET_CEILING})")
    p.add_argument("--ceiling", type=int, help="ceiling on candidate rows scored")
    p.set_defaults(func=cmd_split_sample)

    p = subs.add_parser("growth", help="observed split-sample growth vs the bound")
    _add_common(p, klass=True, dist=True)
    p.add_argument("--m", type=int, help="sample size per draw (default 8)")
    p.add_argument("--draws", type=int, help="independent sample draws (default 20)")
    p.add_argument("--subset-ceiling", dest="subset_ceiling", type=int,
                   help="ceiling on subsets scored")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_growth)

    p = subs.add_parser("bound", help="expected-gap and high-probability bounds")
    _add_common(p, klass=True)
    p.add_argument("--m", type=int, help="sample size (default 100)")
    p.add_argument("--n", type=int, help="bidders (default 1)")
    p.add_argument("--k", type=int, help="items (default 1)")
    p.add_argument("--delta", type=float, help="failure probability in (0, 1)")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_bound)

    p = subs.add_parser("rademacher",
                        help="Rademacher average on the sample's split-sample space: "
                             "exact when 2^m <= draws, else Monte Carlo")
    _add_common(p, klass=True, sample=True)
    p.add_argument("--draws", type=int, help="sign draws (default 10000): exact when "
                                             "2^m <= draws, else Monte Carlo")
    p.add_argument("--subset-ceiling", dest="subset_ceiling", type=int,
                   help="ceiling on subsets scored")
    p.set_defaults(func=cmd_rademacher)

    p = subs.add_parser("experiment", help="generalization gap vs bound over an m grid")
    _add_experiment(p)
    p.add_argument("--svg", action="store_const", const=True,
                   help="also write a gap-vs-bound SVG chart")
    p.set_defaults(func=cmd_experiment)

    p = subs.add_parser("curve", help="bound-based and empirical sample complexity")
    _add_experiment(p)
    p.add_argument("--eps", help="comma list of accuracy targets (default 0.5,0.2,0.1)")
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AuctionLearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
