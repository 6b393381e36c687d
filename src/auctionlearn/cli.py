"""Command-line surface binding the toolkit into reproducible runs.

Option precedence everywhere: explicit flags override values from a JSON
``--config`` file, which override the subcommand's defaults in ``_COMMANDS``.
Numeric output is printed with 6 significant digits; files carry full precision.
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


# ---------------------------------------------------------------------------
# options, each declared once: dest -> (flag, type, help), the flag None for a
# config-only key.  A type is int, float, a list of either (comma text or a JSON
# list; [float, float] takes exactly two), str (--dist also takes a JSON object),
# bool (a switch; a config file gives JSON true or false) or a tuple of choices.

_OPTIONS = {
    "config": ("--config", str, "JSON config file; flags override its values"),
    "seed": ("--seed", int, "master seed, 64-bit unsigned"),
    "range": ("--range", [float, float], "value range 'alpha,beta'"),
    "klass": ("--class", CLASS_TAGS, "hypothesis class tag"),
    "levels": ("--levels", int, "t-level only: thresholds per bidder (count)"),
    "per_player": ("--per-player", bool, "per-player reserves for pricing classes"),
    "dist": ("--dist", str, "marginal: uniform:a,b | texp:rate,cap | discrete:x@p,..."),
    "n": ("--n", int, "bidders"),
    "k": ("--k", int, "items"),
    "values": ("--values", str, "inline sample: profiles ',', bidders ';', items '/'"),
    "infile": ("--in", str, "sample file path"),
    "m": ("--m", int, "sample size: profiles per sample"),
    "out": ("--out", str, "output path (experiment and curve: a file prefix)"),
    "ceiling": ("--ceiling", int, "ceiling on candidate rows scored"),
    "mode": ("--mode", ("exact", "monte-carlo"), "subset enumeration mode"),
    "trials": ("--trials", int, "monte-carlo subset draws"),
    "subset_ceiling": ("--subset-ceiling", int, "ceiling on subsets scored"),
    "draws": ("--draws", int, "draws: samples for growth, sign vectors for rademacher"),
    "delta": ("--delta", float, "failure probability in (0, 1)"),
    "m_grid": ("--m-grid", [int], "comma list of sample sizes"),
    "replicates": ("--replicates", int, "replicates per m"),
    "eval_draws": ("--eval-draws", int, "Monte Carlo draws per revenue evaluation"),
    "eval_method": ("--eval-method", ("auto", "analytic", "monte-carlo"), "revenue evaluation"),
    "threads": ("--threads", int, "accepted and ignored; replicates run in one thread"),
    "svg": ("--svg", bool, "also write a gap-vs-bound SVG chart"),
    "eps": ("--eps", [float], "comma list of accuracy targets"),
    "optimum_grid_step": (None, float, "grid step of the estimated in-class optimum"),
    "optimum_draws": (None, int, "draws of the estimated in-class optimum"),
}


def _convert(name: str, raw, kind=None):
    """Flag text, a config value or a default as option `name`'s type."""
    flag, declared, _ = _OPTIONS[name]
    kind, label = kind or declared, flag or name
    if kind is bool and not isinstance(raw, bool):
        raise AuctionLearnError(f"{label} needs a JSON true or false, got {raw!r}")
    if isinstance(kind, list):
        items = raw.split(",") if isinstance(raw, str) else raw
        try:
            values = tuple(_convert(name, x, kind[0]) for x in items)
        except TypeError as exc:
            raise AuctionLearnError(f"{label} needs a list, got {raw!r}") from exc
        if len(kind) > 1 and len(values) != len(kind):
            raise AuctionLearnError(f"{label} needs {len(kind)} values, got {raw!r}")
        return values
    if kind not in (int, float):
        return raw      # a switch, text or a choice (the library checks choices)
    what = "an integer" if kind is int else "a number"
    # JSON true reads as 1 and int(200.9) as 200: refuse both, as the flag's text is
    if isinstance(raw, bool) or (kind is int and isinstance(raw, float)):
        raise AuctionLearnError(f"{label} needs {what}, got {raw!r}")
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise AuctionLearnError(f"{label} needs {what}, got {raw!r}") from exc


def _read_config(path) -> dict:
    """The JSON object in `path`, every key of which names an option."""
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise AuctionLearnError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise AuctionLearnError(f"config {path!r} must hold a JSON object, "
                                f"got {type(config).__name__}")
    unknown = [key for key in config if key not in _OPTIONS]
    if unknown:
        raise AuctionLearnError(f"config {path!r}: {unknown[0]!r} names no option")
    return config


class Options:
    """Flag > config-file > default resolution for one subcommand run."""

    def __init__(self, args: argparse.Namespace):
        options = _COMMANDS[args.command][2]
        flags = {name: getattr(args, name, None) for name in options}
        self.given = {**_read_config(args.config),
                      **{name: raw for name, raw in flags.items() if raw is not None}}
        # a config null is converted too: it unsets a text or choice option, and
        # the other types refuse it
        raw = {**{name: v for name, v in options.items() if v is not None}, **self.given}
        self.values = {name: _convert(name, value) for name, value in raw.items()}

    def get(self, name: str):
        """Option `name`: its flag, else its config value, else the default."""
        return self.values.get(name)

    def class_spec(self) -> ClassSpec:
        tag = self.get("klass")
        if tag is None:
            raise AuctionLearnError("--class is required")
        return ClassSpec(tag, levels=self.get("levels"), per_player=self.get("per_player"))

    def dist(self) -> DistributionSpec:
        raw = self.get("dist")
        if raw is None:
            raise AuctionLearnError("--dist is required")
        if isinstance(raw, dict):
            return DistributionSpec.from_dict(raw)
        marginal = parse_marginal(raw)
        return DistributionSpec.iid(marginal, self.get("n"), self.get("k"),
                                    self.get("range"))

    def sample(self) -> SampleSet:
        values = self.get("values")
        if values is not None:
            return parse_values(values, self.get("range"))
        path = self.get("infile")
        if path is not None:   # a declared range must match the file's header
            declared = self.get("range") if "range" in self.given else None
            return load_samples(path, value_range=declared)
        raise AuctionLearnError("provide a sample via --values or --in")


# ---------------------------------------------------------------------------
# subcommands


def _write_row(out, header: str, row) -> None:
    """One CSV row under `header`, to the file `out` or, when None, to stdout."""
    text = header + "\n" + ",".join(str(x) for x in row) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        print(text, end="")


def cmd_sample(opt: Options) -> int:
    sample = sample_values(opt.dist(), opt.get("m"), Seed(opt.get("seed")))
    out = opt.get("out")
    if out:
        save_samples(sample, out)
        print(f"wrote {sample.m} profiles (n={sample.n}, k={sample.k}) to {out}")
    else:
        for t in range(sample.m):
            print(json.dumps(sample.values[t].tolist()))
    return 0


def cmd_erm(opt: Options) -> int:
    spec = opt.class_spec()
    S = opt.sample()
    h = erm(spec, S, opt.get("ceiling"))
    rev = empirical_revenue(h, S)
    print(json.dumps(hypothesis_to_record(h)))
    print(f"empirical revenue: {_fmt(rev)}")
    return 0


def cmd_split_sample(opt: Options) -> int:
    spec = opt.class_spec()
    S = opt.sample()
    space = split_mod.split_sample_space(
        spec, S, opt.get("mode"), trials=opt.get("trials"), seed=Seed(opt.get("seed")),
        subset_ceiling=opt.get("subset_ceiling"), candidate_ceiling=opt.get("ceiling"))
    print(f"{len(space)} distinct hypotheses over {space.subsets_examined} "
          f"subsets of size {space.subset_size}")
    for h in space.hypotheses:
        print(json.dumps(hypothesis_to_record(h)))
    return 0


def cmd_growth(opt: Options) -> int:
    spec = opt.class_spec()
    dist = opt.dist()
    est = split_mod.growth_rate_estimate(
        spec, opt.get("m"), dist, opt.get("draws"), Seed(opt.get("seed")),
        subset_ceiling=opt.get("subset_ceiling"))
    _write_row(opt.get("out"), "class,m,n,k,s,draws,observed_max,log_bound",
               split_mod.growth_csv_row(est))
    return 0


def cmd_bound(opt: Options) -> int:
    spec = opt.class_spec()
    report = bounds_mod.main_bound(spec, opt.get("m"), opt.get("n"), opt.get("k"),
                                   delta=opt.get("delta"), value_range=opt.get("range"))
    out = opt.get("out")
    if out:
        _write_row(out, "class,m,n,k,s,delta,log_tau_2m,bound,hp_bound,vacuous_flag",
                   report.csv_row())
        return 0
    print(_fmt(report.expected_gap_bound))
    if report.high_prob_bound is not None:
        print(f"high-probability (delta={report.delta:g}): {_fmt(report.high_prob_bound)}")
    if report.vacuous:
        print("warning: bound exceeds the revenue range (vacuous)", file=sys.stderr)
    return 0


def cmd_rademacher(opt: Options) -> int:
    spec = opt.class_spec()
    S = opt.sample()
    space = split_mod.split_sample_space(spec, S, "exact",
                                         subset_ceiling=opt.get("subset_ceiling"))
    est = bounds_mod.rademacher_estimate(S, space, opt.get("draws"), Seed(opt.get("seed")))
    path = (f"exact over {est.draws} sign vectors" if est.method == "exact"
            else f"monte-carlo over {est.draws} sign draws")
    print(f"rademacher estimate: {_fmt(est.estimate)} +/- {_fmt(est.std_error)} "
          f"({path}, {est.set_size} hypotheses)")
    massart = bounds_mod.massart_bound(est.set_size, S.m,
                                       bounds_mod.revenue_range(S.k, S.value_range))
    print(f"finite-class bound: {_fmt(massart)}")
    return 0


def _experiment_config(opt: Options) -> exp_mod.ExperimentConfig:
    same_name = ("m_grid", "replicates", "delta", "eval_draws", "eval_method",
                 "optimum_grid_step", "optimum_draws")
    return exp_mod.ExperimentConfig(
        class_spec=opt.class_spec(), dist=opt.dist(), seed=Seed(opt.get("seed")),
        candidate_ceiling=opt.get("ceiling"), **{name: opt.get(name) for name in same_name})


def _print_rows(rows) -> None:
    print("class m mean_revenue std_error optimum gap bound viol_frac")
    for r in rows:
        print(f"{r.class_tag} {r.m} {_fmt(r.mean_revenue)} {_fmt(r.std_error)} "
              f"{_fmt(r.optimum)} {_fmt(r.gap)} {_fmt(r.bound)} "
              f"{_fmt(r.hp_violation_fraction)}")


def cmd_experiment(opt: Options) -> int:
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


def cmd_curve(opt: Options) -> int:
    config = _experiment_config(opt)
    rows, curve = exp_mod.sample_complexity_curve(config, opt.get("eps"))
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
# subcommands: name -> (handler, help, {option: default}); None is no default

_COMMON = {"config": None, "seed": 0, "range": "0,1"}
_CLASS = {"klass": None, "levels": None, "per_player": False}
_DIST = {"dist": None, "n": 1, "k": 1}
_SAMPLE = {"values": None, "infile": None}
_EXPERIMENT = {**_COMMON, **_CLASS, **_DIST, "m_grid": "50,100,200", "replicates": 1000,
               "delta": 0.1, "eval_draws": 100_000, "eval_method": "auto", "threads": None,
               "ceiling": DEFAULT_CANDIDATE_CEILING, "out": None,
               "optimum_grid_step": 1e-3, "optimum_draws": 10**6}
_SUBSETS = {"subset_ceiling": split_mod.DEFAULT_SUBSET_CEILING}

_COMMANDS = {
    "sample": (cmd_sample, "draw i.i.d. profiles and write a sample file",
               {**_COMMON, **_DIST, "m": 100, "out": None}),
    "erm": (cmd_erm, "empirical revenue maximizer on a sample",
            {**_COMMON, **_CLASS, **_SAMPLE, "ceiling": DEFAULT_CANDIDATE_CEILING}),
    "split-sample": (cmd_split_sample, "distinct ERM outputs over half-size subsets",
                     {**_COMMON, **_CLASS, **_SAMPLE, "mode": "exact", "trials": None,
                      **_SUBSETS, "ceiling": DEFAULT_CANDIDATE_CEILING}),
    "growth": (cmd_growth, "observed split-sample growth vs the bound",
               {**_COMMON, **_CLASS, **_DIST, "m": 8, "draws": 20, **_SUBSETS, "out": None}),
    "bound": (cmd_bound, "expected-gap and high-probability bounds",
              {**_COMMON, **_CLASS, "m": 100, "n": 1, "k": 1, "delta": None, "out": None}),
    "rademacher": (cmd_rademacher, "Rademacher average on the sample's split-sample space: "
                                   "exact when 2^m <= draws, else Monte Carlo",
                   {**_COMMON, **_CLASS, **_SAMPLE, "draws": 10000, **_SUBSETS}),
    "experiment": (cmd_experiment, "generalization gap vs bound over an m grid",
                   {**_EXPERIMENT, "svg": False}),
    "curve": (cmd_curve, "bound-based and empirical sample complexity",
              {**_EXPERIMENT, "eps": "0.5,0.2,0.1"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auctionlearn",
        description="Sample-based revenue maximization for simple auction classes, "
                    "with split-sample growth rates and bound certification.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, defaults) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for name, default in defaults.items():
            flag, kind, text = _OPTIONS[name]
            if flag is None:
                continue
            if default is not None:
                text += f" (default {default})"
            how = ({"action": "store_const", "const": True} if kind is bool
                   else {"choices": kind if isinstance(kind, tuple) else None})
            sub.add_argument(flag, dest=name, help=text, **how)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](Options(args))
    except AuctionLearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
