"""The benchmark's four fixed, seeded workloads over the public auctionlearn API.

Each workload is a closed loop: one caller in one process, each call issued
after the previous one returns.  ``setup(seed, out_dir)`` builds the specs,
distributions and seeds; ``Study.run()`` is the timed part and returns one
outcome per job; ``Study.check(outcomes)`` is untimed and turns each outcome
into a ``Job`` with a result digest and the first failed check, if any.

Every input is derived from ``Seed(seed).child(...)``.  Library functions are
looked up on their module at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import auctionlearn as al
import auctionlearn.cli

WHY = {
    "split-growth": "the paper's growth and Rademacher certification; nearly all "
                    "time is per-subset ERM inside splitsample, which bulk subset "
                    "scoring would replace",
    "cli-experiment": "criterion 6 through the CLI: 4000 single-reserve ERMs plus "
                      "the harness and writers, no splitsample code; the control "
                      "for split-sample changes",
    "chain-check": "criterion 5: uses splitsample through the vectorized "
                   "single-reserve path, not per-subset ERM, so it shows what "
                   "deleting that fast path costs",
    "experiment-mc": "the only workload with large arrays: grid optimum and Monte "
                     "Carlo evaluation score one hypothesis on many profiles, the "
                     "opposite shape to ERM",
}

U01 = al.DistributionSpec.iid(al.Uniform(0.0, 1.0))
U01_PAIR = al.DistributionSpec.iid(al.Uniform(0.0, 1.0), n=2)

# split-growth: (class, sample size) per draw, n = 2 bidders with U[0,1] values
GROWTH_CLASSES = (
    (al.ClassSpec("anonymous-second-price"), 14),
    (al.ClassSpec("player-reserves"), 14),
    (al.ClassSpec("t-level", levels=1), 12),
    (al.ClassSpec("best-of"), 10),
)
GROWTH_DRAWS = 2
GROWTH_SIGN_DRAWS = 10_000

CLI_ARGS = ("experiment", "--class", "single-reserve", "--dist", "uniform:0,1",
            "--m-grid", "50,100,200,400", "--replicates", "1000", "--delta", "0.25",
            "--eval-method", "analytic", "--svg")
CLI_OUTPUTS = (".csv", ".jsonl", ".svg")


@dataclass(frozen=True)
class Job:
    label: str
    digest: str
    error: str | None      # first failed check or the exception raised; None if ok
    refused: bool = False  # the job raised CeilingExceeded


@dataclass(frozen=True)
class Study:
    run: Callable[[], list]            # timed: [(label, result or exception)]
    check: Callable[[list], list[Job]]  # untimed


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _attempt(label: str, fn: Callable[[], object]):
    # A job boundary: any exception is that job's failure, recorded and counted.
    try:
        return label, fn()
    except Exception as exc:  # noqa: BLE001 - reported as a failed job
        return label, exc


def _judge(outcomes: list, check_one: Callable[[object], tuple[str, str | None]]) -> list[Job]:
    jobs = []
    for label, result in outcomes:
        if isinstance(result, Exception):
            jobs.append(Job(label, "", f"{type(result).__name__}: {result}",
                            isinstance(result, al.CeilingExceeded)))
            continue
        digest, error = check_one(result)
        jobs.append(Job(label, digest, error))
    return jobs


# ---------------------------------------------------------------------------
# split-growth: sample -> exact split-sample space -> Rademacher -> Massart


def _growth_job(spec: al.ClassSpec, m: int, seed: al.Seed):
    S = al.sample_values(U01_PAIR, m, seed.child("sample"))
    space = al.split_sample_space(spec, S, "exact")
    est = al.rademacher_estimate(S, space.hypotheses, GROWTH_SIGN_DRAWS, seed.child("sigma"))
    massart = al.massart_bound(len(space), m, U01_PAIR.value_range)
    bound = al.theoretical_growth_bound(spec, m, U01_PAIR.n, U01_PAIR.k)
    return space, est, massart, bound


def _growth_check(result) -> tuple[str, str | None]:
    space, est, massart, bound = result
    digest = _sha(json.dumps({
        "space": [al.hypothesis_to_record(h) for h in space.hypotheses],
        "subsets": space.subsets_examined,
        "rademacher": [est.estimate, est.std_error], "massart": massart}))
    if len(space) > bound.count:
        return digest, f"|space| = {len(space)} exceeds the growth bound {bound.count}"
    if est.estimate > massart + 3.0 * est.std_error:
        return digest, (f"Rademacher {est.estimate!r} exceeds Massart {massart!r} "
                        f"+ 3 SE {est.std_error!r}")
    return digest, None


def setup_split_growth(seed: int, out_dir: Path) -> Study:
    root = al.Seed(seed).child("split-growth")
    jobs = [(f"draw{d}/{spec.describe()}/m{m}", spec, m, root.child(spec.describe(), d))
            for d in range(GROWTH_DRAWS) for spec, m in GROWTH_CLASSES]

    def run():
        return [_attempt(label, lambda s=spec, m=m, sd=sd: _growth_job(s, m, sd))
                for label, spec, m, sd in jobs]

    return Study(run, lambda outcomes: _judge(outcomes, _growth_check))


# ---------------------------------------------------------------------------
# cli-experiment: criterion 6 in-process through auctionlearn.cli.main


def cli_argv(seed: int, prefix: Path, threads: int) -> list[str]:
    master = al.Seed(seed).child("cli-experiment").master
    return list(CLI_ARGS) + ["--seed", str(master), "--threads", str(threads),
                             "--out", str(prefix)]


def setup_cli_experiment(seed: int, out_dir: Path, threads: int = 1) -> Study:
    prefix = out_dir / "cli-experiment"
    argv = cli_argv(seed, prefix, threads)

    def study():
        with contextlib.redirect_stdout(io.StringIO()):
            code = auctionlearn.cli.main(argv)
        files = {ext: prefix.with_name(prefix.name + ext).read_bytes() for ext in CLI_OUTPUTS}
        return code, files

    def check_one(result) -> tuple[str, str | None]:
        code, files = result
        digest = _sha(json.dumps({ext: hashlib.sha256(b).hexdigest()
                                  for ext, b in sorted(files.items())}))
        if code != 0:
            return digest, f"exit code {code}"
        for line in files[".jsonl"].decode().splitlines():
            row = json.loads(line)
            if row["optimum"] != 0.25:
                return digest, f"m={row['m']}: optimum {row['optimum']!r} != 0.25"
            if not row["gap"] <= row["bound"]:
                return digest, f"m={row['m']}: gap {row['gap']!r} > bound {row['bound']!r}"
        return digest, None

    return Study(lambda: [_attempt("cli-experiment", study)],
                 lambda outcomes: _judge(outcomes, check_one))


# ---------------------------------------------------------------------------
# chain-check: criterion 5


def setup_chain_check(seed: int, out_dir: Path) -> Study:
    spec = al.ClassSpec("single-reserve")
    chain_seed = al.Seed(seed).child("chain-check")

    def study():
        return al.generalization_chain_check(spec, U01, m=8, replicates=500,
                                             sigma_draws=2000, seed=chain_seed)

    def check_one(report) -> tuple[str, str | None]:
        digest = _sha(repr(dataclasses.astuple(report)))
        if report.optimum_source != "analytic":
            return digest, f"optimum source {report.optimum_source!r}, not analytic"
        if not report.chain_holds:
            return digest, "generalization chain does not hold"
        return digest, None

    return Study(lambda: [_attempt("chain-check", study)],
                 lambda outcomes: _judge(outcomes, check_one))


# ---------------------------------------------------------------------------
# experiment-mc: Monte Carlo evaluation and a grid optimum on large arrays


def setup_experiment_mc(seed: int, out_dir: Path) -> Study:
    config = al.ExperimentConfig(
        class_spec=al.ClassSpec("player-reserves"), dist=U01_PAIR, m_grid=(50, 200),
        replicates=50, delta=0.1, seed=al.Seed(seed).child("experiment-mc"),
        eval_draws=100_000, eval_method="auto",
        optimum_grid_step=1e-3, optimum_draws=200_000)

    def check_one(rows) -> tuple[str, str | None]:
        digest = _sha(json.dumps([r.as_dict() for r in rows], sort_keys=True))
        for r in rows:
            if not (math.isfinite(r.gap) and r.gap <= r.bound):
                return digest, f"m={r.m}: gap {r.gap!r} > bound {r.bound!r}"
        return digest, None

    return Study(lambda: [_attempt("experiment-mc",
                                   lambda: al.generalization_experiment(config))],
                 lambda outcomes: _judge(outcomes, check_one))


SETUPS: dict[str, Callable[[int, Path], Study]] = {
    "split-growth": setup_split_growth,
    "cli-experiment": setup_cli_experiment,
    "chain-check": setup_chain_check,
    "experiment-mc": setup_experiment_mc,
}
