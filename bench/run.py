"""Benchmark of the sample -> ERM -> split-sample -> bound pipeline.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Workloads: split-growth, cli-experiment, chain-check,
experiment-mc (see ``workloads.py``).  Each pass runs the workload's fixed
study once; passes repeat the same seeded inputs until ``--seconds`` is
used up, and every pass must produce the same result digest.  The first
pass warms caches and is left out of the timings.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``wall_s``: median wall time of one pass (one fixed study);
* ``setup_s``: median, over fresh interpreters, of the time to import
  auctionlearn and build the workload's specs and distributions;
* ``peak_rss_mb``: peak resident set size of this process.

Failed jobs over attempted jobs is the error rate; it is reported as the
``failed`` and ``attempted`` fields and in the run record.  With
``--trace 1`` untraced and traced passes alternate and the last line reports
the per-layer metrics of ``layers.PER_LAYER`` instead.  The line before it is
the run record: code identity, versions, core and BLAS thread counts, seed,
tracing flag, pass walls and the result digest.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SCRATCH = ROOT / ".bench_run"

WORKLOADS = ("split-growth", "cli-experiment", "chain-check", "experiment-mc")
DEFAULT_SEED = 1
HELDOUT_SEED = 20170409   # never used while developing; confirm claims on it
MIN_PASSES = 3            # untraced run
MIN_TRACE_PAIRS = 2       # traced run: untraced + traced pass pairs
MIN_SETUPS = 5            # one set-up sample before each pass, topped up to this

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import auctionlearn, auctionlearn.cli
t1 = time.perf_counter()
import pathlib, workloads
workloads.SETUPS[sys.argv[3]](int(sys.argv[4]), pathlib.Path(sys.argv[5]))
t2 = time.perf_counter()
print(t1 - t0, t2 - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELDOUT_SEED})")
    p.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be a 64-bit unsigned integer")
    return args


def measure_setup(workload: str, seed: int, out_dir: Path) -> tuple[float, float]:
    """(import seconds, import + set-up seconds) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(BENCH), workload, str(seed),
         str(out_dir)],
        capture_output=True, text=True, timeout=120, check=True)
    import_s, setup_s = (float(x) for x in proc.stdout.split())
    return import_s, setup_s


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, packed_name = line.partition(" ")
            if packed_name == name:
                return sha
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "auctionlearn").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(args) -> dict:
    import numpy
    return {"commit": git_commit(), "src_sha256": src_sha256(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
            "seconds": args.seconds}


def check_declared_layers(layers) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [m["name"] for m in declared]
    if names != [name for name, _, _ in layers.PER_LAYER]:
        raise SystemExit("error: BENCHMARK.json per_layer differs from bench/layers.py")


def pass_digest(jobs) -> str:
    return hashlib.sha256(json.dumps(
        [[j.label, j.digest, j.error] for j in jobs]).encode()).hexdigest()


def timed_pass(study):
    t0 = time.perf_counter()
    outcomes = study.run()
    wall = time.perf_counter() - t0
    return wall, study.check(outcomes)


def warm_up(study) -> dict:
    """One checked pass whose time is recorded but left out of every median."""
    wall, jobs = timed_pass(study)
    return {"warmup_wall_s": wall, "walls": [], "jobs": jobs, "digests": [pass_digest(jobs)]}


def untraced_run(study, seconds: float, sample_setup) -> dict:
    start = time.perf_counter()
    run = warm_up(study)
    walls, jobs, digests = run["walls"], run["jobs"], run["digests"]
    while len(walls) < MIN_PASSES or time.perf_counter() - start + walls[-1] <= seconds:
        sample_setup()
        wall, pass_jobs = timed_pass(study)
        walls.append(wall)
        jobs.extend(pass_jobs)
        digests.append(pass_digest(pass_jobs))
    return run


def traced_run(study, seconds: float, sample_setup, spans) -> dict:
    tracer = spans.Tracer()
    start = time.perf_counter()
    run = warm_up(study)
    walls, jobs, digests = run["walls"], run["jobs"], run["digests"]
    traced_walls, counts, times = [], [], []
    while (len(traced_walls) < MIN_TRACE_PAIRS
           or time.perf_counter() - start + walls[-1] + traced_walls[-1] <= seconds):
        sample_setup()
        wall, pass_jobs = timed_pass(study)
        walls.append(wall)
        jobs.extend(pass_jobs)
        digests.append(pass_digest(pass_jobs))

        tracer.reset()
        with spans.patched(tracer):
            t0 = time.perf_counter()
            outcomes = study.run()
            traced_walls.append(time.perf_counter() - t0)
        pass_jobs = study.check(outcomes)
        jobs.extend(pass_jobs)
        digests.append(pass_digest(pass_jobs))
        pass_counts = tracer.snapshot_counts()
        pass_counts["erm.refused"] = sum(j.refused for j in pass_jobs)
        counts.append(pass_counts)
        times.append(tracer.snapshot_times())
    run.update(traced_walls=traced_walls, counts=counts, times=times)
    return run


def layer_metrics(run: dict, import_s: float, probe_values: dict, layers) -> dict:
    counts = run["counts"][0]
    values = dict(probe_values)
    values.update((key, statistics.median(t[key] for t in run["times"])) for key in run["times"][0])
    values.update(counts)
    subsets = counts["splitsample.subsets"]
    values["splitsample.distinct_ratio"] = counts["splitsample.distinct"] / subsets if subsets else 0.0
    values["setup.import_s"] = import_s
    values["trace.overhead_s"] = statistics.median(
        traced - untraced for traced, untraced in zip(run["traced_walls"], run["walls"]))
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}


def print_probe_table(values: dict, baselines: dict) -> None:
    print(f"{'probe':<56} {'measured':>12} {'ROADMAP':>10}")
    for name, baseline in baselines.items():
        print(f"{name:<56} {values[name]:>12.4g} {baseline:>10.4g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "auctionlearn" / "__init__.py").is_file():
        print(f"error: no auctionlearn package under {SRC}", file=sys.stderr)
        return 2
    out_dir = SCRATCH / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by a concurrent run
            SCRATCH.rmdir()


def _run(args, out_dir: Path) -> int:
    setups = []

    def sample_setup():
        setups.append(measure_setup(args.workload, args.seed, out_dir))

    sys.path[:0] = [str(SRC), str(BENCH)]
    import auctionlearn
    if Path(auctionlearn.__file__).resolve().parent != SRC / "auctionlearn":
        print(f"error: imported auctionlearn from {auctionlearn.__file__}", file=sys.stderr)
        return 2
    import layers
    import probes
    import spans
    import workloads
    check_declared_layers(layers)

    study = workloads.SETUPS[args.workload](args.seed, out_dir)
    if args.trace:
        run = traced_run(study, args.seconds, sample_setup, spans)
    else:
        run = untraced_run(study, args.seconds, sample_setup)
    while len(setups) < MIN_SETUPS:
        sample_setup()

    mismatch = False
    if args.trace:
        probe_values = probes.run_probes(args.seed)
        thread_values, thread_jobs = probes.run_threads_probe(args.seed, out_dir)
        probe_values.update(thread_values)
        run["jobs"].extend(thread_jobs)
        mismatch = any(c != run["counts"][0] for c in run["counts"])
        metrics = layer_metrics(run, statistics.median(s[0] for s in setups), probe_values,
                                layers)
        print_probe_table(probe_values, probes.ROADMAP_BASELINES)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(run["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(s[1] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "unit": "MB"},
        }

    jobs = run["jobs"]
    failed = sum(j.error is not None for j in jobs)
    digests_agree = len(set(run["digests"])) == 1
    correct = failed == 0 and digests_agree and not mismatch
    record = run_record(args)
    record.update(warmup_wall_s=run["warmup_wall_s"], passes=len(run["walls"]),
                  pass_wall_s=run["walls"],
                  digest=run["digests"][0], digests_agree=digests_agree,
                  error_rate=failed / len(jobs),
                  refused=sum(j.refused for j in jobs),
                  errors=sorted({f"{j.label}: {j.error}" for j in jobs if j.error})[:10])
    if args.trace:
        record.update(traced_pass_wall_s=run["traced_walls"], counters_repeat=not mismatch,
                      counts=run["counts"][0])
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
