"""Baseline probes for the traced run, timed untraced through public calls.

They reproduce the figures of ROADMAP item 1 so that its table can be
refilled from this one command, and time the criterion-6 CLI study at one
and two worker threads.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import auctionlearn as al

import workloads
from layers import PROBE_SPLIT

# ROADMAP item 1's baselines (2 cores, numpy 2.4.6), in each metric's unit
ROADMAP_BASELINES = {
    "probe.split_us_per_subset.m16.single-reserve": 1.7,
    "probe.split_us_per_subset.m16.anonymous-second-price": 33.0,
    "probe.split_us_per_subset.m16.player-reserves": 69.0,
    "probe.split_us_per_subset.m16.t-level": 267.0,
    "probe.split_us_per_subset.m12.best-of": 655.0,
    "probe.erm_ms.single-reserve.m2000": 80.0,
    "probe.erm_ms.t-level-s2.m30": 1500.0,
    "experiments.threads1_wall_s": 2.7,
}
ERM_REPEATS = 5


def _spec(tag: str) -> al.ClassSpec:
    return al.ClassSpec(tag, levels=1) if tag == "t-level" else al.ClassSpec(tag)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def run_probes(seed: int) -> dict[str, float]:
    root = al.Seed(seed).child("probes")
    out = {}
    for tag, m in PROBE_SPLIT:
        dist = workloads.U01 if tag == "single-reserve" else workloads.U01_PAIR
        S = al.sample_values(dist, m, root.child("split", m).child(tag))
        seconds, space = _timed(lambda: al.split_sample_space(_spec(tag), S, "exact"))
        out[f"probe.split_us_per_subset.m{m}.{tag}"] = 1e6 * seconds / space.subsets_examined

    S = al.sample_values(workloads.U01, 2000, root.child("erm-single"))
    spec = al.ClassSpec("single-reserve")
    out["probe.erm_ms.single-reserve.m2000"] = 1e3 * statistics.median(
        _timed(lambda: al.erm(spec, S))[0] for _ in range(ERM_REPEATS))

    S = al.sample_values(workloads.U01_PAIR, 30, root.child("erm-tlevel"))
    out["probe.erm_ms.t-level-s2.m30"] = 1e3 * _timed(
        lambda: al.erm(al.ClassSpec("t-level", levels=2), S))[0]
    return out


def run_threads_probe(seed: int, out_dir: Path) -> tuple[dict[str, float], list]:
    """The cli-experiment study at --threads 1 and 2: walls, speedup, and jobs.

    The two runs must write byte-identical files; a mismatch fails the second job.
    """
    walls, jobs = {}, []
    for threads in (1, 2):
        sub = out_dir / f"threads{threads}"
        sub.mkdir(parents=True, exist_ok=True)
        study = workloads.setup_cli_experiment(seed, sub, threads)
        seconds, outcomes = _timed(study.run)
        walls[threads] = seconds
        jobs.extend(study.check(outcomes))
    if jobs[0].error is None and jobs[1].error is None and jobs[0].digest != jobs[1].digest:
        jobs[1] = workloads.Job(jobs[1].label, jobs[1].digest,
                                "outputs differ between --threads 1 and --threads 2")
    return {"experiments.threads1_wall_s": walls[1],
            "experiments.threads2_wall_s": walls[2],
            "experiments.threads2_speedup": walls[1] / walls[2]}, jobs
