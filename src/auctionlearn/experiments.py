"""End-to-end generalization experiments: sample -> ERM -> true revenue -> gap.

Each configuration runs seeded replicates per sample size, measures how far
the learned mechanism's expected revenue falls short of the in-class optimum
(``erm.in_class_optimum``), and attaches the closed-form bound plus the
fraction of replicates violating the Markov high-probability variant.
Re-running with the same master seed reproduces every row bit-exactly.  This
module holds only the harness, its result rows, curves and writers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .bounds import main_bound, sample_complexity_estimate
from .erm import (_REPLICATE_CELLS, DEFAULT_CANDIDATE_CEILING, OptimumEstimate, erm_block,
                  in_class_optimum)
from .errors import AuctionLearnError
from .mechanisms import TAG_BEST, TAG_PLAYER, ClassSpec, true_revenue_block
from .model import DistributionSpec, Seed, sample_block


# ---------------------------------------------------------------------------
# experiment harness


@dataclass(frozen=True)
class ExperimentConfig:
    class_spec: ClassSpec
    dist: DistributionSpec
    m_grid: tuple[int, ...]
    replicates: int = 1000
    delta: float = 0.1
    seed: Seed = Seed(0)
    eval_draws: int = 100_000
    eval_method: str = "auto"       # "auto" | "analytic" | "monte-carlo"
    candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING
    optimum_grid_step: float = 1e-3
    optimum_draws: int = 10**6
    optimum_override: float | None = None   # for classes with no feasible estimator

    def __post_init__(self):
        if self.replicates < 2:
            raise AuctionLearnError("replicates must be >= 2 for a standard error")
        if not 0.0 < self.delta < 1.0:
            raise AuctionLearnError("delta must lie strictly between 0 and 1")
        if not self.m_grid or any(m < 1 for m in self.m_grid):
            raise AuctionLearnError("m_grid needs at least one sample size, each >= 1")
        if self.eval_method not in ("auto", "analytic", "monte-carlo"):
            raise AuctionLearnError(f"unknown eval_method {self.eval_method!r}")
        if not (math.isfinite(self.optimum_grid_step) and self.optimum_grid_step > 0):
            raise AuctionLearnError("optimum_grid_step must be a finite number > 0")
        if self.optimum_draws < 1:
            raise AuctionLearnError("optimum_draws must be >= 1")
        if self.eval_draws < 2 and self.eval_method != "analytic":
            raise AuctionLearnError("eval_draws must be >= 2 for a Monte Carlo evaluation")

    def canonical_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["class"] = asdict(d.pop("class_spec"))
        d.update(dist=self.dist.to_dict(), m_grid=list(self.m_grid), seed=self.seed.master)
        return d


def config_fingerprint(config: ExperimentConfig) -> str:
    blob = json.dumps(config.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def benchmark_note(spec: ClassSpec, n: int) -> str:
    """Informational approximation constants against the best truthful
    mechanism; no oracle exists for that supremum, so nothing is asserted."""
    if spec.tag == TAG_PLAYER and n >= 2:
        return ("player-specific reserves capture >= 1/2 of the optimal "
                "truthful revenue (informational)")
    if spec.tag == TAG_BEST and n == 1:
        return ("best of bundle/item pricing is reported as both a 1/8 and a "
                "1/6 approximation of the optimal truthful revenue "
                "(informational)")
    return ""


@dataclass(frozen=True)
class ExperimentRow:
    class_tag: str
    m: int
    n: int
    k: int
    s: int | None
    replicates: int
    mean_revenue: float
    std_error: float
    optimum: float
    gap: float
    bound: float
    delta: float
    hp_violation_fraction: float
    fingerprint: str
    benchmark_note: str = ""

    def as_dict(self) -> dict:
        return _row_dict(self)


def _column(name: str) -> str:
    return "class" if name == "class_tag" else name


def _row_dict(row) -> dict:
    """A result row's fields in field order, ``class_tag`` written as ``class``."""
    return {_column(f.name): getattr(row, f.name) for f in fields(row)}


def _replicate_revenues(config: ExperimentConfig, m: int) -> np.ndarray:
    """Learned revenue of each replicate at size m: drawn, learned and
    evaluated (``true_revenue_block``; replicate i's Monte Carlo draws, if
    any, from its "exp-eval" seed) in blocks of about ``_REPLICATE_CELLS`` values."""
    dist, revs = config.dist, np.empty(config.replicates)
    step = max(1, _REPLICATE_CELLS // (m * dist.n * dist.k))
    for start in range(0, config.replicates, step):
        index = range(start, min(start + step, config.replicates))
        values = sample_block(dist, m, config.seed.child_masters(f"exp-sample-m{m}", index))
        rows = erm_block(config.class_spec, values, dist.value_range, config.candidate_ceiling)
        revs[index] = true_revenue_block(config.class_spec, rows, dist, config.eval_method,
                                         config.eval_draws, config.seed, f"exp-eval-m{m}", index)
    return revs


def generalization_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """One row per m: mean learned revenue, gap to the optimum, and bounds."""
    spec = config.class_spec
    dist = config.dist
    # revenues first: a run whose evaluation fails does not pay for the optimum
    learned = [(m, _replicate_revenues(config, m)) for m in config.m_grid]
    if config.optimum_override is not None:
        opt = OptimumEstimate(config.optimum_override, None, "provided")
    else:
        opt = in_class_optimum(spec, dist, "auto", config.optimum_grid_step,
                               config.optimum_draws, config.seed.child("optimum"))
    fp = config_fingerprint(config)
    rows = []
    for m, revs in learned:
        report = main_bound(spec, m, dist.n, dist.k, delta=config.delta,
                            value_range=dist.value_range)
        mean_rev = float(revs.mean())
        se = float(revs.std(ddof=1) / math.sqrt(config.replicates))
        viol = float(np.mean((opt.value - revs) > report.high_prob_bound))
        rows.append(ExperimentRow(
            spec.tag, m, dist.n, dist.k, spec.levels, config.replicates,
            mean_rev, se, opt.value, opt.value - mean_rev,
            report.expected_gap_bound, config.delta, viol, fp,
            benchmark_note(spec, dist.n)))
    return rows


@dataclass(frozen=True)
class CurveRow:
    epsilon: float
    m_bound: int
    m_empirical: int | None

    def as_dict(self) -> dict:
        return _row_dict(self)


def sample_complexity_curve(config: ExperimentConfig,
                            eps_grid) -> tuple[list[ExperimentRow], list[CurveRow]]:
    """Bound-implied m(eps) next to the smallest experiment-grid m whose
    measured gap is already within eps.  The bound's m's come first, so an
    eps the bound refuses costs no replicates."""
    dist = config.dist
    m_bounds = [(eps, sample_complexity_estimate(config.class_spec, eps, dist.n, dist.k,
                                                 dist.value_range)) for eps in eps_grid]
    rows = generalization_experiment(config)
    return rows, [CurveRow(float(eps), m_bound, min((r.m for r in rows if r.gap <= eps),
                                                    default=None)) for eps, m_bound in m_bounds]


# ---------------------------------------------------------------------------
# output writers (full-precision floats; deterministic bytes)


_CSV_FIELDS = [_column(f.name) for f in fields(ExperimentRow)]


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_rows_csv(rows: list[ExperimentRow], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for r in rows:
            d = r.as_dict()
            writer.writerow([_cell(d[f]) for f in _CSV_FIELDS])


def write_rows_jsonl(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps(r.as_dict(), sort_keys=True) + "\n")


def write_gap_svg(rows: list[ExperimentRow], path: str,
                  width: int = 640, height: int = 400) -> None:
    """Minimal line chart of measured gap and bound against m."""
    pad = 50
    ms = [r.m for r in rows]
    lo_m, hi_m = min(ms), max(ms)
    top = max(max(r.bound for r in rows), max(r.gap for r in rows)) * 1.05 or 1.0

    def x(m):
        if hi_m == lo_m:
            return pad + (width - 2 * pad) / 2
        return pad + (m - lo_m) / (hi_m - lo_m) * (width - 2 * pad)

    def y(v):
        return height - pad - (v / top) * (height - 2 * pad)

    def polyline(points, color):
        pts = " ".join(f"{x(m):.2f},{y(v):.2f}" for m, v in points)
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        polyline([(r.m, r.gap) for r in rows], "#c0392b"),
        polyline([(r.m, r.bound) for r in rows], "#2980b9"),
        f'<text x="{width - pad}" y="{height - pad + 30}" text-anchor="end" font-size="12">m</text>',
        f'<text x="{pad + 8}" y="{pad + 4}" font-size="12" fill="#2980b9">bound</text>',
        f'<text x="{pad + 8}" y="{pad + 20}" font-size="12" fill="#c0392b">measured gap</text>',
    ]
    for r in rows:
        parts.append(f'<text x="{x(r.m):.2f}" y="{height - pad + 16}" '
                     f'text-anchor="middle" font-size="10">{r.m}</text>')
    parts.append(f'<text x="{pad - 6}" y="{y(top / 1.05):.2f}" text-anchor="end" '
                 f'font-size="10">{top / 1.05:.4g}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
