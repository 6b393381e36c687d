"""End-to-end generalization experiments: sample -> ERM -> true revenue -> gap.

Each configuration runs seeded replicates per sample size, measures how far
the learned mechanism's expected revenue falls short of the in-class optimum,
and attaches the closed-form bound plus the fraction of replicates violating
the Markov high-probability variant.  Re-running with the same master seed
reproduces every row bit-exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .bounds import main_bound, sample_complexity_estimate
from .erm import (CELLS, DEFAULT_CANDIDATE_CEILING, _candidate_rows, _count, _factors,
                  _near_max, erm)
from .errors import AnalyticUnsupported, AuctionLearnError, CeilingExceeded
from .mechanisms import (TAG_BEST, TAG_BUNDLE, TAG_PLAYER, TAG_TLEVEL, ClassSpec, Discrete,
                         Uniform, _posted_marginals, check_class_dims, reserve_revenue,
                         top_two, true_revenue)
from .model import DistributionSpec, Seed, sample_values

_GRID_BUDGET = 2 * 10**8  # candidate rows x draws ceiling for joint grid optima


# ---------------------------------------------------------------------------
# in-class optimum


@dataclass(frozen=True)
class OptimumEstimate:
    value: float
    std_error: float | None
    method: str  # "analytic" | "grid-mc"


def _posted_optimum(marginal) -> float:
    """sup_r r * P(v >= r) for one marginal."""
    if isinstance(marginal, Uniform):
        a, b = marginal.low, marginal.high
        r = max(a, b / 2.0)
        return r * marginal.survival(r)
    if isinstance(marginal, Discrete):
        return max(float(x) * marginal.survival(float(x)) for x in marginal.points)
    raise AnalyticUnsupported(
        f"no closed-form posted-price optimum under {type(marginal).__name__}"
    )


def _analytic_optimum(spec: ClassSpec, dist: DistributionSpec) -> float:
    if dist.n != 1:
        raise AnalyticUnsupported("closed-form optima cover single-bidder specs only")
    marginals = _posted_marginals(spec.tag, dist, "no closed-form optimum for {}")
    return sum(map(_posted_optimum, marginals))


def _price_grid(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(round((hi - lo) / step))
    return lo + np.arange(count + 1) * step


def _grid_curve(grid: np.ndarray, revenue_rows, draws: int, row_cells: int) -> np.ndarray:
    """Mean over the draws of each grid row's revenue.

    Rows are scored in chunks of at most ``CELLS`` cells (row_cells per
    row), and each chunk's revenue array is reduced before the next one is
    built; reserve grids send only their near-max points, all of them only
    when they tie.
    """
    out = np.empty(len(grid))
    chunk = max(1, CELLS // max(1, row_cells))
    for start in range(0, len(grid), chunk):
        out[start:start + chunk] = revenue_rows(grid[start:start + chunk]).sum(axis=1)
    return out / draws


def _reserve_grid_max(grid: np.ndarray, columns: np.ndarray, alpha: float, lazy: bool):
    """Best grid reserve for one item's (draws, n) values: one anonymous
    reserve, or each bidder's best lazy reserve on the draws it wins.  Every
    r is ranked by r*#{s < r <= t} + sum{s >= r} s on draws (t, s), and only
    ``_near_max``'s points are summed exactly, in draw order (bit-exact)."""
    w, top, second = top_two(columns, alpha)

    def best(t, s):
        ss = np.sort(s)
        below = np.searchsorted(ss, grid)
        above = np.append(np.cumsum(ss[::-1])[::-1], 0.0)[below]
        kept = _near_max(grid * (below - np.searchsorted(np.sort(t), grid)) + above, len(t))
        return _grid_curve(grid[kept], lambda g: reserve_revenue(g[:, None], t, s),
                           len(columns), len(t)).max()

    groups = [w == i for i in range(columns.shape[1])] if lazy else [slice(None)]
    return sum(best(top[g], second[g]) for g in groups)


def _grid_optimum(spec: ClassSpec, dist: DistributionSpec, grid_step: float,
                  draws: int, seed: Seed) -> OptimumEstimate:
    """Max over a parameter grid of mean revenue on one shared draw set.

    Reserve-rule classes (and t-level at n = 1, a posted price on its lowest
    threshold) take each item's best grid reserve separately.  Multi-bidder
    t-level and best-of score the grid product as ERM scores its candidate
    product, with the grid as every coordinate's pool.  Common random numbers
    across the grid keep the comparison low-variance; the reported value
    inherits the usual upward selection bias of a max of correlated means.
    """
    n, k, tag = dist.n, dist.k, spec.tag
    check_class_dims(spec, n, k)
    alpha, beta = dist.value_range
    grid = _price_grid(alpha, beta, grid_step)
    bundle_grid = _price_grid(k * alpha, k * beta, grid_step)
    if tag == TAG_BEST and (k != 1 or spec.per_player):
        raise AnalyticUnsupported("joint grid optimum for best-of is limited to anonymous "
                                  "k = 1; the branch classes cover multi-item grids separably")
    joint = tag == TAG_BEST or (tag == TAG_TLEVEL and n > 1)
    pools = [grid] * n if tag == TAG_TLEVEL else [bundle_grid, grid]
    if joint and _count(spec, pools) * draws > _GRID_BUDGET:
        raise CeilingExceeded(f"{spec.describe()} grid optimum over budget; "
                              "increase grid_step or lower draws")
    values = sample_values(dist, draws, seed).values
    lazy = spec.per_bidder
    if joint:
        rows = _candidate_rows(spec, _factors(spec, pools), values, alpha)
        value = max(R.sum(axis=1).max() for _, R in rows) / draws
    elif tag == TAG_BUNDLE:
        value = _reserve_grid_max(bundle_grid, np.sum(values, axis=2), alpha, lazy)
    else:
        value = sum(_reserve_grid_max(grid, values[:, :, j], alpha, lazy) for j in range(k))
    return OptimumEstimate(float(value), None, "grid-mc")


def in_class_optimum(spec: ClassSpec, dist: DistributionSpec, method: str = "auto",
                     grid_step: float = 1e-3, draws: int = 10**6,
                     seed: Seed = Seed(0)) -> OptimumEstimate:
    """sup over the class of expected revenue under the spec.

    'analytic' covers single-bidder posted-price shapes under uniform or
    discrete marginals; 'grid' maximizes over a parameter grid evaluated on
    shared Monte Carlo draws; 'auto' prefers analytic and falls back.
    """
    if method not in ("auto", "analytic", "grid"):
        raise ValueError(f"unknown method {method!r}")
    if method != "analytic" and not (math.isfinite(grid_step) and grid_step > 0):
        raise AuctionLearnError(f"grid_step must be a finite number > 0, got {grid_step!r}")
    if method in ("auto", "analytic"):
        try:
            return OptimumEstimate(_analytic_optimum(spec, dist), None, "analytic")
        except AnalyticUnsupported:
            if method == "analytic":
                raise
    return _grid_optimum(spec, dist, grid_step, draws, seed)


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


def _replicate_revenue(config: ExperimentConfig, m: int, index: int) -> float:
    S = sample_values(config.dist, m, config.seed.child(f"exp-sample-m{m}", index))
    h = erm(config.class_spec, S, config.candidate_ceiling)
    # a closed form draws nothing, so an analytic run derives no evaluation seeds
    seed = config.seed if config.eval_method == "analytic" else \
        config.seed.child(f"exp-eval-m{m}", index)
    return true_revenue(h, config.dist, config.eval_method, config.eval_draws, seed).value


def generalization_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """One row per m: mean learned revenue, gap to the optimum, and bounds."""
    spec = config.class_spec
    dist = config.dist
    if config.optimum_override is not None:
        opt = OptimumEstimate(config.optimum_override, None, "provided")
    else:
        opt = in_class_optimum(spec, dist, "auto", config.optimum_grid_step,
                               config.optimum_draws, config.seed.child("optimum"))
    fp = config_fingerprint(config)
    rows = []
    for m in config.m_grid:
        revs = np.fromiter((_replicate_revenue(config, m, i) for i in range(config.replicates)),
                           dtype=float, count=config.replicates)
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
    measured gap is already within eps."""
    rows = generalization_experiment(config)
    curve = []
    for eps in eps_grid:
        m_bound = sample_complexity_estimate(config.class_spec, eps,
                                             config.dist.n, config.dist.k,
                                             config.dist.value_range)
        hit = [r.m for r in rows if r.gap <= eps]
        curve.append(CurveRow(float(eps), m_bound, min(hit) if hit else None))
    return rows, curve


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
