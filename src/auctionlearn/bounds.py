"""Generalization-bound algebra and Rademacher averages of split-sample spaces.

A Rademacher average is exact, over every sign vector, when 2^m <= draws,
and a Monte Carlo estimate over `draws` random sign vectors otherwise.
Bounds scale by the width H = k * beta of the revenue range [0, k * beta]
(a no-sale earns 0, and k items sell for at most beta each), as
H * sqrt(2 * log(tau(2m)) / m) with tau the per-class split-sample count
bound and log the natural logarithm; dividing by delta gives the Markov
high-probability variant.  Values above H are reported but flagged vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .erm import _REPLICATE_CELLS, ClassSpec, erm_block, in_class_optimum
from .errors import AuctionLearnError, DimensionMismatch
from .mechanisms import (TAG_ASP, TAG_PLAYER, TAG_SINGLE, _check_dims, revenue_matrix,
                         true_revenue_block)
from .model import (DEFAULT_RANGE, DistributionSpec, SampleSet, Seed, check_value_range,
                    sample_block)
from .splitsample import (DEFAULT_SUBSET_CEILING, SplitSampleSpace, split_sample_block,
                          theoretical_growth_bound)

_SIGN_CELLS = 2**14   # space rows x sign vectors per exact Rademacher product


def massart_bound(cardinality: int, m: int,
                  value_range: tuple[float, float] = DEFAULT_RANGE) -> float:
    """Finite-class Rademacher bound: (beta-alpha) * sqrt(2 ln(card) / m) for
    values in [alpha, beta]; revenues lie in ``revenue_range``."""
    if cardinality < 1 or m < 1:
        raise AuctionLearnError("cardinality and m must be >= 1")
    alpha, beta = check_value_range(value_range)
    return (beta - alpha) * math.sqrt(2.0 * math.log(cardinality) / m)


def revenue_range(k: int, value_range: tuple[float, float]) -> tuple[float, float]:
    """[0, k * beta], where every class's revenue on k items lies."""
    return 0.0, k * check_value_range(value_range)[1]


@dataclass(frozen=True)
class BoundReport:
    class_tag: str
    m: int
    n: int
    k: int
    s: int | None
    delta: float | None
    log_tau_2m: float
    expected_gap_bound: float
    high_prob_bound: float | None
    value_range: tuple[float, float]
    vacuous: bool

    def csv_row(self) -> list:
        return [self.class_tag, self.m, self.n, self.k,
                "" if self.s is None else self.s,
                "" if self.delta is None else repr(self.delta),
                repr(self.log_tau_2m), repr(self.expected_gap_bound),
                "" if self.high_prob_bound is None else repr(self.high_prob_bound),
                int(self.vacuous)]


def main_bound(spec: ClassSpec, m: int, n: int = 1, k: int = 1,
               delta: float | None = None,
               value_range: tuple[float, float] = DEFAULT_RANGE) -> BoundReport:
    """Expected-gap bound from the class's split-sample count bound at 2m."""
    if m < 1:
        raise AuctionLearnError("m must be >= 1")
    width = revenue_range(k, value_range)[1]
    log_tau = theoretical_growth_bound(spec, 2 * m, n, k).log
    bound = width * math.sqrt(2.0 * log_tau / m)
    hp = None
    if delta is not None:
        _check_delta(delta)
        hp = bound / delta
    headline = bound if hp is None else hp
    return BoundReport(spec.tag, m, n, k, spec.levels, delta, log_tau, bound, hp,
                       value_range, vacuous=headline > width)


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise AuctionLearnError("delta must lie strictly between 0 and 1")


def high_prob_bound(report: BoundReport, delta: float) -> float:
    """Markov step: the expected-gap bound divided by delta."""
    _check_delta(delta)
    return report.expected_gap_bound / delta


_FORMULAS = {
    TAG_SINGLE: "sqrt(2*log(2*m)/m)",
    TAG_ASP: "sqrt(2*log(2*n*m)/m)",
    TAG_PLAYER: "sqrt(2*n*log(2*m)/m)",
}


def bound_formula(spec: ClassSpec) -> str:
    """Canonical closed-form string of the expected-gap bound (unit range)."""
    return _FORMULAS.get(spec.tag, "sqrt(2*log_tau(2*m)/m)")


@dataclass(frozen=True)
class TLevelTuning:
    """Level-count choice balancing discretization loss against the bound."""

    epsilon: float
    levels: int
    overall_bound: float


def tlevel_epsilon(n: int, m: int) -> TLevelTuning:
    """Grid width epsilon = (2n ln(2m) / m)^(1/3), its level count, and the
    resulting overall bound 2 * epsilon."""
    if n < 1 or m < 1:
        raise AuctionLearnError("n and m must be >= 1")
    eps = (2.0 * n * math.log(2 * m) / m) ** (1.0 / 3.0)
    return TLevelTuning(eps, math.ceil(1.0 / eps), 2.0 * eps)


def sample_complexity_estimate(spec: ClassSpec, epsilon: float, n: int = 1, k: int = 1,
                               value_range: tuple[float, float] = DEFAULT_RANGE) -> int:
    """Smallest m whose expected-gap bound is <= epsilon.

    Doubling finds a feasible m; binary search then exploits that the bound
    is decreasing from m = 2 on.  epsilon at or above the m = 1 bound
    trivially returns 1; one the bound does not reach by m = 2^62 raises.
    """
    if not epsilon > 0:
        raise AuctionLearnError("epsilon must be positive")

    def bound(m: int) -> float:
        return main_bound(spec, m, n, k, value_range=value_range).expected_gap_bound

    if bound(1) <= epsilon:
        return 1
    hi = 2
    while bound(hi) > epsilon:
        hi *= 2
        if hi > 2**62:
            raise AuctionLearnError(f"epsilon {epsilon!r} is below the bound at every m up to 2^62")
    lo = max(2, hi // 2)
    if bound(lo) <= epsilon:
        return lo
    while hi - lo > 1:                 # invariant: bound(lo) > eps >= bound(hi)
        mid = (lo + hi) // 2
        if bound(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Rademacher complexity, exact or Monte Carlo


@dataclass(frozen=True)
class RademacherEstimate:
    estimate: float
    std_error: float         # 0.0 when exact
    draws: int               # sign vectors averaged: 2^m when exact
    set_size: int
    method: str              # "exact" | "monte-carlo"


def rademacher_estimate(S: SampleSet, hypotheses, draws: int,
                        seed: Seed) -> RademacherEstimate:
    """E_sigma[ sup_h (2/m) sum_t sigma_t r(h, z_t) ] over a split-sample
    space, whose parameter rows are scored directly, or over hypotheses of
    one class; repeating a hypothesis cannot change it.

    When 2^m <= draws the average over all 2^m sign vectors is exact, with
    no standard error, and `seed` is unused; otherwise it is estimated from
    `draws` random sign vectors.
    """
    if isinstance(hypotheses, SplitSampleSpace):
        dims = (hypotheses.base.n, hypotheses.base.k)
        if dims != (S.n, S.k):
            raise DimensionMismatch(f"a space on (n, k) = {dims} does not fit a sample "
                                    f"on {(S.n, S.k)}")
        specs, rows = {hypotheses.spec}, hypotheses.rows
    else:
        hyps = list(hypotheses)
        specs = {_check_dims(h, S.n, S.k) for h in hyps}
        rows = [h.param_vector() for h in hyps]
    if len(specs) != 1:
        raise AuctionLearnError(f"need hypotheses of one class, got {len(specs)} classes")
    return _rademacher(specs.pop(), rows, S.values, S.value_range[0], draws, seed)


def _rademacher(spec: ClassSpec, rows, values: np.ndarray, alpha: float, draws: int,
                seed: Seed) -> RademacherEstimate:
    """``rademacher_estimate`` of parameter rows on (m, n, k) values."""
    if draws < 2:
        raise AuctionLearnError("need at least 2 sign draws")
    m = len(values)
    if 2**m <= draws:
        exact = _exact_rademacher_block(spec, [np.asarray(rows, dtype=float)], values[None], alpha)
        return RademacherEstimate(float(exact[0]), 0.0, 2**m, len(rows), "exact")
    signs = seed.rng().integers(0, 2, size=(draws, m)).astype(float) * 2.0 - 1.0
    sups = (revenue_matrix(spec, rows, values, alpha) @ signs.T).max(axis=0) * (2.0 / m)
    return RademacherEstimate(float(sups.mean()),
                              float(sups.std(ddof=1) / math.sqrt(draws)),
                              draws, len(rows), "monte-carlo")


def _exact_rademacher_block(spec: ClassSpec, spaces, values: np.ndarray,
                            alpha: float) -> np.ndarray:
    """Exact Rademacher averages of spaces' parameter rows, each on its own
    sample of an (R, m, n, k) block: (2/m)(max - min) of the rows' revenues
    times each half sign vector, ``_SIGN_CELLS`` product cells a chunk, each
    space padded with copies of its last row, which cannot change a sup."""
    R, m = values.shape[:2]
    sizes = np.array([len(rows) for rows in spaces])
    flat, first = np.concatenate(spaces), np.cumsum(sizes) - sizes
    step = max(1, _SIGN_CELLS // (int(sizes.max()) << (m - 1)))
    out = np.empty(R)
    for at in range(0, R, step):
        size = sizes[at:at + step]
        c = int(size.max())
        rows = flat[(np.minimum(np.arange(c), size[:, None] - 1)
                     + first[at:at + step, None]).ravel()]
        block = values[at] if len(size) == 1 else np.repeat(values[at:at + step], c, axis=0)
        X = (revenue_matrix(spec, rows, block, alpha) @ _half_signs(m).T).reshape(len(size), c, -1)
        out[at:at + step] = ((X.max(axis=1) - X.min(axis=1)) / m).mean(axis=1)
    return out


@lru_cache(maxsize=4)      # 2^(m-1) x m floats: 1 MB at m = 14
def _half_signs(m: int) -> np.ndarray:
    """The 2^(m-1) sign vectors with sigma_1 = +1, one per row; negating
    them gives the other half, so one product scores a chunk of spaces."""
    bits = (np.arange(2 ** (m - 1))[:, None] >> np.arange(m - 1)) & 1
    signs = np.ones((len(bits), m))
    signs[:, 1:] = 1.0 - 2.0 * bits
    signs.setflags(write=False)
    return signs


# ---------------------------------------------------------------------------
# empirical check of the generalization chain
#   expected gap  <=  E[Rademacher of the pooled split-sample space]  <=  bound


@dataclass(frozen=True)
class ChainReport:
    class_tag: str
    m: int
    replicates: int
    optimum: float
    optimum_source: str
    gap_mean: float
    gap_se: float
    rademacher_mean: float
    rademacher_se: float
    enumerated_massart_mean: float
    theoretical_bound: float
    gap_below_rademacher: bool
    rademacher_below_bound: bool

    @property
    def chain_holds(self) -> bool:
        return self.gap_below_rademacher and self.rademacher_below_bound


def generalization_chain_check(spec: ClassSpec, dist: DistributionSpec, m: int,
                               replicates: int, sigma_draws: int, seed: Seed,
                               optimum: float | None = None,
                               eval_draws: int = 100_000,
                               subset_ceiling: int = DEFAULT_SUBSET_CEILING) -> ChainReport:
    """Estimate the two sides of the generalization chain by simulation.

    Per replicate: draw S and an independent twin S' of size m, measure the
    gap optimum - R_D(h_S), and take the Rademacher complexity of S against
    the split-sample space enumerated on the pooled 2m sample (exact when
    2^m <= sigma_draws, else a Monte Carlo estimate from sigma_draws sign
    vectors).  The report compares gap <= rademacher <= closed-form bound,
    each link slack by three combined standard errors across replicates.
    Replicates are drawn, learned and enumerated in blocks (``sample_block``,
    ``erm_block``, ``split_sample_block``) and exact Rademacher averages
    scored (``_exact_rademacher_block``), with the bits of one at a time.

    When no optimum is supplied it is resolved analytically where possible,
    otherwise through the dense-grid common-draws estimator (whose Monte
    Carlo bias is inherited by the gap estimate).
    """
    if replicates < 2:
        raise AuctionLearnError("need at least 2 replicates")
    if sigma_draws < 2:
        raise AuctionLearnError("need at least 2 sign draws")
    bound = main_bound(spec, m, dist.n, dist.k,
                       value_range=dist.value_range).expected_gap_bound
    if optimum is not None:
        source = "provided"
    else:
        est = in_class_optimum(spec, dist, method="auto", seed=seed.child("chain-opt"))
        optimum, source = est.value, est.method

    gaps = np.empty(replicates)
    rads = np.empty(replicates)
    massarts = np.empty(replicates)
    step = max(1, _REPLICATE_CELLS // (2 * m * dist.n * dist.k))
    for start in range(0, replicates, step):
        index = range(start, min(start + step, replicates))
        S, twin = (sample_block(dist, m, seed.child_masters(label, index))
                   for label in ("chain-S", "chain-S-twin"))
        learned = erm_block(spec, S, dist.value_range)
        spaces = split_sample_block(spec, np.concatenate([S, twin], axis=1), dist.value_range,
                                    subset_ceiling)
        per_size = {c: massart_bound(c, m, revenue_range(dist.k, dist.value_range))
                    for c in set(map(len, spaces))}
        massarts[index] = [per_size[len(rows)] for rows in spaces]
        if 2**m <= sigma_draws:
            rads[index] = _exact_rademacher_block(spec, spaces, S, dist.value_range[0])
        else:
            rads[index] = [_rademacher(spec, rows, values, dist.value_range[0], sigma_draws,
                                       seed.child("chain-sigma", j)).estimate
                           for j, values, rows in zip(index, S, spaces)]
        gaps[index] = optimum - true_revenue_block(spec, learned, dist, "auto", eval_draws, seed,
                                                   "chain-eval", index)

    gap_mean = float(gaps.mean())
    gap_se = float(gaps.std(ddof=1) / math.sqrt(replicates))
    rad_mean = float(rads.mean())
    rad_se = float(rads.std(ddof=1) / math.sqrt(replicates))
    link1 = gap_mean <= rad_mean + 3.0 * math.hypot(gap_se, rad_se)
    link2 = rad_mean <= bound + 3.0 * rad_se
    return ChainReport(spec.tag, m, replicates, optimum, source,
                       gap_mean, gap_se, rad_mean, rad_se,
                       float(massarts.mean()), bound, link1, link2)
