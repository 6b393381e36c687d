"""Split-sample hypothesis spaces, growth-rate estimates, and count bounds.

The split-sample space of a sample S collects the distinct ERM outputs over
all subsets of S of size ceil(|S|/2).  Its largest possible cardinality over
samples of a given size (the split-sample growth rate) is what the
generalization bounds consume; the true supremum is not computable, so
``growth_rate_estimate`` reports an observed maximum over sampled S next to
the closed-form per-class bound, never conflating the two.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .erm import DEFAULT_CANDIDATE_CEILING, _check_ceiling, _posted_means, subset_winners
from .errors import AuctionLearnError, CeilingExceeded
from .mechanisms import (TAG_SINGLE, ClassSpec, Hypothesis, SingleReserve, _param_width,
                         check_class_dims, hypothesis_from_params)
from .model import DistributionSpec, SampleSet, Seed, sample_values

DEFAULT_SUBSET_CEILING = 10**6


@dataclass(frozen=True)
class SplitSampleSpace:
    """Distinct ERM outputs over examined half-size subsets of one sample."""

    base: SampleSet
    subset_size: int
    hypotheses: tuple[Hypothesis, ...]   # deduplicated, canonically sorted
    mode: str                            # "exact" | "monte-carlo"
    subsets_examined: int

    def __len__(self) -> int:
        return len(self.hypotheses)


def split_sample_space(spec: ClassSpec, S: SampleSet, mode: str = "exact",
                       trials: int | None = None, seed: Seed | None = None,
                       subset_ceiling: int = DEFAULT_SUBSET_CEILING,
                       candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING) -> SplitSampleSpace:
    """Enumerate ERM outputs over subsets of size ceil(m/2).

    Exact mode walks all C(m, ceil(m/2)) subsets in lexicographic index
    order; monte-carlo mode samples `trials` subsets uniformly (its distinct
    set is always a subset of the exact one).  Every subset's ERM output
    is scored in bulk from revenue rows built once on the full sample, and
    `candidate_ceiling` bounds the rows scored, as in ``erm``: the candidate
    product of a joint class, the longest coordinate pool of a separable one.
    """
    check_class_dims(spec, S.n, S.k)
    m = S.m
    size = math.ceil(m / 2)
    total = math.comb(m, size)

    if mode == "exact":
        if total > subset_ceiling:
            raise CeilingExceeded(
                f"exact mode needs {total} subsets, over the ceiling {subset_ceiling}"
            )
        if spec.tag == TAG_SINGLE:
            _check_ceiling(spec, [np.unique(S.values)], candidate_ceiling)   # as erm counts
            hyps = _single_reserve_exact(S, size)
            return SplitSampleSpace(S, size, hyps, "exact", total)
        subsets = _combo_indices(m, size)
    elif mode == "monte-carlo":
        if trials is None or trials < 1 or seed is None:
            raise AuctionLearnError("monte-carlo mode needs trials >= 1 and a seed")
        rng = seed.rng()
        subsets = np.array([np.sort(rng.choice(m, size=size, replace=False))
                            for _ in range(trials)], dtype=np.intp)
    else:
        raise AuctionLearnError(f"unknown mode {mode!r}")

    rows = subset_winners(spec, S.values, S.value_range, subsets, candidate_ceiling)
    hyps = tuple(hypothesis_from_params(spec, row, S.n, S.k) for row in rows)
    return SplitSampleSpace(S, size, hyps, mode, len(subsets))


@lru_cache(maxsize=4)      # one array is C(m, size) x size indices: 62 MB at m = 22
def _combo_indices(m: int, size: int) -> np.ndarray:
    combos = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(m), size)), dtype=np.intp)
    combos = combos.reshape(-1, size)
    combos.setflags(write=False)
    return combos


def _single_reserve_exact(S: SampleSet, size: int) -> tuple[Hypothesis, ...]:
    """Vectorized exact enumeration for the posted-price class.

    Subsets are taken as index combinations into the ascending-sorted value
    vector, so each subset row is already sorted.  Posting a subset's j-th
    smallest value earns what posting that pool value at rank j earns: j
    no-sales, then the price on the (size - j) values from it up (of equal
    values only the first rank sells to them all, and the later ranks never
    score more).  One (pool x rank) table of ``_posted_means`` scores every
    subset by a gather, and the last argmax over ranks, carried with
    ``>=``, is the largest of the tied prices, as in ``erm``.
    """
    pool = np.sort(S.values[:, 0, 0])
    combos = _combo_indices(S.m, size)
    ranks = np.arange(size)
    table = _posted_means(np.repeat(pool, size), np.tile(ranks, S.m), size).reshape(S.m, size)
    best_rev = np.full(len(combos), -np.inf)
    winner = np.zeros(len(combos), dtype=np.intp)
    for j in ranks:
        col = combos[:, j]
        rev = table[col, j]
        better = rev >= best_rev
        best_rev = np.maximum(rev, best_rev)
        winner[better] = col[better]
    return tuple(SingleReserve(float(r)) for r in np.unique(pool[winner]))


# ---------------------------------------------------------------------------
# growth rate


@dataclass(frozen=True)
class GrowthBound:
    """Closed-form candidate-count bound, as an exact integer plus its log."""

    count: int
    log: float


def theoretical_growth_bound(spec: ClassSpec, m: int, n: int = 1, k: int = 1) -> GrowthBound:
    """Bound on the split-sample space cardinality at sample size m: ERM
    picks each parameter from the sample's values, a per-bidder one from that
    bidder's m and a shared one from all n*m, so points ** (parameter count)."""
    if m < 1 or n < 1 or k < 1:
        raise AuctionLearnError("m, n, k must be positive")
    check_class_dims(spec, n, k)
    width = _param_width(spec, n, k)
    points = m if spec.per_bidder else n * m
    return GrowthBound(points**width, width * math.log(points))


@dataclass(frozen=True)
class GrowthEstimate:
    """Observed max |split-sample space| over sampled S, next to the bound."""

    class_tag: str
    m: int
    n: int
    k: int
    s: int | None
    draws: int
    observed_max: int
    bound: GrowthBound


def growth_rate_estimate(spec: ClassSpec, m: int, dist: DistributionSpec,
                         draws: int, seed: Seed,
                         subset_ceiling: int = DEFAULT_SUBSET_CEILING) -> GrowthEstimate:
    """Max |split-sample space| over `draws` independent samples of size m.

    A lower-confidence stand-in for the supremum over all S; the closed-form
    bound is reported alongside.
    """
    if draws < 1:
        raise AuctionLearnError("draws must be >= 1")
    observed = 0
    for i in range(draws):
        S = sample_values(dist, m, seed.child("growth-draw", i))
        space = split_sample_space(spec, S, "exact", subset_ceiling=subset_ceiling)
        observed = max(observed, len(space))
    bound = theoretical_growth_bound(spec, m, dist.n, dist.k)
    return GrowthEstimate(spec.tag, m, dist.n, dist.k, spec.levels, draws, observed, bound)


def growth_csv_row(est: GrowthEstimate) -> list:
    return [est.class_tag, est.m, est.n, est.k,
            "" if est.s is None else est.s,
            est.draws, est.observed_max, repr(est.bound.log)]
