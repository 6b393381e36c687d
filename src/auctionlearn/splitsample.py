"""Split-sample hypothesis spaces, growth-rate estimates, and count bounds.

The split-sample space of a sample S collects the distinct ERM outputs over
all subsets of S of size ceil(|S|/2).  Its largest possible cardinality over
samples of a given size (the split-sample growth rate) is what the
generalization bounds consume; the true supremum is not computable, so
``growth_rate_estimate`` reports an observed maximum over sampled S next to
the closed-form per-class bound, never conflating the two.

A posted price's space is the ERM prices of its few dominating subsets
(``_posted_subsets``), learned on their gathered values; every other class
scores all its subsets, from revenue rows built once on the whole sample
where that pays and else gathered as a posted price's.  Either way
``erm.subset_winners`` decides each subset by one ``erm._shortlist``.
``split_sample_block`` enumerates the exact spaces of a block of samples,
and ``split_sample_space`` is its one-sample case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .erm import _REPLICATE_CELLS, DEFAULT_CANDIDATE_CEILING, subset_winners
from .errors import AuctionLearnError, CeilingExceeded
from .mechanisms import (TAG_SINGLE, ClassSpec, Hypothesis, _param_width, check_class_dims,
                         hypotheses_from_params)
from .model import DistributionSpec, SampleSet, Seed, _fields_equal, sample_block

DEFAULT_SUBSET_CEILING = 10**6


@dataclass(frozen=True)
class SplitSampleSpace:
    """Distinct ERM outputs over examined half-size subsets of one sample, as
    the class's parameter rows; ``hypotheses`` builds them on first access."""

    base: SampleSet
    spec: ClassSpec
    subset_size: int
    rows: np.ndarray         # (C, P) distinct ERM parameter rows, ascending, read-only
    mode: str                # "exact" | "monte-carlo"
    subsets_examined: int    # subsets whose ERM outputs the space covers

    __eq__ = _fields_equal

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def hypotheses(self) -> tuple[Hypothesis, ...]:
        return tuple(hypotheses_from_params(self.spec, self.rows, self.base.n, self.base.k))


def split_sample_space(spec: ClassSpec, S: SampleSet, mode: str = "exact",
                       trials: int | None = None, seed: Seed | None = None,
                       subset_ceiling: int = DEFAULT_SUBSET_CEILING,
                       candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING) -> SplitSampleSpace:
    """Enumerate ERM outputs over subsets of size ceil(m/2).

    Exact mode is ``split_sample_block`` on the one sample and covers all
    C(m, ceil(m/2)) subsets, which `subsets_examined` reports.  Monte-carlo
    mode samples `trials` subsets uniformly (its distinct set is always a
    subset of the exact one).  `subset_ceiling` bounds the subsets of either
    mode before any is drawn; `candidate_ceiling` bounds the rows scored, as
    in ``erm``, counted on the whole sample.
    """
    check_class_dims(spec, S.n, S.k)
    m = S.m
    size = math.ceil(m / 2)
    if mode == "exact":
        rows = split_sample_block(spec, S.values[None], S.value_range, subset_ceiling,
                                  candidate_ceiling)[0]
    elif mode == "monte-carlo":
        if trials is None or trials < 1 or seed is None:
            raise AuctionLearnError("monte-carlo mode needs trials >= 1 and a seed")
        if trials > subset_ceiling:
            raise CeilingExceeded(f"monte-carlo mode draws {trials} subsets, over the "
                                  f"ceiling {subset_ceiling}")
        rng = seed.rng()
        subsets = np.array([np.sort(rng.choice(m, size=size, replace=False))
                            for _ in range(trials)], dtype=np.intp)
        rows = subset_winners(spec, S.values[None], S.value_range, subsets, candidate_ceiling)[0]
    else:
        raise AuctionLearnError(f"unknown mode {mode!r}")
    rows.setflags(write=False)
    return SplitSampleSpace(S, spec, size, rows, mode,
                            math.comb(m, size) if mode == "exact" else trials)


def split_sample_block(spec: ClassSpec, values: np.ndarray, value_range: tuple[float, float],
                       subset_ceiling: int = DEFAULT_SUBSET_CEILING,
                       candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING) -> list[np.ndarray]:
    """The exact split-sample space's rows of each sample of an (R, m, n, k)
    block of checked values: a posted price's over its ``_posted_subsets``
    of the sorted sample, any other class's over all C(m, ceil(m/2))."""
    _, m, n, k = values.shape
    check_class_dims(spec, n, k)
    size = math.ceil(m / 2)
    total = math.comb(m, size)
    if total > subset_ceiling:
        raise CeilingExceeded(f"exact mode needs {total} subsets, over the ceiling "
                              f"{subset_ceiling}")
    if spec.tag == TAG_SINGLE:
        return subset_winners(spec, np.sort(values, axis=1), value_range,
                              _posted_subsets(m, size), candidate_ceiling)
    return subset_winners(spec, values, value_range, _combo_indices(m, size), candidate_ceiling)


@lru_cache(maxsize=4)      # one array is C(m, size) x size indices: 62 MB at m = 22
def _combo_indices(m: int, size: int) -> np.ndarray:
    combos = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(m), size)), dtype=np.intp)
    combos = combos.reshape(-1, size)
    combos.setflags(write=False)
    return combos


@lru_cache(maxsize=4)
def _posted_subsets(m: int, size: int) -> np.ndarray:
    """Subsets, as positions in ascending value order, whose posted-price
    ERM outputs are those of all C(m, size): the b smallest values, then the
    size - b from position i on, for every 0 <= b <= min(i, size - 1) (b = i
    repeats the first subset, so only i = 0 keeps it).

    If price u wins a subset A holding b values below u, it wins the subset
    D of (i = u's first position, b): u has b no-sales in both, and each
    rival in D is matched in A by one at least as large with no more
    no-sales: the one with f values below it in D's prefix by A's (f+1)-th
    value below u, the j-th above u in D's window (c copies of u, A has c_A)
    by A's (j + c - c_A)-th above u.  The sorted mean of a posted price's
    revenue row (its no-sales first, then the price on every other profile)
    is nondecreasing in the price and nonincreasing in no-sales (rounding is
    monotone), and ties go to the larger price, so u beats them all.  Each D is a half-size
    subset, so its winner, scored by the same sorted mean, is in the space.
    """
    i, b = np.divmod(np.arange(m * size), size)     # i-major, as the rows are listed
    keep = (b <= i) & (i + size - b <= m) & ((b < i) | (i == 0))
    j, i, b = np.arange(size), i[keep, None], b[keep, None]
    subsets = np.where(j < b, j, i + j - b)
    subsets.setflags(write=False)
    return subsets


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
    bound = theoretical_growth_bound(spec, m, dist.n, dist.k)
    masters = seed.child_masters("growth-draw", range(draws))
    step = max(1, _REPLICATE_CELLS // (m * dist.n * dist.k))
    blocks = (sample_block(dist, m, masters[at:at + step]) for at in range(0, draws, step))
    observed = max(len(rows) for values in blocks
                   for rows in split_sample_block(spec, values, dist.value_range, subset_ceiling))
    return GrowthEstimate(spec.tag, m, dist.n, dist.k, spec.levels, draws, observed, bound)


def growth_csv_row(est: GrowthEstimate) -> list:
    return [est.class_tag, est.m, est.n, est.k,
            "" if est.s is None else est.s,
            est.draws, est.observed_max, repr(est.bound.log)]
