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

from .erm import (DEFAULT_CANDIDATE_CEILING, _candidate_rows, _check_ceiling, _columns,
                  _coordinates, _factors, _pools, _posted_means, _product_rows, _separable)
from .errors import AuctionLearnError, CeilingExceeded
from .mechanisms import (TAG_ASP, TAG_BEST, TAG_BUNDLE, TAG_ITEM, TAG_PLAYER,
                         TAG_SINGLE, TAG_TLEVEL, ClassSpec, Hypothesis, SingleReserve,
                         check_class_dims, hypothesis_from_params)
from .model import DistributionSpec, SampleSet, Seed, sample_values

DEFAULT_SUBSET_CEILING = 10**6
_BLOCK_CELLS = 2**18   # candidate x subset x profile cells gathered per scoring step


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
            hyps = _single_reserve_exact(S, size)
            return SplitSampleSpace(S, size, hyps, "exact", total)

        # blocks(rows): the subsets as index arrays of at most `rows` rows,
        # streamed afresh on each call
        def blocks(rows: int):
            combos = itertools.combinations(range(m), size)
            while (flat := np.fromiter(itertools.chain.from_iterable(
                    itertools.islice(combos, rows)), dtype=np.intp)).size:
                yield flat.reshape(-1, size)
        examined = total
    elif mode == "monte-carlo":
        if trials is None or trials < 1 or seed is None:
            raise AuctionLearnError("monte-carlo mode needs trials >= 1 and a seed")
        rng = seed.rng()
        draws = np.array([np.sort(rng.choice(m, size=size, replace=False))
                          for _ in range(trials)], dtype=np.intp)

        def blocks(rows: int):
            return (draws[i:i + rows] for i in range(0, trials, rows))
        examined = trials
    else:
        raise AuctionLearnError(f"unknown mode {mode!r}")

    columns = _columns(spec, S.values, S.value_range[1])
    pools = _pools(columns)
    _check_ceiling(spec, pools, candidate_ceiling)
    score = _separable_winners if _separable(spec) else _joint_winners
    rows = score(spec, S, pools, _occurrences(columns, pools), size, examined, blocks)
    hyps = tuple(hypothesis_from_params(spec, row, S.n, S.k) for row in rows)
    return SplitSampleSpace(S, size, hyps, mode, examined)


def _occurrences(columns, pools) -> list[np.ndarray]:
    """Per coordinate pool: [p, t] is whether pool value p is in profile t's
    own pool for that coordinate.

    A subset's pools are the unions of its profiles' pools, so a candidate is
    a candidate on the subset iff each of its values occurs in some subset
    profile (for t-level, beta is in every profile's pool).
    """
    occ = [np.zeros((len(pool), len(c)), dtype=bool) for c, pool in zip(columns, pools)]
    for o, c, pool in zip(occ, columns, pools):
        o[np.searchsorted(pool, c), np.arange(len(c))[:, None]] = True
    return occ


def _joint_winners(spec: ClassSpec, S: SampleSet, pools, occ, size: int, examined: int,
                   blocks) -> np.ndarray:
    """The distinct ERM parameter rows over all subsets, ascending.

    Each candidate chunk's revenue rows are built once on the full sample;
    a subset scores them on its own profiles by the sorted mean, with the
    candidates absent from its pools set to -inf, and keeps the last argmax,
    carried across chunks with ``>=`` as in ``erm``.
    """
    factors = _factors(spec, pools)
    lengths = [len(f) for f in factors]
    members = [np.searchsorted(p, f) for p, f in zip(pools, factors)]  # factor rows as pool indices
    best_rev = np.full(examined, -np.inf)
    best = np.zeros(examined, dtype=np.intp)
    for start, R in _candidate_rows(spec, factors, S.values, S.value_range[0]):
        picks = np.unravel_index(np.arange(start, start + len(R)), lengths)
        at = 0
        for block in blocks(max(1, _BLOCK_CELLS // (len(R) * size))):
            # per factor row and subset: do all of the row's values occur in it
            present = [o[:, block].any(axis=-1)[mem].all(axis=1) for o, mem in zip(occ, members)]
            valid = np.logical_and.reduce([p[i] for p, i in zip(present, picks)])
            g = R[:, block][valid]            # scored only where the candidate is one
            g.sort(axis=-1)
            revs = np.full(valid.shape, -np.inf)
            revs[valid] = g.mean(axis=-1)
            local = len(revs) - 1 - np.argmax(revs[::-1], axis=0)
            top = revs[local, np.arange(len(block))]
            span = slice(at, at + len(block))
            better = top >= best_rev[span]
            best_rev[span][better] = top[better]
            best[span][better] = start + local[better]
            at += len(block)
    return _product_rows(factors, np.unique(best))


def _separable_winners(spec: ClassSpec, S: SampleSet, pools, occ, size: int,
                       examined: int, blocks) -> np.ndarray:
    """The distinct ERM parameter rows over all subsets, ascending.

    Each coordinate is scored on its own: the sorted sum of its reserve rows
    over the subset's counted profiles, grouped by how many a subset holds
    (zero-padding would change the summation order), and the last argmax
    among the pool values present in the subset.
    """
    longest = max(len(p) for p in pools)
    coords = _coordinates(spec, pools, S.values, S.value_range[0])
    winners = []
    for block in blocks(max(1, _BLOCK_CELLS // (longest * size))):
        params = np.empty((len(block), len(pools)))
        for f, (pool, o, (rows, counted)) in enumerate(zip(pools, occ, coords)):
            revs = np.empty((len(pool), len(block)))
            kept = counted[block]
            counts = kept.sum(axis=1)
            for c in np.unique(counts):
                group = counts == c
                g = rows[:, block[group][kept[group]].reshape(int(group.sum()), c)]
                g.sort(axis=-1)
                revs[:, group] = g.sum(axis=-1)
            revs[~o[:, block].any(axis=-1)] = -np.inf
            params[:, f] = pool[len(pool) - 1 - np.argmax(revs[::-1], axis=0)]
        winners.append(np.unique(params, axis=0))
    return np.unique(np.vstack(winners), axis=0)


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
    """Per-class bound on the split-sample space cardinality at sample size m."""
    if m < 1 or n < 1 or k < 1:
        raise AuctionLearnError("m, n, k must be positive")
    tag = spec.tag
    if tag == TAG_SINGLE:
        return GrowthBound(m, math.log(m))
    if tag == TAG_ASP:
        return GrowthBound(n * m, math.log(n * m))
    if tag == TAG_PLAYER:
        return GrowthBound(m**n, n * math.log(m))
    if tag == TAG_TLEVEL:
        s = spec.levels
        return GrowthBound(m**(n * s), n * s * math.log(m))
    if tag == TAG_BUNDLE:
        if spec.per_player:
            return GrowthBound(m**n, n * math.log(m))
        return GrowthBound(m * n, math.log(m * n))
    if tag == TAG_ITEM:
        if spec.per_player:
            return GrowthBound(m**(n * k), n * k * math.log(m))
        return GrowthBound((n * m)**k, k * math.log(n * m))
    if tag == TAG_BEST:
        if spec.per_player:
            return GrowthBound(m**(n * (k + 1)), n * (k + 1) * math.log(m))
        return GrowthBound((m * n)**(k + 1), (k + 1) * math.log(m * n))
    raise ValueError(f"unknown class tag {tag!r}")


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
