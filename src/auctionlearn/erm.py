"""Exact empirical revenue maximization over sample-valued candidate sets.

For every hypothesis class the empirical maximum over the full parameter
space is attained at a finite candidate set built from sample values (for
threshold-ranked auctions the top of the value range is added as a no-sale
sentinel so a bidder can be priced out entirely).  ERM returns the argmax of
``empirical_revenue`` over that set, ties broken toward the lexicographically
largest parameter vector.

A reserve rule (every class but t-level and best-of) sets one reserve per
auction of ``auction_columns`` (per bidder when lazy); ``_shortlist`` alone
keeps each one's candidates near the max of a closed form
(``_closed_forms``, at n >= 2 one sort in ``_ranked``) and scores only their
product.  ERM on subsets of each sample of a block is ``subset_winners``
(split-sample enumeration passes half-size subsets).  A subset's candidates
are among its sample's values, so revenue rows can be built once on the
whole sample and every subset sums them on its own profiles in one BLAS
product with a 0/1 membership matrix: t-level's and best-of's per chunk of
their candidate product (``_joint_winners``, whose ERM is the one-subset
case, the whole sample), and a reserve rule's closed forms per coordinate
(``_reserve_winners``) where the sample is small and its subsets many
(``_scores_whole_sample``).  Only near-maximal sums are sorted.  Other
reserve-rule subsets, a posted price's few dominating ones among them, are
gathered and learned as samples; ``_distinct`` dedupes both paths' rows.

The in-class optimum is the population counterpart: the closed form where
one exists, else a max on shared Monte Carlo draws, the sorted mean of a
row learned there.  A reserve rule learns by ERM on the draws, exact over
the whole class there; multi-bidder t-level and best-of learn a parameter
grid by ``_tied_winners``, the scorer of a reserve rule's near ties, which
sorts only the rows whose plain sums are near the best so far.

Determinism rules used throughout:

* candidates are deduplicated and enumerated in ascending lexicographic
  parameter order; the tie winner is the last argmax in that order
* every exact score is ``empirical_revenue``'s, the mean of the sorted,
  C-ordered revenue row: neither sample order nor memory layout changes it
* a closed form (an unsorted sum among them) only shortlists, within
  ``_near_max``'s margin; it never decides between candidates
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalyticUnsupported, AuctionLearnError, CeilingExceeded
from .mechanisms import (TAG_BEST, TAG_SINGLE, TAG_TLEVEL, ClassSpec, Hypothesis,
                         analytic_optimum, auction_columns, check_class_dims,
                         hypothesis_from_params, profile_revenues, reserve_revenue,
                         revenue_matrix, top_two)
from .model import DistributionSpec, SampleSet, Seed, sample_block

DEFAULT_CANDIDATE_CEILING = 10**7
_CHUNK = 4096
CELLS = 2_500_000      # revenue cells (rows x profiles x bidders) built per chunk
_BLOCK_CELLS = 2**16   # candidate x subset sums per scoring step
_SUBSET_CELLS = 2**14  # a reserve rule's closed forms (coordinates x pool x subsets) per step
_REPLICATE_CELLS = 2**14  # values of a block of samples drawn, learned or gathered at once
_GRID_BUDGET = 2 * 10**8  # candidate rows x draws ceiling for joint grid optima


# ---------------------------------------------------------------------------
# the candidate model (deduplicated ascending value pools drawn from the sample)


def _columns(spec: ClassSpec, values: np.ndarray, beta: float) -> list[np.ndarray]:
    """Per parameter coordinate, in parameter order: the (m, w) values each
    profile contributes to that coordinate's pool."""
    m, n, _ = values.shape
    if spec.tag == TAG_BEST:
        return [c for branch in spec.branches() for c in _columns(branch, values, beta)]
    if spec.tag == TAG_TLEVEL:
        # the top of the range acts as the no-sale sentinel per bidder
        return [np.column_stack((values[:, i, 0], np.full(m, beta))) for i in range(n)]
    auctions = auction_columns(spec, values)     # one shared reserve per auction
    if spec.per_bidder:                          # or one per bidder, bidder-major
        return [columns[:, i:i + 1] for i in range(n) for columns in auctions]
    return auctions


def _count(spec: ClassSpec, pools) -> int:
    """Size of the candidate product; a t-level bidder picks its s levels
    from its pool with replacement."""
    s = spec.levels or 1
    return math.prod(math.comb(len(p) + s - 1, s) for p in pools)


def candidate_count(spec: ClassSpec, S: SampleSet) -> int:
    """Exact size of the deduplicated candidate set."""
    check_class_dims(spec, S.n, S.k)
    return _count(spec, [np.unique(c) for c in _columns(spec, S.values, S.value_range[1])])


_JOINT = (TAG_TLEVEL, TAG_BEST)   # classes whose parameters interact: ERM scores the product


def _check_ceiling(spec: ClassSpec, rows: int, ceiling: int) -> None:
    """Refuse work over `ceiling` candidate rows: the candidate product of a
    joint class; a reserve rule's longest coordinate pool, and the product
    of the near-tied values it scores on any one sample or subset."""
    if rows > ceiling:
        raise CeilingExceeded(f"{spec.describe()} scores {rows} candidate rows, over the "
                              f"ceiling {ceiling}; raise the ceiling explicitly to score them")


def _factors(spec: ClassSpec, pools) -> list[np.ndarray]:
    """Per-coordinate blocks of parameter columns (one row per choice) whose
    lexicographic product is the candidate set."""
    if spec.tag == TAG_TLEVEL:
        return [np.array(list(itertools.combinations_with_replacement(p, spec.levels)))
                for p in pools]
    return [p[:, None] for p in pools]


def _product_rows(factors, indices) -> np.ndarray:
    """The candidate parameter rows at the given positions of the ascending
    lexicographic candidate order."""
    picks = np.unravel_index(indices, [len(f) for f in factors])
    return np.hstack([f[i] for f, i in zip(factors, picks)])


# ---------------------------------------------------------------------------
# empirical revenue


def _sorted_mean(rows: np.ndarray) -> np.ndarray:
    """Mean of each revenue row, sorted and C-ordered first: the order of the
    profiles does not matter, and each row sums as it does alone."""
    rows = np.ascontiguousarray(rows)
    rows.sort(axis=-1)
    return rows.mean(axis=-1)


def empirical_revenue(h: Hypothesis, S: SampleSet) -> float:
    """Mean revenue of h over the sample (order-independent accumulation)."""
    return float(_sorted_mean(profile_revenues(h, S.values, S.value_range[0])))


def _near_max(closed: np.ndarray, top: np.ndarray, terms: int, total: np.ndarray) -> np.ndarray:
    """Mask of the closed forms within (terms+2)*8*2^-52 of `top`, at least
    the max of their last axis (and of any closed forms they compete with,
    as in earlier chunks), relative to `total` (at least `top`): a superset
    of the argmaxes of the exact scores.

    A closed form (a sum of at most `terms` nonnegative revenues in any
    order, or a prefix sum of them and two roundings) is within
    gamma_(terms+2)*R of their total R, the exact score
    (any summation order, then perhaps a division by a common count) within
    gamma_(terms+1)*R; gamma_j = j*2^-53/(1 - j*2^-53), no value subnormal.
    So the exact max's closed form is within about (2*terms+3)*2^-52 of the
    max, under a quarter of the margin; the rest covers rounding the cutoff.

    For a score summing coordinates' f_c, pass as `total` the sum T of their
    maxima and as `terms` a bound on the revenues the score or a closed form
    sums: the scores of a joint maximizer x and the coordinatewise one y are
    within gamma_(terms+1)*T of sum_c f_c, so no f_c(y_c) - f_c(x_c) >= 0
    exceeds 2*gamma_(terms+1)*T.  Each coordinate's own max would not do:
    rounding the others' revenue can tie away a small coordinate's gap.
    """
    return closed >= top - (terms + 2) * 8 * 2.0**-52 * total


def _check_pools(spec: ClassSpec, values: np.ndarray, beta: float, ceiling: int) -> None:
    """``_check_ceiling`` on each whole sample of a reserve rule's block."""
    if values.shape[1] * values.shape[2] > ceiling:     # no pool is longer than n*m
        for v in values:
            longest = max(len(np.unique(c)) for c in _columns(spec, v, beta))
            _check_ceiling(spec, longest, ceiling)


# ---------------------------------------------------------------------------
# ERM over subsets of each sample of a block


def subset_winners(spec: ClassSpec, values: np.ndarray, value_range: tuple[float, float],
                   subsets: np.ndarray, ceiling: int) -> list[np.ndarray]:
    """Per sample of an (R, m, n, k) block of checked values, the distinct ERM
    parameter rows over its subsets, ascending.

    ``subsets`` is an (N, size) array of profile indices, one subset a row,
    the same for every sample.  T-level and best-of build revenue rows once
    on each whole sample, and so do reserve rules where that pays
    (``_scores_whole_sample``).  Other reserve-rule subsets are gathered
    and learned by ``erm_block``, about ``_REPLICATE_CELLS`` values a call
    (several samples a call, or a sample's subsets in parts); ``_distinct``
    dedupes each sample's winners on either path.  ``ceiling`` bounds the
    rows scored on each whole sample and a reserve rule's near-tie product
    on each subset, as in ``erm``.
    """
    R, m, n, k = values.shape
    if spec.tag in _JOINT:
        return [_joint_winners(spec, v, value_range, subsets, ceiling) for v in values]
    _check_pools(spec, values, value_range[1], ceiling)
    N, size = subsets.shape
    whole = _scores_whole_sample(m, N)
    step = 1 if whole else max(1, _REPLICATE_CELLS // (subsets.size * n * k))
    part = max(1, _REPLICATE_CELLS // (size * n * k))
    winners = []
    for at in range(0, R, step):
        block = values[at:at + step]
        if whole:
            won = _reserve_winners(spec, block[0], value_range[0], subsets, ceiling)
        else:
            won = np.concatenate([erm_block(spec, block[:, subsets[s:s + part]]
                                            .reshape(-1, size, n, k), value_range, ceiling)
                                  for s in range(0, N, part)])
        winners += _distinct(won.reshape(len(block), N, -1))
    return winners


def _distinct(won: np.ndarray) -> list[np.ndarray]:
    """Per sample of a (B, N, P) block of ERM rows, its distinct rows,
    ascending lexicographically.  The values are nonnegative and +0.0 at
    zero, so their bits order as they do."""
    B, N, P = won.shape
    order = np.lexsort(won.view(np.uint64).T[::-1].swapaxes(1, 2), axis=-1)
    won = won.reshape(-1, P)[order + N * np.arange(B)[:, None]]
    return [w[f] for w, f in zip(won, _firsts(won).any(axis=2))]


def _scores_whole_sample(m: int, subsets: int) -> bool:
    """Whether a reserve rule's `subsets` of each m-profile sample are scored
    from whole-sample rows (``_reserve_winners``) rather than gathered.  Per
    subset and coordinate the product adds m revenues for each of m pool
    values, where gathering ranks about m/2 values in some 30 numpy passes,
    so it pays only up to m = 128 or so; and building a sample's rows (m^2
    per coordinate, about 0.1 ms of numpy calls) pays only on at least
    2 m^2 subsets.  Exact mode so scores m >= 10 from whole-sample rows; a
    posted price's at most m^2 dominating subsets are gathered."""
    return m <= 128 and subsets >= 2 * m * m


def _membership(subsets: np.ndarray, m: int) -> np.ndarray:
    """The (N, m) 0/1 matrix whose row b is 1 at the profiles of subset b."""
    member = np.zeros((len(subsets), m))
    member.reshape(-1)[(np.arange(0, member.size, m)[:, None] + subsets).ravel()] = 1.0
    return member


def _reserve_winners(spec: ClassSpec, values: np.ndarray, alpha: float, subsets: np.ndarray,
                     ceiling: int) -> np.ndarray:
    """A reserve rule's ERM row on each subset of one (m, n, k) sample.  Each
    coordinate's values (``_coordinates``) are sorted into a pool and each
    pool value's revenues built once on the counted profiles; one product
    with a chunk's membership gives every subset's closed forms.  A value is
    valid on a subset only as one of the closed form's candidates there (a
    counted top or the coordinate's largest value in it; repeats at their
    first position), else -inf.  Then ``_shortlist`` decides each subset,
    with terms = m: the product adds m revenues, zeros too."""
    m = len(values)
    x, counted, top, second = map(np.array, zip(*_coordinates(spec, values, alpha)))  # (C, m)
    C, N = len(x), len(subsets)
    pools = np.sort(x, axis=1) + 0.0        # + 0.0: a -0.0 value's candidate is 0.0
    first = np.array([np.searchsorted(p, c) for p, c in zip(pools, x)])   # pool positions
    # per pool position and profile: the closed form's revenue, and whether the
    # profile's counted top is the pool value there (at its first position)
    rev = reserve_revenue(pools[:, :, None], np.where(counted, top, -np.inf)[:, None],
                          second[:, None]).reshape(-1, m)
    offer = ((first[:, None] == np.arange(m)[:, None]) & counted[:, None]).reshape(-1, m) * 1.0
    rows = np.empty((N, C))
    step = max(1, _SUBSET_CELLS // (C * m))
    v = np.broadcast_to(pools[:, :, None], (C, m, step))
    for at in range(0, N, step):
        block = subsets[at:at + step]
        member = _membership(block, m).T
        valid = (offer @ member).reshape(C, m, -1) > 0
        valid[np.arange(C)[:, None], np.take(first, block.T, axis=1).max(axis=1),
              np.arange(len(block))] = True
        sums = np.where(valid, (rev @ member).reshape(C, m, -1), -np.inf)
        rows[at:at + len(block)] = _shortlist(spec, v[:, :, :len(block)], sums, values, block,
                                              alpha, m, ceiling)
    return rows


def _joint_winners(spec: ClassSpec, values: np.ndarray, value_range: tuple[float, float],
                   subsets: np.ndarray, ceiling: int) -> np.ndarray:
    """The candidate model is built on the whole (m, n, k) sample and each
    chunk of its product (at most ``_CHUNK`` rows, about ``CELLS`` cells of
    m x n) gets revenue rows once, for every subset (``_tied_winners`` would
    re-run them per subset).  A block of subsets sums the rows on its own
    profiles in one BLAS product with a 0/1 membership matrix, candidates
    absent from a subset's pools at -inf.  Only the pairs within
    ``_near_max`` of their subset's maximum so far are gathered, subset-major
    from the flat rows, and scored by the sorted mean; ``_Argmax`` keeps
    each subset's last argmax.  A sum of m nonnegative revenues (zeros for
    the profiles outside the subset) in any order, whatever the BLAS
    blocking or thread count, is within gamma_m of the exact sum, so no
    subset's exact argmax leaves the shortlist."""
    m, n, _ = values.shape
    columns = _columns(spec, values, value_range[1])
    pools = [np.unique(c) for c in columns]
    count = _count(spec, pools)
    _check_ceiling(spec, count, ceiling)
    factors = _factors(spec, pools)
    run = _Argmax(len(subsets))
    # occ[f][t, p]: pool value p is in profile t's pool f (beta in every t-level one)
    occ = [np.zeros((len(c), len(pool)), dtype=bool) for c, pool in zip(columns, pools)]
    for o, c, pool in zip(occ, columns, pools):
        o[np.arange(len(c))[:, None], np.searchsorted(pool, c)] = True
    members = [np.searchsorted(p, f) for p, f in zip(pools, factors)]  # as pool indices
    member = _membership(subsets, m)
    chunk = min(_CHUNK, max(1, CELLS // (m * n)))
    for start in range(0, count, chunk):
        at = np.arange(start, min(start + chunk, count))
        R = revenue_matrix(spec, _product_rows(factors, at), values, value_range[0])
        picks = np.unravel_index(at, [len(f) for f in factors])
        step = max(1, _BLOCK_CELLS // len(R))
        for first in range(0, len(subsets), step):
            block = subsets[first:first + step]
            owners = np.arange(first, first + len(block))
            # per subset and factor row: do all of the row's values occur in it
            present = [o[block].any(axis=1)[:, mem].all(axis=2) for o, mem in zip(occ, members)]
            valid = np.logical_and.reduce([p[:, i] for p, i in zip(present, picks)])
            sums = member[first:first + step] @ R.T     # (subsets, candidates)
            sums[~valid] = -np.inf
            top = run.running_top(owners, sums.max(axis=1))[:, None]
            si, ci = np.nonzero(_near_max(sums, top, m, top))     # subset-major
            run.fold(owners[si], at[ci], _sorted_mean(R.ravel().take(ci[:, None] * m + block[si])))
    return _product_rows(factors, np.unique(run.pos))


class _Argmax:
    """Per owner (a sample or a subset), the last argmax of the sorted mean
    over candidates folded in ascending position order, one chunk at a time.

    ``near`` is each owner's largest closed form so far, an unsorted sum of
    its revenues; it starts at 0, below no sum of nonnegative revenues, so a
    cutoff is never taken from an owner with no candidate yet.  A candidate
    outside ``_near_max`` of it is not the exact argmax and is never sorted.
    """

    def __init__(self, owners: int):
        self.near = np.zeros(owners)
        self.rev = np.full(owners, -np.inf)
        self.pos = np.zeros(owners, dtype=np.intp)

    def running_top(self, owners: np.ndarray, tops: np.ndarray) -> np.ndarray:
        """The owners' closed-form maxima so far, raised to this chunk's `tops`."""
        top = np.maximum(self.near[owners], tops)
        self.near[owners] = top
        return top

    def score(self, owner: np.ndarray, at: np.ndarray, R: np.ndarray, terms: int) -> None:
        """Fold revenue rows R (owner ascending) shortlisted by their sums."""
        approx = R.sum(axis=1)
        firsts, group = _groups(owner)
        top = self.running_top(owner[firsts], np.maximum.reduceat(approx, firsts))[group]
        keep = _near_max(approx, top, terms, top)
        self.fold(owner[keep], at[keep], _sorted_mean(R[keep]))

    def fold(self, owner: np.ndarray, at: np.ndarray, scores: np.ndarray) -> None:
        """An owner (ascending) whose chunk max is at least its best so far
        takes it at its last position; with positions ascending across
        chunks, the ``>=`` keeps the last argmax of all of them."""
        if len(owner):
            firsts, group = _groups(owner)
            top = np.maximum.reduceat(scores, firsts)
            last = np.maximum.reduceat(np.where(scores == top[group], at, -1), firsts)
            owners = owner[firsts]
            better = top >= self.rev[owners]
            self.rev[owners[better]] = top[better]
            self.pos[owners[better]] = last[better]


def _groups(owner: np.ndarray) -> tuple:
    """The first position of each run of an ascending owner array, and each
    entry's run."""
    new = _firsts(owner[:, None])[:, 0]
    return np.flatnonzero(new), new.cumsum() - 1


# ---------------------------------------------------------------------------
# ERM


def erm(spec: ClassSpec, S: SampleSet,
        ceiling: int = DEFAULT_CANDIDATE_CEILING) -> Hypothesis:
    """The candidate maximizing empirical revenue on S.

    Ties are broken toward the lexicographically largest parameter vector;
    the result is a pure function of (spec, S as a multiset).
    """
    row = erm_block(spec, S.values[None], S.value_range, ceiling)[0]
    return hypothesis_from_params(spec, row, S.n, S.k)


def erm_block(spec: ClassSpec, values: np.ndarray, value_range: tuple[float, float],
              ceiling: int = DEFAULT_CANDIDATE_CEILING) -> np.ndarray:
    """The (R, P) parameter rows of ``erm`` on each sample of an (R, m, n, k)
    block of checked values; the first sample over the ceiling raises.
    A reserve rule learns all samples in one ``_shortlist`` call; t-level
    and best-of learn each whole sample as its one subset."""
    R, m, n, k = values.shape
    check_class_dims(spec, n, k)
    if spec.tag in _JOINT:
        return np.concatenate(subset_winners(spec, values, value_range, np.arange(m)[None],
                                             ceiling))
    _check_pools(spec, values, value_range[1], ceiling)
    return _shortlist(spec, *_closed_forms(spec, values, value_range[0]), values,
                      np.arange(R), value_range[0], m, ceiling)


def _shortlist(spec: ClassSpec, v: np.ndarray, closed: np.ndarray, values: np.ndarray,
               owners: np.ndarray, alpha: float, terms: int, ceiling: int) -> np.ndarray:
    """The (T, C) ERM rows of a reserve rule's T owners (samples or subsets)
    from (C, L, T) stacks of candidate values, ascending (`v` may broadcast),
    and their closed forms, sums of at most `terms` revenues, -inf off the
    candidates.  ``_near_max`` keeps each coordinate's values near its max,
    relative to the owner's joint total; a value kept alone wins, else
    ``_tied_winners`` scores the product of the kept values on the owner's
    profiles, ``values[owners]``; a product over `ceiling` rows raises."""
    C, _, T = closed.shape
    tops = closed.max(axis=1)
    kept = _near_max(closed, tops[:, None], terms * C, tops.sum(axis=0))
    rows = v[np.arange(C), kept.argmax(axis=1).T, np.arange(T)[:, None]]
    counts = kept.sum(axis=1)       # (C, T)
    sizes = counts.prod(axis=0, dtype=float)
    _check_ceiling(spec, math.prod(map(int, counts[:, sizes.argmax()])), ceiling)
    tied = np.flatnonzero(sizes > 1)
    if len(tied):       # each coordinate's kept values first, ascending
        order = np.argsort(~kept[:, :, tied], axis=1, kind="stable")[:, :counts[:, tied].max()]
        picks = v[np.arange(C)[:, None, None], order, tied]
        rows[tied] = _tied_winners(spec, [p.T[..., None] for p in picks], counts[:, tied],
                                   values[owners[tied]], alpha)
    return rows


def _tied_winners(spec: ClassSpec, picks, counts: np.ndarray, values: np.ndarray,
                  alpha: float) -> np.ndarray:
    """Per sample of a (T, m, n, k) block, the last argmax of the sorted mean
    over the ascending lexicographic product of its first counts[c] rows of
    each picks[c], a (T, L, w) block of factor rows (w = 1 but for a t-level
    bidder's s levels).  Every sample's product is scored in one sequence
    of chunks of at most ``_CHUNK`` rows and about ``CELLS`` cells, each
    candidate on its own sample (one shared block when T = 1, not a copy
    per row); ``_Argmax.score`` sorts only the rows whose plain sums are
    near their sample's maximum so far and keeps the best across chunks."""
    T, m, n, k = values.shape
    sizes = counts.prod(axis=0)
    ends = np.cumsum(sizes)

    def rows_at(at):        # the samples and candidate rows at flat positions
        owner = np.searchsorted(ends, at, side="right")
        local, digits = at - (ends - sizes)[owner], []
        for pick, count in zip(picks[::-1], counts[::-1]):
            local, d = np.divmod(local, count[owner])
            digits.append(pick[owner, d])
        return owner, np.hstack(digits[::-1])

    run = _Argmax(T)
    chunk = min(_CHUNK, max(1, CELLS // (m * n * k)))
    for start in range(0, ends[-1], chunk):
        at = np.arange(start, min(start + chunk, ends[-1]))
        owner, rows = rows_at(at)
        R = revenue_matrix(spec, rows, values[0] if T == 1 else values[owner], alpha)
        run.score(owner, at, R, m)
    return rows_at(run.pos)[1]


def _closed_forms(spec: ClassSpec, values: np.ndarray, alpha: float) -> tuple:
    """The (C, L, R) candidate values v and closed forms of a reserve rule's
    coordinates (an auction, per bidder if lazy) on (R, m, n, k) values:
    each sample's v ascending, a distinct candidate's closed form at its
    first position and -inf elsewhere.  One bidder's price u at first
    position i sells m - i times: u*(m - i)/m.  With n >= 2 reserve r earns
    r*#{second < r <= top} + sum{second >= r} second on its counted profiles
    (its bidder's wins if lazy); a value no counted top equals loses to the
    next larger, so the candidates are those tops and the largest value."""
    R, m, n = values.shape[:3]
    if n == 1:  # i values lie below first position i; + 0.0: -0.0's candidate is 0.0
        x = np.array([columns[..., 0] for columns in auction_columns(spec, values)])
        x.sort(axis=2)
        v = np.add(x.transpose(0, 2, 1), 0.0, order="C")
        closed = v * np.arange(m, 0, -1.0)[:, None]
        closed /= m
        closed[~_firsts(v)] = -np.inf
        return v, closed
    coords = _coordinates(spec, values, alpha)
    v, closed = np.empty((2, len(coords), 2 * m + 1, R))
    for c, (x, counted, top, second) in enumerate(coords):
        _ranked(top, second, counted, x.max(axis=1, keepdims=True), v[c], closed[c])
    return v, closed


def _coordinates(spec: ClassSpec, values: np.ndarray, alpha: float) -> list:
    """Per coordinate of a reserve rule (an auction, per bidder if lazy,
    bidder-major) on (..., m, n, k) values: (x, counted, top, second), x the
    values its reserve is drawn from (the tops, or the lazy bidder's own)."""
    auctions = auction_columns(spec, values)
    rules = [top_two(columns, alpha) for columns in auctions]
    if not spec.per_bidder:
        return [(top, np.ones(top.shape, dtype=bool), top, second) for _, top, second in rules]
    return [(col[..., i], w == i, top, second)
            for i in range(values.shape[-2]) for col, (w, top, second) in zip(auctions, rules)]


def _firsts(v: np.ndarray) -> np.ndarray:
    """The first position of each run of equal values down each column of v."""
    first = np.ones(v.shape, dtype=bool)
    np.not_equal(v[..., 1:, :], v[..., :-1, :], out=first[..., 1:, :])
    return first


def _ranked(top: np.ndarray, second: np.ndarray, counted: np.ndarray, largest: np.ndarray,
            v: np.ndarray, closed: np.ndarray) -> tuple:
    """(v, closed), written into these two (2m + 1, R) arrays, from the
    (R, m) tops, seconds and counted profiles and the (R, 1) largest pool
    value by one sort of uint64 keys (bits(x) << 1) + 2 + is_second, 0 for an
    uncounted profile: values are nonnegative, so their bits order as they do,
    and the shift drops -0.0's sign.  A run's first key is a candidate's if it
    is even and nonzero, and from there on lie the counted tops and seconds at
    or above it (a top sorts before an equal second), the largest and no zero
    key: its sales #{second < r <= top} are the keys there, less one, less
    twice the seconds, and sum{second >= r} second is a suffix sum too."""
    m = top.shape[1]
    keys = np.concatenate([top, largest, second], axis=1).view(np.uint64) << 1
    keys += np.repeat(np.array([2, 3], dtype=np.uint64), [m + 1, m])
    keys[:, :m] *= counted
    keys[:, m + 1:] *= counted
    keys.sort(axis=1)
    keys = np.ascontiguousarray(keys.T)        # one sample a column
    odd = (keys & 1).view(np.int64)
    np.subtract(keys >> 1, 1, out=v.view(np.uint64))   # NaN at zero keys, which come first
    closed[::-1] = -2 * odd[::-1].cumsum(axis=0)       # in place: no temporary closed
    closed += np.arange(2 * m, -1, -1)[:, None]
    closed *= v
    closed += (v * odd)[::-1].cumsum(axis=0)[::-1]
    closed[(odd == 1) | (keys == 0) | ~_firsts(keys)] = -np.inf
    return v, closed


# ---------------------------------------------------------------------------
# in-class optimum


@dataclass(frozen=True)
class OptimumEstimate:
    value: float
    std_error: float | None
    method: str  # "analytic" | "grid-mc" (a max on shared draws, see _grid_optimum) | "provided"


def _price_grid(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + np.arange(int(round((hi - lo) / step)) + 1) * step


def _grid_optimum(spec: ClassSpec, dist: DistributionSpec, grid_step: float,
                  draws: int, seed: Seed) -> OptimumEstimate:
    """Max over the class of mean revenue on one shared draw set: the sorted
    mean of a row learned there.  A reserve rule (and t-level at n = 1, a
    posted price on its lowest threshold, learned as a single reserve) is
    ERM on the draws, whose sample-valued candidates hold the class's exact
    max; multi-bidder t-level and best-of learn the grid product of step
    `grid_step`, the grid as every coordinate's pool, by ``_tied_winners``.
    Either value is a max of correlated means, so it is biased upward.
    """
    n, k, tag = dist.n, dist.k, spec.tag
    check_class_dims(spec, n, k)
    if draws < 1:
        raise AuctionLearnError(f"draws must be at least 1, got {draws!r}")
    alpha, beta = dist.value_range
    if tag == TAG_BEST and (k != 1 or spec.per_player):
        raise AnalyticUnsupported("joint grid optimum for best-of is limited to anonymous "
                                  "k = 1; the branch classes cover multi-item grids separably")
    rule = ClassSpec(TAG_SINGLE) if tag == TAG_TLEVEL and n == 1 else spec
    if rule.tag in _JOINT:
        # per bidder, or best-of's bundle and item price: at k = 1 both range over [alpha, beta]
        pools = [_price_grid(alpha, beta, grid_step)] * (n if tag == TAG_TLEVEL else 2)
        if _count(spec, pools) * draws > _GRID_BUDGET:
            raise CeilingExceeded(f"{spec.describe()} grid optimum over budget; raise the grid "
                                  "step (optimum_grid_step) or lower draws (optimum_draws)")
        factors = _factors(spec, pools)
        values = sample_block(dist, draws, [seed.master])
        row = _tied_winners(spec, [f[None] for f in factors], np.array([[len(f)] for f in factors]),
                            values, alpha)
    else:
        values = sample_block(dist, draws, [seed.master])
        try:
            row = erm_block(rule, values, dist.value_range, DEFAULT_CANDIDATE_CEILING)
        except CeilingExceeded as exc:   # the caller's only lever here is the draw count
            raise CeilingExceeded(f"{spec.describe()} grid optimum on {draws} draws scores more "
                                  f"than the candidate ceiling {DEFAULT_CANDIDATE_CEILING} rows; "
                                  "lower draws (optimum_draws) to run it") from exc
    return OptimumEstimate(float(_sorted_mean(revenue_matrix(rule, row, values[0], alpha))[0]),
                           None, "grid-mc")


def in_class_optimum(spec: ClassSpec, dist: DistributionSpec, method: str = "auto",
                     grid_step: float = 1e-3, draws: int = 10**6,
                     seed: Seed = Seed(0)) -> OptimumEstimate:
    """sup over the class of expected revenue under the spec.

    'analytic' is ``analytic_optimum``: single-bidder posted-price shapes
    under uniform or discrete marginals, and the multi-bidder reserve-rule
    classes under uniform marginals (anonymous ones on identical marginals);
    'grid' maximizes mean revenue on shared Monte Carlo draws (biased
    upward): exactly, by ERM, for a reserve rule and t-level at n = 1, and
    over a grid of step `grid_step` for multi-bidder t-level and best-of;
    'auto' prefers analytic and falls back.
    """
    if method not in ("auto", "analytic", "grid"):
        raise ValueError(f"unknown method {method!r}")
    if method != "analytic" and not (math.isfinite(grid_step) and grid_step > 0):
        raise AuctionLearnError(f"grid_step must be a finite number > 0, got {grid_step!r}")
    if method in ("auto", "analytic"):
        try:
            return OptimumEstimate(analytic_optimum(spec, dist), None, "analytic")
        except AnalyticUnsupported:
            if method == "analytic":
                raise
    return _grid_optimum(spec, dist, grid_step, draws, seed)
