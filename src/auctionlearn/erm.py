"""Exact empirical revenue maximization over sample-valued candidate sets.

For every hypothesis class the empirical maximum over the full parameter
space is attained at a finite candidate set built from sample values (for
threshold-ranked auctions the top of the value range is added as a no-sale
sentinel so a bidder can be priced out entirely).  ERM enumerates or
separably maximizes that set and breaks ties toward the lexicographically
largest parameter vector.  A posted price needs no enumeration: its revenue
is price x sales, so a closed form shortlists the near-maximal prices and
only those are scored exactly.

ERM on a set of subsets of each sample of a block is one operation,
``subset_winners``: it builds the candidate model (per-coordinate pools,
their lexicographic product and the candidates' revenue rows) once on each
whole sample and scores every subset from it.  ERM is the case of one
subset, the whole sample; split-sample enumeration passes its half-size
subsets.  Posted prices do both by the closed-form ranking of ``_posted_erm``.

The in-class optimum is the population counterpart: the closed form where
one exists, else a grid maximum on shared Monte Carlo draws, scored through
the same candidate model, auction columns and ``_near_max``.

Determinism rules used throughout:

* candidates are deduplicated and enumerated in ascending lexicographic
  parameter order; the tie winner is the last argmax in that order
* per-profile revenues are accumulated in sorted order, so empirical revenue
  and hence the ERM output never depend on how the sample is ordered
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalyticUnsupported, AuctionLearnError, CeilingExceeded
from .mechanisms import (TAG_BEST, TAG_BUNDLE, TAG_ITEM, TAG_PLAYER, TAG_SINGLE,
                         TAG_TLEVEL, ClassSpec, Hypothesis, SingleReserve, analytic_optimum,
                         auction_columns, check_class_dims, hypothesis_from_params,
                         profile_revenues, reserve_revenue, revenue_matrix, top_two)
from .model import DistributionSpec, SampleSet, Seed, sample_block

DEFAULT_CANDIDATE_CEILING = 10**7
_CHUNK = 4096
CELLS = 2_500_000      # revenue cells (rows x profiles x bidders) built per chunk
_BLOCK_CELLS = 2**18   # candidate x subset x profile cells gathered per scoring step
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


def _separable(spec: ClassSpec) -> bool:
    """Whether empirical revenue is a sum of per-coordinate objectives: lazy
    player reserves, per-player bundle prices and both item-pricing modes."""
    return spec.tag in (TAG_PLAYER, TAG_ITEM) or (spec.tag == TAG_BUNDLE and spec.per_player)


def _check_ceiling(spec: ClassSpec, pools, ceiling: int) -> None:
    """Refuse work over `ceiling` candidate rows scored: the candidate
    product of a joint class, the longest coordinate pool of a separable one."""
    rows = max(len(p) for p in pools) if _separable(spec) else _count(spec, pools)
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
    if len(factors) == 1:
        return factors[0][indices]
    picks = np.unravel_index(indices, [len(f) for f in factors])
    return np.hstack([f[i] for f, i in zip(factors, picks)])


def _candidate_rows(spec: ClassSpec, factors, values: np.ndarray, alpha: float):
    """(start, R) over the candidate product in chunks of at most ``_CHUNK``
    rows and about ``CELLS`` cells (m x n per row): R[c] is the revenue row
    of the candidate at position start + c.

    Best-of rows are the max of the two branch matrices, each built once;
    a chunk pairs whole bundle rows with every item row.
    """
    m, n, _ = values.shape
    chunk = min(_CHUNK, max(1, CELLS // (m * n)))
    if spec.tag != TAG_BEST:
        count = math.prod(len(f) for f in factors)
        for start in range(0, count, chunk):
            rows = _product_rows(factors, np.arange(start, min(start + chunk, count)))
            yield start, revenue_matrix(spec, rows, values, alpha)
        return
    split = values.shape[1] if spec.per_player else 1     # the bundle factors come first
    rev_b, rev_i = (np.vstack([R for _, R in _candidate_rows(branch, f, values, alpha)])
                    for branch, f in zip(spec.branches(), (factors[:split], factors[split:])))
    step = max(1, chunk // len(rev_i))
    for b in range(0, len(rev_b), step):
        pairs = np.maximum(rev_b[b:b + step, None], rev_i[None])   # (bundle, item, profile)
        yield b * len(rev_i), pairs.reshape(-1, len(values))


# ---------------------------------------------------------------------------
# empirical revenue


def _sorted_mean(rows: np.ndarray) -> np.ndarray:
    """Mean of each revenue row, sorted in place first: summed in value
    order, it does not depend on the order of the profiles."""
    rows.sort(axis=-1)
    return rows.mean(axis=-1)


def empirical_revenue(h: Hypothesis, S: SampleSet) -> float:
    """Mean revenue of h over the sample (order-independent accumulation)."""
    return float(_sorted_mean(profile_revenues(h, S.values, S.value_range[0])))


def _last_argmax(arr: np.ndarray) -> np.ndarray:
    """The last argmax along axis 0: ties go to the largest parameter."""
    return len(arr) - 1 - np.argmax(arr[::-1], axis=0)


def _near_max(closed: np.ndarray, terms: int) -> np.ndarray:
    """Mask of the closed forms within (terms+2)*8*2^-52 of the max of their
    last axis, relative to it: a superset of the argmaxes of the exact scores.

    A closed form (a prefix sum of at most `terms` nonnegative revenues and
    two roundings) is within gamma_(terms+2)*R of their total R, the exact score
    (any summation order, then perhaps a division by a common count) within
    gamma_(terms+1)*R; gamma_j = j*2^-53/(1 - j*2^-53), no value subnormal.
    So the exact max's closed form is within about (2*terms+3)*2^-52 of the
    max, under a quarter of the margin; the rest covers rounding the cutoff.
    ``_reserve_grid_max`` relies on this margin too.
    """
    top = closed.max(axis=-1, keepdims=True)
    return closed >= top - (terms + 2) * 8 * 2.0**-52 * top


def _coordinates(spec: ClassSpec, pools, values: np.ndarray, alpha: float):
    """Per pool of a separable class: (rows, counted), the reserve rule of
    each pool value on every profile and the profiles its objective sums.

    A lazy reserve only earns on the profiles its bidder wins, so it is
    scored on exactly those, never on zero-padded others; an anonymous item
    price counts every profile.
    """
    rules = [top_two(columns, alpha) for columns in auction_columns(spec, values)]
    lazy = spec.per_bidder
    coords = []
    for f, pool in enumerate(pools):   # pool f is bidder f // auctions of auction f % auctions
        bidder, auction = divmod(f, len(rules)) if lazy else (None, f)
        w, top, second = rules[auction]
        counted = w == bidder if lazy else np.ones(len(values), dtype=bool)
        coords.append((reserve_revenue(pool[:, None], top, second), counted))
    return coords


# ---------------------------------------------------------------------------
# ERM over subsets of each sample of a block


def subset_winners(spec: ClassSpec, values: np.ndarray, value_range: tuple[float, float],
                   subsets: np.ndarray, ceiling: int) -> list[np.ndarray]:
    """Per sample of an (R, m, n, k) block of checked values, the distinct ERM
    parameter rows over its subsets, ascending.

    ``subsets`` is an (N, size) array of profile indices, one subset a row,
    the same for every sample.  Posted prices learn about
    ``_REPLICATE_CELLS`` gathered subset values per ``_posted_erm`` call.  Other
    classes build revenue rows once on each whole sample.  ``ceiling`` bounds
    the rows scored on each whole sample, as in ``erm``.
    """
    if spec.tag == TAG_SINGLE:      # several samples a call, or a sample's subsets in parts
        step = max(1, _REPLICATE_CELLS // subsets.size)
        part = max(1, _REPLICATE_CELLS // subsets.shape[1])
        won = np.concatenate([_posted_erm(spec, values[at:at + step, :, 0, 0], ceiling,
                                          subsets[s:s + part])
                              for at in range(0, len(values), step)
                              for s in range(0, len(subsets), part)]).reshape(len(values), -1)
        won.sort(axis=1)
        fresh = np.ones(won.shape, dtype=bool)
        np.not_equal(won[:, 1:], won[:, :-1], out=fresh[:, 1:])
        return [row[keep, None] for row, keep in zip(won, fresh)]
    winners = []
    for v in values:
        columns = _columns(spec, v, value_range[1])
        pools = [np.unique(c) for c in columns]
        _check_ceiling(spec, pools, ceiling)
        score = _separable_winners if _separable(spec) else _joint_winners
        winners.append(score(spec, v, value_range[0], pools, _occurrences(columns, pools),
                             subsets))
    return winners


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


def _joint_winners(spec: ClassSpec, values: np.ndarray, alpha: float, pools, occ,
                   subsets: np.ndarray) -> np.ndarray:
    """Each candidate chunk's revenue rows are built once; a subset scores
    them on its own profiles by the sorted mean, with the candidates absent
    from its pools set to -inf, and keeps the last argmax, carried across
    chunks with ``>=``."""
    factors = _factors(spec, pools)
    lengths = [len(f) for f in factors]
    members = [np.searchsorted(p, f) for p, f in zip(pools, factors)]  # factor rows as pool indices
    best_rev = np.full(len(subsets), -np.inf)
    best = np.zeros(len(subsets), dtype=np.intp)
    for start, R in _candidate_rows(spec, factors, values, alpha):
        picks = np.unravel_index(np.arange(start, start + len(R)), lengths)
        step = max(1, _BLOCK_CELLS // (len(R) * subsets.shape[1]))
        for at in range(0, len(subsets), step):
            block = subsets[at:at + step]
            # per factor row and subset: do all of the row's values occur in it
            present = [o[:, block].any(axis=-1)[mem].all(axis=1) for o, mem in zip(occ, members)]
            valid = np.logical_and.reduce([p[i] for p, i in zip(present, picks)])
            revs = np.full(valid.shape, -np.inf)
            revs[valid] = _sorted_mean(R[:, block][valid])   # only where it is a candidate
            local = _last_argmax(revs)
            top = revs[local, np.arange(len(block))]
            span = slice(at, at + len(block))
            better = top >= best_rev[span]
            best_rev[span][better] = top[better]
            best[span][better] = start + local[better]
    return _product_rows(factors, np.unique(best))


def _separable_winners(spec: ClassSpec, values: np.ndarray, alpha: float, pools, occ,
                       subsets: np.ndarray) -> np.ndarray:
    """Each coordinate is scored on its own: the sorted sum of its reserve
    rows over the subset's counted profiles, grouped by how many a subset
    holds (zero-padding would change the summation order), and the last
    argmax among the pool values present in the subset."""
    coords = _coordinates(spec, pools, values, alpha)
    step = max(1, _BLOCK_CELLS // (max(len(p) for p in pools) * subsets.shape[1]))
    params = np.empty((len(subsets), len(pools)))
    for at in range(0, len(subsets), step):
        block = subsets[at:at + step]
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
            params[at:at + len(block), f] = pool[_last_argmax(revs)]
    params = params[np.lexsort(params.T[::-1])]    # np.unique(axis=0) is ~5x slower
    fresh = np.ones(len(params), dtype=bool)
    fresh[1:] = (params[1:] != params[:-1]).any(axis=1)
    return params[fresh]


# ---------------------------------------------------------------------------
# ERM


def erm(spec: ClassSpec, S: SampleSet,
        ceiling: int = DEFAULT_CANDIDATE_CEILING) -> Hypothesis:
    """The candidate maximizing empirical revenue on S.

    Ties are broken toward the lexicographically largest parameter vector;
    the result is a pure function of (spec, S as a multiset).
    """
    return erm_block(spec, S.values[None], S.value_range, ceiling)[0]


def erm_block(spec: ClassSpec, values: np.ndarray, value_range: tuple[float, float],
              ceiling: int = DEFAULT_CANDIDATE_CEILING) -> list[Hypothesis]:
    """``erm`` on each sample of an (R, m, n, k) block of checked values; the
    first sample over the ceiling raises.  Posted prices learn all rows at once."""
    _, m, n, k = values.shape
    check_class_dims(spec, n, k)
    if spec.tag == TAG_SINGLE:
        return [SingleReserve(p) for p in _posted_erm(spec, values[..., 0, 0], ceiling).tolist()]
    return [hypothesis_from_params(spec, rows[0], n, k)
            for rows in subset_winners(spec, values, value_range, np.arange(m)[None], ceiling)]


def _posted_erm(spec: ClassSpec, values: np.ndarray, ceiling: int,
                subsets: np.ndarray | None = None) -> np.ndarray:
    """The ERM posted price of each row of (R, m) values, in O(m log m) a row:
    the closed form u*c/m (c values >= u) ranks the distinct prices, and among
    those ``_near_max`` keeps, the last argmax of the sorted means of their
    revenue rows wins; a price kept alone wins unscored.  With (N, size)
    ``subsets`` of positions, each row's N subsets are learned instead; the
    ceiling bounds each whole row's distinct prices either way."""
    if values.shape[1] > ceiling:   # only then can a row hold more distinct prices
        for row in values:
            _check_ceiling(spec, [np.unique(row)], ceiling)
    if subsets is not None:
        values = values[:, subsets].reshape(-1, subsets.shape[1])
    v = np.sort(values, axis=1)
    R, m = v.shape
    first = np.empty((R, m), dtype=bool)      # the first position of each distinct price
    first[:, 0] = True
    np.not_equal(v[:, 1:], v[:, :-1], out=first[:, 1:])
    # i values lie below a first position i; a repeat's closed form is at most
    # its first position's, so the row max is a distinct price's
    kept = _near_max(v * np.arange(m, 0, -1.0) / m, m) & first
    if np.count_nonzero(kept) > R:            # some rows keep more than one price
        for r in np.flatnonzero(kept.sum(axis=1) > 1):
            prices = np.flatnonzero(kept[r])
            scores = _sorted_mean(revenue_matrix(spec, v[r, prices, None], v[r, :, None, None]))
            kept[r, prices] = False
            kept[r, prices[_last_argmax(scores)]] = True
    return v[kept]                            # one price a row (a subset), in order


# ---------------------------------------------------------------------------
# in-class optimum


@dataclass(frozen=True)
class OptimumEstimate:
    value: float
    std_error: float | None
    method: str  # "analytic" | "grid-mc"


def _price_grid(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + np.arange(int(round((hi - lo) / step)) + 1) * step


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
    """Best grid reserve for one auction's (draws, n) values: one anonymous
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
    threshold) take each auction's best grid reserve separately.  Multi-bidder
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
    values = sample_block(dist, draws, [seed])[0]
    if joint:
        rows = _candidate_rows(spec, _factors(spec, pools), values, alpha)
        value = max(R.sum(axis=1).max() for _, R in rows) / draws
    else:       # each auction's best grid reserve, summed in auction order
        reserves = bundle_grid if tag == TAG_BUNDLE else grid
        value = sum(_reserve_grid_max(reserves, columns, alpha, spec.per_bidder)
                    for columns in auction_columns(spec, values))
    return OptimumEstimate(float(value), None, "grid-mc")


def in_class_optimum(spec: ClassSpec, dist: DistributionSpec, method: str = "auto",
                     grid_step: float = 1e-3, draws: int = 10**6,
                     seed: Seed = Seed(0)) -> OptimumEstimate:
    """sup over the class of expected revenue under the spec.

    'analytic' is ``analytic_optimum``: single-bidder posted-price shapes
    under uniform or discrete marginals, and the multi-bidder reserve-rule
    classes under uniform marginals (anonymous ones on identical marginals);
    'grid' maximizes over a parameter grid evaluated on shared Monte Carlo
    draws (biased upward); 'auto' prefers analytic and falls back.
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
