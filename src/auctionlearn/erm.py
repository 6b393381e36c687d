"""Exact empirical revenue maximization over sample-valued candidate sets.

For every hypothesis class the empirical maximum over the full parameter
space is attained at a finite candidate set built from sample values (for
threshold-ranked auctions the top of the value range is added as a no-sale
sentinel so a bidder can be priced out entirely).  ERM enumerates or
separably maximizes that set and breaks ties toward the lexicographically
largest parameter vector.  A posted price needs no enumeration: its revenue
is price x sales, so a closed form shortlists the near-maximal prices and
only those are scored exactly.

ERM and split-sample scoring share this candidate model: per-coordinate
pools, their lexicographic product and the candidates' revenue rows.

Determinism rules used throughout:

* candidates are deduplicated and enumerated in ascending lexicographic
  parameter order; the tie winner is the last argmax in that order
* per-profile revenues are accumulated in sorted order, so empirical revenue
  and hence the ERM output never depend on how the sample is ordered
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CeilingExceeded
from .mechanisms import (TAG_BEST, TAG_BUNDLE, TAG_ITEM, TAG_PLAYER, TAG_SINGLE,
                         TAG_TLEVEL, ClassSpec, Hypothesis, SingleReserve, check_class_dims,
                         hypothesis_from_params, profile_revenues, reserve_revenue,
                         revenue_matrix, top_two)
from .model import SampleSet

DEFAULT_CANDIDATE_CEILING = 10**7
_CHUNK = 4096


# ---------------------------------------------------------------------------
# the candidate model (deduplicated ascending value pools drawn from the sample)


def _columns(spec: ClassSpec, values: np.ndarray, beta: float) -> list[np.ndarray]:
    """Per parameter coordinate, in parameter order: the (m, w) values each
    profile contributes to that coordinate's pool."""
    m, n, k = values.shape
    tag = spec.tag
    if tag == TAG_BEST:
        return [c for branch in spec.branches() for c in _columns(branch, values, beta)]
    if tag == TAG_TLEVEL:
        # the top of the range acts as the no-sale sentinel per bidder
        return [np.column_stack((values[:, i, 0], np.full(m, beta))) for i in range(n)]
    if tag == TAG_ITEM:
        if spec.per_player:
            return [values[:, i, j:j + 1] for i in range(n) for j in range(k)]
        return [values[:, :, j] for j in range(k)]
    columns = np.sum(values, axis=2) if tag == TAG_BUNDLE else values[:, :, 0]
    if tag == TAG_PLAYER or spec.per_player:
        return [columns[:, i:i + 1] for i in range(n)]
    return [columns]        # single reserve, anonymous reserve or bundle price


def _pools(columns: list[np.ndarray]) -> list[np.ndarray]:
    return [np.unique(c) for c in columns]


def _count(spec: ClassSpec, pools) -> int:
    """Size of the candidate product; a t-level bidder picks its s levels
    from its pool with replacement."""
    s = spec.levels or 1
    return math.prod(math.comb(len(p) + s - 1, s) for p in pools)


def candidate_count(spec: ClassSpec, S: SampleSet) -> int:
    """Exact size of the deduplicated candidate set."""
    check_class_dims(spec, S.n, S.k)
    return _count(spec, _pools(_columns(spec, S.values, S.value_range[1])))


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
    lexicographic candidate order (one row for a scalar position)."""
    if len(factors) == 1:
        return factors[0][indices]
    picks = np.unravel_index(indices, [len(f) for f in factors])
    return np.hstack([f[i] for f, i in zip(factors, picks)])


def _candidate_rows(spec: ClassSpec, factors, values: np.ndarray, alpha: float):
    """(start, R) over the candidate product in chunks of about ``_CHUNK``
    rows: R[c] is the revenue row of the candidate at position start + c.

    Best-of rows are the max of the two branch matrices, each built once;
    a chunk pairs whole bundle rows with every item row.
    """
    if spec.tag != TAG_BEST:
        count = math.prod(len(f) for f in factors)
        for start in range(0, count, _CHUNK):
            rows = _product_rows(factors, np.arange(start, min(start + _CHUNK, count)))
            yield start, revenue_matrix(spec, rows, values, alpha)
        return
    split = values.shape[1] if spec.per_player else 1     # the bundle factors come first
    rev_b, rev_i = (np.vstack([R for _, R in _candidate_rows(branch, f, values, alpha)])
                    for branch, f in zip(spec.branches(), (factors[:split], factors[split:])))
    step = max(1, _CHUNK // len(rev_i))
    for b in range(0, len(rev_b), step):
        pairs = np.maximum(rev_b[b:b + step, None], rev_i[None])   # (bundle, item, profile)
        yield b * len(rev_i), pairs.reshape(-1, len(values))


# ---------------------------------------------------------------------------
# empirical revenue


def _sorted_mean_rows(mat: np.ndarray) -> np.ndarray:
    """Row means with entries accumulated in ascending order (order-stable)."""
    return np.mean(np.sort(mat, axis=-1), axis=-1)


def _posted_means(prices: np.ndarray, zeros: np.ndarray, length: int) -> np.ndarray:
    """Sorted-mean revenue of posted prices: the mean of a row holding
    ``zeros`` no-sales first, then the price on each remaining profile.

    That is the row ``np.sort`` makes of a posted price's revenues on a
    sample with ``zeros`` values under the price, so the result equals
    ``_sorted_mean_rows`` of the revenue matrix bit for bit.
    """
    return np.mean(prices[:, None] * (np.arange(length) >= zeros[:, None]), axis=-1)


def _sorted_sum_rows(mat: np.ndarray) -> np.ndarray:
    return np.sum(np.sort(mat, axis=-1), axis=-1)


def empirical_revenue(h: Hypothesis, S: SampleSet) -> float:
    """Mean revenue of h over the sample (order-independent accumulation)."""
    revs = profile_revenues(h, S.values, S.value_range[0])
    return float(np.mean(np.sort(revs)))


def _last_argmax(arr: np.ndarray) -> int:
    return len(arr) - 1 - int(np.argmax(arr[::-1]))


def _coordinates(spec: ClassSpec, pools, values: np.ndarray, alpha: float):
    """Per pool of a separable class: (rows, counted), the reserve rule of
    each pool value on every profile and the profiles its objective sums.

    A lazy reserve only earns on the profiles its bidder wins, so it is
    scored on exactly those, never on zero-padded others; an anonymous item
    price counts every profile.
    """
    m, n, k = values.shape
    if spec.tag == TAG_ITEM:
        items = [values[:, :, j] for j in range(k)]
    else:
        items = [values[:, :, 0] if spec.tag == TAG_PLAYER else np.sum(values, axis=2)]
    rules = [top_two(columns, alpha) for columns in items]
    lazy = spec.tag == TAG_PLAYER or spec.per_player
    coords = []
    for f, pool in enumerate(pools):   # pool f is bidder f // items of item f % items
        bidder, item = divmod(f, len(items)) if lazy else (None, f)
        w, top, second = rules[item]
        counted = w == bidder if lazy else np.ones(m, dtype=bool)
        coords.append((reserve_revenue(pool[:, None], top, second), counted))
    return coords


# ---------------------------------------------------------------------------
# ERM


def erm(spec: ClassSpec, S: SampleSet,
        ceiling: int = DEFAULT_CANDIDATE_CEILING) -> Hypothesis:
    """The candidate maximizing empirical revenue on S.

    Ties are broken toward the lexicographically largest parameter vector;
    the result is a pure function of (spec, S as a multiset).
    """
    check_class_dims(spec, S.n, S.k)
    return _erm_on_values(spec, S.values, S.value_range, ceiling)


def erm_with_value(spec: ClassSpec, S: SampleSet,
                   ceiling: int = DEFAULT_CANDIDATE_CEILING) -> tuple[Hypothesis, float]:
    check_class_dims(spec, S.n, S.k)
    h = _erm_on_values(spec, S.values, S.value_range, ceiling)
    return h, empirical_revenue(h, S)


def _erm_on_values(spec: ClassSpec, values: np.ndarray,
                   value_range: tuple[float, float],
                   ceiling: int = DEFAULT_CANDIDATE_CEILING) -> Hypothesis:
    if spec.tag == TAG_SINGLE:
        return SingleReserve(_posted_erm(spec, values[:, 0, 0], ceiling))
    alpha, beta = value_range
    pools = _pools(_columns(spec, values, beta))
    _check_ceiling(spec, pools, ceiling)
    if _separable(spec):
        params = [pool[_last_argmax(_sorted_sum_rows(rows[:, counted]))]
                  for pool, (rows, counted) in zip(pools, _coordinates(spec, pools, values, alpha))]
    else:                   # the last argmax in candidate order, carried across chunks
        factors = _factors(spec, pools)
        best_rev, best = -math.inf, 0
        for start, R in _candidate_rows(spec, factors, values, alpha):
            revs = _sorted_mean_rows(R)
            local = _last_argmax(revs)
            if revs[local] >= best_rev:
                best_rev, best = revs[local], start + local
        params = _product_rows(factors, best)
    return hypothesis_from_params(spec, params, values.shape[1], values.shape[2])


def _posted_erm(spec: ClassSpec, values: np.ndarray, ceiling: int) -> float:
    """The ERM posted price on the values, in O(m log m).

    A price u sells to the c values at or above it, so its empirical revenue
    is a = u*c/m in exact arithmetic.  The closed form fl(fl(u*c)/m) is
    within gamma_2*a of a; the sorted mean (any summation tree over m
    nonnegative terms, then the division) is within gamma_m*a, where
    gamma_j = j*2^-53/(1 - j*2^-53) and no value is subnormal.  So a price
    whose sorted mean can reach the largest one has a closed form within
    about 2*(gamma_m + gamma_2) = (m+2)*2^-52 of the largest closed form,
    relative to it.  The prices within (m+2)*4*2^-52 of it (four times
    that, which also covers rounding the threshold) are scored exactly with
    ``_posted_means``, and their last argmax is the last argmax over every
    candidate; a price kept alone is that argmax without scoring.
    """
    v = np.sort(values)
    m = len(v)
    below = np.searchsorted(v, v)             # equal values share one count
    first = below == np.arange(m)
    prices, zeros = v[first], below[first]
    _check_ceiling(spec, [prices], ceiling)
    closed = prices * (m - zeros) / m
    top = closed.max()
    kept = np.flatnonzero(closed >= top - (m + 2) * 4 * 2.0**-52 * top)
    best = kept[0]
    if len(kept) > 1:
        best = kept[_last_argmax(_posted_means(prices[kept], zeros[kept], m))]
    return float(prices[best])
