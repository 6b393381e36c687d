"""Exact empirical revenue maximization over sample-valued candidate sets.

For every hypothesis class the empirical maximum over the full parameter
space is attained at a finite candidate set built from sample values (for
threshold-ranked auctions the top of the value range is added as a no-sale
sentinel so a bidder can be priced out entirely).  ERM enumerates or
separably maximizes that set and breaks ties toward the lexicographically
largest parameter vector.

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
from typing import Callable, Iterator

import numpy as np

from .errors import CeilingExceeded
from .mechanisms import (TAG_ASP, TAG_BEST, TAG_BUNDLE, TAG_ITEM, TAG_PLAYER,
                         TAG_SINGLE, TAG_TLEVEL, BestOf, ClassSpec, Hypothesis,
                         TLevel, check_class_dims, hypothesis_from_params,
                         profile_revenues, reserve_revenue, revenue_matrix, top_two)
from .model import SampleSet

DEFAULT_CANDIDATE_CEILING = 10**7
_CHUNK = 4096


# ---------------------------------------------------------------------------
# candidate pools (deduplicated ascending value lists drawn from the sample)


def _pools(spec: ClassSpec, values: np.ndarray, beta: float):
    """Per-class pool structure the candidate set is the product of."""
    m, n, k = values.shape
    tag = spec.tag
    if tag == TAG_SINGLE:
        return [np.unique(values[:, 0, 0])]
    if tag == TAG_ASP:
        return [np.unique(values[:, :, 0])]
    if tag == TAG_PLAYER:
        return [np.unique(values[:, i, 0]) for i in range(n)]
    if tag == TAG_TLEVEL:
        # the top of the range acts as the no-sale sentinel per bidder
        return [np.unique(np.append(values[:, i, 0], beta)) for i in range(n)]
    if tag == TAG_BUNDLE:
        totals = np.sum(values, axis=2)
        if spec.per_player:
            return [np.unique(totals[:, i]) for i in range(n)]
        return [np.unique(totals)]
    if tag == TAG_ITEM:
        if spec.per_player:
            return [np.unique(values[:, i, j]) for i in range(n) for j in range(k)]
        return [np.unique(values[:, :, j]) for j in range(k)]
    if tag == TAG_BEST:
        return tuple(_pools(branch, values, beta) for branch in spec.branches())
    raise ValueError(f"unknown class tag {tag!r}")


def candidate_count(spec: ClassSpec, S: SampleSet) -> int:
    """Exact size of the deduplicated candidate set."""
    check_class_dims(spec, S.n, S.k)
    pools = _pools(spec, S.values, S.value_range[1])
    return _count_from_pools(spec, pools)


def _count_from_pools(spec: ClassSpec, pools) -> int:
    if spec.tag == TAG_BEST:
        return math.prod(_count_from_pools(branch, p)
                         for branch, p in zip(spec.branches(), pools))
    if spec.tag == TAG_TLEVEL:
        s = spec.levels
        return math.prod(math.comb(len(p) + s - 1, s) for p in pools)
    return math.prod(len(p) for p in pools)


def _factors(spec: ClassSpec, pools) -> list[np.ndarray]:
    """Per-coordinate blocks of parameter columns (one row per choice) whose
    lexicographic product is the candidate set."""
    if spec.tag == TAG_TLEVEL:
        return [np.array(list(itertools.combinations_with_replacement(p, spec.levels)))
                for p in pools]
    if spec.tag == TAG_BEST:
        return [f for branch, p in zip(spec.branches(), pools) for f in _factors(branch, p)]
    return [p[:, None] for p in pools]


def _product_rows(factors, indices: np.ndarray) -> np.ndarray:
    """The candidate parameter rows at the given positions of the ascending
    lexicographic candidate order."""
    picks = np.unravel_index(indices, [len(f) for f in factors])
    return np.hstack([f[i] for f, i in zip(factors, picks)])


@dataclass(frozen=True)
class CandidateSet:
    """Finite, deduplicated candidate hypotheses in canonical ascending order."""

    spec: ClassSpec
    n: int
    k: int
    count: int
    _factory: Callable[[], Iterator[Hypothesis]]

    def __iter__(self) -> Iterator[Hypothesis]:
        return self._factory()

    def materialize(self, ceiling: int = DEFAULT_CANDIDATE_CEILING) -> tuple[Hypothesis, ...]:
        if self.count > ceiling:
            raise CeilingExceeded(
                f"{self.count} candidates exceed the ceiling {ceiling}"
            )
        return tuple(self._factory())


def candidate_set(spec: ClassSpec, S: SampleSet) -> CandidateSet:
    """All sample-valued candidates for the class on sample S."""
    check_class_dims(spec, S.n, S.k)
    n, k = S.n, S.k
    pools = _pools(spec, S.values, S.value_range[1])
    count = _count_from_pools(spec, pools)

    def factory() -> Iterator[Hypothesis]:
        factors = _factors(spec, pools)
        return (hypothesis_from_params(spec, row, n, k)
                for start in range(0, count, _CHUNK)
                for row in _product_rows(factors, np.arange(start, min(start + _CHUNK, count))))

    return CandidateSet(spec, n, k, count, factory)


# ---------------------------------------------------------------------------
# empirical revenue


def _sorted_mean_rows(mat: np.ndarray) -> np.ndarray:
    """Row means with entries accumulated in ascending order (order-stable)."""
    return np.mean(np.sort(mat, axis=-1), axis=-1)


def _sorted_sum_rows(mat: np.ndarray) -> np.ndarray:
    return np.sum(np.sort(mat, axis=-1), axis=-1)


def empirical_revenue(h: Hypothesis, S: SampleSet) -> float:
    """Mean revenue of h over the sample (order-independent accumulation)."""
    revs = profile_revenues(h, S.values, S.value_range[0])
    return float(np.mean(np.sort(revs)))


def _last_argmax(arr: np.ndarray) -> int:
    return int(np.flatnonzero(arr == arr.max())[-1])


def _separable(spec: ClassSpec) -> bool:
    """Whether empirical revenue is a sum of per-coordinate objectives: lazy
    player reserves, per-player bundle prices and both item-pricing modes."""
    return spec.tag in (TAG_PLAYER, TAG_ITEM) or (spec.tag == TAG_BUNDLE and spec.per_player)


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
    h, _ = erm_with_value(spec, S, ceiling)
    return h


def erm_with_value(spec: ClassSpec, S: SampleSet,
                   ceiling: int = DEFAULT_CANDIDATE_CEILING) -> tuple[Hypothesis, float]:
    check_class_dims(spec, S.n, S.k)
    h = _erm_on_values(spec, S.values, S.value_range, ceiling)
    return h, empirical_revenue(h, S)


def _erm_on_values(spec: ClassSpec, values: np.ndarray,
                   value_range: tuple[float, float],
                   ceiling: int = DEFAULT_CANDIDATE_CEILING) -> Hypothesis:
    alpha, beta = value_range
    pools = _pools(spec, values, beta)
    count = _count_from_pools(spec, pools)
    if count > ceiling:
        raise CeilingExceeded(
            f"{spec.describe()} has {count} candidates, over the ceiling {ceiling}; "
            "raise the ceiling explicitly to enumerate"
        )
    tag = spec.tag
    m, n, k = values.shape

    if tag == TAG_TLEVEL:
        return _erm_tlevel(spec, pools, values, alpha)
    if tag == TAG_BEST:
        return _erm_best(spec, pools, values, alpha)

    if _separable(spec):
        params = [pool[_last_argmax(_sorted_sum_rows(rows[:, counted]))]
                  for pool, (rows, counted) in zip(pools, _coordinates(spec, pools, values, alpha))]
    else:                   # one pool: single reserve, anonymous reserve or bundle price
        rows = revenue_matrix(spec, pools[0][:, None], values, alpha)
        params = [pools[0][_last_argmax(_sorted_mean_rows(rows))]]
    return hypothesis_from_params(spec, params, n, k)


def _erm_tlevel(spec: ClassSpec, pools, values: np.ndarray, alpha: float) -> TLevel:
    m, n, k = values.shape
    factors = _factors(spec, pools)
    count = math.prod(len(f) for f in factors)
    best_rev = -math.inf
    best_params = None
    for start in range(0, count, _CHUNK):
        chunk = _product_rows(factors, np.arange(start, min(start + _CHUNK, count)))
        revs = _sorted_mean_rows(revenue_matrix(spec, chunk, values, alpha))
        local = _last_argmax(revs)
        if revs[local] >= best_rev:
            best_rev = float(revs[local])
            best_params = chunk[local]
    return hypothesis_from_params(spec, best_params, n, k)


def _erm_best(spec: ClassSpec, pools, values: np.ndarray, alpha: float) -> BestOf:
    m, n, k = values.shape
    rows = []
    for branch, branch_pools in zip(spec.branches(), pools):
        factors = _factors(branch, branch_pools)
        rows.append(_product_rows(factors, np.arange(math.prod(len(f) for f in factors))))
    bundle_rows, item_rows = rows
    rev_b, rev_i = (revenue_matrix(branch, r, values, alpha)
                    for branch, r in zip(spec.branches(), rows))
    best_rev = -math.inf
    best_pair = None
    for b in range(len(bundle_rows)):
        revs = _sorted_mean_rows(np.maximum(rev_b[b][None, :], rev_i))
        local = _last_argmax(revs)
        if revs[local] >= best_rev:
            best_rev = float(revs[local])
            best_pair = np.concatenate([bundle_rows[b], item_rows[local]])
    return hypothesis_from_params(spec, best_pair, n, k)
