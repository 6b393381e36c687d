"""The auction hypothesis classes, each an executable truthful mechanism.

Every hypothesis maps a valuation profile to an Outcome (per-item allocation
plus per-bidder payments).  Conventions shared by all classes:

* bidders and items are 0-indexed; allocation ties go to the lowest bidder index
* a bidder whose value equals a posted price or reserve buys (``>=`` sells)
* multi-bidder reserves are lazy: the highest bidder is selected first and the
  sale happens only if that bidder clears their own reserve
* multi-item valuations are additive; the grand bundle is worth the row sum

The revenue rules live in exactly two places.  ``run_mechanism`` is the
scalar reference semantics (the oracle).  ``revenue_matrix`` is the one
batched kernel: it scores a batch of parameter rows of one class on an array
of profiles with results identical to the oracle bit for bit, and ERM, the
in-class optima and ``profile_revenues`` (its single-row case) all call it.
It runs a reserve-rule class as its single-item primitive ``reserve_revenue``
on each single-item auction that ``auction_columns`` names.

Expected revenue's closed forms are batched the same way: ``expected_revenue``
scores parameter rows, laid out as for ``revenue_matrix``, under a
distribution (single-bidder posted-price shapes; at n >= 2 the reserve-rule
classes under uniform marginals, by Myerson's virtual surplus on each auction
of ``auction_columns``), and ``analytic_true_revenue`` is its one-row case.
``true_revenue`` and ``true_revenue_block`` fall back to Monte Carlo elsewhere;
the in-class optimum has closed forms on the same shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import AnalyticUnsupported, AuctionLearnError, DimensionMismatch
from .model import (Discrete, DistributionSpec, Seed, Uniform,
                    ValuationProfile, sample_block)

TAG_SINGLE = "single-reserve"
TAG_ASP = "anonymous-second-price"
TAG_PLAYER = "player-reserves"
TAG_TLEVEL = "t-level"
TAG_BUNDLE = "bundle-price"
TAG_ITEM = "item-prices"
TAG_BEST = "best-of"

CLASS_TAGS = (TAG_SINGLE, TAG_ASP, TAG_PLAYER, TAG_TLEVEL, TAG_BUNDLE, TAG_ITEM, TAG_BEST)


@dataclass(frozen=True)
class ClassSpec:
    """Names one hypothesis class: a tag plus its mode parameters."""

    tag: str
    levels: int | None = None     # t-level only: thresholds per bidder
    per_player: bool = False      # pricing classes: per-player reserves

    def __post_init__(self):
        if self.tag not in CLASS_TAGS:
            raise AuctionLearnError(f"unknown class tag {self.tag!r}")
        if self.tag == TAG_TLEVEL:
            if self.levels is None or self.levels < 1:
                raise AuctionLearnError("t-level spec needs levels >= 1")
        elif self.levels is not None:
            raise AuctionLearnError(f"{self.tag} does not take levels")
        if self.per_player and self.tag not in (TAG_BUNDLE, TAG_ITEM, TAG_BEST):
            raise AuctionLearnError(f"{self.tag} does not take per_player")

    def describe(self) -> str:
        parts = [self.tag]
        if self.levels is not None:
            parts.append(f"s={self.levels}")
        if self.per_player:
            parts.append("per-player")
        return " ".join(parts)

    @property
    def per_bidder(self) -> bool:
        """Each bidder has their own parameters, not one set shared by all."""
        return self.per_player or self.tag in (TAG_PLAYER, TAG_TLEVEL)

    def branches(self) -> tuple["ClassSpec", "ClassSpec"]:
        """best-of only: the bundle and item classes it combines."""
        return (ClassSpec(TAG_BUNDLE, per_player=self.per_player),
                ClassSpec(TAG_ITEM, per_player=self.per_player))


# ---------------------------------------------------------------------------
# hypothesis types


@dataclass(frozen=True)
class SingleReserve:
    """Post one reserve price to a single bidder for a single item."""

    price: float

    tag = TAG_SINGLE

    def param_vector(self) -> tuple[float, ...]:
        return (self.price,)


@dataclass(frozen=True)
class AnonymousSecondPriceReserve:
    """Second-price single-item auction with one anonymous reserve."""

    price: float

    tag = TAG_ASP

    def param_vector(self) -> tuple[float, ...]:
        return (self.price,)


@dataclass(frozen=True)
class PlayerReserves:
    """Second-price single-item auction with lazy per-bidder reserves."""

    prices: tuple[float, ...]

    tag = TAG_PLAYER

    def __post_init__(self):
        object.__setattr__(self, "prices", tuple(float(p) for p in self.prices))

    def param_vector(self) -> tuple[float, ...]:
        return self.prices


@dataclass(frozen=True)
class TLevel:
    """Threshold-ranked single-item auction.

    Each bidder i carries a nondecreasing threshold vector; a bidder's index is
    the count of thresholds their value clears.  The item goes to the highest
    index at least 1 (ties to the lowest bidder number), and the winner pays
    the threshold at the smallest index that would still win against the
    others' fixed indices.  Bidders clearing no threshold are never served.
    """

    thresholds: tuple[tuple[float, ...], ...]  # [bidder][level]

    tag = TAG_TLEVEL

    def __post_init__(self):
        rows = tuple(tuple(float(x) for x in row) for row in self.thresholds)
        if not rows or not rows[0]:
            raise ValueError("t-level needs at least one threshold per bidder")
        s = len(rows[0])
        if any(len(row) != s for row in rows):
            raise ValueError("all bidders must carry the same number of levels")
        for row in rows:
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError("thresholds must be nondecreasing per bidder")
        object.__setattr__(self, "thresholds", rows)

    @property
    def levels(self) -> int:
        return len(self.thresholds[0])

    def param_vector(self) -> tuple[float, ...]:
        return tuple(x for row in self.thresholds for x in row)


@dataclass(frozen=True)
class BundlePrice:
    """Sell all items as one bundle against additive bundle values.

    Anonymous mode is a second-price auction on bundle totals with one reserve
    (at one bidder a posted price, charging at least alpha); per-player mode applies
    lazy per-bidder reserves to the bundle totals.
    """

    price: float | None = None
    prices: tuple[float, ...] | None = None

    tag = TAG_BUNDLE

    def __post_init__(self):
        if (self.price is None) == (self.prices is None):
            raise ValueError("bundle price takes exactly one of price / prices")
        if self.prices is not None:
            object.__setattr__(self, "prices", tuple(float(p) for p in self.prices))

    @property
    def per_player(self) -> bool:
        return self.prices is not None

    def param_vector(self) -> tuple[float, ...]:
        return (self.price,) if self.price is not None else self.prices


@dataclass(frozen=True)
class ItemPrices:
    """Sell each item independently by the single-item rule.

    Anonymous mode posts one price per item (second price with that reserve
    when there are several bidders); per-player mode uses a lazy reserve
    matrix indexed [bidder][item].
    """

    prices: tuple[float, ...] | None = None
    price_matrix: tuple[tuple[float, ...], ...] | None = None

    tag = TAG_ITEM

    def __post_init__(self):
        if (self.prices is None) == (self.price_matrix is None):
            raise ValueError("item prices take exactly one of prices / price_matrix")
        if self.prices is not None:
            object.__setattr__(self, "prices", tuple(float(p) for p in self.prices))
        else:
            rows = tuple(tuple(float(p) for p in row) for row in self.price_matrix)
            if not rows or any(len(row) != len(rows[0]) for row in rows):
                raise ValueError("price matrix must be rectangular")
            object.__setattr__(self, "price_matrix", rows)

    @property
    def per_player(self) -> bool:
        return self.price_matrix is not None

    def param_vector(self) -> tuple[float, ...]:
        if self.prices is not None:
            return self.prices
        return tuple(p for row in self.price_matrix for p in row)


@dataclass(frozen=True)
class BestOf:
    """Run a bundle pricing and an item pricing and realize whichever raises
    more revenue on the reported profile (ties to the bundle).

    Note: the per-profile branch choice maximizes seller revenue, so unlike
    its two constituents this combined rule is not dominant-strategy truthful;
    it is the revenue benchmark the ERM candidate counting works with.
    """

    bundle: BundlePrice
    items: ItemPrices

    tag = TAG_BEST

    def __post_init__(self):
        if self.bundle.per_player != self.items.per_player:
            raise ValueError("best-of branches must share the anonymous/per-player mode")

    @property
    def per_player(self) -> bool:
        return self.bundle.per_player

    def param_vector(self) -> tuple[float, ...]:
        return self.bundle.param_vector() + self.items.param_vector()


Hypothesis = (SingleReserve | AnonymousSecondPriceReserve | PlayerReserves
              | TLevel | BundlePrice | ItemPrices | BestOf)


@dataclass(frozen=True)
class Outcome:
    """Per-item winners (or None) and per-bidder payments for one profile."""

    allocation: tuple[int | None, ...]
    payments: tuple[float, ...]

    @property
    def revenue(self) -> float:
        return float(np.sum(np.asarray(self.payments)))


# ---------------------------------------------------------------------------
# scalar reference semantics


def _second_highest(column: np.ndarray, alpha: float) -> float:
    if column.shape[0] < 2:
        return alpha
    return float(np.partition(column, -2)[-2])


def _single_item_outcome(column: np.ndarray, reserves: np.ndarray, alpha: float):
    """Second price with (possibly per-bidder) reserves on one item's values.

    Returns (winner or None, payment).  The highest bidder is tentatively
    selected (ties to the lowest index) and buys iff they clear their reserve.
    """
    w = int(np.argmax(column))
    if column[w] < reserves[w]:
        return None, 0.0
    return w, max(float(reserves[w]), _second_highest(column, alpha))


def _tlevel_indices(values: np.ndarray, thresholds) -> np.ndarray:
    # index of bidder i = number of thresholds their value clears
    return np.array([int(np.searchsorted(np.asarray(row), v, side="right"))
                     for row, v in zip(thresholds, values)])


def _tlevel_outcome(column: np.ndarray, h: TLevel):
    idx = _tlevel_indices(column, h.thresholds)
    top = int(idx.max())
    if top < 1:
        return None, 0.0
    w = int(np.argmax(idx))
    others = np.delete(idx, w)
    m_other = int(others.max()) if others.size else 0
    if m_other == 0:
        j_min = 1
    else:
        rest = idx.copy()
        rest[w] = -1
        l_star = int(np.argmax(rest))
        j_min = m_other if w < l_star else m_other + 1
    return w, float(h.thresholds[w][j_min - 1])


def run_mechanism(h: Hypothesis, v: ValuationProfile) -> Outcome:
    """Execute hypothesis h on one profile; deterministic."""
    vals = v.values
    n, k = vals.shape
    alpha = v.value_range[0]
    _check_dims(h, n, k)

    if isinstance(h, SingleReserve):
        if vals[0, 0] >= h.price:
            return Outcome((0,), (float(h.price),))
        return Outcome((None,), (0.0,))

    if isinstance(h, AnonymousSecondPriceReserve):
        w, pay = _single_item_outcome(vals[:, 0], np.full(n, h.price), alpha)
        return _one_item_result(w, pay, n)

    if isinstance(h, PlayerReserves):
        w, pay = _single_item_outcome(vals[:, 0], np.asarray(h.prices), alpha)
        return _one_item_result(w, pay, n)

    if isinstance(h, TLevel):
        w, pay = _tlevel_outcome(vals[:, 0], h)
        return _one_item_result(w, pay, n)

    if isinstance(h, BundlePrice):
        totals = np.sum(vals, axis=1)
        reserves = np.full(n, h.price) if not h.per_player else np.asarray(h.prices)
        w, pay = _single_item_outcome(totals, reserves, alpha)
        if w is None:
            return Outcome((None,) * k, (0.0,) * n)
        payments = [0.0] * n
        payments[w] = pay
        return Outcome((w,) * k, tuple(payments))

    if isinstance(h, ItemPrices):
        allocation: list[int | None] = []
        payments = [0.0] * n
        for j in range(k):
            if h.per_player:
                reserves = np.asarray([h.price_matrix[i][j] for i in range(n)])
            else:
                reserves = np.full(n, h.prices[j])
            w, pay = _single_item_outcome(vals[:, j], reserves, alpha)
            allocation.append(w)
            if w is not None:
                payments[w] += pay
        return Outcome(tuple(allocation), tuple(payments))

    if isinstance(h, BestOf):
        out_b = run_mechanism(h.bundle, v)
        out_i = run_mechanism(h.items, v)
        return out_b if out_b.revenue >= out_i.revenue else out_i

    raise TypeError(f"unknown hypothesis type {type(h)!r}")


def _one_item_result(w, pay, n) -> Outcome:
    payments = [0.0] * n
    if w is None:
        return Outcome((None,), tuple(payments))
    payments[w] = pay
    return Outcome((w,), tuple(payments))


def spec_of(h: Hypothesis) -> ClassSpec:
    """The class a hypothesis belongs to."""
    if not hasattr(h, "tag"):
        raise TypeError(f"unknown hypothesis type {type(h)!r}")
    return ClassSpec(h.tag, levels=h.levels if isinstance(h, TLevel) else None,
                     per_player=getattr(h, "per_player", False))


def check_class_dims(spec: ClassSpec, n: int, k: int) -> None:
    if spec.tag == TAG_SINGLE and (n, k) != (1, 1):
        raise DimensionMismatch("single reserve requires n = 1, k = 1")
    if spec.tag in (TAG_ASP, TAG_PLAYER, TAG_TLEVEL) and k != 1:
        raise DimensionMismatch(f"{spec.tag} requires k = 1")


def _layout(spec: ClassSpec, n: int, k: int) -> tuple[str, tuple[int, ...]]:
    """The hypothesis field that holds the class's parameters, and its
    bidder-major shape; best-of has one layout per branch."""
    if spec.tag == TAG_TLEVEL:
        return "thresholds", (n, spec.levels)
    if spec.tag == TAG_ITEM:
        return ("price_matrix", (n, k)) if spec.per_player else ("prices", (k,))
    return ("prices", (n,)) if spec.per_bidder else ("price", ())


def _param_width(spec: ClassSpec, n: int, k: int) -> int:
    if spec.tag == TAG_BEST:
        return sum(_param_width(b, n, k) for b in spec.branches())
    return math.prod(_layout(spec, n, k)[1])


def _check_dims(h: Hypothesis, n: int, k: int) -> ClassSpec:
    """The dimension check of a hypothesis, before it runs or is scored as a
    row (an item count first, then a bidder count); returns the class of h."""
    spec = spec_of(h)
    if isinstance(h, BestOf):
        _check_dims(h.bundle, n, k)
        _check_dims(h.items, n, k)
        return spec
    check_class_dims(spec, n, k)
    field, shape = _layout(spec, n, k)
    got = np.shape(getattr(h, field))    # the types keep their nested tuples rectangular
    if spec.tag == TAG_ITEM and got[-1:] != shape[-1:]:
        raise DimensionMismatch(f"item prices do not match the spec's item count k = {k}")
    if got != shape:        # a per-bidder layout's bidder axis
        raise DimensionMismatch(
            f"{spec.describe()} parameters for {got[0]} bidders do not fit n = {n}")
    return spec


def _check_rows(spec: ClassSpec, params, n: int, k: int) -> np.ndarray:
    """The (C, P) float parameter rows of the class at n bidders and k items."""
    params = np.asarray(params, dtype=float)
    check_class_dims(spec, n, k)
    if params.ndim != 2 or params.shape[1] != _param_width(spec, n, k):
        raise DimensionMismatch(
            f"{spec.describe()} needs parameter rows of width {_param_width(spec, n, k)} "
            f"at n = {n}, k = {k}, got an array of shape {params.shape}")
    return params


def revenue(h: Hypothesis, v: ValuationProfile) -> float:
    """Sum of payments collected by h on profile v."""
    return run_mechanism(h, v).revenue


def bidder_utility(h: Hypothesis, i: int, true_values: np.ndarray,
                   reported: ValuationProfile) -> float:
    """Bidder i's utility under true values when `reported` is submitted."""
    out = run_mechanism(h, reported)
    received = sum(float(true_values[i, j]) for j, w in enumerate(out.allocation) if w == i)
    return received - out.payments[i]


# ---------------------------------------------------------------------------
# the batched kernel: parameter rows x profiles


def top_two(columns: np.ndarray, alpha: float):
    """Per-profile winner (ties to the lowest index), top value and second
    value of an (..., m, n) value array; the second value is alpha when n = 1."""
    if columns.shape[-1] == 2:
        a, b = columns[..., 0], columns[..., 1]
        return (b > a).astype(np.intp), np.maximum(a, b), np.minimum(a, b)
    w = np.argmax(columns, axis=-1)
    if columns.shape[-1] < 2:
        return w, columns[..., 0], np.full(columns.shape[:-1], alpha)
    part = np.partition(columns, -2, axis=-1)
    return w, part[..., -1], part[..., -2]


def auction_columns(spec: ClassSpec, values: np.ndarray) -> list[np.ndarray]:
    """The (..., m, n) value columns of each single-item auction a reserve-rule
    class runs on (..., m, n, k) values: each item for item prices, the bundle
    totals for a bundle price, the value otherwise (a t-level bidder's too)."""
    if spec.tag == TAG_ITEM:
        return [values[..., j] for j in range(values.shape[-1])]
    return [np.sum(values, axis=-1) if spec.tag == TAG_BUNDLE else values[..., 0]]


def reserve_revenue(reserve, top, second) -> np.ndarray:
    """The single-item reserve rule, broadcast over its arguments: sell iff
    the top value clears the reserve, and charge max(reserve, second value)."""
    return np.where(top >= reserve, np.maximum(reserve, second), 0.0)


def _tlevel_rows(thr: np.ndarray, columns: np.ndarray) -> np.ndarray:
    # thr (C, n, s), columns (m, n) or (C, m, n) -> rows (C, m)
    C, n, s = thr.shape
    idx = np.sum(columns[..., None] >= thr[:, None, :, :], axis=3)  # (C, m, n)
    w = np.argmax(idx, axis=2)
    top = np.take_along_axis(idx, w[..., None], axis=2)[..., 0]
    rest = idx
    np.put_along_axis(rest, w[..., None], -1, axis=2)
    m_other = np.maximum(rest.max(axis=2), 0)
    l_star = np.argmax(rest, axis=2)
    j_min = np.where(m_other == 0, 1, np.where(w < l_star, m_other, m_other + 1))
    flat = thr.reshape(C, n * s)
    pay = np.take_along_axis(flat, w * s + (j_min - 1), axis=1)
    return np.where(top >= 1, pay, 0.0)


def revenue_matrix(spec: ClassSpec, params, values, alpha: float = 0.0) -> np.ndarray:
    """Revenue of each parameter row of the class on each profile.

    ``params`` is (C, P), row c laid out as its hypothesis's
    ``param_vector()``; ``values`` is (m, n, k), or (C, m, n, k), one block
    of profiles per row.  Entry [c, t] equals ``revenue(h_c, profile_t)``
    (of row c's block) bit for bit.  Lazy reserves read the winning bidder's
    own reserve, and item payments are accumulated per bidder before the
    bidders are summed, as in ``run_mechanism``.
    """
    values = np.asarray(values, dtype=float)
    m, n, k = values.shape[-3:]
    params = _check_rows(spec, params, n, k)
    if values.ndim != 3 and values.shape[:-3] != params.shape[:1]:
        raise DimensionMismatch(f"{spec.describe()} cannot score values of shape "
                                f"{values.shape} with {len(params)} parameter rows")
    tag = spec.tag
    lazy = spec.per_bidder

    if tag == TAG_SINGLE:
        # a posted price has no competing bid, so it charges the price itself
        return reserve_revenue(params, values[..., 0, 0], -math.inf)

    if tag == TAG_TLEVEL:
        return _tlevel_rows(params.reshape(len(params), n, spec.levels), values[..., 0])

    if tag == TAG_BEST:
        bundle, items = spec.branches()
        split = _param_width(bundle, n, k)
        return np.maximum(revenue_matrix(bundle, params[:, :split], values, alpha),
                          revenue_matrix(items, params[:, split:], values, alpha))

    auctions = auction_columns(spec, values)   # each auction's w, top, second: (m,) or (C, m)
    if tag != TAG_ITEM:     # one auction: no (C, m, n) payments to accumulate
        w, top, second = top_two(auctions[0], alpha)
        return reserve_revenue(_own(params, w) if lazy else params, top, second)
    payments = np.zeros((len(params), m, n))
    for j, columns in enumerate(auctions):
        w, top, second = top_two(columns, alpha)
        reserve = _own(params, w * k + j) if lazy else params[:, j:j + 1]
        payments[np.arange(len(params))[:, None], np.arange(m), w] += \
            reserve_revenue(reserve, top, second)
    return payments.sum(axis=2)


def _own(params: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(C, m): each row's entry at each profile's column, (m,) or (C, m)."""
    return np.take_along_axis(params, columns.reshape(-1, columns.shape[-1]), axis=1)


def profile_revenues(h: Hypothesis, values: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """Revenue of h on each profile of a (N, n, k) value array.

    Entry t equals ``revenue(h, profile_t)`` bit-for-bit.
    """
    values = np.asarray(values, dtype=float)
    spec = _check_dims(h, values.shape[1], values.shape[2])
    return revenue_matrix(spec, [h.param_vector()], values, alpha)[0]


# ---------------------------------------------------------------------------
# serialization (tagged records; round-trips are exact)


def hypothesis_from_params(spec: ClassSpec, params, n: int, k: int) -> Hypothesis:
    """The class's hypothesis on n bidders and k items whose ``param_vector()`` is ``params``."""
    return hypotheses_from_params(spec, np.reshape(params, (1, -1)), n, k)[0]


def hypotheses_from_params(spec: ClassSpec, rows, n: int, k: int) -> list[Hypothesis]:
    """``hypothesis_from_params`` of each row of a (C, P) array."""
    rows = np.asarray(rows, dtype=float)
    if spec.tag == TAG_BEST:
        bundle, items = spec.branches()
        split = _param_width(bundle, n, k)
        return list(map(BestOf, hypotheses_from_params(bundle, rows[:, :split], n, k),
                        hypotheses_from_params(items, rows[:, split:], n, k)))
    field, shape = _layout(spec, n, k)
    make = _TYPES[spec.tag]
    return [make(**{field: p}) for p in rows.reshape(-1, *shape).tolist()]


_TYPES = {cls.tag: cls for cls in Hypothesis.__args__}


def hypothesis_to_record(h: Hypothesis) -> dict:
    """``{"class": tag}``, then each field that is set, in field order;
    tuples become nested lists and best-of branches become records."""
    if type(h) not in _TYPES.values():
        raise TypeError(f"unknown hypothesis type {type(h)!r}")
    values = ((f.name, getattr(h, f.name)) for f in fields(h))
    return {"class": h.tag, **{name: _record_value(x) for name, x in values if x is not None}}


def _record_value(x):
    if isinstance(x, tuple):
        return [_record_value(y) for y in x]
    return hypothesis_to_record(x) if hasattr(x, "tag") else x


def hypothesis_from_record(rec: dict) -> Hypothesis:
    """Inverse of ``hypothesis_to_record``; lists become tuples, numbers floats."""
    tag = rec.get("class")
    cls = _TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError(f"unknown hypothesis record class {tag!r}")
    return cls(**{f.name: _field_value(rec[f.name]) for f in fields(cls) if f.name in rec})


def _field_value(x):
    if isinstance(x, dict):
        return hypothesis_from_record(x)
    if isinstance(x, list):
        return tuple(_field_value(y) for y in x)
    return float(x)


# ---------------------------------------------------------------------------
# expected revenue under a value distribution


@dataclass(frozen=True)
class RevenueEstimate:
    value: float
    std_error: float | None = None


def _posted_revenue(marginal, prices: np.ndarray, floor: float) -> np.ndarray:
    """max(price, floor) * P(value >= price) per price, max as Python's (a -0.0
    price stays); a second-price rule's floor is alpha, a lone bidder's second value."""
    if isinstance(marginal, (Uniform, Discrete)):
        return np.where(prices < floor, floor, prices) * marginal.survival(prices)
    raise AnalyticUnsupported(f"no closed form for posted prices under {type(marginal).__name__}")


def _bundle_total_distribution(spec: DistributionSpec) -> Discrete:
    """Exact distribution of a single bidder's bundle total (discrete marginals)."""
    if spec.n != 1 or not all(isinstance(m, Discrete) for m in spec.marginals[0]):
        raise AnalyticUnsupported("bundle totals are closed-form only for one bidder "
                                  "with discrete marginals")
    points = np.array([0.0])
    probs = np.array([1.0])
    for marg in spec.marginals[0]:
        new_pts = (points[:, None] + np.asarray(marg.points)[None, :]).ravel()
        new_pr = (probs[:, None] * np.asarray(marg.probs)[None, :]).ravel()
        points, inverse = np.unique(new_pts, return_inverse=True)
        probs = np.bincount(inverse, weights=new_pr)
    total = probs.sum()
    return Discrete(tuple(points), tuple(probs / total))


def _lazy_reserve_revenue(marginals, reserves) -> float:
    """Expected revenue of a second-price auction with lazy reserves r_i on
    independent uniform values: sum_i int_{r_i}^{b_i} [x f_i - (1 - F_i)] G_i dx,
    G_i = prod_{j != i} F_j the best rival's CDF, from E[max(r, Y) 1{Y < x}] =
    x G(x) - int_r^x G (Myerson's virtual surplus).  Between the supports'
    ends the integrand is a degree-n polynomial in t = x - x0: np.convolve of
    its linear factors, integrated exactly by the power rule."""
    ends = sorted({p for m in marginals for p in (m.low, m.high)})
    total = 0.0
    for i, (own, r) in enumerate(zip(marginals, reserves)):
        rivals = marginals[:i] + marginals[i + 1:]
        lo = max(r, *(m.low for m in rivals))     # G_i = 0 below a rival's support
        if lo >= own.high:
            continue
        cuts = [lo, *(p for p in ends if lo < p < own.high), own.high]
        width = own.high - own.low      # x f - (1 - F) = (2x - b) / width on the support
        for x0, x1 in zip(cuts, cuts[1:]):
            poly = [(2 * x0 - own.high) / width, 2 / width] if x0 >= own.low else [-1.0]
            for m in rivals:
                if x0 < m.high:
                    poly = np.convolve(poly, [(x0 - m.low) / (m.high - m.low),
                                              1 / (m.high - m.low)])
            power = np.arange(1, len(poly) + 1)
            total += float(np.dot(poly, (x1 - x0) ** power / power))
    return total


def _closed_form(spec: ClassSpec, dist: DistributionSpec,
                 unsupported: str = "no closed form for {} under this spec") -> list:
    """The marginals the class's closed forms read.  At n >= 2, each auction's
    (``auction_columns``) under uniform marginals, a bundle price at k = 1
    only (bundle totals of k >= 2 uniforms are not uniform).  At n = 1, one
    per posted price: the value (a reserve or a t-level's lowest threshold is
    then a posted price), each item, or the bundle total; best-of raises
    ``unsupported.format(tag)``."""
    if dist.n != 1:
        if spec.tag in (TAG_TLEVEL, TAG_BEST) or (spec.tag == TAG_BUNDLE and dist.k != 1):
            raise AnalyticUnsupported(f"no multi-bidder closed form for {spec.describe()} "
                                      f"at k = {dist.k}")
        if not all(isinstance(m, Uniform) for row in dist.marginals for m in row):
            raise AnalyticUnsupported("multi-bidder closed forms need uniform marginals")
        check_class_dims(spec, dist.n, dist.k)
        return list(zip(*dist.marginals))
    if spec.tag in (TAG_SINGLE, TAG_ASP, TAG_PLAYER, TAG_TLEVEL) and dist.k != 1:
        raise AnalyticUnsupported("single-item class on a multi-item spec")
    if spec.tag == TAG_BUNDLE and dist.k != 1:
        return [_bundle_total_distribution(dist)]
    if spec.tag != TAG_BEST:
        return dist.marginals[0]
    raise AnalyticUnsupported(unsupported.format(spec.tag))


def expected_revenue(spec: ClassSpec, rows, dist: DistributionSpec) -> np.ndarray:
    """Closed-form expected revenue of each parameter row of the class under
    dist, the expectation counterpart of ``revenue_matrix`` (rows laid out as
    there): at n = 1 ``_posted_revenue`` of each posted price, item prices
    summed left to right; at n >= 2 ``_lazy_reserve_revenue`` of each row on
    each auction.  ``_closed_form`` names the shapes it covers."""
    marginals = _closed_form(spec, dist)
    rows = _check_rows(spec, rows, dist.n, dist.k)
    if dist.n != 1:
        # reserves[c, i, j]: row c's reserve for bidder i in auction j
        reserves = (rows.reshape(len(rows), dist.n, rows.shape[1] // dist.n) if spec.per_bidder
                    else np.repeat(rows[:, None], dist.n, axis=1))
        return np.array([sum(map(_lazy_reserve_revenue, marginals, r.T.tolist()))
                         for r in reserves])
    floor = -math.inf if spec.tag in (TAG_SINGLE, TAG_TLEVEL) else dist.value_range[0]
    if spec.tag != TAG_ITEM:     # one price: bidder 0's reserve or lowest threshold
        return _posted_revenue(marginals[0], rows[:, 0], floor)
    return sum(_posted_revenue(m, p, floor) for m, p in zip(marginals, rows.T))


def analytic_true_revenue(h: Hypothesis, spec: DistributionSpec) -> float:
    """``expected_revenue`` of one hypothesis; a shape with no closed form is
    refused before h's dimensions are checked."""
    cls = spec_of(h)
    _closed_form(cls, spec)
    _check_dims(h, spec.n, spec.k)
    return float(expected_revenue(cls, [h.param_vector()], spec)[0])


def _posted_optimum(marginal) -> float:
    """sup_r r * P(v >= r) for one marginal."""
    if isinstance(marginal, Uniform):
        r = max(marginal.low, marginal.high / 2.0)
        return r * marginal.survival(r)
    if isinstance(marginal, Discrete):
        return max(float(x) * marginal.survival(float(x)) for x in marginal.points)
    raise AnalyticUnsupported(f"no closed-form posted-price optimum under "
                              f"{type(marginal).__name__}")


def analytic_optimum(spec: ClassSpec, dist: DistributionSpec) -> float:
    """Closed-form sup over the class of expected revenue, for the shapes of
    ``analytic_true_revenue``.  At n = 1: the best posted price on each
    marginal.  At n >= 2 bidder i's term depends on r_i alone and is best at
    r_i = max(a_i, b_i / 2), where its virtual value turns nonnegative; an
    anonymous class shares that reserve only when each auction's marginals
    are identical, and raises AnalyticUnsupported otherwise."""
    marginals = _closed_form(spec, dist, "no closed-form optimum for {}")
    if dist.n == 1:
        return float(sum(map(_posted_optimum, marginals)))
    if not spec.per_bidder and any(len(set(a)) > 1 for a in marginals):
        raise AnalyticUnsupported("anonymous closed-form optima need identical "
                                  "marginals in each auction")
    return sum(_lazy_reserve_revenue(a, [max(m.low, m.high / 2) for m in a]) for a in marginals)


def monte_carlo_true_revenue(h: Hypothesis, spec: DistributionSpec, draws: int,
                             seed: Seed) -> RevenueEstimate:
    if draws < 2:
        raise AuctionLearnError("monte carlo needs at least 2 draws")
    values = sample_block(spec, draws, [seed.master])[0]
    revs = profile_revenues(h, values, spec.value_range[0])
    return RevenueEstimate(float(revs.mean()),
                           float(revs.std(ddof=1) / math.sqrt(draws)))


def true_revenue_block(spec: ClassSpec, rows, dist: DistributionSpec, method: str, draws: int,
                       seed: Seed, label: str, index) -> np.ndarray:
    """``true_revenue`` of each parameter row of the class, row r's Monte Carlo
    draws from ``seed.child(label, index[r])``: one ``expected_revenue`` call,
    unless the method is 'monte-carlo' or, under 'auto', the shape has no
    closed form; only then are the rows made hypotheses and seeds derived."""
    if method != "monte-carlo":
        try:
            return expected_revenue(spec, rows, dist)
        except AnalyticUnsupported:
            if method == "analytic":
                raise
    hyps = hypotheses_from_params(spec, rows, dist.n, dist.k)
    return np.array([monte_carlo_true_revenue(h, dist, draws, seed.child(label, i)).value
                     for h, i in zip(hyps, index)])


def true_revenue(h: Hypothesis, spec: DistributionSpec, method: str = "analytic",
                 draws: int = 100_000, seed: Seed = Seed(0)) -> RevenueEstimate:
    """Expected revenue of h under the spec.

    ``method='analytic'`` uses the closed form of ``expected_revenue`` and
    raises AnalyticUnsupported where there is none; ``method='monte-carlo'``
    estimates from fresh draws and reports a standard error;
    ``method='auto'`` takes the closed form where there is one and Monte
    Carlo otherwise.
    """
    if method not in ("auto", "analytic", "monte-carlo"):
        raise ValueError(f"unknown method {method!r}")
    if method != "monte-carlo":
        try:
            return RevenueEstimate(analytic_true_revenue(h, spec), None)
        except AnalyticUnsupported:
            if method == "analytic":
                raise
    return monte_carlo_true_revenue(h, spec, draws, seed)
