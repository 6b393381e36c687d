"""Shared test helpers: brute-force oracles, random instance generators and
the CLI run in a child interpreter.

The oracles reimplement revenue maxima directly from the mechanism
definitions over dense parameter grids, without touching the package's
candidate-set or ERM code paths.
"""

import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate

import auctionlearn
from auctionlearn import (AnonymousSecondPriceReserve, BestOf, BundlePrice, ClassSpec,
                          ItemPrices, PlayerReserves, Seed, SingleReserve, TLevel, Uniform,
                          ValuationProfile, bidder_utility, candidate_count,
                          empirical_revenue, erm)
from auctionlearn.mechanisms import (_bundle_total_distribution, _lazy_reserve_revenue,
                                     hypothesis_from_params)

FINE_GRID = np.arange(1001) / 1000.0          # step 1e-3 on [0, 1]

TRUTHFUL_TAGS = ("single-reserve", "anonymous-second-price", "player-reserves",
                 "t-level", "bundle-price", "item-prices")
ALL_TAGS = TRUTHFUL_TAGS + ("best-of",)


def fine_grid(lo: float, hi: float) -> np.ndarray:
    n = int(round((hi - lo) * 1000))
    return lo + np.arange(n + 1) / 1000.0


def second_highest(cols: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    if cols.shape[1] < 2:
        return np.full(cols.shape[0], alpha)
    return np.partition(cols, -2, axis=1)[:, -2]


def posted_curve(vals: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Mean revenue of posting each grid price to one bidder."""
    sales = vals[None, :] >= grid[:, None]
    return (grid[:, None] * sales).mean(axis=1)


def second_price_curve(cols: np.ndarray, grid: np.ndarray,
                       alpha: float = 0.0) -> np.ndarray:
    """Mean revenue of each anonymous grid reserve (second price, >= sells)."""
    top = cols.max(axis=1)
    sec = second_highest(cols, alpha)
    rows = np.where(top[None, :] >= grid[:, None],
                    np.maximum(grid[:, None], sec[None, :]), 0.0)
    return rows.mean(axis=1)


def lazy_curve(cols: np.ndarray, bidder: int, grid: np.ndarray,
               alpha: float = 0.0) -> np.ndarray:
    """Summed revenue of bidder's lazy grid reserve on its tentative wins."""
    w = np.argmax(cols, axis=1)
    sec = second_highest(cols, alpha)
    mask = w == bidder
    vi, si = cols[mask, bidder], sec[mask]
    rows = np.where(vi[None, :] >= grid[:, None],
                    np.maximum(grid[:, None], si[None, :]), 0.0)
    return rows.sum(axis=1) / cols.shape[0]


def grid_max_player_reserves(cols: np.ndarray) -> float:
    return float(sum(lazy_curve(cols, i, FINE_GRID).max()
                     for i in range(cols.shape[1])))


def grid_max_tlevel_two_bidders_one_level(cols: np.ndarray) -> float:
    """Joint grid max for n = 2, s = 1 thresholds.

    With one level per bidder, bidder 0 wins (and pays theta_0) whenever it
    clears its threshold - a tie on indices goes to the lower bidder - and
    otherwise bidder 1 sells at theta_1 if it clears its own.
    """
    a, b = cols[:, 0], cols[:, 1]
    A = (a[None, :] >= FINE_GRID[:, None]).astype(float)       # (G, m)
    B = (b[None, :] >= FINE_GRID[:, None]).astype(float)
    m = cols.shape[0]
    term1 = FINE_GRID * A.mean(axis=1)                          # (G,)
    cross = (1.0 - A) @ B.T / m                                 # (G0, G1)
    total = term1[:, None] + FINE_GRID[None, :] * cross
    return float(total.max())


def grid_max_best_of_single_item(cols: np.ndarray, alpha: float = 0.0) -> float:
    """Joint grid max of per-profile max(bundle branch, item branch), k = 1."""
    top = cols.max(axis=1)
    sec = second_highest(cols, alpha)
    rows = np.where(top[None, :] >= FINE_GRID[:, None],
                    np.maximum(FINE_GRID[:, None], sec[None, :]), 0.0)  # (G, m)
    best = -np.inf
    for g in range(len(FINE_GRID)):
        mixed = np.maximum(rows[g][None, :], rows)
        best = max(best, float(mixed.mean(axis=1).max()))
    return best


def grid_max_item_prices(values: np.ndarray, per_player: bool) -> float:
    m, n, k = values.shape
    total = 0.0
    for j in range(k):
        cols = values[:, :, j]
        if per_player:
            total += sum(lazy_curve(cols, i, FINE_GRID).max() for i in range(n))
        else:
            total += second_price_curve(cols, FINE_GRID).max()
    return float(total)


def grid_max_bundle(values: np.ndarray, per_player: bool) -> float:
    m, n, k = values.shape
    totals = values.sum(axis=2)
    grid = fine_grid(0.0, float(k))
    if per_player:
        return float(sum(lazy_curve(totals, i, grid).max() for i in range(n)))
    return float(second_price_curve(totals, grid).max())


def reserve_grid_optimum(spec, dist, grid_step: float, draws: int, seed) -> float:
    """The grid optimum of a reserve-rule class (single reserve, anonymous or
    player reserves, anonymous or per-player bundle and item prices, and
    t-level at n = 1, a posted price on its lowest threshold) with every grid
    reserve scored on every draw: the mean over the draws of the reserve
    rule, its max over the grid, summed over lazy bidders and items.
    """
    alpha, beta = dist.value_range
    values = auctionlearn.sample_values(dist, draws, seed).values
    k = dist.k
    bundle = spec.tag == "bundle-price"
    lazy = spec.tag == "player-reserves" or spec.per_player
    lo, hi = (k * alpha, k * beta) if bundle else (alpha, beta)
    grid = lo + np.arange(int(round((hi - lo) / grid_step)) + 1) * grid_step
    items = [values.sum(axis=2)] if bundle else [values[:, :, j] for j in range(k)]
    total = 0.0
    for cols in items:
        w = np.argmax(cols, axis=1)
        top, sec = cols.max(axis=1), second_highest(cols, alpha)
        groups = [w == i for i in range(cols.shape[1])] if lazy else [np.ones(draws, bool)]
        curves = [np.where(top[g][None, :] >= grid[:, None],
                           np.maximum(grid[:, None], sec[g][None, :]), 0.0).sum(axis=1) / draws
                  for g in groups]
        total += sum(c.max() for c in curves)
    return float(total)


def joint_grid_optimum(spec, dist, grid_step: float, draws: int, seed) -> float:
    """The grid optimum of t-level or anonymous single-item best-of with every
    hypothesis on the grid enumerated (nondecreasing threshold tuples per
    bidder; bundle price on [k*alpha, k*beta] and item price) and scored by
    its empirical revenue on the draws."""
    alpha, beta = dist.value_range
    S = auctionlearn.sample_values(dist, draws, seed)

    def grid(lo, hi):
        return (lo + np.arange(int(round((hi - lo) / grid_step)) + 1) * grid_step).tolist()

    if spec.tag == "t-level":
        per_bidder = itertools.combinations_with_replacement(grid(alpha, beta), spec.levels)
        hyps = (TLevel(t) for t in itertools.product(list(per_bidder), repeat=dist.n))
    else:
        hyps = (BestOf(BundlePrice(price=b), ItemPrices(prices=(i,)))
                for b in grid(dist.k * alpha, dist.k * beta) for i in grid(alpha, beta))
    return max(empirical_revenue(h, S) for h in hyps)


def draw_grid_sample(gen: np.random.Generator, m: int, n: int, k: int) -> np.ndarray:
    """Values uniform on {0, 0.1, ..., 1.0}; all lie exactly on FINE_GRID."""
    return gen.integers(0, 11, size=(m, n, k)) / 10.0


def draw_thousandths_sample(gen: np.random.Generator, m: int, n: int, k: int) -> np.ndarray:
    """Values uniform on {0, 0.001, ..., 1.0}: each is a FINE_GRID point."""
    return gen.integers(0, 1001, size=(m, n, k)) / 1000.0


def draw_eighth_sample(gen: np.random.Generator, m: int, n: int, k: int) -> np.ndarray:
    """Values uniform on {0, 1/8, ..., 1}: binary-exact, so additive bundle
    totals also land exactly on the thousandths grid (tenths do not: e.g.
    0.1 + 0.7 != 0.8 in floats, which would shift a grid sale)."""
    return gen.integers(0, 9, size=(m, n, k)) / 8.0


# ---------------------------------------------------------------------------
# split-sample spaces: every class, at the dimensions its tests can afford


SPLIT_SPECS = [ClassSpec("single-reserve"), ClassSpec("anonymous-second-price"),
               ClassSpec("player-reserves"), ClassSpec("t-level", levels=1),
               ClassSpec("t-level", levels=2),
               ClassSpec("bundle-price"), ClassSpec("bundle-price", per_player=True),
               ClassSpec("item-prices"), ClassSpec("item-prices", per_player=True),
               ClassSpec("best-of"), ClassSpec("best-of", per_player=True)]
SPLIT_IDS = [s.describe().replace(" ", "-") for s in SPLIT_SPECS]


def split_dims(spec):
    """(max n, max k, max m): the bulk scorer scores every candidate of the
    full sample, so best-of and two-level t-level stay small to stay fast."""
    if spec.tag == "single-reserve":
        return 1, 1, 12
    k = 1 if spec.tag in ("anonymous-second-price", "player-reserves", "t-level") else 2
    if spec.tag == "best-of":
        return 2, k, 6
    if spec.tag == "t-level" and spec.levels == 2:
        return 2, k, 8
    return 3, k, 8


# ---------------------------------------------------------------------------
# exhaustive candidate enumeration (the set ERM must maximize over)


@dataclass(frozen=True)
class CandidateSet:
    """Deduplicated sample-valued candidates in ascending parameter order."""

    hypotheses: tuple

    @property
    def count(self) -> int:
        return len(self.hypotheses)

    def __iter__(self):
        return iter(self.hypotheses)

    def materialize(self) -> tuple:
        return self.hypotheses


def _coordinate_choices(spec, values, beta):
    """Per parameter coordinate: its ascending choices, each a tuple."""
    _, n, k = values.shape
    tag = spec.tag
    if tag == "best-of":
        return [c for b in spec.branches() for c in _coordinate_choices(b, values, beta)]
    if tag == "t-level":   # beta joins each bidder's pool as the no-sale sentinel
        return [list(itertools.combinations_with_replacement(
                    np.unique(np.append(values[:, i, 0], beta)).tolist(), spec.levels))
                for i in range(n)]
    if tag == "item-prices":
        if spec.per_player:
            pools = [values[:, i, j] for i in range(n) for j in range(k)]
        else:
            pools = [values[:, :, j] for j in range(k)]
    elif tag == "bundle-price":
        totals = values.sum(axis=2)
        pools = [totals[:, i] for i in range(n)] if spec.per_player else [totals]
    elif tag == "player-reserves":
        pools = [values[:, i, 0] for i in range(n)]
    else:                  # single reserve, anonymous second price
        pools = [values[:, :, 0]]
    return [[(x,) for x in np.unique(p).tolist()] for p in pools]


def candidate_set(spec, S) -> CandidateSet:
    """Every sample-valued candidate of the class on S, enumerated directly
    as the lexicographic product of per-coordinate choices."""
    choices = _coordinate_choices(spec, S.values, S.value_range[1])
    return CandidateSet(tuple(hypothesis_from_params(spec, sum(row, ()), S.n, S.k)
                              for row in itertools.product(*choices)))


def exhaustive_argmax(spec, S):
    """(best, top): the argmax of empirical revenue over the materialized
    candidate set, ties broken toward the largest parameter vector, and the
    positions of the maximum in the set, which ``candidate_count`` sizes."""
    cands = candidate_set(spec, S).materialize()
    assert candidate_count(spec, S) == len(cands)
    revs = np.array([empirical_revenue(c, S) for c in cands])
    top = np.flatnonzero(revs == revs.max())
    return max((cands[i] for i in top), key=lambda c: c.param_vector()), top


def assert_exhaustive_argmax(spec, S) -> np.ndarray:
    """ERM equals ``exhaustive_argmax``; returns the positions of the maximum
    in the candidate set."""
    best, top = exhaustive_argmax(spec, S)
    h = erm(spec, S)
    assert h == best, f"{spec.describe()}: {h} vs {best}"
    return top


# ---------------------------------------------------------------------------
# expected revenue by quadrature


def lazy_reserve_revenue_quad(supports, reserves) -> float:
    """Expected revenue of a second-price auction with lazy reserves r_i on
    independent U[a_i, b_i] values, from the direct definition
    sum_i E[1{i top} 1{v_i >= r_i} max(r_i, second)] by nested quadrature:
    given v_i = x >= r_i, bidder i wins when the best rival value Y is below
    x and pays r_i if Y < r_i, else Y, so its share is
    int f_i(x) [r_i P(Y < r_i) + int_{r_i}^x y g_i(y) dy] dx, g_i the
    density of Y.  No integration by parts, no virtual values."""
    ends = sorted({p for support in supports for p in support})

    def cdf(j, y):
        a, b = supports[j]
        return min(max((y - a) / (b - a), 0.0), 1.0)

    def pdf(j, y):
        a, b = supports[j]
        return 1.0 / (b - a) if a <= y <= b else 0.0

    def quad(fn, lo, hi):
        points = [p for p in ends if lo < p < hi] or None
        return integrate.quad(fn, lo, hi, points=points, epsabs=1e-15, epsrel=1e-13,
                              limit=200)[0]

    total = 0.0
    for i, (r, (a, b)) in enumerate(zip(reserves, supports)):
        rivals = [j for j in range(len(supports)) if j != i]

        def rival_cdf(y):
            return math.prod(cdf(j, y) for j in rivals)

        def rival_pdf(y):
            return sum(pdf(j, y) * math.prod(cdf(l, y) for l in rivals if l != j)
                       for j in rivals)

        def share(x):
            return pdf(i, x) * (r * rival_cdf(r) + quad(lambda y: y * rival_pdf(y), r, x))

        if max(r, a) < b:
            total += quad(share, max(r, a), b)
    return total


def survival_reference(marginal, price: float) -> float:
    """P(value >= price) in Python floats: a uniform's clipped line, or a
    discrete marginal's atoms at or above the price, summed left to right."""
    if isinstance(marginal, Uniform):
        return min(max((marginal.high - price) / (marginal.high - marginal.low), 0.0), 1.0)
    return float(sum(p for x, p in zip(marginal.points, marginal.probs) if x >= price))


def expected_revenue_reference(h, dist) -> float:
    """Closed-form expected revenue of one hypothesis, one Python float at a
    time, by ``run_mechanism``'s rules.

    One bidder: a price p sells iff the value clears it, with probability
    ``survival_reference``.  A single reserve and a t-level (its lowest
    threshold) charge p, as no second bid exists; a second-price rule
    charges max(p, alpha), alpha being a lone bidder's second value.  Items
    sell one by one, their revenues summed in item order; a bundle price
    posts to the bundle total.  Several bidders: each single-item auction
    (the value, an item, or the bundle total at k = 1) runs lazy reserves,
    bidder i's own or the one anonymous price, and its closed form is
    ``_lazy_reserve_revenue``, summed in auction order."""
    n, k, alpha = dist.n, dist.k, dist.value_range[0]
    if n == 1:
        marginals = dist.marginals[0]
        if isinstance(h, (SingleReserve, TLevel)):
            p = h.price if isinstance(h, SingleReserve) else h.thresholds[0][0]
            return p * survival_reference(marginals[0], p)
        lazy = getattr(h, "prices", None)     # a reserve or bundle price per bidder
        if isinstance(h, ItemPrices):
            prices = h.price_matrix[0] if h.per_player else h.prices
        else:
            prices = [h.price if lazy is None else lazy[0]]
        if isinstance(h, BundlePrice) and k > 1:
            marginals = [_bundle_total_distribution(dist)]
        return sum(max(p, alpha) * survival_reference(m, p) for m, p in zip(marginals, prices))
    if isinstance(h, ItemPrices):
        reserves = [[h.price_matrix[i][j] if h.per_player else h.prices[j] for i in range(n)]
                    for j in range(k)]
    else:
        lazy = getattr(h, "prices", None)
        reserves = [[h.price] * n if lazy is None else list(lazy)]
    return sum(_lazy_reserve_revenue(auction, r)
               for auction, r in zip(zip(*dist.marginals), reserves))


# ---------------------------------------------------------------------------
# spies on the package's seed derivation and hypothesis building


def spy_seed_labels(monkeypatch) -> list:
    """The label of every seed derived from now on, once per index, in call
    order: ``Seed.child`` derives through ``Seed.child_masters``."""
    labels, child_masters = [], Seed.child_masters

    def spy(self, label, indices):
        indices = list(indices)
        labels.extend([label] * len(indices))
        return child_masters(self, label, indices)

    monkeypatch.setattr(Seed, "child_masters", spy)
    return labels


def spy_hypothesis_building(monkeypatch) -> list:
    """The row count of every ``hypotheses_from_params`` call from now on,
    under each name a package module binds it to."""
    built, build = [], auctionlearn.mechanisms.hypotheses_from_params

    def spy(spec, rows, n, k):
        built.append(len(rows))
        return build(spec, rows, n, k)

    for module in ("mechanisms", "erm", "splitsample", "bounds", "experiments"):
        module = getattr(auctionlearn, module)
        if hasattr(module, "hypotheses_from_params"):
            monkeypatch.setattr(module, "hypotheses_from_params", spy)
    return built


# ---------------------------------------------------------------------------
# random instances for the incentive suites


def random_hypothesis(tag, n, k, gen):
    if tag == "single-reserve":
        return SingleReserve(float(gen.random()))
    if tag == "anonymous-second-price":
        return AnonymousSecondPriceReserve(float(gen.random()))
    if tag == "player-reserves":
        return PlayerReserves(tuple(gen.random(n)))
    if tag == "t-level":
        s = int(gen.integers(1, 4))
        return TLevel(tuple(tuple(np.sort(gen.random(s))) for _ in range(n)))
    if tag == "bundle-price":
        if gen.random() < 0.5:
            return BundlePrice(price=float(gen.random() * k))
        return BundlePrice(prices=tuple(gen.random(n) * k))
    if tag == "item-prices":
        if gen.random() < 0.5:
            return ItemPrices(prices=tuple(gen.random(k)))
        return ItemPrices(price_matrix=tuple(tuple(r) for r in gen.random((n, k))))
    if tag == "best-of":
        if gen.random() < 0.5:
            return BestOf(BundlePrice(prices=tuple(gen.random(n) * k)),
                          ItemPrices(price_matrix=tuple(tuple(r) for r in gen.random((n, k)))))
        return BestOf(BundlePrice(price=float(gen.random() * k)),
                      ItemPrices(prices=tuple(gen.random(k))))
    raise ValueError(tag)


def random_instance(tag, gen, max_n=3, max_k=3):
    if tag == "single-reserve":
        n, k = 1, 1
    elif tag in ("anonymous-second-price", "player-reserves", "t-level"):
        n, k = int(gen.integers(1, max_n + 1)), 1
    else:
        n, k = int(gen.integers(1, max_n + 1)), int(gen.integers(1, max_k + 1))
    h = random_hypothesis(tag, n, k, gen)
    v = gen.random((n, k))
    return h, v


def misreport_improvement(h, values, grid_points=41):
    """Largest utility gain any bidder gets from any one-coordinate misreport."""
    n, k = values.shape
    truth = ValuationProfile(values)
    grid = np.arange(grid_points) / (grid_points - 1)
    worst = -np.inf
    for i in range(n):
        base = bidder_utility(h, i, values, truth)
        for j in range(k):
            for x in grid:
                reported = values.copy()
                reported[i, j] = x
                u = bidder_utility(h, i, values, ValuationProfile(reported))
                worst = max(worst, u - base)
    return worst


# ---------------------------------------------------------------------------
# the CLI in a child interpreter


def run_python_process(args, **env) -> subprocess.CompletedProcess:
    """``python *args`` in a child interpreter that imports the same package
    as the tests, whether or not PYTHONPATH names it, with `env` added."""
    src = str(Path(auctionlearn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


def run_cli_process(argv) -> subprocess.CompletedProcess:
    """``python -m auctionlearn.cli *argv`` in a child interpreter."""
    return run_python_process(["-m", "auctionlearn.cli", *argv])
