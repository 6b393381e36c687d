"""Shared test helpers: brute-force oracles, random instance generators and
the CLI run in a child interpreter.

The oracles reimplement revenue maxima directly from the mechanism
definitions over dense parameter grids, without touching the package's
candidate-set or ERM code paths.
"""

import itertools
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import auctionlearn
from auctionlearn import (AnonymousSecondPriceReserve, BestOf, BundlePrice,
                          ItemPrices, PlayerReserves, SingleReserve, TLevel,
                          ValuationProfile, bidder_utility)
from auctionlearn.mechanisms import hypothesis_from_params

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


def run_cli_process(argv) -> subprocess.CompletedProcess:
    """``python -m auctionlearn.cli *argv`` in a child interpreter that imports
    the same package as the tests, whether or not PYTHONPATH names it."""
    src = str(Path(auctionlearn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "auctionlearn.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
