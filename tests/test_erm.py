"""Candidate sets, empirical revenue, and ERM optimality/tie-break contracts."""

import importlib
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from auctionlearn import (DEFAULT_CANDIDATE_CEILING, CeilingExceeded, ClassSpec,
                          PlayerReserves, SampleSet, SingleReserve,
                          candidate_count, empirical_revenue, erm,
                          erm_with_value)
from oracles import candidate_set


def sample(values, value_range=(0.0, 1.0)):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1, 1)
    return SampleSet(arr, value_range)


SINGLE = ClassSpec("single-reserve")


def test_candidate_set_single_reserve():
    cs = candidate_set(SINGLE, sample([0.2, 0.5, 1.0]))
    assert [h.price for h in cs] == [0.2, 0.5, 1.0]
    assert cs.count == 3


def test_candidate_set_dedup():
    cs = candidate_set(SINGLE, sample([0.5, 0.5]))
    assert [h.price for h in cs] == [0.5]


def test_candidate_set_player_reserves_product():
    S = sample(np.array([[[0.3], [0.4]], [[0.7], [0.9]]]))
    cs = candidate_set(ClassSpec("player-reserves"), S)
    assert cs.count == 4
    assert [h.prices for h in cs] == [(0.3, 0.4), (0.3, 0.9), (0.7, 0.4), (0.7, 0.9)]


def test_candidate_set_tlevel_includes_no_sale_sentinel():
    S = sample(np.array([[[0.3], [0.4]], [[0.7], [0.9]]]))
    cs = candidate_set(ClassSpec("t-level", levels=1), S)
    rows = {h.thresholds for h in cs}
    # each bidder's pool is its own values plus the top of the range
    assert ((1.0,), (1.0,)) in rows
    assert cs.count == 9


def test_candidate_counts_respect_class_bounds():
    gen = np.random.default_rng(5)
    values = gen.random((4, 2, 2))
    S = SampleSet(values)
    m, n, k = 4, 2, 2
    assert candidate_count(ClassSpec("anonymous-second-price"),
                           sample(values[:, :, :1].reshape(m, n, 1))) <= n * m
    assert candidate_count(ClassSpec("player-reserves"),
                           sample(values[:, :, :1].reshape(m, n, 1))) <= m**n
    assert candidate_count(ClassSpec("bundle-price"), S) <= n * m
    assert candidate_count(ClassSpec("bundle-price", per_player=True), S) <= m**n
    assert candidate_count(ClassSpec("item-prices"), S) <= (n * m)**k
    assert candidate_count(ClassSpec("item-prices", per_player=True), S) <= m**(n * k)
    assert candidate_count(ClassSpec("best-of"), S) <= (n * m)**(k + 1)


def test_empirical_revenue_examples():
    S = sample([0.2, 0.5, 1.0])
    assert empirical_revenue(SingleReserve(0.5), S) == pytest.approx(1 / 3, abs=1e-15)
    assert empirical_revenue(SingleReserve(0.0), S) == 0.0
    assert empirical_revenue(SingleReserve(1.0), S) == pytest.approx(1 / 3, abs=1e-15)


def test_erm_tie_breaks_to_largest_parameter():
    h = erm(SINGLE, sample([0.2, 0.5, 1.0]))
    assert h == SingleReserve(1.0)


def test_erm_singleton():
    assert erm(SINGLE, sample([0.5])) == SingleReserve(0.5)


def test_erm_player_reserves_matches_brute_force():
    S = sample(np.array([[[0.3], [0.9]], [[0.7], [0.4]]]))
    spec = ClassSpec("player-reserves")
    h = erm(spec, S)
    cands = candidate_set(spec, S).materialize()
    best = max((empirical_revenue(c, S), c.param_vector()) for c in cands)
    assert (empirical_revenue(h, S), h.param_vector()) == best
    assert h == PlayerReserves((0.7, 0.9))


ALL_SPECS = [
    (ClassSpec("single-reserve"), 1, 1),
    (ClassSpec("anonymous-second-price"), 2, 1),
    (ClassSpec("player-reserves"), 2, 1),
    (ClassSpec("t-level", levels=1), 2, 1),
    (ClassSpec("t-level", levels=2), 1, 1),
    (ClassSpec("bundle-price"), 2, 2),
    (ClassSpec("bundle-price", per_player=True), 2, 2),
    (ClassSpec("item-prices"), 2, 2),
    (ClassSpec("item-prices", per_player=True), 2, 2),
    (ClassSpec("best-of"), 2, 2),
    (ClassSpec("best-of", per_player=True), 2, 2),
]


def assert_exhaustive_argmax(spec, S) -> np.ndarray:
    """ERM equals the argmax over the materialized candidate set, with ties
    broken toward the largest parameter vector, and ``candidate_count`` its
    size; returns the positions of the maximum in the candidate set."""
    cands = candidate_set(spec, S).materialize()
    assert candidate_count(spec, S) == len(cands)
    revs = np.array([empirical_revenue(c, S) for c in cands])
    top = np.flatnonzero(revs == revs.max())
    best = max((cands[i] for i in top), key=lambda c: c.param_vector())
    h = erm(spec, S)
    assert h == best, f"{spec.describe()}: {h} vs {best}"
    return top


@pytest.mark.parametrize("spec,n,k", ALL_SPECS)
def test_erm_equals_exhaustive_enumeration(spec, n, k):
    """The fast per-class paths must agree with argmax over the materialized
    candidate set, on continuous samples and on tenths-grid samples, whose
    ties exercise the tie-break."""
    gen = np.random.default_rng(zlib.crc32(spec.describe().encode()))
    for _ in range(8):
        m = int(gen.integers(1, 6))
        assert_exhaustive_argmax(spec, SampleSet(gen.random((m, n, k))))
    for _ in range(8):
        m = int(gen.integers(1, 6))
        assert_exhaustive_argmax(spec, SampleSet(oracles.draw_grid_sample(gen, m, n, k)))


@pytest.mark.parametrize("spec,shape,seed,chunk", [
    # 91^2 = 8,281 candidates in chunks of 4,096 rows
    (ClassSpec("t-level", levels=2), (12, 2, 1), 45, 4096),
    (ClassSpec("t-level", levels=2), (12, 2, 1), 62, 4096),
    # 6^6 = 46,656 candidates; a chunk is 3 whole bundle rows x 1,296 item rows
    (ClassSpec("best-of", per_player=True), (6, 2, 2), 9, 3888),
], ids=["t-level-s2-a", "t-level-s2-b", "best-of-per-player"])
def test_erm_ties_across_candidate_chunks(spec, shape, seed, chunk):
    """Samples whose maximum is tied in more than one ERM candidate chunk:
    the last argmax must be carried across chunks with >=."""
    S = SampleSet(np.random.default_rng(seed).random(shape))
    top = assert_exhaustive_argmax(spec, S)
    assert len(np.unique(top // chunk)) > 1


@pytest.mark.parametrize("spec,n,k", ALL_SPECS)
def test_erm_permutation_invariance_and_determinism(spec, n, k):
    gen = np.random.default_rng(zlib.crc32((spec.describe() + "-perm").encode()))
    for _ in range(5):
        m = int(gen.integers(2, 7))
        values = oracles.draw_grid_sample(gen, m, n, k)
        S = SampleSet(values)
        h = erm(spec, S)
        assert erm(spec, S) == h
        for _ in range(3):
            perm = gen.permutation(m)
            assert erm(spec, SampleSet(values[perm])) == h


POSTED_SIZES = [*range(1, 10), 64, 400, 2000]


def posted_sample(m, kind, low, seed):
    """m posted-price values on [low, low + 3] (or [0, 1]): uniform, on a
    tenths grid (so prices tie in exact arithmetic), or all equal."""
    gen = np.random.default_rng(seed)
    unit = {"uniform": lambda: gen.random(m),
            "tenths": lambda: gen.integers(0, 11, m) / 10,
            "equal": lambda: np.full(m, gen.integers(0, 11) / 10)}[kind]()
    width = 1.0 if low == 0.0 else 3.0
    return SampleSet((low + width * unit).reshape(m, 1, 1), (low, low + width))


@settings(max_examples=80, deadline=None)
@given(m=st.sampled_from(POSTED_SIZES), kind=st.sampled_from(["uniform", "tenths", "equal"]),
       low=st.sampled_from([0.0, 2.0]), seed=st.integers(0, 2**32 - 1))
# in these tenths samples the sorted-mean winner's closed form is not the largest
@example(m=6, kind="tenths", low=0.0, seed=798)
@example(m=9, kind="tenths", low=0.0, seed=32)
@example(m=64, kind="tenths", low=0.0, seed=35)
@example(m=2000, kind="tenths", low=0.0, seed=0)
@example(m=2000, kind="uniform", low=2.0, seed=0)
@example(m=400, kind="equal", low=2.0, seed=0)
def test_posted_price_erm_matches_exhaustive_argmax(m, kind, low, seed):
    """Single-reserve ERM scores exactly only the prices near the largest
    closed form u*count/m; it must pick what the exhaustive sorted-mean
    argmax over every candidate picks."""
    assert_exhaustive_argmax(SINGLE, posted_sample(m, kind, low, seed))


@pytest.mark.parametrize("values", [
    [0.2, 0.3, 0.6],             # 0.2*3 = 0.3*2 = 0.6*1 in exact arithmetic
    [0.1] * 5 + [0.6],           # the closed form ranks 0.1 first, the sorted mean ties
    [0.2] * 4 + [0.6, 0.9],
    [0.1, 0.1, 0.1, 0.1, 0.3, 0.3],
])
def test_posted_price_near_ties_are_scored_exactly(values, monkeypatch):
    """Prices whose closed forms differ only by rounding are all re-scored by
    the sorted mean, which alone decides the winner."""
    module = importlib.import_module("auctionlearn.erm")
    scored, posted_means = [], module._posted_means

    def spy(prices, zeros, length):
        scored.append(len(prices))
        return posted_means(prices, zeros, length)

    monkeypatch.setattr(module, "_posted_means", spy)
    assert_exhaustive_argmax(SINGLE, sample(values))
    assert scored and scored[0] > 1


def test_erm_ceiling_error():
    """The ceiling bounds the rows ERM scores: the candidate product of a
    joint class, the longest coordinate pool of a separable one."""
    gen = np.random.default_rng(1)
    S = SampleSet(gen.random((10, 2, 1)))
    player = ClassSpec("player-reserves")      # separable: 10 reserves per bidder
    with pytest.raises(CeilingExceeded):
        erm(player, S, ceiling=9)
    assert erm(player, S, ceiling=10) == erm(player, S)
    tlevel = ClassSpec("t-level", levels=1)    # joint: 11 thresholds per bidder with beta
    assert candidate_count(tlevel, S) == 121
    with pytest.raises(CeilingExceeded):
        erm(tlevel, S, ceiling=120)
    assert erm(tlevel, S, ceiling=121) == erm(tlevel, S)


@pytest.mark.parametrize("spec,n,k,m,oracle", [
    (ClassSpec("player-reserves"), 3, 1, 400,
     lambda v: oracles.grid_max_player_reserves(v[:, :, 0])),
    (ClassSpec("item-prices"), 3, 3, 200,
     lambda v: oracles.grid_max_item_prices(v, False)),
], ids=["player-reserves-n3-m400", "item-prices-n3-k3-m200"])
def test_separable_erm_runs_past_the_product_count(spec, n, k, m, oracle):
    """Separable classes whose candidate product is far over the default
    ceiling still run, and attain the fine-grid maximum."""
    gen = np.random.default_rng(zlib.crc32((spec.describe() + "-ceiling").encode()))
    values = oracles.draw_grid_sample(gen, m, n, k)
    S = SampleSet(values)
    _, rev = erm_with_value(spec, S)
    assert abs(rev - oracle(values)) <= 1e-12
    # thousandths values lie on the oracle grid too, and their product count
    # is over the default ceiling
    values = oracles.draw_thousandths_sample(gen, m, n, k)
    S = SampleSet(values)
    assert candidate_count(spec, S) > DEFAULT_CANDIDATE_CEILING
    _, rev = erm_with_value(spec, S)
    assert abs(rev - oracle(values)) <= 1e-12


# ---------------------------------------------------------------------------
# sample-valued candidates attain the fine-grid maximum (small version of the
# acceptance criterion; values drawn on {0, 0.1, ..., 1.0})


def test_single_reserve_matches_fine_grid():
    gen = np.random.default_rng(77)
    for _ in range(25):
        m = int(gen.integers(1, 9))
        values = oracles.draw_grid_sample(gen, m, 1, 1)
        _, rev = erm_with_value(SINGLE, SampleSet(values))
        grid_max = oracles.posted_curve(values[:, 0, 0], oracles.FINE_GRID).max()
        assert abs(rev - grid_max) <= 1e-12


def test_tlevel_needs_the_sentinel_to_match_the_grid():
    # excluding bidder 0 via a threshold above its value is strictly optimal
    values = np.array([[[0.9], [1.0]]])
    spec = ClassSpec("t-level", levels=1)
    _, rev = erm_with_value(spec, SampleSet(values))
    grid_max = oracles.grid_max_tlevel_two_bidders_one_level(values[:, :, 0])
    assert rev == pytest.approx(1.0, abs=1e-15)
    assert abs(rev - grid_max) <= 1e-12


@pytest.mark.parametrize("spec,n,k,draw,oracle", [
    (ClassSpec("player-reserves"), 2, 1, oracles.draw_grid_sample,
     lambda v: oracles.grid_max_player_reserves(v[:, :, 0])),
    (ClassSpec("t-level", levels=1), 2, 1, oracles.draw_grid_sample,
     lambda v: oracles.grid_max_tlevel_two_bidders_one_level(v[:, :, 0])),
    # bundle draws use the eighth grid so additive totals stay exactly on the
    # thousandths oracle grid (tenths sums drift off it in floats)
    (ClassSpec("bundle-price"), 2, 2, oracles.draw_eighth_sample,
     lambda v: oracles.grid_max_bundle(v, False)),
    (ClassSpec("bundle-price", per_player=True), 2, 2, oracles.draw_eighth_sample,
     lambda v: oracles.grid_max_bundle(v, True)),
    (ClassSpec("item-prices", per_player=True), 2, 2, oracles.draw_grid_sample,
     lambda v: oracles.grid_max_item_prices(v, True)),
    (ClassSpec("best-of"), 2, 1, oracles.draw_grid_sample,
     lambda v: oracles.grid_max_best_of_single_item(v[:, :, 0])),
])
def test_product_class_matches_fine_grid(spec, n, k, draw, oracle):
    gen = np.random.default_rng(zlib.crc32((spec.describe() + "-grid").encode()))
    for _ in range(6):
        m = int(gen.integers(1, 9))
        values = draw(gen, m, n, k)
        _, rev = erm_with_value(spec, SampleSet(values))
        assert abs(rev - oracle(values)) <= 1e-12
