"""Candidate sets, empirical revenue, and ERM optimality/tie-break contracts."""

import importlib
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import oracles
from auctionlearn import (DEFAULT_CANDIDATE_CEILING, CeilingExceeded, ClassSpec,
                          PlayerReserves, SampleSet, SingleReserve,
                          candidate_count, empirical_revenue, erm)
from auctionlearn.erm import erm_block
from oracles import assert_exhaustive_argmax, candidate_set


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


RESERVE_RULES = [ClassSpec("single-reserve"), ClassSpec("anonymous-second-price"),
                 ClassSpec("player-reserves"),
                 ClassSpec("bundle-price"), ClassSpec("bundle-price", per_player=True),
                 ClassSpec("item-prices"), ClassSpec("item-prices", per_player=True)]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(spec=st.sampled_from(RESERVE_RULES), n=st.integers(1, 3), k=st.integers(1, 2),
       m=st.integers(1, 12), tenths=st.lists(st.integers(0, 10), min_size=72, max_size=72))
# each ties exactly with the exhaustive argmax on a smaller parameter vector
@example(spec=ClassSpec("item-prices"), n=1, k=2, m=3, tenths=[7, 1, 6, 3, 9, 1] + [0] * 66)
@example(spec=ClassSpec("player-reserves"), n=2, k=1, m=4,
         tenths=[9, 4, 2, 0, 1, 2, 4, 6] + [0] * 64)
# near-ties whose revenue rows come back Fortran-ordered, m >= 8
@example(spec=ClassSpec("player-reserves"), n=2, k=1, m=8,
         tenths=[8, 5, 6, 1, 5, 3, 2, 4, 0, 7, 7, 3, 7, 5, 6, 7] + [0] * 56)
@example(spec=ClassSpec("bundle-price", per_player=True), n=2, k=1, m=11,
         tenths=[8, 6, 3, 10, 0, 6, 2, 1, 6, 5, 9, 7, 7, 5, 6, 6, 0, 7, 5, 9, 3, 6] + [0] * 50)
def test_reserve_rule_erm_is_the_exhaustive_argmax(spec, n, k, m, tenths):
    """Every reserve-rule class, n <= 3 and k <= 2, on tenths grids (m <= 12),
    whose exact ties the shortlist and the sorted-mean re-score must break
    as the exhaustive argmax does, toward the largest parameter vector."""
    n = 1 if spec.tag == "single-reserve" else n
    k = k if spec.tag in ("bundle-price", "item-prices") else 1
    S = SampleSet(np.array(tenths[:m * n * k]).reshape(m, n, k) / 10)
    assume(candidate_count(spec, S) <= 1500)
    assert_exhaustive_argmax(spec, S)


def test_shortlist_margin_is_relative_to_the_joint_total():
    """Item 2's prices a and b < 3a earn 3a and b, a few ulps apart, far
    outside a margin relative to item 2's own revenue; item 1's revenue of 3
    swallows the gap, so (1, a) and (1, b) tie and b, the larger, must win."""
    a, b = 2.0**-10, 3 * 2.0**-10 - 150 * 2.0**-61
    S = SampleSet(np.array([[[1.0, a]], [[1.0, a]], [[1.0, b]]]))
    assert len(assert_exhaustive_argmax(ClassSpec("item-prices"), S)) == 2
    assert erm(ClassSpec("item-prices"), S).prices == (1.0, b)


@pytest.mark.parametrize("spec", [ClassSpec("anonymous-second-price"),
                                  ClassSpec("player-reserves")], ids=lambda s: s.tag)
def test_reserve_ranking_orders_negative_zero_and_large_values(spec):
    """The n >= 2 closed-form ranking sorts the values' bits, so they must
    order as the floats do: samples holding -0.0, which ``SampleSet``
    accepts, beside 0.0, and samples on [0, 10^6], whose bits lie above 2^62."""
    gen = np.random.default_rng(11)
    for _ in range(8):
        halves = gen.integers(0, 3, (6, 2, 1)) / 2
        halves[:2, 0] = 0.0
        signed = np.where((halves == 0) & (gen.random(halves.shape) < 0.5), -0.0, halves)
        signed[0, 0], signed[1, 0] = -0.0, 0.0
        assert_exhaustive_argmax(spec, SampleSet(signed))
        assert_exhaustive_argmax(spec, SampleSet(gen.integers(0, 11, (6, 2, 1)) * 1e5,
                                                 (0.0, 1e6)))
        assert_exhaustive_argmax(spec, SampleSet(gen.random((6, 2, 1)) * 1e6, (0.0, 1e6)))


def tied_items(k):
    """One bidder, k items, profiles all 0.5 and all 1.0: in every item
    prices 0.5 and 1.0 both earn 0.5, so all 2^k price vectors tie exactly."""
    return SampleSet(np.array([[[0.5] * k], [[1.0] * k]]))


def test_a_tied_product_is_scored_across_chunks_and_bounded_by_the_ceiling():
    """2^13 = 8,192 tied rows in two chunks of 4,096: the last, all 1.0, wins.
    The ceiling counts those rows, though each item's pool has two values."""
    items = ClassSpec("item-prices")
    assert erm(items, tied_items(13)).prices == (1.0,) * 13
    assert erm(items, tied_items(13), ceiling=8192).prices == (1.0,) * 13
    with pytest.raises(CeilingExceeded, match="scores 8192 candidate rows"):
        erm(items, tied_items(13), ceiling=8191)
    with pytest.raises(CeilingExceeded, match="scores 16777216 candidate rows"):
        erm(items, tied_items(24))


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
@pytest.mark.parametrize("spec,n,k", [(ClassSpec("player-reserves"), 2, 1),
                                      (ClassSpec("item-prices"), 1, 2),
                                      (ClassSpec("bundle-price", per_player=True), 2, 2),
                                      (ClassSpec("t-level", levels=1), 2, 1),
                                      (ClassSpec("t-level", levels=2), 2, 1),
                                      (ClassSpec("best-of"), 1, 2)])
def test_tied_samples_of_a_block_are_scored_together(spec, n, k, chunk, monkeypatch):
    """A block of quarter-grid samples learns each sample's exhaustive
    argmax, wherever the chunks split the samples' candidates: for the
    reserve rules 14 of 48 samples are tied with products of 2 to 4 rows;
    t-level and best-of carry each sample's last argmax across chunks."""
    monkeypatch.setattr(importlib.import_module("auctionlearn.erm"), "_CHUNK", chunk)
    gen = np.random.default_rng(zlib.crc32(spec.describe().encode()))
    samples = [SampleSet(gen.integers(0, 5, (6, n, k)) / 4) for _ in range(16)]
    learned = erm_block(spec, np.stack([S.values for S in samples]), (0.0, 1.0))
    assert learned.tolist() == [list(erm(spec, S).param_vector()) for S in samples]
    for S in samples:
        assert_exhaustive_argmax(spec, S)


@pytest.mark.parametrize("spec,shape,seed,chunk", [
    # 91^2 = 8,281 candidates in chunks of 4,096 rows
    (ClassSpec("t-level", levels=2), (12, 2, 1), 45, 4096),
    (ClassSpec("t-level", levels=2), (12, 2, 1), 62, 4096),
    # 6^6 = 46,656 candidates in chunks of 4,096 rows
    (ClassSpec("best-of", per_player=True), (6, 2, 2), 9, 4096),
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


NEAR_TIES = [
    [0.2, 0.3, 0.6],             # 0.2*3 = 0.3*2 = 0.6*1 in exact arithmetic
    [0.1] * 5 + [0.6],           # the closed form ranks 0.1 first, the sorted mean ties
    [0.2] * 4 + [0.6, 0.9],
    [0.1, 0.1, 0.1, 0.1, 0.3, 0.3],
]


@pytest.mark.parametrize("values", NEAR_TIES)
def test_posted_price_near_ties_are_scored_exactly(values, monkeypatch):
    """Prices whose closed forms differ only by rounding are all re-scored by
    the sorted mean, which alone decides the winner.  The spy sits on erm's
    own binding of the kernel, which only the posted re-score calls here:
    empirical revenue reaches the kernel through ``profile_revenues``."""
    module = importlib.import_module("auctionlearn.erm")
    scored, kernel = [], module.revenue_matrix

    def spy(spec, params, values, alpha=0.0):
        scored.append(len(params))
        return kernel(spec, params, values, alpha)

    monkeypatch.setattr(module, "revenue_matrix", spy)
    assert_exhaustive_argmax(SINGLE, sample(values))
    assert scored and scored[0] > 1


def assert_block_is_per_sample_erm(samples, ceiling=DEFAULT_CANDIDATE_CEILING):
    """``erm_block`` on the stacked samples returns each sample's own ERM
    row, which the exhaustive argmax confirms."""
    block = np.stack([S.values for S in samples])
    assert erm_block(SINGLE, block, samples[0].value_range, ceiling).tolist() == \
        [[erm(SINGLE, S, ceiling).price] for S in samples]
    for S in samples:
        assert_exhaustive_argmax(SINGLE, S)


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([1, 2, 3, 6, 9, 64]), low=st.sampled_from([0.0, 2.0]),
       rows=st.lists(st.tuples(st.sampled_from(["uniform", "tenths", "equal"]),
                               st.integers(0, 2**32 - 1)), min_size=1, max_size=6))
@example(m=6, low=0.0, rows=[("uniform", 1), ("tenths", 798), ("equal", 2), ("tenths", 3)])
@example(m=1, low=2.0, rows=[("uniform", 4), ("equal", 5)])
def test_posted_erm_block_is_per_sample_erm(m, low, rows):
    """Block posted-price ERM treats each row as its own sample: uniform,
    tenths-grid (tied) and all-equal rows on [0, 1] or [2, 5]."""
    assert_block_is_per_sample_erm([posted_sample(m, kind, low, seed) for kind, seed in rows])


@pytest.mark.parametrize("values", NEAR_TIES)
def test_posted_erm_block_rescores_near_ties_among_ordinary_rows(values, monkeypatch):
    """A near-tie row between ordinary rows is re-scored by the sorted mean,
    as it is alone."""
    module = importlib.import_module("auctionlearn.erm")
    scored, kernel = [], module.revenue_matrix

    def spy(spec, params, values, alpha=0.0):
        scored.append(len(params))
        return kernel(spec, params, values, alpha)

    monkeypatch.setattr(module, "revenue_matrix", spy)
    m = len(values)
    ordinary = [posted_sample(m, kind, 0.0, seed) for kind, seed in (("uniform", 1), ("tenths", 2))]
    assert_block_is_per_sample_erm([ordinary[0], sample(values), ordinary[1]])
    assert scored and max(scored) > 1


def test_posted_erm_block_refuses_as_its_first_sample_over_the_ceiling():
    """Samples with 3, 5 and 6 distinct prices under a ceiling of 4: the
    block raises the message the 5-price sample raises alone; a ceiling of 6
    admits them all."""
    samples = [sample(row) for row in ([0.1, 0.2, 0.3, 0.3, 0.3, 0.3],
                                       [0.1, 0.2, 0.3, 0.4, 0.5, 0.5],
                                       [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])]
    with pytest.raises(CeilingExceeded) as alone:
        erm(SINGLE, samples[1], ceiling=4)
    block = np.stack([S.values for S in samples])
    with pytest.raises(CeilingExceeded) as blocked:
        erm_block(SINGLE, block, (0.0, 1.0), ceiling=4)
    assert str(blocked.value) == str(alone.value) and "scores 5 candidate rows" in str(alone.value)
    assert_block_is_per_sample_erm(samples, ceiling=6)


def test_joint_erm_block_refuses_as_its_first_sample_over_the_ceiling():
    """One-bidder t-level samples with 4, 6 and 7 candidate thresholds (the
    distinct values and the no-sale sentinel 1.0) under a ceiling of 5: the
    block raises the message the 6-row sample raises alone; a ceiling of 7
    admits them all."""
    tlevel = ClassSpec("t-level", levels=1)
    samples = [sample(row) for row in ([0.1, 0.2, 0.3, 0.3, 0.3, 0.3],
                                       [0.1, 0.2, 0.3, 0.4, 0.5, 0.5],
                                       [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])]
    with pytest.raises(CeilingExceeded) as alone:
        erm(tlevel, samples[1], ceiling=5)
    block = np.stack([S.values for S in samples])
    with pytest.raises(CeilingExceeded) as blocked:
        erm_block(tlevel, block, (0.0, 1.0), ceiling=5)
    assert str(blocked.value) == str(alone.value) and "scores 6 candidate rows" in str(alone.value)
    assert erm_block(tlevel, block, (0.0, 1.0), ceiling=7).tolist() == \
        [list(erm(tlevel, S, ceiling=7).param_vector()) for S in samples]
    for S in samples:
        assert_exhaustive_argmax(tlevel, S)


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
    rev = empirical_revenue(erm(spec, S), S)
    assert abs(rev - oracle(values)) <= 1e-12
    # thousandths values lie on the oracle grid too, and their product count
    # is over the default ceiling
    values = oracles.draw_thousandths_sample(gen, m, n, k)
    S = SampleSet(values)
    assert candidate_count(spec, S) > DEFAULT_CANDIDATE_CEILING
    rev = empirical_revenue(erm(spec, S), S)
    assert abs(rev - oracle(values)) <= 1e-12


# ---------------------------------------------------------------------------
# sample-valued candidates attain the fine-grid maximum (small version of the
# acceptance criterion; values drawn on {0, 0.1, ..., 1.0})


def test_single_reserve_matches_fine_grid():
    gen = np.random.default_rng(77)
    for _ in range(25):
        m = int(gen.integers(1, 9))
        values = oracles.draw_grid_sample(gen, m, 1, 1)
        S = SampleSet(values)
        rev = empirical_revenue(erm(SINGLE, S), S)
        grid_max = oracles.posted_curve(values[:, 0, 0], oracles.FINE_GRID).max()
        assert abs(rev - grid_max) <= 1e-12


def test_tlevel_needs_the_sentinel_to_match_the_grid():
    # excluding bidder 0 via a threshold above its value is strictly optimal
    values = np.array([[[0.9], [1.0]]])
    spec = ClassSpec("t-level", levels=1)
    S = SampleSet(values)
    rev = empirical_revenue(erm(spec, S), S)
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
        S = SampleSet(values)
        rev = empirical_revenue(erm(spec, S), S)
        assert abs(rev - oracle(values)) <= 1e-12
