"""Mechanism semantics: worked outcomes, incentive properties, batch kernels."""

import zlib

import numpy as np
from hypothesis import example, given, settings, strategies as st

from oracles import (ALL_TAGS, TRUTHFUL_TAGS, draw_eighth_sample, draw_grid_sample,
                     expected_revenue_reference, lazy_reserve_revenue_quad,
                     misreport_improvement, random_hypothesis, random_instance)
import pytest

from auctionlearn import (AnalyticUnsupported, AnonymousSecondPriceReserve, BestOf,
                          BundlePrice, ClassSpec, DimensionMismatch, Discrete,
                          DistributionSpec, ItemPrices, PlayerReserves, Seed, SingleReserve,
                          TLevel, TruncatedExponential, Uniform, ValuationProfile,
                          analytic_true_revenue, bidder_utility, expected_revenue,
                          hypothesis_from_record,
                          hypothesis_to_record, in_class_optimum, monte_carlo_true_revenue,
                          profile_revenues, revenue, revenue_matrix, run_mechanism,
                          true_revenue)
from auctionlearn.mechanisms import analytic_optimum, hypothesis_from_params, spec_of, top_two

rng = np.random.default_rng(20240817)


def profile(rows):
    return ValuationProfile(np.asarray(rows, dtype=float))


def test_single_reserve_outcomes():
    out = run_mechanism(SingleReserve(0.7), profile([[0.5]]))
    assert out.allocation == (None,) and out.payments == (0.0,)
    out = run_mechanism(SingleReserve(0.5), profile([[0.5]]))  # equality sells
    assert out.allocation == (0,) and out.payments == (0.5,)


def test_anonymous_second_price_example():
    out = run_mechanism(AnonymousSecondPriceReserve(0.5), profile([[0.8], [0.6]]))
    assert out.allocation == (0,)
    assert out.payments == (0.6, 0.0)
    # reserve binds when it exceeds the second-highest value
    out = run_mechanism(AnonymousSecondPriceReserve(0.7), profile([[0.8], [0.6]]))
    assert out.payments == (0.7, 0.0)


def test_player_reserves_are_lazy():
    # highest bidder misses their own reserve: no sale at all
    h = PlayerReserves((0.9, 0.1))
    out = run_mechanism(h, profile([[0.8], [0.5]]))
    assert out.allocation == (None,) and out.payments == (0.0, 0.0)
    # highest bidder clears: pays max(own reserve, second value)
    out = run_mechanism(h, profile([[0.95], [0.5]]))
    assert out.payments == (0.9, 0.0)


def test_tlevel_worked_example():
    h = TLevel(((0.3,), (0.6,)))
    out = run_mechanism(h, profile([[0.7], [0.5]]))
    assert out.allocation == (0,)
    assert out.payments == (0.3, 0.0)


def test_tlevel_payment_cases():
    # winner ties the other's index: tie goes to the lower bidder number,
    # so index 1 suffices and the payment is the first threshold
    h = TLevel(((0.2, 0.6), (0.5, 1.0)))
    out = run_mechanism(h, profile([[0.7], [0.55]]))
    assert out.allocation == (0,) and out.payments == (0.2, 0.0)
    # winner with the higher bidder number must strictly beat the index
    h = TLevel(((0.5, 1.0), (0.2, 0.3)))
    out = run_mechanism(h, profile([[0.6], [0.35]]))
    assert out.allocation == (1,) and out.payments == (0.0, 0.3)


def test_tlevel_no_sale_when_no_index():
    h = TLevel(((0.9,), (0.9,)))
    out = run_mechanism(h, profile([[0.2], [0.3]]))
    assert out.allocation == (None,)
    assert out.payments == (0.0, 0.0)


def test_tlevel_validation():
    with pytest.raises(ValueError):
        TLevel(((0.5, 0.3),))        # not sorted
    with pytest.raises(ValueError):
        TLevel(((0.5,), (0.2, 0.3)))  # ragged levels


def test_item_prices_single_bidder_example():
    out = run_mechanism(ItemPrices(prices=(0.3, 0.4)), profile([[0.5, 0.2]]))
    assert out.allocation == (0, None)
    assert out.payments == (0.3,)
    assert revenue(ItemPrices(prices=(0.3, 0.4)), profile([[0.5, 0.2]])) == 0.3


def test_bundle_price_modes():
    v = profile([[0.5, 0.2]])
    assert revenue(BundlePrice(price=0.6), v) == 0.6      # 0.7 >= 0.6
    assert revenue(BundlePrice(price=0.8), v) == 0.0
    v2 = profile([[0.5, 0.2], [0.1, 0.3]])                # totals 0.7, 0.4
    out = run_mechanism(BundlePrice(price=0.2), v2)
    assert out.allocation == (0, 0)
    assert out.payments == (0.4, 0.0)                     # second total binds
    out = run_mechanism(BundlePrice(prices=(0.8, 0.1)), v2)
    assert out.allocation == (None, None)                 # lazy: winner priced out


def test_best_of_example():
    h = BestOf(BundlePrice(price=0.6), ItemPrices(prices=(0.3, 0.4)))
    v = profile([[0.5, 0.2]])
    assert revenue(h, v) == 0.6
    # bundle branch loses when the total misses the bundle price
    assert revenue(h, profile([[0.5, 0.05]])) == 0.3


def test_best_of_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        BestOf(BundlePrice(price=0.5), ItemPrices(price_matrix=((0.2, 0.3),)))


def test_dimension_mismatches():
    with pytest.raises(DimensionMismatch):
        run_mechanism(SingleReserve(0.5), profile([[0.5], [0.6]]))
    with pytest.raises(DimensionMismatch):
        run_mechanism(PlayerReserves((0.5,)), profile([[0.5], [0.6]]))
    with pytest.raises(DimensionMismatch):
        run_mechanism(ItemPrices(prices=(0.5,)), profile([[0.5, 0.6]]))
    # the right number of parameters in the wrong shape
    square = profile([[0.5, 0.6], [0.7, 0.8]])
    with pytest.raises(DimensionMismatch):
        run_mechanism(ItemPrices(price_matrix=((0.1, 0.2, 0.3, 0.4),)), square)
    with pytest.raises(DimensionMismatch):
        run_mechanism(BestOf(BundlePrice(prices=(0.1, 0.2, 0.3, 0.4)),
                             ItemPrices(price_matrix=((0.1,), (0.2,)))), square)


# ---------------------------------------------------------------------------
# incentive properties over random instances (generators live in oracles.py)


@pytest.mark.parametrize("tag", TRUTHFUL_TAGS)
def test_truthfulness_random_instances(tag):
    gen = np.random.default_rng(zlib.crc32((tag).encode()))
    for _ in range(25):
        h, v = random_instance(tag, gen)
        assert misreport_improvement(h, v) <= 1e-12


def test_best_of_not_in_truthful_suite_but_rational():
    """Per-profile branch choice favors the seller; a bidder can gain by
    shading one item to flip the branch, so best-of sits outside the
    dominant-strategy suite.  Individual rationality still holds."""
    h = BestOf(BundlePrice(price=0.6), ItemPrices(prices=(0.3, 0.4)))
    values = np.array([[0.5, 0.2]])
    assert misreport_improvement(h, values, grid_points=101) > 1e-6


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_individual_rationality_and_payment_sanity(tag):
    gen = np.random.default_rng(zlib.crc32((tag + "-ir").encode()))
    for _ in range(60):
        h, v = random_instance(tag, gen)
        out = run_mechanism(h, ValuationProfile(v))
        n, k = v.shape
        # utility of truth is nonnegative
        for i in range(n):
            assert bidder_utility(h, i, v, ValuationProfile(v)) >= -1e-12
        # non-winners pay nothing; every payment is covered by value received
        winners = set(w for w in out.allocation if w is not None)
        for i in range(n):
            if i not in winners:
                assert out.payments[i] == 0.0
            received = sum(v[i, j] for j, w in enumerate(out.allocation) if w == i)
            assert out.payments[i] <= received + 1e-12
        assert 0.0 <= out.revenue <= k * 1.0 + 1e-12


def test_single_reserve_revenue_is_pointwise_monotone_boundary():
    # revenue(r, v) = r * 1[v >= r], checked pointwise on a grid
    for v in np.arange(0, 11) / 10.0:
        for r in np.arange(0, 11) / 10.0:
            expected = r if v >= r else 0.0
            assert revenue(SingleReserve(r), profile([[v]])) == expected


def test_best_of_realizes_the_better_branch():
    gen = np.random.default_rng(99)
    for _ in range(200):
        n, k = int(gen.integers(1, 4)), int(gen.integers(1, 4))
        h = random_hypothesis("best-of", n, k, gen)
        v = ValuationProfile(gen.random((n, k)))
        assert revenue(h, v) == max(revenue(h.bundle, v), revenue(h.items, v))


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_profile_revenues_matches_scalar_bitwise(tag):
    gen = np.random.default_rng(zlib.crc32((tag + "-vec").encode()))
    for _ in range(30):
        h, v0 = random_instance(tag, gen)
        n, k = v0.shape
        values = gen.random((17, n, k))
        batch = profile_revenues(h, values, 0.0)
        scalar = np.array([revenue(h, ValuationProfile(values[t]))
                           for t in range(len(values))])
        assert np.array_equal(batch, scalar)


KERNEL_SPECS = [ClassSpec("single-reserve"), ClassSpec("anonymous-second-price"),
                ClassSpec("player-reserves"), ClassSpec("t-level", levels=1),
                ClassSpec("t-level", levels=2), ClassSpec("bundle-price"),
                ClassSpec("bundle-price", per_player=True), ClassSpec("item-prices"),
                ClassSpec("item-prices", per_player=True), ClassSpec("best-of"),
                ClassSpec("best-of", per_player=True)]


def grid_param_rows(spec, draw, gen, C, n, k):
    """C parameter rows of the class, laid out as param_vector(), on the
    same grid as the profiles so that reserves tie with values."""
    if spec.tag == "best-of":
        return np.hstack([grid_param_rows(b, draw, gen, C, n, k) for b in spec.branches()])
    if spec.tag == "t-level":
        return np.sort(draw(gen, C, n, spec.levels), axis=2).reshape(C, -1)
    if spec.tag == "bundle-price":
        return draw(gen, C, n if spec.per_player else 1, k).sum(axis=2)
    if spec.tag == "item-prices":
        return draw(gen, C, n if spec.per_player else 1, k).reshape(C, -1)
    return draw(gen, C, n if spec.tag == "player-reserves" else 1, 1).reshape(C, -1)


@pytest.mark.parametrize("spec", KERNEL_SPECS,
                         ids=[s.describe().replace(" ", "-") for s in KERNEL_SPECS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_revenue_matrix_rows_match_scalar_bitwise(spec, data):
    single_item = spec.tag in ("single-reserve", "anonymous-second-price",
                               "player-reserves", "t-level")
    n = 1 if spec.tag == "single-reserve" else data.draw(st.integers(1, 3), label="n")
    k = 1 if single_item else data.draw(st.integers(1, 3), label="k")
    m = data.draw(st.integers(1, 10), label="m")
    C = data.draw(st.integers(2, 5), label="C")
    draw = data.draw(st.sampled_from([draw_grid_sample, draw_eighth_sample]), label="grid")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = draw(gen, m, n, k)
    params = grid_param_rows(spec, draw, gen, C, n, k)
    hyps = [hypothesis_from_params(spec, row, n, k) for row in params]
    assert [h.param_vector() for h in hyps] == [tuple(row) for row in params]
    scalar = np.array([[revenue(h, ValuationProfile(values[t])) for t in range(m)]
                       for h in hyps])
    assert np.array_equal(revenue_matrix(spec, params, values, 0.0), scalar)


@pytest.mark.parametrize("spec", KERNEL_SPECS,
                         ids=[s.describe().replace(" ", "-") for s in KERNEL_SPECS])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_revenue_matrix_scores_each_row_on_its_own_block(spec, data):
    """With one (m, n, k) block of profiles per parameter row, row c is
    row c's revenue on block c alone, bit for bit."""
    n = 1 if spec.tag == "single-reserve" else data.draw(st.integers(1, 3), label="n")
    k = data.draw(st.integers(1, 3), label="k") if spec.tag in ("bundle-price", "item-prices",
                                                                "best-of") else 1
    m = data.draw(st.integers(1, 8), label="m")
    C = data.draw(st.integers(1, 5), label="C")
    draw = data.draw(st.sampled_from([draw_grid_sample, draw_eighth_sample]), label="grid")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    blocks = np.stack([draw(gen, m, n, k) for _ in range(C)])
    params = grid_param_rows(spec, draw, gen, C, n, k)
    alone = np.vstack([revenue_matrix(spec, params[c:c + 1], blocks[c], 0.0) for c in range(C)])
    assert np.array_equal(revenue_matrix(spec, params, blocks, 0.0), alone)


def test_revenue_matrix_refuses_blocks_that_do_not_pair_with_rows():
    """Blocks must number the rows."""
    with pytest.raises(DimensionMismatch):
        revenue_matrix(ClassSpec("player-reserves"), np.zeros((3, 2)), np.zeros((2, 4, 2, 1)))
    with pytest.raises(DimensionMismatch):
        revenue_matrix(ClassSpec("t-level", levels=1), np.zeros((3, 2)), np.zeros((2, 4, 2, 1)))


def test_top_two_of_a_pair_matches_the_partition_path():
    """Two bidders take max/min, not np.partition; the winner, top and
    second value are the same, ties (to index 0) and equal columns included."""
    gen = np.random.default_rng(20240818)
    tied = gen.integers(0, 3, (500, 2)) / 2.0
    equal = np.repeat(gen.random((50, 1)), 2, axis=1)
    for columns in (gen.random((500, 2)), tied, equal):
        w, top, second = top_two(columns, 0.0)
        part = np.partition(columns, -2, axis=1)
        assert w.dtype == np.intp
        assert np.array_equal(w, np.argmax(columns, axis=1))
        assert np.array_equal(top, part[:, -1]) and np.array_equal(second, part[:, -2])
    w, top, second = top_two(equal, 0.0)
    assert (top == second).all() and (w == 0).all()


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_serialization_round_trip_exact(tag):
    gen = np.random.default_rng(zlib.crc32((tag + "-ser").encode()))
    for _ in range(25):
        h, _ = random_instance(tag, gen)
        rec = hypothesis_to_record(h)
        import json
        assert hypothesis_from_record(json.loads(json.dumps(rec))) == h


RECORD_PINS = [
    (SingleReserve(0.5), '{"class": "single-reserve", "price": 0.5}'),
    (AnonymousSecondPriceReserve(0.1 + 0.2),
     '{"class": "anonymous-second-price", "price": 0.30000000000000004}'),
    (PlayerReserves((0.25, 1.0)), '{"class": "player-reserves", "prices": [0.25, 1.0]}'),
    (TLevel(((0.3,), (0.7,))), '{"class": "t-level", "thresholds": [[0.3], [0.7]]}'),
    (TLevel(((0.25, 0.5), (0.125, 0.75))),
     '{"class": "t-level", "thresholds": [[0.25, 0.5], [0.125, 0.75]]}'),
    (BundlePrice(price=1.5), '{"class": "bundle-price", "price": 1.5}'),
    (BundlePrice(prices=(0.5, 2.0)), '{"class": "bundle-price", "prices": [0.5, 2.0]}'),
    (ItemPrices(prices=(0.2, 0.4, 0.8)), '{"class": "item-prices", "prices": [0.2, 0.4, 0.8]}'),
    (ItemPrices(price_matrix=((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))),
     '{"class": "item-prices", "price_matrix": [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]}'),
    (BestOf(BundlePrice(price=1.25), ItemPrices(prices=(0.5, 0.75))),
     '{"class": "best-of", "bundle": {"class": "bundle-price", "price": 1.25}, '
     '"items": {"class": "item-prices", "prices": [0.5, 0.75]}}'),
    (BestOf(BundlePrice(prices=(1.0, 0.5)),
            ItemPrices(price_matrix=((0.5, 0.25), (0.75, 1.0)))),
     '{"class": "best-of", "bundle": {"class": "bundle-price", "prices": [1.0, 0.5]}, '
     '"items": {"class": "item-prices", "price_matrix": [[0.5, 0.25], [0.75, 1.0]]}}'),
]


@pytest.mark.parametrize("h, text", RECORD_PINS, ids=[t.split('"')[3] for _, t in RECORD_PINS])
def test_record_format_is_pinned(h, text):
    """The record bytes of one hypothesis per class and mode, key order
    included; the round trip alone would accept any self-consistent format."""
    import json
    assert json.dumps(hypothesis_to_record(h)) == text
    assert hypothesis_from_record(json.loads(text)) == h


def test_record_errors():
    with pytest.raises(ValueError, match="unknown hypothesis record class"):
        hypothesis_from_record({"class": "posted"})
    with pytest.raises(TypeError):          # a record missing its field
        hypothesis_from_record({"class": "single-reserve"})
    with pytest.raises(ValueError):         # neither price nor prices
        hypothesis_from_record({"class": "bundle-price"})
    with pytest.raises(TypeError):
        hypothesis_to_record(ClassSpec("single-reserve"))


def test_true_revenue_item_prices_single_bidder():
    spec = DistributionSpec.iid(Uniform(0, 1), n=1, k=2)
    h = ItemPrices(prices=(0.5, 0.2))
    # 0.5*0.5 + 0.2*0.8
    assert true_revenue(h, spec).value == pytest.approx(0.41)
    mc = true_revenue(h, spec, "monte-carlo", draws=150_000, seed=Seed(4))
    assert abs(mc.value - 0.41) <= 3 * mc.std_error


def test_true_revenue_bundle_discrete_convolution():
    marg = Discrete((0.2, 0.6), (0.5, 0.5))
    spec = DistributionSpec.iid(marg, n=1, k=2)
    # totals: 0.4 w.p. 0.25, 0.8 w.p. 0.5, 1.2 w.p. 0.25
    h = BundlePrice(price=0.8)
    assert true_revenue(h, spec).value == pytest.approx(0.8 * 0.75)
    mc = true_revenue(h, spec, "monte-carlo", draws=150_000, seed=Seed(6))
    assert abs(mc.value - 0.6) <= 3 * mc.std_error


UNI = Uniform(0, 1)
DISC = Discrete((0.2, 0.5, 0.9), (0.3, 0.4, 0.3))

SUPPORTED_PAIRS = [
    (SingleReserve(0.45), DistributionSpec.iid(UNI)),
    (SingleReserve(0.5), DistributionSpec.iid(DISC)),
    (AnonymousSecondPriceReserve(0.3), DistributionSpec.iid(UNI)),
    (PlayerReserves((0.6,)), DistributionSpec.iid(DISC)),
    (TLevel(((0.25, 0.7),)), DistributionSpec.iid(UNI)),
    (ItemPrices(prices=(0.5, 0.2)), DistributionSpec.iid(UNI, 1, 2)),
    (ItemPrices(price_matrix=((0.4, 0.9),)), DistributionSpec.iid(DISC, 1, 2)),
    (BundlePrice(price=0.8), DistributionSpec.iid(DISC, 1, 2)),
    (BundlePrice(prices=(1.0,)), DistributionSpec.iid(DISC, 1, 3)),
]


@pytest.mark.parametrize("h,spec", SUPPORTED_PAIRS,
                         ids=[f"pair{i}" for i in range(len(SUPPORTED_PAIRS))])
def test_monte_carlo_agrees_with_analytic_on_every_supported_pair(h, spec):
    analytic = true_revenue(h, spec).value
    mc = true_revenue(h, spec, "monte-carlo", draws=120_000, seed=Seed(31))
    assert abs(mc.value - analytic) <= max(3 * mc.std_error, 1e-9)


@pytest.mark.parametrize("h,spec", SUPPORTED_PAIRS,
                         ids=[f"pair{i}" for i in range(len(SUPPORTED_PAIRS))])
def test_auto_evaluation_is_the_closed_form_where_one_exists(h, spec):
    auto = true_revenue(h, spec, "auto", draws=1000, seed=Seed(8))
    assert auto == true_revenue(h, spec, "analytic") and auto.std_error is None


@pytest.mark.parametrize("h,spec", [
    (AnonymousSecondPriceReserve(0.4), DistributionSpec.iid(DISC, 2, 1)),
    (BestOf(BundlePrice(price=0.7), ItemPrices(prices=(0.4, 0.5))),
     DistributionSpec.iid(DISC, 1, 2)),
    (SingleReserve(0.5), DistributionSpec.iid(TruncatedExponential(2.0, 1.0))),
    (BundlePrice(price=1.1), DistributionSpec.iid(UNI, 1, 2)),
], ids=["n2-discrete", "best-of", "trunc-exp", "bundle-uniform"])
def test_auto_evaluation_falls_back_to_monte_carlo(h, spec):
    auto = true_revenue(h, spec, "auto", draws=1000, seed=Seed(8))
    assert auto == monte_carlo_true_revenue(h, spec, 1000, Seed(8))


U29 = Uniform(0.2, 0.9)
# Closed-form revenue and optimum of every single-bidder class, recorded
# before both closed forms were folded onto one posted-price reduction:
# (class, k, hypothesis, revenue under UNI, U29, DISC, optimum under UNI, U29, DISC)
SINGLE_BIDDER_CLOSED_FORMS = [
    (ClassSpec("single-reserve"), 1, SingleReserve(0.45),
     (0.24750000000000003, 0.2892857142857143, 0.315), (0.25, 0.2892857142857143, 0.35)),
    (ClassSpec("anonymous-second-price"), 1, AnonymousSecondPriceReserve(0.3),
     (0.21, 0.2571428571428572, 0.21), (0.25, 0.2892857142857143, 0.35)),
    (ClassSpec("player-reserves"), 1, PlayerReserves((0.6,)),
     (0.24, 0.2571428571428572, 0.18), (0.25, 0.2892857142857143, 0.35)),
    (ClassSpec("t-level", levels=1), 1, TLevel(((0.55,),)),
     (0.2475, 0.275, 0.165), (0.25, 0.2892857142857143, 0.35)),
    (ClassSpec("t-level", levels=2), 1, TLevel(((0.25, 0.7),)),
     (0.1875, 0.23214285714285718, 0.175), (0.25, 0.2892857142857143, 0.35)),
    (ClassSpec("item-prices"), 2, ItemPrices(prices=(0.5, 0.2)),
     (0.41000000000000003, 0.48571428571428577, 0.55), (0.5, 0.5785714285714286, 0.7)),
    (ClassSpec("item-prices", per_player=True), 2, ItemPrices(price_matrix=((0.4, 0.9),)),
     (0.32999999999999996, 0.28571428571428575, 0.55), (0.5, 0.5785714285714286, 0.7)),
    (ClassSpec("bundle-price"), 2, BundlePrice(price=0.8), (None, None, 0.536), (None, None, 0.67)),
    (ClassSpec("bundle-price", per_player=True), 2, BundlePrice(prices=(1.1,)),
     (None, None, 0.561), (None, None, 0.67)),
]


@pytest.mark.parametrize("spec,k,h,revenues,optima", SINGLE_BIDDER_CLOSED_FORMS,
                         ids=[s.describe().replace(" ", "-")
                              for s, *_ in SINGLE_BIDDER_CLOSED_FORMS])
def test_single_bidder_closed_forms_are_pinned(spec, k, h, revenues, optima):
    for marginal, rev, opt in zip((UNI, U29, DISC), revenues, optima):
        if rev is None:      # bundle totals have a closed form under discrete marginals only
            continue
        dist = DistributionSpec.iid(marginal, 1, k)
        assert analytic_true_revenue(h, dist) == rev
        assert in_class_optimum(spec, dist, "analytic").value == opt


@pytest.mark.parametrize("marginal", [UNI, U29, DISC], ids=["uniform", "uniform-0.2-0.9", "discrete"])
def test_one_item_bundle_price_is_a_posted_price(marginal):
    """At n = k = 1 the bundle total is the value, so a bundle price's closed
    forms are a single reserve's, under uniform marginals too."""
    dist = DistributionSpec.iid(marginal)
    for r in (0.1, 0.3, 0.45, 0.5, 0.8):
        expected = analytic_true_revenue(SingleReserve(r), dist)
        assert analytic_true_revenue(BundlePrice(price=r), dist) == expected
        assert analytic_true_revenue(BundlePrice(prices=(r,)), dist) == expected
    for spec in (ClassSpec("bundle-price"), ClassSpec("bundle-price", per_player=True)):
        assert in_class_optimum(spec, dist, "analytic") == \
            in_class_optimum(ClassSpec("single-reserve"), dist, "analytic")


MULTI_BIDDER_UNIFORM_ONLY = "multi-bidder closed forms need uniform marginals"


@pytest.mark.parametrize("h,spec,dist,revenue_error,optimum_error", [
    (AnonymousSecondPriceReserve(0.5), ClassSpec("anonymous-second-price"),
     DistributionSpec.iid(DISC, 2, 1), MULTI_BIDDER_UNIFORM_ONLY, MULTI_BIDDER_UNIFORM_ONLY),
    (TLevel(((0.5,), (0.5,))), ClassSpec("t-level", levels=1), DistributionSpec.iid(UNI, 2, 1),
     "no multi-bidder closed form for t-level s=1 at k = 1",
     "no multi-bidder closed form for t-level s=1 at k = 1"),
    (BundlePrice(price=1.0), ClassSpec("bundle-price"), DistributionSpec.iid(UNI, 2, 2),
     "no multi-bidder closed form for bundle-price at k = 2",
     "no multi-bidder closed form for bundle-price at k = 2"),
    (AnonymousSecondPriceReserve(0.5), ClassSpec("anonymous-second-price"),
     DistributionSpec(((UNI,), (U29,))), None,       # the revenue has a closed form
     "anonymous closed-form optima need identical marginals in each auction"),
    (BestOf(BundlePrice(price=0.5), ItemPrices(prices=(0.5,))), ClassSpec("best-of"),
     DistributionSpec.iid(DISC), "no closed form for best-of under this spec",
     "no closed-form optimum for best-of"),
    (TLevel(((0.5,),)), ClassSpec("t-level", levels=1), DistributionSpec.iid(UNI, 1, 2),
     "single-item class on a multi-item spec", "single-item class on a multi-item spec"),
    (BundlePrice(price=0.5), ClassSpec("bundle-price"), DistributionSpec.iid(UNI, 1, 2),
     "bundle totals are closed-form only for one bidder with discrete marginals",
     "bundle totals are closed-form only for one bidder with discrete marginals"),
    (ItemPrices(prices=(0.5, 0.5)), ClassSpec("item-prices"),
     DistributionSpec.iid(TruncatedExponential(1.0, 1.0), 1, 2),
     "no closed form for posted prices under TruncatedExponential",
     "no closed-form posted-price optimum under TruncatedExponential"),
], ids=["n2-discrete", "n2-t-level", "n2-bundle-k2", "n2-anonymous-optimum-asymmetric",
        "best-of", "single-item-on-k2", "bundle-uniform", "trunc-exp"])
def test_single_bidder_closed_forms_refuse_other_shapes(h, spec, dist, revenue_error,
                                                        optimum_error):
    if revenue_error is None:
        assert analytic_true_revenue(h, dist) > 0
    else:
        with pytest.raises(AnalyticUnsupported, match=f"^{revenue_error}$"):
            analytic_true_revenue(h, dist)
    with pytest.raises(AnalyticUnsupported, match=f"^{optimum_error}$"):
        in_class_optimum(spec, dist, "analytic")


@pytest.mark.parametrize("h", [ItemPrices(prices=(0.5,)),
                               ItemPrices(price_matrix=((0.5,), (0.4,)))])
def test_item_prices_of_the_wrong_length_have_no_closed_form(h):
    dist = DistributionSpec.iid(UNI, 1, 2)
    with pytest.raises(DimensionMismatch, match="item prices do not match"):
        analytic_true_revenue(h, dist)


ABOVE_HALF = DistributionSpec.iid(Uniform(0.5, 1), value_range=(0.5, 1))


@pytest.mark.parametrize("h,expected", [
    (AnonymousSecondPriceReserve(0.1), 0.5), (PlayerReserves((0.1,)), 0.5),
    (ItemPrices(prices=(0.1,)), 0.5), (ItemPrices(price_matrix=((0.1,),)), 0.5),
    (BundlePrice(price=0.1), 0.5), (BundlePrice(prices=(0.1,)), 0.5),
    (SingleReserve(0.1), 0.1), (TLevel(((0.1, 0.7),)), 0.1),
], ids=["anonymous-second-price", "player-reserves", "item-prices", "item-prices-per-player",
        "bundle-price", "bundle-price-per-player", "single-reserve", "t-level"])
def test_single_bidder_closed_form_charges_what_the_mechanism_charges(h, expected):
    """On [0.5, 1] a lone bidder's second value is alpha = 0.5: a second-price
    rule with a reserve below it charges 0.5 on every profile, while a posted
    price (a single reserve, a t-level's lowest threshold) charges itself."""
    assert analytic_true_revenue(h, ABOVE_HALF) == expected
    mc = true_revenue(h, ABOVE_HALF, "monte-carlo", draws=1000, seed=Seed(3))
    assert mc.value == pytest.approx(expected, abs=1e-12)


def test_single_bidder_closed_form_charges_alpha_per_item():
    """One item's price below alpha, the other's above: each item sells by its own rule."""
    h, dist = ItemPrices(prices=(0.1, 0.7)), DistributionSpec.iid(Uniform(0.5, 1), 1, 2, (0.5, 1))
    mc = true_revenue(h, dist, "monte-carlo", draws=100_000, seed=Seed(4))
    assert abs(analytic_true_revenue(h, dist) - mc.value) <= 4 * mc.std_error
    assert analytic_true_revenue(h, dist) == 0.5 + 0.7 * Uniform(0.5, 1).survival(0.7)


@pytest.mark.parametrize("h", [PlayerReserves((0.5, 0.6)), TLevel(((0.2,), (0.3,))),
                               BundlePrice(prices=(0.5, 0.7)),
                               ItemPrices(price_matrix=((0.5,), (0.6,)))],
                         ids=["player-reserves", "t-level", "bundle-price", "item-prices"])
def test_single_bidder_closed_form_refuses_hypotheses_for_other_bidder_counts(h):
    """A two-bidder hypothesis has no closed form at n = 1, as it has no Monte Carlo value."""
    dist = DistributionSpec.iid(UNI)
    with pytest.raises(DimensionMismatch, match="parameters for 2 bidders do not fit n = 1"):
        analytic_true_revenue(h, dist)
    with pytest.raises(DimensionMismatch):
        true_revenue(h, dist, "auto", draws=10)
    with pytest.raises(DimensionMismatch):
        true_revenue(h, dist, "monte-carlo", draws=10)


# ---------------------------------------------------------------------------
# multi-bidder closed forms under uniform marginals


def test_player_reserves_at_two_uniform_bidders_give_myersons_five_twelfths():
    dist = DistributionSpec.iid(UNI, 2, 1)
    assert abs(analytic_true_revenue(PlayerReserves((0.5, 0.5)), dist) - 5 / 12) <= 2**-54
    assert abs(analytic_optimum(ClassSpec("player-reserves"), dist) - 5 / 12) <= 1e-15


TWENTIETHS = st.integers(0, 20).map(lambda t: t / 20)
# a support [a, b] in [0, 1], on the twentieths (shared ends, ties with reserves) or free
SUPPORTS = st.one_of(
    st.integers(0, 19).flatmap(lambda t: st.tuples(st.just(t / 20),
                                                   st.integers(t + 1, 20).map(lambda u: u / 20))),
    st.tuples(st.floats(0, 0.9), st.floats(0.01, 1)).map(lambda p: (p[0], min(1.0, sum(p)))))
RESERVES = st.one_of(TWENTIETHS, st.floats(0, 1))


AUCTIONS = st.sampled_from((2, 3, 4)).flatmap(lambda n: st.tuples(
    st.lists(SUPPORTS, min_size=n, max_size=n), st.lists(RESERVES, min_size=n, max_size=n)))


@settings(max_examples=30, deadline=None)
@given(auction=AUCTIONS)
@example(auction=([(0.2, 0.6), (0.3, 1.0), (0.25, 0.45)], [0.1, 0.5, 0.5]))
def test_lazy_reserve_closed_form_matches_quadrature_of_the_definition(auction):
    """Asymmetric uniform marginals, reserves inside, below and above the
    supports, against the quadrature oracle of the direct definition."""
    supports, reserves = auction
    dist = DistributionSpec(tuple((Uniform(a, b),) for a, b in supports))
    assert analytic_true_revenue(PlayerReserves(reserves), dist) == pytest.approx(
        lazy_reserve_revenue_quad(supports, reserves), rel=1e-9, abs=1e-15)


U_LOW, U_HIGH, U_MID = Uniform(0.0, 0.7), Uniform(0.2, 1.0), Uniform(0.1, 0.6)
THREE_ASYMMETRIC = DistributionSpec(((U_LOW,), (U_HIGH,), (U_MID,)))
TWO_BY_TWO = DistributionSpec(((U_LOW, U_HIGH), (U_HIGH, U_MID)))
MULTI_BIDDER_CLOSED_FORMS = [
    (AnonymousSecondPriceReserve(0.45), THREE_ASYMMETRIC),
    (PlayerReserves((0.3, 0.55, 0.4)), THREE_ASYMMETRIC),
    (ItemPrices(prices=(0.35, 0.5)), TWO_BY_TWO),
    (ItemPrices(price_matrix=((0.3, 0.6), (0.5, 0.25))), TWO_BY_TWO),
    (BundlePrice(price=0.4), DistributionSpec(((U_LOW,), (U_MID,)))),
    (BundlePrice(prices=(0.3, 0.6, 0.15)), THREE_ASYMMETRIC),
]


@pytest.mark.parametrize("h,dist", MULTI_BIDDER_CLOSED_FORMS,
                         ids=[spec_of(h).describe().replace(" ", "-")
                              for h, _ in MULTI_BIDDER_CLOSED_FORMS])
def test_multi_bidder_closed_forms_agree_with_monte_carlo(h, dist):
    exact = true_revenue(h, dist, "auto", draws=2)
    assert exact.std_error is None and exact.value == analytic_true_revenue(h, dist)
    mc = monte_carlo_true_revenue(h, dist, 10**6, Seed(18))
    assert abs(mc.value - exact.value) <= 4 * mc.std_error


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_no_hypothesis_beats_the_closed_form_optimum(data):
    tag = data.draw(st.sampled_from(("anonymous-second-price", "player-reserves",
                                     "bundle-price", "item-prices")))
    per_player = tag in ("bundle-price", "item-prices") and data.draw(st.booleans())
    spec = ClassSpec(tag, per_player=per_player)
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, 3)) if tag == "item-prices" else 1
    if spec.per_bidder:
        rows = data.draw(st.lists(st.lists(SUPPORTS, min_size=k, max_size=k),
                                  min_size=n, max_size=n))
    else:                   # anonymous optima need each item's marginals identical
        rows = [data.draw(st.lists(SUPPORTS, min_size=k, max_size=k))] * n
    dist = DistributionSpec(tuple(tuple(Uniform(a, b) for a, b in row) for row in rows))
    width = (n if spec.per_bidder else 1) * (k if tag == "item-prices" else 1)
    h = hypothesis_from_params(spec, data.draw(st.lists(RESERVES, min_size=width,
                                                        max_size=width)), n, k)
    best = in_class_optimum(spec, dist)
    assert best.method == "analytic"
    assert true_revenue(h, dist).value <= best.value + 1e-12


# ---------------------------------------------------------------------------
# the batched closed form over parameter rows


def price_draw(dist):
    """A ``grid_param_rows`` draw of prices: uniform on [0, beta], 0 and the
    range's ends, and each discrete marginal's atoms and the midpoints
    between them."""
    alpha, beta = dist.value_range
    atoms = sorted({x for row in dist.marginals for m in row for x in getattr(m, "points", ())})
    fixed = [0.0, alpha, beta, *atoms, *((a + b) / 2 for a, b in zip(atoms, atoms[1:]))]

    def draw(gen, *shape):
        return gen.choice(np.concatenate([fixed, gen.uniform(0, beta, 16)]), size=shape)

    return draw


ONE_BIDDER_SPECS = [s for s in KERNEL_SPECS if s.tag != "best-of"]
U_ABOVE_HALF = (Uniform(0.5, 1), (0.5, 1))
EXPECTED_REVENUE_CASES = [
    # one bidder: every class but best-of, on [0, 1], on [0.5, 1] (alpha = 0.5) and discrete
    *[(spec, DistributionSpec.iid(marginal, 1, 1, value_range))
      for marginal, value_range in ((UNI, (0, 1)), U_ABOVE_HALF, (DISC, (0, 1)))
      for spec in ONE_BIDDER_SPECS],
    # item prices in both modes at k = 2, bundle prices at k = 2 on discrete marginals
    *[(ClassSpec("item-prices", per_player=pp), DistributionSpec(((marginal, DISC),), (0, 1)))
      for pp in (False, True) for marginal in (UNI, U29)],
    (ClassSpec("item-prices"), DistributionSpec.iid(U_ABOVE_HALF[0], 1, 2, U_ABOVE_HALF[1])),
    *[(ClassSpec("bundle-price", per_player=pp), DistributionSpec.iid(DISC, 1, 2))
      for pp in (False, True)],
    # several bidders: the reserve rules under non-identical uniforms
    *[(spec_of(h), dist) for h, dist in MULTI_BIDDER_CLOSED_FORMS],
    (ClassSpec("player-reserves"), DistributionSpec(((U_LOW,), (U_HIGH,)))),
]


@pytest.mark.parametrize("spec,dist", EXPECTED_REVENUE_CASES,
                         ids=[f"{s.describe()}-n{d.n}-k{d.k}-{i}".replace(" ", "-")
                              for i, (s, d) in enumerate(EXPECTED_REVENUE_CASES)])
def test_expected_revenue_rows_match_the_scalar_reference(spec, dist):
    """Each of 60 rows (prices on and between atoms, at the range's ends and
    below alpha) has the bits of ``expected_revenue_reference``, the closed
    form written from ``run_mechanism``'s rules one float at a time, and of
    ``analytic_true_revenue`` of its hypothesis."""
    gen = np.random.default_rng(zlib.crc32(f"{spec.describe()}{dist}".encode()))
    rows = grid_param_rows(spec, price_draw(dist), gen, 60, dist.n, dist.k)
    hyps = [hypothesis_from_params(spec, row, dist.n, dist.k) for row in rows]
    expected = [expected_revenue_reference(h, dist) for h in hyps]
    assert expected_revenue(spec, rows, dist).tolist() == expected
    assert [analytic_true_revenue(h, dist) for h in hyps] == expected
    assert expected_revenue(spec, rows[:0], dist).shape == (0,)


def test_expected_revenue_refuses_rows_of_the_wrong_width():
    with pytest.raises(DimensionMismatch, match="needs parameter rows of width 2"):
        expected_revenue(ClassSpec("player-reserves"), np.zeros((3, 3)),
                         DistributionSpec.iid(UNI, 2, 1))
    with pytest.raises(AnalyticUnsupported, match="no closed form for best-of"):
        expected_revenue(ClassSpec("best-of"), np.zeros((3, 2)), DistributionSpec.iid(UNI))
