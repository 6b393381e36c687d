"""Split-sample space enumeration, growth estimates, and count bounds."""

import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from auctionlearn import (AnonymousSecondPriceReserve, AuctionLearnError, CeilingExceeded,
                          ClassSpec, DimensionMismatch, Discrete, DistributionSpec,
                          PlayerReserves, SampleSet, Seed, SingleReserve, Uniform,
                          ValuationProfile, candidate_count, erm, growth_rate_estimate,
                          rademacher_estimate, sample_values, split_sample_space,
                          theoretical_growth_bound)
from auctionlearn.erm import _near_max, subset_winners
from auctionlearn.splitsample import _posted_subsets, split_sample_block
from oracles import SPLIT_IDS, SPLIT_SPECS, exhaustive_argmax, split_dims

SINGLE = ClassSpec("single-reserve")
splitsample = importlib.import_module("auctionlearn.splitsample")


def sample(values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1, 1)
    return SampleSet(arr)


def test_worked_example_m4():
    # the 6 two-element subsets of {0.2, 0.4, 0.5, 1.0} produce reserves
    # {0.4, 0.5, 1.0, 0.4, 1.0, 1.0} -> 3 distinct
    space = split_sample_space(SINGLE, sample([0.2, 0.4, 0.5, 1.0]), "exact")
    assert space.subsets_examined == 6
    assert space.subset_size == 2
    assert [h.price for h in space.hypotheses] == [0.4, 0.5, 1.0]


def test_identical_samples_collapse():
    space = split_sample_space(SINGLE, sample([0.5] * 4), "exact")
    assert len(space) == 1


def test_single_element_sample():
    space = split_sample_space(SINGLE, sample([0.3]), "exact")
    assert len(space) == 1 and space.subset_size == 1


def test_fast_path_matches_generic_subset_loop():
    gen = np.random.default_rng(12)
    samples = [gen.random((m, 1, 1)) for m in (2, 5, 8)]
    # 16 tenths-grid values always repeat one: 12,870 subsets with equal values
    samples += [gen.integers(0, 11, (16, 1, 1)) / 10 for _ in range(2)]
    for values in samples:
        m = len(values)
        S = SampleSet(values)
        space = split_sample_space(SINGLE, S, "exact")
        size = math.ceil(m / 2)
        expected = set()
        for idx in itertools.combinations(range(m), size):
            expected.add(erm(SINGLE, SampleSet(values[list(idx)])))
        assert set(space.hypotheses) == expected


def test_monte_carlo_is_subset_of_exact_and_monotone():
    gen = np.random.default_rng(3)
    S = SampleSet(gen.random((8, 1, 1)))
    exact = set(split_sample_space(SINGLE, S, "exact").hypotheses)
    small = set(split_sample_space(SINGLE, S, "monte-carlo", trials=5,
                                   seed=Seed(1)).hypotheses)
    big = set(split_sample_space(SINGLE, S, "monte-carlo", trials=40,
                                 seed=Seed(1)).hypotheses)
    assert small <= big <= exact       # same stream prefix: adding subsets only grows


def test_members_are_erm_outputs_with_sample_valued_reserves():
    gen = np.random.default_rng(8)
    S = SampleSet(gen.random((9, 1, 1)))
    space = split_sample_space(SINGLE, S, "exact")
    vals = set(S.values[:, 0, 0].tolist())
    for h in space.hypotheses:
        assert isinstance(h, SingleReserve)
        assert h.price in vals


def test_subset_ceiling():
    gen = np.random.default_rng(4)
    S = SampleSet(gen.random((20, 1, 1)))
    with pytest.raises(CeilingExceeded):
        split_sample_space(SINGLE, S, "exact", subset_ceiling=100)
    # monte-carlo mode is refused before its first draw, and runs at the ceiling
    with pytest.raises(CeilingExceeded):
        split_sample_space(SINGLE, S, "monte-carlo", trials=10**8, seed=Seed(1),
                           subset_ceiling=100)
    space = split_sample_space(SINGLE, S, "monte-carlo", trials=100, seed=Seed(1),
                               subset_ceiling=100)
    assert space.subsets_examined == 100


def half_subsets(m):
    return list(itertools.combinations(range(m), math.ceil(m / 2)))


def per_subset_space(spec, values, value_range):
    """Brute force: one ERM per half-size subset of the sample."""
    return {erm(spec, SampleSet(values[list(idx)], value_range))
            for idx in half_subsets(len(values))}


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=SPLIT_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_split_sample_space_matches_per_subset_erm(spec, data):
    max_n, max_k, max_m = split_dims(spec)
    n = data.draw(st.integers(1, max_n), label="n")
    k = data.draw(st.integers(1, max_k), label="k")
    m = data.draw(st.integers(1, max_m), label="m")
    if data.draw(st.booleans(), label="tenths"):   # a tenths grid, so values tie
        unit = np.array(data.draw(st.lists(st.integers(0, 10), min_size=m * n * k,
                                           max_size=m * n * k), label="tenths")) / 10
    else:
        unit = np.array(data.draw(st.lists(st.floats(0, 1), min_size=m * n * k,
                                           max_size=m * n * k), label="unit"))
    low, width = data.draw(st.sampled_from([(0.0, 1.0), (2.0, 3.0)]), label="range")
    values = low + width * unit.reshape(m, n, k)
    value_range = (low, low + width)
    space = split_sample_space(spec, SampleSet(values, value_range), "exact")
    assert space.subsets_examined == math.comb(m, math.ceil(m / 2))
    assert set(space.hypotheses) == per_subset_space(spec, values, value_range)
    assert list(space.hypotheses) == sorted(space.hypotheses, key=lambda h: h.param_vector())


RESERVE_RULES = [spec for spec in SPLIT_SPECS if spec.tag not in ("t-level", "best-of")]


@pytest.mark.parametrize("spec", RESERVE_RULES,
                         ids=[s.describe().replace(" ", "-") for s in RESERVE_RULES])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(n=st.integers(1, 2), k=st.integers(1, 2), m=st.integers(1, 6),
       tenths=st.lists(st.integers(0, 10), min_size=24, max_size=24))
def test_exact_space_is_the_subsets_exhaustive_argmaxes(spec, n, k, m, tenths):
    """On tenths grids, whose ties the batched subset ERM must break as the
    exhaustive argmax does, the exact space of a reserve-rule class is the
    set of its half-size subsets' exhaustive argmaxes."""
    n = 1 if spec.tag == "single-reserve" else n
    k = k if spec.tag in ("bundle-price", "item-prices") else 1
    values = np.array(tenths[:m * n * k]).reshape(m, n, k) / 10
    assume(candidate_count(spec, SampleSet(values)) <= 200)
    expected = {exhaustive_argmax(spec, SampleSet(values[list(idx)]))[0]
                for idx in half_subsets(m)}
    assert set(split_sample_space(spec, SampleSet(values), "exact").hypotheses) == expected


JOINT_CLASSES = [spec for spec in SPLIT_SPECS if spec.tag in ("t-level", "best-of")]


@pytest.mark.parametrize("spec", JOINT_CLASSES,
                         ids=[s.describe().replace(" ", "-") for s in JOINT_CLASSES])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(n=st.integers(1, 2), k=st.integers(1, 2), m=st.integers(1, 6),
       tenths=st.lists(st.integers(0, 10), min_size=24, max_size=24))
def test_joint_exact_space_is_the_subsets_exhaustive_argmaxes(spec, n, k, m, tenths):
    """T-level and best-of score every subset's candidates in bulk, sorting
    only those whose unsorted sums are near the subset's maximum.  On tenths
    grids, where many candidates tie, the exact space is the set of the
    half-size subsets' exhaustive argmaxes (not per-subset ``erm``, which
    runs the same shortlist)."""
    k = k if spec.tag == "best-of" else 1
    values = np.array(tenths[:m * n * k]).reshape(m, n, k) / 10
    subsets = [SampleSet(values[list(idx)]) for idx in half_subsets(m)]
    assume(sum(candidate_count(spec, S) for S in subsets) <= 600)
    expected = {exhaustive_argmax(spec, S)[0] for S in subsets}
    assert set(split_sample_space(spec, SampleSet(values), "exact").hypotheses) == expected


def test_joint_shortlist_margin_grows_with_the_subset_size():
    """A subset's shortlist sums come from a BLAS product, which may add its
    revenues in any order.  Here bidder 0 pays a threshold of 1 on profile
    0, and bidder 1's bids are 300 of 0.3 ulp then 200 of 0.6 ulp: the best
    second threshold, 0.3 ulp sold 499 times, beats 0.6 ulp sold 199 times
    by about 30 ulps, but a blocked kernel rounds away small bids added to
    the 1, and its sum can read tens of ulps below the other's (OpenBLAS:
    about 80).  Only a margin that grows with the number of summed
    revenues keeps it in the shortlist."""
    spec = ClassSpec("t-level", levels=1)
    ulp = 2.0**-52
    values = np.zeros((501, 2, 1))
    values[0, 0, 0] = 1.0
    values[1:301, 1, 0] = 0.3 * ulp
    values[301:, 1, 0] = 0.6 * ulp
    subset = np.arange(500)
    won = subset_winners(spec, values[None], (0.0, 1.0), subset[None], 10**7)[0]
    best = exhaustive_argmax(spec, SampleSet(values[subset]))[0]
    assert best.param_vector() == (1.0, 0.3 * ulp)
    assert [tuple(row) for row in won] == [best.param_vector()]


def test_joint_space_across_candidate_chunks():
    """Per-player best-of at n = k = 2, m = 6 has 6^6 = 46,656 candidates,
    about 11 chunks of 4,096: a subset has no candidate in some chunks, and
    its maximum ties across others.  The exact space is still the set of
    the subsets' exhaustive argmaxes."""
    spec = ClassSpec("best-of", per_player=True)
    values = np.random.default_rng(9).random((6, 2, 2))
    assert candidate_count(spec, SampleSet(values)) == 6**6
    expected = {exhaustive_argmax(spec, SampleSet(values[list(idx)]))[0]
                for idx in half_subsets(6)}
    assert set(split_sample_space(spec, SampleSet(values), "exact").hypotheses) == expected


@pytest.mark.parametrize("m", [1, 2, 17, 500, 10**6])
def test_near_max_keeps_sums_off_by_gamma_m(m):
    """The shortlist's margin, whatever order a BLAS sums in: an unsorted
    sum of m nonnegative revenues is within gamma_m of the exact one, so
    the exact argmax's sum may read gamma_m low while another candidate's,
    of the same exact score, reads gamma_m high.  ``_near_max`` with
    terms = m still keeps it; at large m a margin that does not grow with
    the number of terms drops it."""
    gamma = m * 2.0**-53 / (1 - m * 2.0**-53)
    exact = np.array([0.1, 0.3, 1.0, 7.25, 123.456])
    low, high = exact * (1 - gamma), exact * (1 + gamma)
    assert _near_max(low, high, m, high).all()
    if m >= 500:
        assert not _near_max(low, high, 0, high).any()


@pytest.mark.parametrize("spec", JOINT_CLASSES,
                         ids=[s.describe().replace(" ", "-") for s in JOINT_CLASSES])
def test_joint_monte_carlo_on_one_profile_is_the_exact_space(spec):
    """At m = 1 every drawn subset is the one profile, so every trial count
    gives the exact space: one row, the whole sample's ERM."""
    n, k, _ = split_dims(spec)
    S = SampleSet(np.random.default_rng(4).random((1, n, k)))
    exact = split_sample_space(spec, S, "exact")
    assert set(exact.hypotheses) == {erm(spec, S)}
    for trials in (1, 2, 5):
        space = split_sample_space(spec, S, "monte-carlo", trials=trials, seed=Seed(3))
        assert np.array_equal(space.rows, exact.rows)


def test_joint_monte_carlo_keeps_only_the_last_argmax():
    """T-level thresholds (0.6, 0.4) and (0.6, 1) both earn 0.6 on the one
    profile (0.6, 0.4); the last argmax, (0.6, 1), is the whole space in
    either mode, however many times the profile is drawn."""
    spec = ClassSpec("t-level", levels=1)
    S = SampleSet(np.array([[[0.6], [0.4]]]))
    for space in (split_sample_space(spec, S, "exact"),
                  split_sample_space(spec, S, "monte-carlo", trials=4, seed=Seed(1))):
        assert [h.param_vector() for h in space.hypotheses] == [(0.6, 1.0)]


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=SPLIT_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_split_sample_block_is_per_sample_space(spec, data):
    """Each sample of a block gets the rows its exact space has alone, with
    the block learned a few samples, or a part of one sample's subsets, at a
    time, so chunks end inside it."""
    max_n, max_k, max_m = split_dims(spec)
    n = data.draw(st.integers(1, max_n), label="n")
    k = data.draw(st.integers(1, max_k), label="k")
    m = data.draw(st.integers(1, max_m), label="m")
    count = data.draw(st.integers(1, 5), label="samples") * m * n * k
    if data.draw(st.booleans(), label="tenths"):
        unit = np.array(data.draw(st.lists(st.integers(0, 10), min_size=count,
                                           max_size=count), label="tenths")) / 10
    else:
        unit = np.array(data.draw(st.lists(st.floats(0, 1), min_size=count, max_size=count),
                                  label="unit"))
    low, width = data.draw(st.sampled_from([(0.0, 1.0), (2.0, 3.0)]), label="range")
    values = low + width * unit.reshape(-1, m, n, k)
    value_range = (low, low + width)
    # from one subset per call to three samples' subsets
    cells = data.draw(st.integers(1, 3 * _posted_subsets(m, math.ceil(m / 2)).size),
                      label="gathered values per call")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("auctionlearn.erm"), "_REPLICATE_CELLS", cells)
        block = split_sample_block(spec, values, value_range)
    alone = [split_sample_space(spec, SampleSet(v, value_range), "exact").rows for v in values]
    assert len(block) == len(alone)
    assert all(np.array_equal(b, a) for b, a in zip(block, alone))


def test_growth_estimate_is_the_max_over_its_draws(monkeypatch):
    """Draws sampled and enumerated in blocks of 2 give the one-draw-at-a-time
    maximum, here reached only by the last draw, alone in its block."""
    monkeypatch.setattr(splitsample, "_REPLICATE_CELLS", 2 * 9)
    dist = DistributionSpec.iid(Discrete((0.1, 0.4, 0.6, 0.9), (0.25,) * 4))
    sizes = [len(split_sample_space(SINGLE, sample_values(dist, 9,
                                                          Seed(11).child("growth-draw", i))))
             for i in range(7)]
    assert sizes == [3, 2, 2, 3, 2, 2, 4]
    assert growth_rate_estimate(SINGLE, 9, dist, draws=7, seed=Seed(11)).observed_max == 4


def test_posted_subsets_keep_the_listed_rows_in_order():
    """The array form lists the rows of the defining comprehension, in order."""
    for m in range(1, 41):
        size = math.ceil(m / 2)
        listed = [[*range(b), *range(i, i + size - b)]
                  for i in range(m) for b in range(min(i, size - 1) + 1)
                  if i + size - b <= m and (b < i or i == 0)]
        assert _posted_subsets(m, size).tolist() == listed


def test_posted_subsets_are_distinct():
    for m in range(1, 21):
        subsets = _posted_subsets(m, math.ceil(m / 2))
        assert len(np.unique(subsets, axis=0)) == len(subsets)


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=SPLIT_IDS)
def test_rademacher_scores_space_rows_as_its_hypotheses(spec):
    n, k, max_m = split_dims(spec)
    gen = np.random.default_rng(31)
    half = max_m // 2
    S, twin = (SampleSet(gen.integers(0, 11, (half, n, k)) / 10) for _ in range(2))
    pooled = SampleSet(np.concatenate([S.values, twin.values]))
    space = split_sample_space(spec, pooled, "exact")
    by_rows = rademacher_estimate(S, space, draws=500, seed=Seed(9))
    by_hyps = rademacher_estimate(S, space.hypotheses, draws=500, seed=Seed(9))
    assert by_rows.estimate == by_hyps.estimate and by_rows.std_error == by_hyps.std_error
    assert by_rows.set_size == by_hyps.set_size == len(space)


def test_samples_and_spaces_compare_field_wise():
    values = np.random.default_rng(35).random((6, 2, 1))
    S, same, other = SampleSet(values), SampleSet(values.copy()), SampleSet(values[::-1])
    assert S == same and S != other
    assert ValuationProfile(values[0]) == ValuationProfile(values[0].copy())
    assert ValuationProfile(values[0]) != ValuationProfile(values[1])
    asp = ClassSpec("anonymous-second-price")
    space = split_sample_space(asp, S, "exact")
    assert space == split_sample_space(asp, same, "exact")
    assert space != split_sample_space(asp, other, "exact")
    assert space != split_sample_space(ClassSpec("player-reserves"), S, "exact")
    assert space != split_sample_space(asp, S, "monte-carlo", trials=20, seed=Seed(1))


def test_rademacher_refuses_mixed_classes_and_foreign_spaces():
    S = SampleSet(np.random.default_rng(32).random((6, 2, 1)))
    with pytest.raises(AuctionLearnError):
        rademacher_estimate(S, [AnonymousSecondPriceReserve(0.5), PlayerReserves((0.4, 0.6))],
                            draws=100, seed=Seed(1))
    # same row widths, other (n, k): only the space's base can tell them apart
    one_bidder = SampleSet(np.random.default_rng(33).random((6, 1, 1)))
    asp = split_sample_space(ClassSpec("anonymous-second-price"), S, "exact")
    with pytest.raises(DimensionMismatch):
        rademacher_estimate(one_bidder, asp, draws=100, seed=Seed(1))
    items = split_sample_space(ClassSpec("item-prices", per_player=True), S, "exact")
    two_items = SampleSet(np.random.default_rng(34).random((6, 1, 2)))
    with pytest.raises(DimensionMismatch):
        rademacher_estimate(two_items, items, draws=100, seed=Seed(1))


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=SPLIT_IDS)
def test_split_sample_space_on_degenerate_samples(spec):
    max_n, max_k, _ = split_dims(spec)
    for values in (np.full((1, max_n, max_k), 0.3), np.full((5, max_n, max_k), 0.7)):
        space = split_sample_space(spec, SampleSet(values), "exact")
        assert set(space.hypotheses) == per_subset_space(spec, values, (0.0, 1.0))
        assert len(space) == 1


@pytest.mark.parametrize("spec", [SINGLE,
                                  ClassSpec("anonymous-second-price"),
                                  ClassSpec("player-reserves"),
                                  ClassSpec("t-level", levels=1), ClassSpec("best-of")],
                         ids=lambda s: s.describe().replace(" ", "-"))
def test_monte_carlo_matches_per_subset_draws(spec):
    n = 1 if spec == SINGLE else 2
    k = 2 if spec.tag == "best-of" else 1
    values = np.round(np.random.default_rng(21).random((9, n, k)) * 10) / 10
    S = SampleSet(values)
    space = split_sample_space(spec, S, "monte-carlo", trials=30, seed=Seed(5))
    rng = Seed(5).rng()   # the same draws, one ERM per drawn subset
    expected = {erm(spec, SampleSet(values[np.sort(rng.choice(9, size=5, replace=False))]))
                for _ in range(30)}
    assert space.subsets_examined == 30
    assert set(space.hypotheses) == expected


def test_candidate_ceiling_bounds_full_sample_rows():
    values = np.random.default_rng(6).random((6, 2, 1))
    S = SampleSet(values)
    tlevel = ClassSpec("t-level", levels=1)   # 7 thresholds per bidder with beta
    assert len(split_sample_space(tlevel, S, "exact", candidate_ceiling=49)) >= 1
    with pytest.raises(CeilingExceeded):
        split_sample_space(tlevel, S, "exact", candidate_ceiling=48)
    player = ClassSpec("player-reserves")      # separable: 6 reserves per bidder
    assert len(split_sample_space(player, S, "exact", candidate_ceiling=6)) >= 1
    with pytest.raises(CeilingExceeded):
        split_sample_space(player, S, "exact", candidate_ceiling=5)
    with pytest.raises(CeilingExceeded):
        split_sample_space(player, S, "monte-carlo", trials=3, seed=Seed(1),
                           candidate_ceiling=5)
    pair = SampleSet(np.array([0.5, 0.2, 0.2]).reshape(3, 1, 1))   # 2 distinct prices
    assert len(split_sample_space(SINGLE, pair, "exact", candidate_ceiling=2)) == 2
    with pytest.raises(CeilingExceeded):
        split_sample_space(SINGLE, pair, "exact", candidate_ceiling=1)


def test_posted_ceiling_counts_the_whole_sample():
    """Four distinct prices over a ceiling of 3 are refused, though every
    half-size subset holds only two, in either mode."""
    S = sample([0.1, 0.2, 0.3, 0.4])
    for mode in ("exact", "monte-carlo"):
        with pytest.raises(CeilingExceeded, match="scores 4 candidate rows"):
            split_sample_space(SINGLE, S, mode, trials=3, seed=Seed(1), candidate_ceiling=3)
        assert len(split_sample_space(SINGLE, S, mode, trials=3, seed=Seed(1),
                                      candidate_ceiling=4)) >= 1


def test_a_subsets_tied_product_counts_against_the_ceiling():
    """One bidder, 12 items, two profiles of 0.5s and two of 1s: each item's
    pool holds two values, but a subset of one of each ties all 2^12 price
    vectors, which ERM scores; the ceiling counts them, and all 1s wins."""
    S = SampleSet(np.array([[[0.5] * 12], [[1.0] * 12]] * 2))
    items = ClassSpec("item-prices")
    with pytest.raises(CeilingExceeded, match="scores 4096 candidate rows"):
        split_sample_space(items, S, "exact", candidate_ceiling=4095)
    space = split_sample_space(items, S, "exact", candidate_ceiling=4096)
    assert [h.prices for h in space.hypotheses] == [(0.5,) * 12, (1.0,) * 12]


def test_theoretical_growth_bound_values():
    """Counts and their logs, the logs bit for bit as the per-class formulas
    gave them: ``main_bound`` feeds the log into every experiment row."""
    cases = [
        (SINGLE, 10, 1, 1, 10, 2.302585092994046),
        (ClassSpec("anonymous-second-price"), 10, 2, 1, 20, 2.995732273553991),
        (ClassSpec("player-reserves"), 5, 2, 1, 25, 3.2188758248682006),
        (ClassSpec("item-prices"), 4, 2, 3, 512, 6.238324625039507),
        (ClassSpec("item-prices", per_player=True), 4, 2, 3, 4**6, 8.317766166719343),
        (ClassSpec("t-level", levels=2), 3, 2, 1, 81, 4.394449154672439),
        (ClassSpec("bundle-price"), 7, 3, 1, 21, 3.044522437723423),
        (ClassSpec("bundle-price", per_player=True), 7, 3, 1, 343, 5.8377304471659395),
        (ClassSpec("best-of"), 3, 2, 2, 216, 5.375278407684165),
        (ClassSpec("best-of", per_player=True), 3, 2, 2, 3**6, 6.591673732008658),
    ]
    for spec, m, n, k, count, log in cases:
        b = theoretical_growth_bound(spec, m, n, k)
        assert (b.count, b.log) == (count, log), spec.describe()


def test_theoretical_growth_bound_rejects_shapes_the_class_cannot_run_on():
    for spec, n, k in [(SINGLE, 2, 1), (SINGLE, 1, 2),
                       (ClassSpec("anonymous-second-price"), 1, 2),
                       (ClassSpec("player-reserves"), 2, 2),
                       (ClassSpec("t-level", levels=1), 1, 2)]:
        with pytest.raises(DimensionMismatch):
            theoretical_growth_bound(spec, 10, n, k)


def test_growth_bound_log_consistency():
    for spec, n, k in [(SINGLE, 1, 1), (ClassSpec("player-reserves"), 3, 1),
                       (ClassSpec("t-level", levels=2), 2, 1),
                       (ClassSpec("best-of"), 2, 2)]:
        b = theoretical_growth_bound(spec, 9, n, k)
        assert b.log == pytest.approx(math.log(b.count), rel=1e-12)


GROWTH_CASES = [
    (SINGLE, 1, 1),
    (ClassSpec("anonymous-second-price"), 2, 1),
    (ClassSpec("player-reserves"), 2, 1),
    (ClassSpec("item-prices"), 2, 2),
    (ClassSpec("bundle-price"), 2, 2),
]


@pytest.mark.parametrize("spec,n,k", GROWTH_CASES)
def test_observed_growth_within_bound(spec, n, k):
    dist = DistributionSpec.iid(Uniform(0, 1), n, k)
    for m in (2, 5, 8):
        est = growth_rate_estimate(spec, m, dist, draws=4, seed=Seed(17))
        assert est.observed_max <= est.bound.count
        assert est.observed_max <= math.comb(m, math.ceil(m / 2))


def test_growth_examples():
    # diverse uniform values stay within the m bound
    dist = DistributionSpec.iid(Uniform(0, 1))
    est = growth_rate_estimate(SINGLE, 4, dist, draws=50, seed=Seed(2))
    assert 1 <= est.observed_max <= 4
    # a point mass admits exactly one ERM output
    point = DistributionSpec.iid(Discrete((0.5,), (1.0,)))
    est = growth_rate_estimate(SINGLE, 2, point, draws=5, seed=Seed(2))
    assert est.observed_max == 1
    # two-bidder reserves stay within m^n
    dist2 = DistributionSpec.iid(Uniform(0, 1), 2, 1)
    est = growth_rate_estimate(ClassSpec("player-reserves"), 4, dist2,
                               draws=20, seed=Seed(3))
    assert est.observed_max <= 16
