"""Split-sample space enumeration, growth estimates, and count bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from auctionlearn import (CeilingExceeded, ClassSpec, Discrete,
                          DistributionSpec, SampleSet, Seed, SingleReserve,
                          Uniform, erm, growth_rate_estimate,
                          split_sample_space, theoretical_growth_bound)

SINGLE = ClassSpec("single-reserve")


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


SPLIT_SPECS = [SINGLE, ClassSpec("anonymous-second-price"), ClassSpec("player-reserves"),
               ClassSpec("t-level", levels=1), ClassSpec("t-level", levels=2),
               ClassSpec("bundle-price"), ClassSpec("bundle-price", per_player=True),
               ClassSpec("item-prices"), ClassSpec("item-prices", per_player=True),
               ClassSpec("best-of"), ClassSpec("best-of", per_player=True)]
SPLIT_IDS = [s.describe().replace(" ", "-") for s in SPLIT_SPECS]


def split_dims(spec):
    """(max n, max k, max m): the bulk scorer scores every candidate of the
    full sample, so best-of and two-level t-level stay small to stay fast."""
    if spec.tag == "single-reserve":
        return 1, 1, 8
    k = 1 if spec.tag in ("anonymous-second-price", "player-reserves", "t-level") else 2
    if spec.tag == "best-of":
        return 2, k, 6
    if spec.tag == "t-level" and spec.levels == 2:
        return 2, k, 8
    return 3, k, 8


def per_subset_space(spec, values, value_range):
    """Brute force: one ERM per half-size subset of the sample."""
    size = math.ceil(len(values) / 2)
    return {erm(spec, SampleSet(values[list(idx)], value_range))
            for idx in itertools.combinations(range(len(values)), size)}


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


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=SPLIT_IDS)
def test_split_sample_space_on_degenerate_samples(spec):
    max_n, max_k, _ = split_dims(spec)
    for values in (np.full((1, max_n, max_k), 0.3), np.full((5, max_n, max_k), 0.7)):
        space = split_sample_space(spec, SampleSet(values), "exact")
        assert set(space.hypotheses) == per_subset_space(spec, values, (0.0, 1.0))
        assert len(space) == 1


@pytest.mark.parametrize("spec", [ClassSpec("anonymous-second-price"),
                                  ClassSpec("player-reserves"),
                                  ClassSpec("t-level", levels=1), ClassSpec("best-of")],
                         ids=lambda s: s.describe().replace(" ", "-"))
def test_monte_carlo_matches_per_subset_draws(spec):
    k = 2 if spec.tag == "best-of" else 1
    values = np.round(np.random.default_rng(21).random((9, 2, k)) * 10) / 10
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


def test_theoretical_growth_bound_values():
    assert theoretical_growth_bound(SINGLE, 10).count == 10
    assert theoretical_growth_bound(ClassSpec("anonymous-second-price"), 10, 2).count == 20
    assert theoretical_growth_bound(ClassSpec("player-reserves"), 5, 2).count == 25
    assert theoretical_growth_bound(ClassSpec("item-prices"), 4, 2, 3).count == 512
    assert theoretical_growth_bound(ClassSpec("item-prices", per_player=True),
                                    4, 2, 3).count == 4**6
    assert theoretical_growth_bound(ClassSpec("t-level", levels=2), 3, 2).count == 81
    assert theoretical_growth_bound(ClassSpec("bundle-price"), 7, 3).count == 21
    assert theoretical_growth_bound(ClassSpec("bundle-price", per_player=True),
                                    7, 3).count == 343
    assert theoretical_growth_bound(ClassSpec("best-of"), 3, 2, 2).count == 216
    assert theoretical_growth_bound(ClassSpec("best-of", per_player=True),
                                    3, 2, 2).count == 3**6


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
