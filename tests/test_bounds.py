"""Bound algebra, Rademacher estimation, and the generalization chain."""

import dataclasses
import importlib
import itertools
import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from auctionlearn import (AuctionLearnError, ClassSpec, Discrete, DistributionSpec, SampleSet,
                          Seed, SingleReserve, Uniform, ValuationProfile, bound_formula,
                          generalization_chain_check, high_prob_bound,
                          main_bound, massart_bound, rademacher_estimate, revenue,
                          revenue_range, sample_complexity_estimate, split_sample_space,
                          tlevel_epsilon)
from auctionlearn import bounds as bounds_module
from auctionlearn.bounds import _exact_rademacher_block, _half_signs
from auctionlearn.mechanisms import _param_width, revenue_matrix
from oracles import (SPLIT_IDS, SPLIT_SPECS, draw_eighth_sample, run_python_process, split_dims,
                     spy_hypothesis_building, spy_seed_labels)

SINGLE = ClassSpec("single-reserve")
ASP = ClassSpec("anonymous-second-price")
PLAYER = ClassSpec("player-reserves")
U01 = DistributionSpec.iid(Uniform(0, 1))


def test_massart_values():
    assert massart_bound(10, 100) == pytest.approx(math.sqrt(2 * math.log(10) / 100))
    assert massart_bound(10, 100) == pytest.approx(0.2146, abs=1e-4)
    assert massart_bound(1, 7) == 0.0
    # range scaling: [0, 2] doubles the m=200 single-reserve figure
    assert massart_bound(400, 200, (0.0, 2.0)) == pytest.approx(
        2 * math.sqrt(2 * math.log(400) / 200))
    assert massart_bound(400, 200, (0.0, 2.0)) == pytest.approx(0.4896, abs=1e-4)


@pytest.mark.parametrize("bad", [(1.0, 0.0), (0.5, 0.5), (-0.1, 1.0), (0.0, math.nan),
                                 (math.nan, 1.0), (0.0, math.inf)])
def test_bounds_reject_bad_value_ranges(bad):
    with pytest.raises(AuctionLearnError):
        massart_bound(3, 4, bad)
    with pytest.raises(AuctionLearnError):
        main_bound(SINGLE, 5, value_range=bad)


def test_massart_monotonicity():
    assert massart_bound(20, 50) > massart_bound(10, 50)
    assert massart_bound(10, 100) < massart_bound(10, 50)


def test_main_bound_single_reserve():
    r = main_bound(SINGLE, 200)
    assert r.expected_gap_bound == pytest.approx(math.sqrt(2 * math.log(400) / 200))
    assert r.expected_gap_bound == pytest.approx(0.2448, abs=1e-4)
    assert r.log_tau_2m == pytest.approx(math.log(400))
    assert not r.vacuous


def test_main_bound_matches_displayed_formulas():
    # sqrt(2*log(2*n*m)/m) at n=2, m=200
    r = main_bound(ASP, 200, n=2)
    assert r.expected_gap_bound == math.sqrt(2 * math.log(2 * 2 * 200) / 200)
    assert r.expected_gap_bound == pytest.approx(0.2585, abs=1e-4)
    # sqrt(2*n*log(2*m)/m) at n=3, m=1000
    r = main_bound(PLAYER, 1000, n=3)
    assert r.expected_gap_bound == math.sqrt(2 * 3 * math.log(2000) / 1000)
    assert r.expected_gap_bound == pytest.approx(0.2135, abs=1e-4)


def test_bound_formula_strings():
    assert bound_formula(SINGLE) == "sqrt(2*log(2*m)/m)"
    assert bound_formula(ASP) == "sqrt(2*log(2*n*m)/m)"
    assert bound_formula(PLAYER) == "sqrt(2*n*log(2*m)/m)"


def test_range_scaling_of_main_bound():
    unit = main_bound(SINGLE, 200).expected_gap_bound
    wide = main_bound(SINGLE, 200, value_range=(0.0, 2.0)).expected_gap_bound
    assert wide == pytest.approx(2 * unit)


def test_high_prob_bound():
    r = main_bound(SINGLE, 200)
    assert high_prob_bound(r, 0.1) == pytest.approx(r.expected_gap_bound / 0.1)
    assert high_prob_bound(r, 0.1) == pytest.approx(2.448, abs=5e-4)
    # the delta-bearing report is flagged vacuous on [0, 1]
    assert main_bound(SINGLE, 200, delta=0.1).vacuous
    assert not main_bound(SINGLE, 200, delta=0.9).vacuous
    assert high_prob_bound(r, 0.5) * 0.5 == r.expected_gap_bound  # binary delta: exact
    assert high_prob_bound(r, 0.25) * 0.25 == r.expected_gap_bound
    with pytest.raises(ValueError):
        high_prob_bound(r, 1.0)
    with pytest.raises(ValueError):
        high_prob_bound(r, 0.0)


def test_vacuous_flag_reported_not_clipped():
    r = main_bound(SINGLE, 2)
    assert r.expected_gap_bound > 1.0
    assert r.vacuous


def test_tlevel_epsilon_full_precision():
    t = tlevel_epsilon(2, 1000)
    assert t.epsilon == (2 * 2 * math.log(2000) / 1000) ** (1.0 / 3.0)
    assert t.epsilon == pytest.approx(0.3121, abs=2e-4)
    assert t.levels == math.ceil(1.0 / t.epsilon) == 4
    assert t.overall_bound == 2.0 * t.epsilon


def test_tlevel_epsilon_decreases_with_m():
    eps = [tlevel_epsilon(1, m).epsilon for m in (10, 100, 1000, 10000)]
    assert all(a > b for a, b in zip(eps, eps[1:]))


def test_sample_complexity_single_reserve_half():
    assert sample_complexity_estimate(SINGLE, 0.5) == 34
    # direct verification at the boundary
    assert main_bound(SINGLE, 34).expected_gap_bound <= 0.5
    assert main_bound(SINGLE, 33).expected_gap_bound > 0.5


def test_sample_complexity_trivial_epsilon():
    b1 = main_bound(SINGLE, 1).expected_gap_bound
    assert sample_complexity_estimate(SINGLE, b1 + 0.01) == 1


def test_sample_complexity_scaling_factor():
    # for an m^n class the output tracks n*log(1/eps)/eps^2 within a factor 4
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        m = sample_complexity_estimate(PLAYER, eps, n=2)
        ratios.append(m * eps**2 / (2 * math.log(1 / eps)))
    assert max(ratios) / min(ratios) <= 4.0


def test_sample_complexity_validation():
    with pytest.raises(ValueError):
        sample_complexity_estimate(SINGLE, 0.0)
    with pytest.raises(ValueError):
        sample_complexity_estimate(SINGLE, float("nan"))


def uniform_sample(m, seed, n=1):
    gen = np.random.default_rng(seed)
    return SampleSet(gen.random((m, n, 1)))


def test_rademacher_singleton_is_zero_mean():
    S = uniform_sample(20, 1)
    est = rademacher_estimate(S, [SingleReserve(0.5)], draws=20_000, seed=Seed(5))
    assert abs(est.estimate) <= 3 * est.std_error
    assert est.set_size == 1


def test_rademacher_single_point_sample():
    S = SampleSet(np.array([[[1.0]]]))
    est = rademacher_estimate(S, [SingleReserve(1.0)], draws=20_000, seed=Seed(6))
    # one +/-1 variable scaled by 2: mean 0, observed values +/-2
    assert abs(est.estimate) <= 3 * est.std_error
    assert est.estimate <= 2.0


def test_rademacher_duplication_invariance():
    S = uniform_sample(12, 2)
    hyps = [SingleReserve(0.3), SingleReserve(0.7)]
    a = rademacher_estimate(S, hyps, draws=500, seed=Seed(7))
    b = rademacher_estimate(S, hyps * 3, draws=500, seed=Seed(7))
    assert a.estimate == b.estimate and a.std_error == b.std_error


def test_rademacher_below_enumerated_massart():
    for seed in range(4):
        S = uniform_sample(10, 100 + seed)
        space = split_sample_space(SINGLE, S, "exact")
        est = rademacher_estimate(S, space.hypotheses, draws=4000, seed=Seed(seed))
        assert est.estimate <= massart_bound(len(space), S.m) + 3 * est.std_error


def brute_force_rademacher(S, hypotheses):
    """E_sigma sup_h (2/m) sum_t sigma_t r(h, z_t) over all 2^m sign vectors,
    with revenues from the scalar mechanism."""
    revs = [[revenue(h, ValuationProfile(v, S.value_range)) for v in S.values]
            for h in hypotheses]
    sups = [max((2.0 / S.m) * sum(s * r for s, r in zip(sigma, row)) for row in revs)
            for sigma in itertools.product([-1, 1], repeat=S.m)]
    return sum(sups) / 2**S.m


def pooled_space(spec, n, m, gen, eighths=False):
    """A sample S of size m, of U[0, 1] values or eighths, and the
    split-sample space of S plus a twin."""
    S, twin = (SampleSet(draw_eighth_sample(gen, m, n, 1) if eighths else gen.random((m, n, 1)))
               for _ in range(2))
    pooled = SampleSet(np.concatenate([S.values, twin.values]))
    return S, split_sample_space(spec, pooled, "exact")


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("spec, n", [(SINGLE, 1), (ASP, 2), (PLAYER, 2)])
def test_exact_rademacher_equals_brute_force_on_dyadic_values(spec, n, m):
    # eighths and the 2/m of m in {2, 4, 8} are binary-exact, so every sum is exact
    S, space = pooled_space(spec, n, m, np.random.default_rng(40 + m), eighths=True)
    est = rademacher_estimate(S, space, draws=2**m, seed=Seed(1))
    assert est.method == "exact" and est.std_error == 0.0 and est.draws == 2**m
    assert est.estimate == brute_force_rademacher(S, space.hypotheses)


@pytest.mark.parametrize("m", [1, 3, 5, 7, 10])
@pytest.mark.parametrize("spec, n", [(SINGLE, 1), (ASP, 2)])
def test_exact_rademacher_matches_brute_force_on_uniform_values(spec, n, m):
    S, space = pooled_space(spec, n, m, np.random.default_rng(50 + m))
    est = rademacher_estimate(S, space, draws=10_000, seed=Seed(1))
    assert est.method == "exact"
    assert math.isclose(est.estimate, brute_force_rademacher(S, space.hypotheses),
                        rel_tol=1e-12)


def test_monte_carlo_rademacher_is_within_4_se_of_exact():
    for j, (spec, n) in enumerate([(SINGLE, 1), (ASP, 2), (PLAYER, 2)]):
        S, space = pooled_space(spec, n, 10, np.random.default_rng(60 + j))
        exact = rademacher_estimate(S, space, draws=2**10, seed=Seed(j))
        mc = rademacher_estimate(S, space, draws=1000, seed=Seed(j))
        assert (exact.method, mc.method) == ("exact", "monte-carlo")
        assert abs(mc.estimate - exact.estimate) <= 4 * mc.std_error


def test_rademacher_path_switches_at_two_to_the_m_draws():
    S = uniform_sample(6, 3)
    space = split_sample_space(SINGLE, S, "exact")
    exact = rademacher_estimate(S, space, draws=64, seed=Seed(1))
    mc = rademacher_estimate(S, space, draws=63, seed=Seed(1))
    assert (exact.method, exact.draws, exact.std_error) == ("exact", 64, 0.0)
    assert (mc.method, mc.draws) == ("monte-carlo", 63) and mc.std_error > 0


def test_exact_rademacher_of_one_hypothesis_is_zero():
    S = uniform_sample(8, 4)
    est = rademacher_estimate(S, [SingleReserve(0.5)], draws=2**8, seed=Seed(1))
    assert est.method == "exact"
    assert est.estimate == 0.0 == massart_bound(1, S.m)


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=SPLIT_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_exact_rademacher_is_within_massart(spec, data):
    # Massart's lemma, a theorem, so no slack.  Values lie in [0, 1] and each
    # of the k items is sold at most once for at most its buyer's value, so
    # revenues lie in [0, k]: the bound scales by that range, not the value range
    max_n, max_k, max_m = split_dims(spec)
    n = data.draw(st.integers(1, max_n), label="n")
    k = data.draw(st.integers(1, max_k), label="k")
    pool = data.draw(st.integers(1, max_m), label="pool")
    m = data.draw(st.integers(1, min(pool, 10)), label="m")
    if data.draw(st.booleans(), label="tenths"):
        unit = np.array(data.draw(st.lists(st.integers(0, 10), min_size=pool * n * k,
                                           max_size=pool * n * k), label="tenths")) / 10
    else:
        unit = np.array(data.draw(st.lists(st.floats(0, 1), min_size=pool * n * k,
                                           max_size=pool * n * k), label="unit"))
    values = unit.reshape(pool, n, k)
    space = split_sample_space(spec, SampleSet(values), "exact")
    est = rademacher_estimate(SampleSet(values[:m]), space, draws=2**m, seed=Seed(1))
    assert est.method == "exact"
    assert est.estimate <= massart_bound(len(space), m, (0.0, float(k)))


@pytest.mark.parametrize("values, value_range, k", [
    # single reserve on S = (2, 3) in [2, 3]: the space {2, 3} averages exactly 1
    ([[[2.0]], [[3.0]]], (2.0, 3.0), 1),
    # item prices at n = 1, k = 2 on (0, 0) and (1, 1)
    ([[[0.0, 0.0]], [[1.0, 1.0]]], (0.0, 1.0), 2),
], ids=["alpha2", "k2"])
def test_massart_needs_the_revenue_range(values, value_range, k):
    S = SampleSet(np.array(values), value_range)
    spec = SINGLE if k == 1 else ClassSpec("item-prices")
    space = split_sample_space(spec, S, "exact")
    est = rademacher_estimate(S, space, draws=2**S.m, seed=Seed(1))
    assert (len(space), est.method, est.estimate) == (2, "exact", 1.0)
    assert massart_bound(2, 2, value_range) < 1.0
    assert revenue_range(k, value_range) == (0.0, k * value_range[1])
    assert 1.0 <= massart_bound(2, 2, revenue_range(k, value_range))


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=SPLIT_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_exact_rademacher_is_within_massart_on_a_shifted_range(spec, data):
    # values in [2, 5]: revenues lie in [0, 5k], wider than the value range
    max_n, max_k, max_m = split_dims(spec)
    n = data.draw(st.integers(1, max_n), label="n")
    k = data.draw(st.integers(1, max_k), label="k")
    pool = data.draw(st.integers(1, max_m), label="pool")
    m = data.draw(st.integers(1, min(pool, 10)), label="m")
    tenths = data.draw(st.lists(st.integers(0, 30), min_size=pool * n * k,
                                max_size=pool * n * k), label="tenths")
    values = 2.0 + np.array(tenths).reshape(pool, n, k) / 10
    space = split_sample_space(spec, SampleSet(values, (2.0, 5.0)), "exact")
    est = rademacher_estimate(SampleSet(values[:m], (2.0, 5.0)), space, draws=2**m,
                              seed=Seed(1))
    assert est.method == "exact"
    assert est.estimate <= massart_bound(len(space), m, revenue_range(k, (2.0, 5.0)))


def test_monte_carlo_rademacher_bits_are_pinned():
    # the sampled-sign path at m = 16 (2^16 > 1000 draws) keeps its bits
    S = SampleSet(np.random.default_rng(16).random((16, 1, 1)))
    space = split_sample_space(SINGLE, S, "exact")
    est = rademacher_estimate(S, space.hypotheses, draws=1000, seed=Seed(16))
    assert (est.method, est.draws, est.set_size) == ("monte-carlo", 1000, 10)
    assert est.estimate == 0.1553840628532796
    assert est.std_error == 0.005567868529590052


def test_chain_check_uniform_small():
    report = generalization_chain_check(SINGLE, U01, m=4, replicates=80,
                                        sigma_draws=500, seed=Seed(11))
    assert report.optimum == pytest.approx(0.25)
    assert report.optimum_source == "analytic"
    assert report.chain_holds
    assert report.gap_mean >= -3 * report.gap_se
    assert report.theoretical_bound == pytest.approx(
        math.sqrt(2 * math.log(8) / 4))


def test_chain_check_point_mass_has_zero_gap():
    point = DistributionSpec.iid(Discrete((0.5,), (1.0,)))
    report = generalization_chain_check(SINGLE, point, m=3, replicates=10,
                                        sigma_draws=300, seed=Seed(12))
    assert report.gap_mean == 0.0
    assert report.chain_holds


@pytest.mark.parametrize("m, replicates, sigma_draws", [(0, 10, 100), (3, 1, 100), (3, 10, 1)])
def test_chain_check_rejects_sizes_it_cannot_run(m, replicates, sigma_draws):
    with pytest.raises(AuctionLearnError):
        generalization_chain_check(SINGLE, U01, m=m, replicates=replicates,
                                   sigma_draws=sigma_draws, seed=Seed(1))


def test_chain_check_refuses_one_sign_draw_before_drawing(monkeypatch):
    module = importlib.import_module("auctionlearn.bounds")
    drawn, sample_block = [], module.sample_block

    def spy(*args):
        drawn.append(args[1])
        return sample_block(*args)

    monkeypatch.setattr(module, "sample_block", spy)
    with pytest.raises(AuctionLearnError, match="^need at least 2 sign draws$"):
        generalization_chain_check(SINGLE, U01, m=3, replicates=10, sigma_draws=1, seed=Seed(1))
    assert drawn == []
    generalization_chain_check(SINGLE, U01, m=3, replicates=2, sigma_draws=8, seed=Seed(1))
    assert drawn == [3, 3]


def test_chain_check_non_analytic_class_uses_monte_carlo():
    dist2 = DistributionSpec.iid(Uniform(0, 1), 2, 1)
    # quadrature reference for the two-uniform-bidder reserve optimum:
    # one bidder above r pays r; both above pay the smaller of the two
    best = 0.0
    for r in np.linspace(0, 1, 2001):
        p_one = 2 * (1 - r) * r
        e_both = (1 - r) ** 2 * (r + (1 - r) / 3)
        best = max(best, p_one * r + e_both)
    report = generalization_chain_check(
        ClassSpec("anonymous-second-price"), dist2, m=4, replicates=30,
        sigma_draws=400, seed=Seed(14), optimum=best, eval_draws=4000)
    assert report.optimum_source == "provided"
    assert report.chain_holds


TIES = DistributionSpec.iid(Discrete((0.1, 0.3, 0.5, 0.7, 1.0), (0.3, 0.2, 0.2, 0.2, 0.1)))


@pytest.mark.parametrize("spec, dist, m, replicates, sigma_draws, seed, optimum, expected", [
    (SINGLE, U01, 4, 80, 500, 11, None,
     ("single-reserve", 4, 80, 0.25, "analytic", 0.04209019916779134, 0.005221236440976851,
      0.25492229190018945, 0.007033867724139456, 0.9449735608968455, 1.019666990168809,
      True, True)),
    # tenths-grid ties, and m = 10 > log2(300): sampled sign vectors
    (SINGLE, TIES, 10, 40, 300, 13, None,
     ("single-reserve", 10, 40, 0.25, "analytic", 0.03099999999999999, 0.0070328897660590734,
      0.12486, 0.0037886566337316826, 0.5184455331527743, 0.7740455120409899, True, True)),
    (ASP, DistributionSpec.iid(Uniform(0, 1), 2, 1), 4, 30, 400, 14, 0.4,
     ("anonymous-second-price", 4, 30, 0.4, "provided", 0.02453267641789856,
      0.011279581128872545, 0.2866823656815077, 0.009896032764432499, 0.9532080483276908,
      1.1774100225154747, True, True)),
], ids=["uniform", "discrete-ties", "asp-provided"])
def test_chain_check_reports_are_pinned(spec, dist, m, replicates, sigma_draws, seed,
                                        optimum, expected):
    """Whole reports, bit for bit: replicates drawn, learned and enumerated
    in blocks give the one-replicate-at-a-time bits."""
    report = generalization_chain_check(spec, dist, m=m, replicates=replicates,
                                        sigma_draws=sigma_draws, seed=Seed(seed),
                                        optimum=optimum, eval_draws=4000)
    assert dataclasses.astuple(report) == expected


@pytest.mark.parametrize("m, sigma_draws, derived", [(4, 16, 0), (4, 15, 5)],
                         ids=["exact", "sampled"])
def test_chain_derives_sign_seeds_only_for_sampled_signs(m, sigma_draws, derived, monkeypatch):
    """A replicate's "chain-sigma" seed is derived only when its signs are
    sampled (2^m > sigma_draws); the exact path never reads it."""
    labels = spy_seed_labels(monkeypatch)
    generalization_chain_check(SINGLE, U01, m=m, replicates=5, sigma_draws=sigma_draws,
                               seed=Seed(3), eval_draws=100)
    assert labels.count("chain-sigma") == derived


@pytest.mark.parametrize("spec, dist, optimum, derived", [
    (SINGLE, U01, None, 0),
    # best-of has no closed form: every replicate falls back to Monte Carlo
    (ClassSpec("best-of"), DistributionSpec.iid(Uniform(0, 1), 1, 2), 1.0, 5),
], ids=["closed-form", "monte-carlo"])
def test_chain_derives_eval_seeds_only_for_monte_carlo(spec, dist, optimum, derived,
                                                       monkeypatch):
    """A replicate's "chain-eval" seed is derived only when its learned
    hypothesis has no closed-form expected revenue."""
    labels = spy_seed_labels(monkeypatch)
    generalization_chain_check(spec, dist, m=3, replicates=5, sigma_draws=8, seed=Seed(3),
                               optimum=optimum, eval_draws=100)
    assert labels.count("chain-eval") == derived


@pytest.mark.parametrize("spec, dist, optimum, m, sigma_draws, monte_carlo", [
    (SINGLE, U01, None, 3, 8, False),
    (SINGLE, U01, None, 4, 15, False),
    (ClassSpec("best-of"), DistributionSpec.iid(Uniform(0, 1), 1, 2), 1.0, 3, 8, True),
], ids=["closed-form-exact-signs", "closed-form-sampled-signs", "monte-carlo"])
def test_chain_builds_hypotheses_only_for_monte_carlo(spec, dist, optimum, m, sigma_draws,
                                                      monte_carlo, monkeypatch):
    """The chain learns, enumerates and scores parameter rows; only rows
    evaluated by Monte Carlo become hypothesis objects."""
    built = spy_hypothesis_building(monkeypatch)
    generalization_chain_check(spec, dist, m=m, replicates=5, sigma_draws=sigma_draws,
                               seed=Seed(3), optimum=optimum, eval_draws=100)
    assert bool(built) == monte_carlo


def one_space_rademacher(spec, rows, values, alpha):
    """An exact Rademacher average scored one space at a time, as before
    spaces were scored in blocks: the space's own revenue rows, one product
    with the half sign vectors, three reductions."""
    X = revenue_matrix(spec, rows, values, alpha) @ _half_signs(len(values)).T
    return float(np.mean((X.max(axis=0) - X.min(axis=0)) / len(values)))


BLOCK_SPECS = [(SINGLE, 1, 1), (ASP, 2, 1), (PLAYER, 2, 1),
               (ClassSpec("t-level", levels=1), 2, 1), (ClassSpec("best-of"), 1, 2)]


@pytest.mark.parametrize("spec, n, k", BLOCK_SPECS, ids=[s.describe() for s, _, _ in BLOCK_SPECS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_exact_rademacher_block_has_the_one_space_bits(spec, n, k, data):
    """Spaces of unequal sizes (one-row spaces too), padded and scored in
    chunks, give each space's one-at-a-time bits."""
    m = data.draw(st.integers(1, 10), label="m")
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=6), label="sizes")
    width = _param_width(spec, n, k)
    unit = st.floats(0, 1) if data.draw(st.booleans(), label="floats") else \
        st.integers(0, 10).map(lambda t: t / 10)
    values = np.array(data.draw(st.lists(unit, min_size=len(sizes) * m * n * k,
                                         max_size=len(sizes) * m * n * k), label="values"))
    values = values.reshape(len(sizes), m, n, k)
    spaces = [np.array(data.draw(st.lists(unit, min_size=c * width, max_size=c * width),
                                 label="rows")).reshape(c, width) for c in sizes]
    per_chunk = data.draw(st.integers(1, len(sizes)), label="per_chunk")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds_module, "_SIGN_CELLS", per_chunk * max(sizes) * 2 ** (m - 1))
        block = _exact_rademacher_block(spec, spaces, values, 0.0)
    assert block.tolist() == [one_space_rademacher(spec, rows, v, 0.0)
                              for rows, v in zip(spaces, values)]


@pytest.mark.parametrize("spec, n", [(SINGLE, 1), (ASP, 2), (PLAYER, 2)])
def test_exact_rademacher_block_equals_brute_force_on_dyadic_values(spec, n, monkeypatch):
    # eighths and the 2/m of m = 4 are binary-exact, so every sum is exact
    samples = [pooled_space(spec, n, 4, np.random.default_rng(70 + j), eighths=True)
               for j in range(5)]
    largest = max(len(space) for _, space in samples)
    monkeypatch.setattr(bounds_module, "_SIGN_CELLS", 2 * largest * 2**3)   # two spaces a chunk
    block = _exact_rademacher_block(spec, [space.rows for _, space in samples],
                                    np.stack([S.values for S, _ in samples]), 0.0)
    assert block.tolist() == [brute_force_rademacher(S, space.hypotheses)
                              for S, space in samples]


def test_exact_paths_are_blas_thread_independent():
    """The pinned uniform chain report and an exact t-level s=1 estimate at
    m = 12 keep their in-process bits under 1 and 2 OpenBLAS threads."""
    code = textwrap.dedent("""
        import dataclasses
        import numpy as np
        from auctionlearn import (ClassSpec, DistributionSpec, SampleSet, Seed, Uniform,
                                  generalization_chain_check, rademacher_estimate,
                                  split_sample_space)
        spec = ClassSpec("single-reserve")
        report = generalization_chain_check(spec, DistributionSpec.iid(Uniform(0, 1)), m=4,
                                            replicates=80, sigma_draws=500, seed=Seed(11),
                                            eval_draws=4000)
        S = SampleSet(np.random.default_rng(12).random((12, 2, 1)))
        space = split_sample_space(ClassSpec("t-level", levels=1), S, "exact")
        est = rademacher_estimate(S, space, draws=2**12, seed=Seed(1))
        print(repr((dataclasses.astuple(report), est)))
    """)
    here = {}
    exec(code, {"print": lambda text: here.setdefault("out", text)})
    assert "'exact'" in here["out"]
    for threads in ("1", "2"):
        proc = run_python_process(["-c", code], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == here["out"]
