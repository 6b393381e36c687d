"""Sampling, distribution specs, seeds, and sample-file round trips."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from auctionlearn import (AnalyticUnsupported, AuctionLearnError, DimensionMismatch, Discrete,
                          DistributionSpec, InvalidDistribution, SampleFileError,
                          SampleSet, Seed, SingleReserve, TruncatedExponential,
                          Uniform, ValuationProfile, load_samples, sample_values,
                          save_samples, true_revenue)
from auctionlearn.model import _pcg64_states, sample_block

U01 = DistributionSpec.iid(Uniform(0, 1))


def test_point_mass_sampling():
    spec = DistributionSpec.iid(Discrete((0.5,), (1.0,)))
    s = sample_values(spec, 3, Seed(7))
    assert s.values.shape == (3, 1, 1)
    assert np.all(s.values == 0.5)


def test_sampling_is_deterministic():
    a = sample_values(U01, 5, Seed(42))
    b = sample_values(U01, 5, Seed(42))
    assert np.array_equal(a.values, b.values)
    c = sample_values(U01, 5, Seed(43))
    assert not np.array_equal(a.values, c.values)


BLOCK_DISTS = {
    "uniform": Uniform(0, 1),
    "trunc-exp": TruncatedExponential(rate=2.0, cap=1.0),
    "discrete": Discrete((0.1, 0.4, 0.8), (0.25, 0.5, 0.25)),
    "shifted": Uniform(2, 5),
}


@pytest.mark.parametrize("probs", [(0.25, 0.5, 0.25), (0.7, 0.2, 0.1), (0.1, 0.2, 0.7)])
def test_discrete_lookups_match_the_per_call_cumulative_sums(probs):
    """ppf, cdf and cdf_left read cumulative arrays built once; they give
    the bits of building them on every call, as they once were, including
    probabilities whose float sum is not 1."""
    d = Discrete((0.8, 0.1, 0.4), probs)
    pts = np.asarray(d.points)
    cum = np.cumsum(d.probs)
    guarded = cum.copy()
    guarded[-1] = 1.0
    u = np.random.default_rng(2).random(200)
    x = np.concatenate([u, pts, np.nextafter(pts, 2.0), [-1.0, 2.0]])
    assert np.array_equal(d.ppf(u), pts[np.minimum(np.searchsorted(guarded, u, "right"), 2)])
    assert np.array_equal(d.cdf(x), np.concatenate([[0.0], cum])[np.searchsorted(pts, x, "right")])
    assert np.array_equal(d.cdf_left(x),
                          np.concatenate([[0.0], cum])[np.searchsorted(pts, x, "left")])


def reference_sample(spec, m, seed):
    """The per-sample draw the block sampler replaced: one generator, one
    ppf per marginal column, one clamp."""
    u = seed.rng().random((m, spec.n, spec.k))
    out = np.empty_like(u)
    for i in range(spec.n):
        for j in range(spec.k):
            out[:, i, j] = spec.marginals[i][j].ppf(u[:, i, j])
    return out.clip(*spec.value_range)


@pytest.mark.parametrize("m", [1, 7, 8, 13, 50, 101])
@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (1, 3), (3, 3)])
@pytest.mark.parametrize("name", sorted(BLOCK_DISTS))
def test_sample_block_rows_are_the_per_seed_samples(name, n, k, m):
    """Drawn in blocks of 1, 4 and all 11 seeds, in order or permuted, 11
    seeds give the bits of 11 separate ``sample_values`` calls and of the
    per-sample reference, whose uniforms come from ``Seed.rng()``: the
    block's ppf and clamp run once on all rows, and ufunc loops must not
    round a row differently by its position."""
    marginal = BLOCK_DISTS[name]
    spec = DistributionSpec.iid(marginal, n, k, value_range=marginal.support)
    masters = Seed(17).child_masters(name, range(11))
    seeds = [Seed(master) for master in masters]
    expected = np.stack([sample_values(spec, m, seed).values for seed in seeds])
    for size in (1, 4, 11):
        blocks = [sample_block(spec, m, masters[at:at + size])
                  for at in range(0, len(masters), size)]
        assert blocks[0].shape == (size, m, n, k)
        assert np.array_equal(np.concatenate(blocks), expected)
    order = np.random.default_rng(m).permutation(len(masters))
    assert np.array_equal(sample_block(spec, m, [masters[i] for i in order]), expected[order])
    assert np.array_equal(expected, np.stack([reference_sample(spec, m, s) for s in seeds]))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@example([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_block_seeding_is_numpys_pcg64_seeding(masters):
    """(state, inc) of each master is ``np.random.PCG64(master)``'s.  numpy
    reads one 32-bit entropy word below 2^32 and two from there on, and pads
    the pool with hashed zeros either way, hence the edge masters."""
    states = [np.random.PCG64(master).state["state"] for master in masters]
    assert _pcg64_states(masters) == [(s["state"], s["inc"]) for s in states]


def test_uniform_mean_clt():
    # 3 sigma band for the mean of 10^4 uniform draws: 3 * (1/sqrt(12)) / 100
    s = sample_values(U01, 10_000, Seed(11))
    tol = 3.0 * (1.0 / math.sqrt(12.0)) / 100.0
    assert abs(s.values.mean() - 0.5) <= tol


def _ks_distance(draws: np.ndarray, marginal) -> float:
    """sup_x |ecdf(x) - F(x)|, checked at jumps of both step functions."""
    n = len(draws)
    ux, counts = np.unique(draws, return_counts=True)
    ecdf_hi = np.cumsum(counts) / n
    ecdf_lo = (np.cumsum(counts) - counts) / n
    cdf_left = getattr(marginal, "cdf_left", marginal.cdf)
    return max(np.abs(ecdf_hi - marginal.cdf(ux)).max(),
               np.abs(ecdf_lo - cdf_left(ux)).max())


@pytest.mark.parametrize("probs", [(0.25, 0.5, 0.25), (0.7, 0.2, 0.1), (0.1, 0.2, 0.7),
                                   (0.1, 0.2, 0.3, 0.4), (1.0,)])
def test_discrete_survival_is_the_per_call_sum(probs):
    """survival reads a tail-sum table built once: at, between and outside
    the atoms, each entry is the left-to-right sum of the probabilities at
    or above the price, as it once was on every call; an array of prices
    reads the table entry by entry."""
    d = Discrete(tuple(np.linspace(0.9, 0.1, len(probs))), probs)
    pts = np.asarray(d.points)
    prices = np.concatenate([pts, (pts[1:] + pts[:-1]) / 2, np.nextafter(pts, 2.0),
                             np.nextafter(pts, -1.0), [-1.0, 0.0, 1.0, 2.0]])
    per_call = [float(sum(p for x, p in zip(d.points, d.probs) if x >= price))
                for price in prices.tolist()]
    assert d.survival(prices).tolist() == per_call
    assert [float(d.survival(price)) for price in prices.tolist()] == per_call


def test_uniform_survival_is_the_clipped_line():
    u = Uniform(0.2, 0.9)
    prices = np.concatenate([np.linspace(-0.5, 1.5, 81), [0.2, 0.9, np.nextafter(0.9, 0)]])
    expected = [min(max((0.9 - p) / 0.7, 0.0), 1.0) for p in prices.tolist()]
    assert u.survival(prices).tolist() == expected
    assert [float(u.survival(p)) for p in prices.tolist()] == expected


@pytest.mark.parametrize("marginal", [
    Uniform(0, 1),
    Uniform(0.2, 0.9),
    TruncatedExponential(rate=2.0, cap=1.0),
    Discrete((0.1, 0.4, 0.8), (0.25, 0.5, 0.25)),
])
def test_sampler_marginals_ks(marginal):
    spec = DistributionSpec.iid(marginal)
    s = sample_values(spec, 100_000, Seed(3))
    assert _ks_distance(s.values[:, 0, 0], marginal) <= 0.01


@pytest.mark.parametrize("master", [1.5, 5.0, np.float64(5), "5", None, [5]])
def test_seed_rejects_a_master_that_is_not_an_integer(master):
    """A block reads its masters as uint64, which would turn 1.5 into 1;
    ``Seed`` refuses such a master where ``Seed.rng()`` would refuse it later."""
    with pytest.raises(AuctionLearnError, match="seed must be an integer"):
        Seed(master)


def test_seed_takes_numpy_integers_as_python_ints():
    seed = Seed(np.uint64(2**64 - 1))
    assert type(seed.master) is int and seed == Seed(2**64 - 1)
    assert Seed(np.int32(5)).child("a", 1) == Seed(5).child("a", 1)


@pytest.mark.parametrize("master", [0, 123, 2**64 - 1], ids=["0", "123", "2^64-1"])
@pytest.mark.parametrize("indices", [range(7), range(3, 9, 2), [], np.arange(4),
                                     [np.int64(5), np.uint8(2), np.int32(0)]],
                         ids=["range", "stepped-range", "empty", "numpy-array", "numpy-ints"])
def test_child_masters_are_the_children_masters(master, indices):
    """One derivation: ``child_masters`` is ``child(label, i).master`` for each i,
    and a numpy integer index derives what the int of its value derives."""
    seed = Seed(master)
    masters = seed.child_masters("exp-sample-m50", indices)
    assert masters == [seed.child("exp-sample-m50", i).master for i in indices]
    assert masters == [seed.child("exp-sample-m50", int(i)).master for i in indices]
    assert all(type(x) is int and 0 <= x < 2**64 for x in masters)


def test_seed_children_are_pure_and_distinct():
    s = Seed(123)
    assert s.child("a", 0) == Seed(123).child("a", 0)
    assert s.child("a", 0) != s.child("a", 1)
    assert s.child("a", 0) != s.child("b", 0)


@pytest.mark.parametrize("master", [0, 1, 2**64 - 1, Seed(5).child("exp-sample-m50", 3).master],
                         ids=["0", "1", "2^64-1", "child"])
def test_seed_rng_is_the_default_rng_stream(master):
    assert np.array_equal(Seed(master).rng().random(1000),
                          np.random.default_rng(master).random(1000))


def test_distribution_validation():
    with pytest.raises(InvalidDistribution):
        Discrete((0.5, 0.7), (0.6, 0.6))          # probs don't sum to 1
    with pytest.raises(InvalidDistribution):
        DistributionSpec.iid(Uniform(0, 2))       # support outside [0, 1]
    with pytest.raises(InvalidDistribution):
        DistributionSpec.iid(Discrete((1.5,), (1.0,)))


def test_profile_and_sample_validation():
    with pytest.raises(ValueError):
        ValuationProfile(np.array([[1.5]]))
    with pytest.raises(DimensionMismatch):
        SampleSet(np.zeros((2, 3)))               # missing item axis
    s = SampleSet(np.full((2, 1, 1), 0.5))
    with pytest.raises(ValueError):
        s.values[0, 0, 0] = 0.1                   # frozen storage
    for bad in (math.nan, math.inf, -math.inf):
        values = np.array([0.5, bad, 0.2])
        with pytest.raises(AuctionLearnError, match="sample contains non-finite values"):
            SampleSet(values.reshape(3, 1, 1))
        with pytest.raises(AuctionLearnError, match="profile contains non-finite values"):
            ValuationProfile(values.reshape(1, 3))
    with pytest.raises(AuctionLearnError, match=r"outside declared range \[0.0, 1.0\]"):
        SampleSet(np.full((2, 1, 1), 1.5))


@pytest.mark.parametrize("bad", [(1.0, 0.0), (0.5, 0.5), (-0.1, 1.0), (0.0, math.nan),
                                 (math.nan, 1.0), (0.0, math.inf)])
def test_value_range_must_be_finite_and_ordered(bad):
    with pytest.raises(AuctionLearnError):
        SampleSet(np.full((2, 1, 1), 0.5), bad)
    with pytest.raises(AuctionLearnError):
        ValuationProfile(np.array([[0.5]]), bad)
    with pytest.raises(InvalidDistribution):
        DistributionSpec.iid(Discrete((0.5,), (1.0,)), value_range=bad)


def test_sample_file_round_trip(tmp_path):
    s = sample_values(U01, 7, Seed(5))
    path = tmp_path / "sample.jsonl"
    save_samples(s, str(path))
    loaded = load_samples(str(path), n=1, k=1, value_range=(0.0, 1.0))
    assert np.array_equal(loaded.values, s.values)
    assert loaded.provenance.startswith("file:")


def test_load_samples_direct_records(tmp_path):
    path = tmp_path / "two.jsonl"
    path.write_text('{"n": 1, "k": 1, "alpha": 0.0, "beta": 1.0}\n[[0.2]]\n[[0.5]]\n')
    s = load_samples(str(path))
    assert s.m == 2
    assert s.values[0, 0, 0] == 0.2 and s.values[1, 0, 0] == 0.5


def test_load_samples_errors(tmp_path):
    missing = tmp_path / "nope.jsonl"
    with pytest.raises(SampleFileError):
        load_samples(str(missing))

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(SampleFileError, match="empty sample"):
        load_samples(str(empty))

    header_only = tmp_path / "header.jsonl"
    header_only.write_text('{"n": 1, "k": 1, "alpha": 0.0, "beta": 1.0}\n')
    with pytest.raises(SampleFileError, match="empty sample"):
        load_samples(str(header_only))

    bad_range = tmp_path / "range.jsonl"
    bad_range.write_text('{"n": 1, "k": 1, "alpha": 0.0, "beta": 1.0}\n[[1.5]]\n')
    with pytest.raises(SampleFileError, match="range"):
        load_samples(str(bad_range))

    bad_dims = tmp_path / "dims.jsonl"
    bad_dims.write_text('{"n": 2, "k": 1, "alpha": 0.0, "beta": 1.0}\n[[0.5]]\n')
    with pytest.raises(DimensionMismatch):
        load_samples(str(bad_dims))

    declared = tmp_path / "declared.jsonl"
    declared.write_text('{"n": 1, "k": 1, "alpha": 0.0, "beta": 1.0}\n[[0.5]]\n')
    with pytest.raises(DimensionMismatch):
        load_samples(str(declared), n=2)

    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text('{"n": 1, "k": 1, "alpha": 0.0, "beta": 1.0}\n[[0.5\n')
    with pytest.raises(SampleFileError, match="malformed"):
        load_samples(str(garbage))


def test_true_revenue_analytic_uniform():
    # closed form r * (1 - F(r)) for uniform(0, 1)
    assert true_revenue(SingleReserve(0.5), U01).value == pytest.approx(0.25, abs=1e-15)
    assert true_revenue(SingleReserve(0.0), U01).value == 0.0


def test_true_revenue_monte_carlo_agrees_with_analytic():
    est = true_revenue(SingleReserve(0.5), U01, "monte-carlo", draws=200_000,
                       seed=Seed(9))
    assert est.std_error is not None and est.std_error > 0
    assert abs(est.value - 0.25) <= 3.0 * est.std_error


def test_true_revenue_analytic_discrete():
    spec = DistributionSpec.iid(Discrete((0.2, 0.8), (0.5, 0.5)))
    # r = 0.8 sells with prob 0.5
    assert true_revenue(SingleReserve(0.8), spec).value == pytest.approx(0.4)


def test_true_revenue_analytic_unsupported():
    spec = DistributionSpec.iid(TruncatedExponential(2.0, 1.0))
    with pytest.raises(AnalyticUnsupported):
        true_revenue(SingleReserve(0.5), spec)
