"""In-class optima, the generalization harness, curves, and output writers."""

import dataclasses
import hashlib
import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from auctionlearn import (AuctionLearnError, CeilingExceeded, ClassSpec, Discrete,
                          DistributionSpec, ExperimentConfig, Seed, Uniform, config_fingerprint,
                          empirical_revenue, erm, generalization_experiment, in_class_optimum,
                          sample_complexity_curve, sample_values, true_revenue, write_gap_svg,
                          write_rows_csv, write_rows_jsonl)

SINGLE = ClassSpec("single-reserve")
U01 = DistributionSpec.iid(Uniform(0, 1))


def test_optimum_uniform_analytic():
    est = in_class_optimum(SINGLE, U01)
    assert est.method == "analytic"
    assert est.value == pytest.approx(0.25, abs=1e-15)   # r* = 1/2


def test_optimum_point_mass():
    point = DistributionSpec.iid(Discrete((0.7,), (1.0,)))
    assert in_class_optimum(SINGLE, point).value == pytest.approx(0.7)


def test_optimum_discrete_hand_computed():
    spec = DistributionSpec.iid(Discrete((0.2, 0.5, 0.9), (0.2, 0.5, 0.3)))
    # candidates: 0.2*1.0, 0.5*0.8, 0.9*0.3 -> 0.4
    assert in_class_optimum(SINGLE, spec).value == pytest.approx(0.4)


def test_optimum_item_prices_single_bidder():
    spec = DistributionSpec.iid(Uniform(0, 1), n=1, k=3)
    est = in_class_optimum(ClassSpec("item-prices"), spec)
    assert est.value == pytest.approx(0.75)


def test_optimum_bundle_discrete():
    marg = Discrete((0.2, 0.6), (0.5, 0.5))
    spec = DistributionSpec.iid(marg, n=1, k=2)
    # totals 0.4/0.8/1.2 w.p. 0.25/0.5/0.25: best posted total price is 0.8
    est = in_class_optimum(ClassSpec("bundle-price"), spec)
    assert est.value == pytest.approx(0.8 * 0.75)


def test_optimum_grid_agrees_with_analytic():
    est = in_class_optimum(SINGLE, U01, method="grid", grid_step=1e-3,
                           draws=10**6, seed=Seed(21))
    assert est.method == "grid-mc"
    assert abs(est.value - 0.25) <= 1e-3


def test_optimum_grid_second_price_sanity():
    # two iid uniform bidders, reserve r: known closed form for the optimum
    # E[rev] = E[max(r, V2) 1(V1 >= r)] symmetrized; brute numeric reference
    dist = DistributionSpec.iid(Uniform(0, 1), 2, 1)
    est = in_class_optimum(ClassSpec("anonymous-second-price"), dist,
                           method="grid", grid_step=2e-3, draws=200_000,
                           seed=Seed(22))
    # reference via an independent quadrature on the revenue integrand
    rs = np.linspace(0, 1, 2001)
    best = 0.0
    for r in rs:
        # winner pays max(r, second); both uniform: integrate analytically
        # P(both below r) -> 0; one above: pays r; both above: pays min of the two
        p_one = 2 * (1 - r) * r
        e_both = (1 - r) ** 2 * (r + (1 - r) / 3)
        best = max(best, p_one * r + e_both)
    assert abs(est.value - best) <= 0.005


U01_PAIR = DistributionSpec.iid(Uniform(0, 1), 2, 1)
U01_PAIR_2 = DistributionSpec.iid(Uniform(0, 1), 2, 2)

# Optima on 1,000 shared draws, each a learned row's sorted mean: the reserve
# rules' are ERM's exact maxima on the draws; t-level's and best-of's are
# maxima over the step-0.05 grid.
GRID_OPTIMA = [
    (ClassSpec("anonymous-second-price"), U01_PAIR, 0.4264609331370766),
    (ClassSpec("player-reserves"), U01_PAIR, 0.4297218629460394),
    (ClassSpec("bundle-price"), U01_PAIR_2, 0.8391477208524684),
    (ClassSpec("bundle-price", per_player=True), U01_PAIR_2, 0.841562198696916),
    (ClassSpec("item-prices"), U01_PAIR_2, 0.8285029741337511),
    (ClassSpec("item-prices", per_player=True), U01_PAIR_2, 0.8309827698309697),
    (ClassSpec("t-level", levels=1), U01_PAIR, 0.3993499999999999),
    (ClassSpec("best-of"), U01_PAIR, 0.5161244455689998),
]


@pytest.mark.parametrize("spec,dist,expected", GRID_OPTIMA,
                         ids=[spec.describe().replace(" ", "-") for spec, _, _ in GRID_OPTIMA])
def test_grid_optimum_bits_are_pinned(spec, dist, expected):
    est = in_class_optimum(spec, dist, method="grid", grid_step=0.05, draws=1000)
    assert est.method == "grid-mc"
    assert est.value == expected


def test_workload_scale_grid_optimum_is_pinned():
    """The grid-mc optimum of bench/'s experiment-mc configuration at seed 1
    (player reserves, n = 2, 200,000 draws): ERM's exact max on the draws."""
    est = in_class_optimum(ClassSpec("player-reserves"), U01_PAIR, "grid", 1e-3, 200_000,
                           Seed(1).child("experiment-mc").child("optimum"))
    assert est.value == 0.416823657317162


def test_workload_scale_grid_optimum_is_biased_upward():
    """The grid-mc value pinned above, against the exact optimum 5/12 that
    ``in_class_optimum`` now returns there: a max over correlated means
    overestimates, here by about 1.6e-4."""
    exact = in_class_optimum(ClassSpec("player-reserves"), U01_PAIR)
    assert exact.method == "analytic" and abs(exact.value - 5 / 12) <= 1e-15
    assert 5 / 12 <= 0.416823657317162 <= 5 / 12 + 1e-3


def test_multi_bidder_uniform_experiment_draws_no_monte_carlo():
    """Player reserves at n = 2 on U[0, 1]: the optimum is the closed form 5/12,
    each learned reserve pair is scored exactly (eval_draws does not matter)
    and no row's gap is negative."""
    config = small_config(class_spec=ClassSpec("player-reserves"), dist=U01_PAIR,
                          m_grid=(10, 40), replicates=20, eval_method="auto")
    rows = generalization_experiment(config)
    again = generalization_experiment(dataclasses.replace(config, eval_draws=2))
    assert [r.mean_revenue for r in rows] == [r.mean_revenue for r in again]
    for r in rows:
        assert abs(r.optimum - 5 / 12) <= 1e-15 and r.gap >= 0


RESERVE_GRID_CLASSES = [
    (ClassSpec("single-reserve"), 1, 1),
    (ClassSpec("anonymous-second-price"), 1, 1),
    (ClassSpec("player-reserves"), 1, 1),
    (ClassSpec("t-level", levels=1), 1, 1),
    (ClassSpec("t-level", levels=2), 1, 1),
    (ClassSpec("anonymous-second-price"), 2, 1),
    (ClassSpec("player-reserves"), 2, 1),
    (ClassSpec("player-reserves"), 3, 1),
    (ClassSpec("bundle-price"), 2, 2),
    (ClassSpec("bundle-price", per_player=True), 2, 2),
    (ClassSpec("item-prices"), 2, 2),
    (ClassSpec("item-prices", per_player=True), 2, 2),
]
THOUSANDTHS = np.arange(1001) * 1e-3      # the points of the step-1e-3 grid on [0, 1]


def reserve_grid_dist(kind: str, n: int, k: int, picks: list[int]) -> DistributionSpec:
    """U[0,1]; a few points of the grid itself, so draws sit on grid points
    and the revenue curve ties; the same with a last bidder valued 0, who
    loses every tie and so wins no draw; or one point mass for everyone, so
    every grid reserve up to it earns the same."""
    points = tuple(sorted({float(THOUSANDTHS[i]) for i in picks}))
    if kind == "uniform":
        marginal = Uniform(0, 1)
    elif kind == "point-mass":
        marginal = Discrete(points[:1], (1.0,))
    else:
        marginal = Discrete(points, (1 / len(points),) * len(points))
    if kind != "idle-bidder":
        return DistributionSpec.iid(marginal, n, k)
    idle = Discrete((0.0,), (1.0,))
    return DistributionSpec(tuple((marginal if i < n - 1 else idle,) * k for i in range(n)))


@pytest.mark.parametrize("spec,n,k", RESERVE_GRID_CLASSES,
                         ids=[f"{s.describe().replace(' ', '-')}-n{n}"
                              for s, n, _ in RESERVE_GRID_CLASSES])
@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["uniform", "thousandths", "idle-bidder", "point-mass"]),
       picks=st.lists(st.integers(0, 1000), min_size=1, max_size=6),
       draws=st.integers(1, 1500), seed=st.integers(0, 2**32 - 1))
# near ties: 0.255*7 = 0.595*3 and 0.267*7 = 0.623*3 in exact arithmetic, but a
# closed form and an exact sum round them in opposite directions (the winning
# draws are anonymous reserves and player reserves in the first, items in the second)
@example(kind="idle-bidder", picks=[255, 595], draws=7, seed=2)
@example(kind="idle-bidder", picks=[267, 623], draws=7, seed=0)
def test_reserve_grid_optimum_equals_exhaustive_curve(spec, n, k, kind, picks, draws, seed):
    """A reserve rule's grid-mc optimum is ERM's empirical revenue on the same
    draws (t-level at n = 1 as a single reserve), bit for bit, and no less
    than the best point of the step-1e-3 grid beyond rounding.  The grid
    sums each auction's draws in draw order, within (draws + 2)*2^-53 of its
    exact value, plus a rounding per auction summed, and the sorted mean
    within less: (draws + 8)*2^-52 of the grid's value covers both."""
    dist = reserve_grid_dist(kind, n, k, picks)
    est = in_class_optimum(spec, dist, "grid", 1e-3, draws, Seed(seed))
    S = sample_values(dist, draws, Seed(seed))
    rule = SINGLE if spec.tag == "t-level" else spec
    assert est.value == empirical_revenue(erm(rule, S), S)
    grid = oracles.reserve_grid_optimum(spec, dist, 1e-3, draws, Seed(seed))
    assert est.value >= grid - (draws + 8) * 2.0**-52 * grid


T1, T2 = ClassSpec("t-level", levels=1), ClassSpec("t-level", levels=2)
BEST = ClassSpec("best-of")
# (spec, n, grid step): binary steps hit 0.25, 0.5, ... exactly, and at 1/64
# the 65 x 65 grid products are scored in two chunks
JOINT_GRID_CASES = [
    (T1, 2, 1 / 64), (T1, 3, 1 / 8), (T2, 2, 1 / 4), (BEST, 1, 1 / 16), (BEST, 2, 1 / 64),
]


@pytest.mark.parametrize("kind", ["uniform", "on-grid"])
@pytest.mark.parametrize("spec,n,step", JOINT_GRID_CASES,
                         ids=[f"{s.describe().replace(' ', '-')}-n{n}"
                              for s, n, _ in JOINT_GRID_CASES])
def test_joint_grid_optimum_equals_exhaustive_grid(spec, n, step, kind):
    """Multi-bidder t-level and best-of grids scored as ERM's candidate
    product give the max over every enumerated grid hypothesis bit for bit;
    draws on grid points (binary-exact steps) make grid hypotheses tie."""
    marginal = Uniform(0, 1) if kind == "uniform" else \
        Discrete((0.25, 0.5, 0.75, 1.0), (0.1, 0.1, 0.1, 0.7))   # best prices in the last chunk
    dist = DistributionSpec.iid(marginal, n, 1)
    est = in_class_optimum(spec, dist, "grid", step, 300, Seed(5))
    assert est.value == oracles.joint_grid_optimum(spec, dist, step, 300, Seed(5))


def test_multi_level_tlevel_grid_is_refused_only_by_its_budget():
    with pytest.raises(CeilingExceeded, match="grid_step"):
        in_class_optimum(T2, U01_PAIR, "grid")
    est = in_class_optimum(T2, U01_PAIR, "grid", 0.25, 2000, Seed(3))
    assert est.method == "grid-mc" and 0 < est.value <= 1


@pytest.mark.parametrize("spec,dist", [(SINGLE, U01), (T1, DistributionSpec.iid(Uniform(0, 1))),
                                       (T2, U01_PAIR), (BEST, U01_PAIR)],
                         ids=["single-reserve", "t-level-n1", "t-level-s2", "best-of"])
def test_grid_optimum_refuses_no_draws(spec, dist):
    with pytest.raises(AuctionLearnError, match=r"^draws must be at least 1, got 0$"):
        in_class_optimum(spec, dist, "grid", 0.25, draws=0)


def test_joint_grid_budget_refuses_before_drawing(monkeypatch):
    """The grid's budget (rows x draws) is checked before any value is drawn."""
    module = importlib.import_module("auctionlearn.erm")
    drawn, sample_block = [], module.sample_block

    def spy(*args):
        drawn.append(args[1])
        return sample_block(*args)

    monkeypatch.setattr(module, "sample_block", spy)
    with pytest.raises(CeilingExceeded, match=r"^t-level s=2 grid optimum over budget; raise "
                       r"the grid step \(optimum_grid_step\) or lower draws \(optimum_draws\)$"):
        in_class_optimum(T2, U01_PAIR, "grid")
    assert drawn == []
    in_class_optimum(T2, U01_PAIR, "grid", 0.25, 20, Seed(3))
    assert drawn == [20]


def test_reserve_grid_optimum_refusal_names_the_draws(monkeypatch):
    """A reserve rule's optimum is ERM under the default candidate ceiling,
    which the optimum's caller cannot raise, so the refusal names the draw
    count instead.  The ceiling is lowered here so that 100 draws at n = 2
    (200 distinct values in the anonymous pool) hit it; the same refusal
    comes at about 5·10⁶ draws under the real ceiling."""
    monkeypatch.setattr(importlib.import_module("auctionlearn.erm"), "DEFAULT_CANDIDATE_CEILING",
                        100)
    with pytest.raises(CeilingExceeded, match=r"^anonymous-second-price grid optimum on 100 "
                       r"draws scores more than the candidate ceiling 100 rows; lower draws "
                       r"\(optimum_draws\) to run it$"):
        in_class_optimum(ClassSpec("anonymous-second-price"), U01_PAIR, "grid", draws=100)
    assert in_class_optimum(ClassSpec("anonymous-second-price"), U01_PAIR, "grid",
                            draws=50).method == "grid-mc"


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("method", ["grid", "auto"])
def test_optimum_rejects_a_grid_step_that_is_not_positive_and_finite(step, method):
    with pytest.raises(AuctionLearnError, match="grid_step"):
        in_class_optimum(ClassSpec("player-reserves"), U01_PAIR, method, step, 100)


def small_config(**kw):
    defaults = dict(class_spec=SINGLE, dist=U01, m_grid=(25, 50),
                    replicates=200, delta=0.25, seed=Seed(33),
                    eval_method="analytic")
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize("bad", [
    dict(replicates=0), dict(replicates=1), dict(delta=0.0), dict(delta=1.0),
    dict(m_grid=()), dict(m_grid=(25, 0)), dict(eval_method="analytc"),
    dict(optimum_grid_step=0.0), dict(optimum_grid_step=-0.1),
    dict(optimum_grid_step=math.nan), dict(optimum_grid_step=math.inf), dict(optimum_draws=0),
    dict(eval_method="auto", eval_draws=1), dict(eval_method="monte-carlo", eval_draws=0),
], ids=["replicates0", "replicates1", "delta0", "delta1", "empty-grid",
        "m0", "eval-method", "grid-step0", "grid-step-negative", "grid-step-nan",
        "grid-step-inf", "optimum-draws0", "eval-draws-auto", "eval-draws-mc"])
def test_config_rejects_values_that_make_bad_rows(bad):
    with pytest.raises(AuctionLearnError):
        small_config(**bad)


def test_analytic_evaluation_needs_no_eval_draws():
    assert small_config(eval_draws=1).eval_draws == 1


# t-level at n = 2 has no closed form: "auto" falls back to Monte Carlo
TLEVEL_PAIR = dict(class_spec=ClassSpec("t-level", levels=1),
                   dist=DistributionSpec.iid(Uniform(0, 1), 2, 1), eval_draws=50)


def replicate_loop(config: ExperimentConfig, m: int) -> np.ndarray:
    """The harness's reference: draw, learn and evaluate one replicate at a time."""
    revs = []
    for i in range(config.replicates):
        S = sample_values(config.dist, m, config.seed.child(f"exp-sample-m{m}", i))
        h = erm(config.class_spec, S, config.candidate_ceiling)
        seed = config.seed if config.eval_method == "analytic" else \
            config.seed.child(f"exp-eval-m{m}", i)
        revs.append(true_revenue(h, config.dist, config.eval_method, config.eval_draws,
                                 seed).value)
    return np.array(revs)


@pytest.mark.parametrize("m,config", [
    (1, small_config(replicates=7)),
    (400, small_config(replicates=43)),             # blocks of 40 rows, then 3
    (7, small_config(dist=DistributionSpec.iid(Discrete((0.2, 0.5, 0.9), (0.3, 0.4, 0.3))),
                     eval_method="auto", replicates=2340 + 6)),
    (5, small_config(class_spec=ClassSpec("player-reserves"),
                     dist=DistributionSpec.iid(Uniform(0, 1), 2, 1), replicates=1638 + 2,
                     eval_method="monte-carlo", eval_draws=50)),
    (3, small_config(eval_method="auto", replicates=9, **TLEVEL_PAIR)),
], ids=["single-m1", "single-m400", "discrete-auto", "player-mc", "t-level-auto-mc"])
def test_blocked_replicates_match_the_replicate_loop(m, config):
    """Replicates drawn and learned in blocks, including a last partial
    block, give the loop's revenues bit for bit."""
    module = importlib.import_module("auctionlearn.experiments")
    assert np.array_equal(module._replicate_revenues(config, m), replicate_loop(config, m))


@pytest.mark.parametrize("config, monte_carlo", [
    (small_config(eval_method="auto", replicates=5), False),
    (small_config(eval_method="analytic", replicates=5), False),
    (small_config(eval_method="auto", replicates=5, **TLEVEL_PAIR), True),
    (small_config(eval_method="monte-carlo", replicates=5), True),
], ids=["single-auto", "single-analytic", "t-level-auto", "single-monte-carlo"])
def test_replicates_derive_eval_seeds_only_for_monte_carlo(config, monte_carlo, monkeypatch):
    """A replicate's "exp-eval" seed is derived, and its learned row made a
    hypothesis, only when its revenue is estimated by Monte Carlo; a closed
    form scores the block's rows as they are."""
    module = importlib.import_module("auctionlearn.experiments")
    labels = oracles.spy_seed_labels(monkeypatch)
    built = oracles.spy_hypothesis_building(monkeypatch)
    module._replicate_revenues(config, 6)
    assert labels.count("exp-sample-m6") == 5
    assert labels.count("exp-eval-m6") == (5 if monte_carlo else 0)
    assert bool(built) == monte_carlo


def test_replicate_blocks_stay_under_the_cell_budget(monkeypatch):
    """A run of 1000 replicates at m = 400 never draws more than
    ``_REPLICATE_CELLS`` values at once, and its row is the one the first 1000
    replicates of 1003, split into blocks differently, give."""
    module = importlib.import_module("auctionlearn.experiments")
    drawn, sampler = [], module.sample_block

    def spy(dist, m, seeds):
        values = sampler(dist, m, seeds)
        drawn.append(values.size)
        return values

    monkeypatch.setattr(module, "sample_block", spy)
    row = generalization_experiment(small_config(m_grid=(400,), replicates=1000))[0]
    assert sum(drawn) == 400 * 1000 and max(drawn) <= module._REPLICATE_CELLS
    revs = module._replicate_revenues(small_config(m_grid=(400,), replicates=1003), 400)[:1000]
    assert (row.mean_revenue, row.std_error) == \
        (float(revs.mean()), float(revs.std(ddof=1) / math.sqrt(1000)))


def test_experiment_rows_basic_contracts():
    rows = generalization_experiment(small_config())
    assert [r.m for r in rows] == [25, 50]
    for r in rows:
        assert r.optimum == pytest.approx(0.25)
        assert r.gap >= -3 * r.std_error           # never beats the optimum
        assert r.gap <= r.bound                    # the bound holds
        assert r.hp_violation_fraction <= r.delta + 3 * math.sqrt(
            r.delta * (1 - r.delta) / r.replicates)
        assert r.mean_revenue <= r.optimum + 3 * r.std_error


def test_experiment_gap_shrinks_with_m():
    rows = generalization_experiment(small_config(m_grid=(25, 50, 100, 200)))
    for a, b in zip(rows, rows[1:]):
        slack = 3 * math.hypot(a.std_error, b.std_error)
        assert b.gap <= a.gap + slack


def test_benchmark_notes_are_informational():
    dist2 = DistributionSpec.iid(Uniform(0, 1), 2, 1)
    rows = generalization_experiment(small_config(
        class_spec=ClassSpec("player-reserves"), dist=dist2, m_grid=(6,),
        replicates=5, eval_method="monte-carlo", eval_draws=400,
        optimum_draws=2000, optimum_grid_step=1e-2))
    assert "1/2" in rows[0].benchmark_note
    b = generalization_experiment(small_config(
        class_spec=ClassSpec("best-of"), m_grid=(4,), replicates=5,
        dist=DistributionSpec.iid(Uniform(0, 1), 1, 2),
        eval_method="monte-carlo", eval_draws=400,
        optimum_override=0.5))       # no joint grid estimator at k = 2
    assert "1/8" in b[0].benchmark_note and "1/6" in b[0].benchmark_note
    single = generalization_experiment(small_config(m_grid=(4,), replicates=5))
    assert single[0].benchmark_note == ""


def test_experiment_reproducible_and_thread_independent():
    rows1 = generalization_experiment(small_config(replicates=60))
    rows2 = generalization_experiment(small_config(replicates=60))
    assert rows1 == rows2


def test_point_mass_recovers_the_atom():
    point = DistributionSpec.iid(Discrete((0.5,), (1.0,)))
    rows = generalization_experiment(small_config(dist=point, m_grid=(3, 6),
                                                  replicates=30))
    for r in rows:
        assert r.gap == 0.0
    # multi-bidder variant evaluated by fixed-draw Monte Carlo
    point2 = DistributionSpec.iid(Discrete((0.5,), (1.0,)), 2, 1)
    rows = generalization_experiment(small_config(
        class_spec=ClassSpec("anonymous-second-price"), dist=point2,
        m_grid=(3,), replicates=10, eval_method="monte-carlo", eval_draws=500,
        optimum_draws=2000, optimum_grid_step=1e-2))
    assert rows[0].gap == 0.0


def test_sample_complexity_curve_values():
    config = small_config(m_grid=(25, 50), replicates=150)
    rows, curve = sample_complexity_curve(config, (2.0, 0.5, 0.1))
    assert curve[0].m_bound == 1                    # eps above the m=1 bound
    assert curve[1].m_bound == 34
    assert curve[1].m_empirical == 25               # gap at m=25 is ~0.01
    assert curve[2].m_empirical is not None
    assert curve[2].m_empirical <= curve[2].m_bound


def test_output_bytes_and_fingerprint_are_pinned(tmp_path):
    # recorded before rows and the fingerprint were derived from dataclass fields
    config = small_config(replicates=40)
    rows, curve = sample_complexity_curve(config, (0.5,))
    write_rows_csv(rows, str(tmp_path / "r.csv"))
    write_rows_jsonl(rows, str(tmp_path / "r.jsonl"))
    write_rows_jsonl(curve, str(tmp_path / "c.jsonl"))

    def sha(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert sha("r.csv") == "915a1660aa30c8f666fe518eb586f609bc770ed3cdb6109a1361aab7ed0446a0"
    assert sha("r.jsonl") == "bf803bcb8abf7bb2d2d108c427c154fb340f7b3f21704b5b25bbbda42c096308"
    assert (tmp_path / "c.jsonl").read_text() == \
        '{"epsilon": 0.5, "m_bound": 34, "m_empirical": 25}\n'
    assert config_fingerprint(config) == "16a5831c6a9fc6df"
    assert config_fingerprint(small_config(replicates=201)) == "cbe837aaca11670b"


def test_writers_are_deterministic(tmp_path):
    rows = generalization_experiment(small_config(replicates=40))
    for writer, name in ((write_rows_csv, "r.csv"), (write_rows_jsonl, "r.jsonl"),
                         (write_gap_svg, "r.svg")):
        p1, p2 = tmp_path / ("a" + name), tmp_path / ("b" + name)
        writer(rows, str(p1))
        writer(rows, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
    text = (tmp_path / "ar.csv").read_text()
    assert text.splitlines()[0].startswith("class,m,n,k,s,replicates")
