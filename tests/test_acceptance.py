"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run `pytest tests/test_acceptance.py -s` to see the PASS/FAIL line per
criterion (with elapsed time); any failure also fails the pytest run.
"""

import itertools
import math
import time
import zlib

import numpy as np
import pytest

import oracles
from auctionlearn import (ClassSpec, DistributionSpec, ExperimentConfig,
                          SampleSet, Seed, Uniform, bound_formula,
                          generalization_chain_check, generalization_experiment,
                          main_bound, rademacher_estimate,
                          sample_complexity_estimate, split_sample_space,
                          theoretical_growth_bound, tlevel_epsilon)
from auctionlearn.erm import erm_with_value

SINGLE = ClassSpec("single-reserve")
U01 = DistributionSpec.iid(Uniform(0, 1))


def _stamp(number: int, description: str, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"\nFAIL criterion {number}: {description}")
        raise
    print(f"\nPASS criterion {number}: {description} "
          f"[{time.perf_counter() - t0:.1f}s]")


def _rng(label: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(label.encode()))


def test_criterion_1_truthfulness_suite():
    def body():
        t0 = time.perf_counter()
        for tag in oracles.TRUTHFUL_TAGS:
            gen = _rng("acceptance-truthful-" + tag)
            worst = -np.inf
            for _ in range(200):
                h, v = oracles.random_instance(tag, gen, max_n=3, max_k=3)
                worst = max(worst,
                            oracles.misreport_improvement(h, v, grid_points=101))
            assert worst <= 1e-12, f"{tag}: misreport gains {worst}"
        assert time.perf_counter() - t0 <= 120.0

    _stamp(1, "truthfulness: 200 instances x 101-point misreport grids, "
              "all 6 dominant-strategy classes", body)


def _exhaustive_single_reserve_check():
    grid = oracles.FINE_GRID
    for m in range(1, 9):
        combos = np.array(list(
            itertools.combinations_with_replacement(range(11), m))) / 10.0
        erm_revs = np.empty(len(combos))
        for i, row in enumerate(combos):
            _, erm_revs[i] = erm_with_value(SINGLE, SampleSet(row.reshape(m, 1, 1)))
        grid_max = np.empty(len(combos))
        chunk = 2000
        for start in range(0, len(combos), chunk):
            V = combos[start:start + chunk]
            counts = (V[:, None, :] >= grid[None, :, None]).sum(axis=2)
            grid_max[start:start + chunk] = (grid[None, :] * counts / m).max(axis=1)
        worst = np.abs(erm_revs - grid_max).max()
        assert worst <= 1e-12, f"single-reserve m={m}: off grid max by {worst}"


_PRODUCT_CONFIGS = [
    (ClassSpec("player-reserves"), 2, 1, oracles.draw_grid_sample,
     lambda v: oracles.grid_max_player_reserves(v[:, :, 0])),
    (ClassSpec("t-level", levels=1), 2, 1, oracles.draw_grid_sample,
     lambda v: oracles.grid_max_tlevel_two_bidders_one_level(v[:, :, 0])),
    # eighth-grid values keep additive totals exactly on the oracle grid
    (ClassSpec("bundle-price"), 2, 2, oracles.draw_eighth_sample,
     lambda v: oracles.grid_max_bundle(v, False)),
    (ClassSpec("bundle-price", per_player=True), 2, 2, oracles.draw_eighth_sample,
     lambda v: oracles.grid_max_bundle(v, True)),
    (ClassSpec("item-prices"), 2, 2, oracles.draw_grid_sample,
     lambda v: oracles.grid_max_item_prices(v, False)),
    (ClassSpec("item-prices", per_player=True), 2, 2, oracles.draw_grid_sample,
     lambda v: oracles.grid_max_item_prices(v, True)),
    (ClassSpec("best-of"), 2, 1, oracles.draw_grid_sample,
     lambda v: oracles.grid_max_best_of_single_item(v[:, :, 0])),
]


def test_criterion_2_erm_oracle_equivalence():
    def body():
        _exhaustive_single_reserve_check()
        for spec, n, k, draw, oracle in _PRODUCT_CONFIGS:
            gen = _rng("acceptance-oracle-" + spec.describe())
            for _ in range(72):   # 7 configs x 72 = 504 product-class draws
                m = int(gen.integers(1, 9))
                values = draw(gen, m, n, k)
                _, rev = erm_with_value(spec, SampleSet(values))
                gap = abs(rev - oracle(values))
                assert gap <= 1e-12, f"{spec.describe()} m={m}: off by {gap}"

    _stamp(2, "ERM equals the 1e-3 exhaustive grid max (exhaustive "
              "single-reserve m<=8; 504 product-class draws)", body)


def test_criterion_3_split_sample_cardinality():
    def body():
        t0 = time.perf_counter()
        worked = split_sample_space(
            SINGLE, SampleSet(np.array([0.2, 0.4, 0.5, 1.0]).reshape(4, 1, 1)))
        assert len(worked) == 3

        cases = [
            (SINGLE, 1, 1),
            (ClassSpec("anonymous-second-price"), 2, 1),
            (ClassSpec("player-reserves"), 2, 1),
            (ClassSpec("item-prices"), 2, 2),
        ]
        for spec, n, k in cases:
            gen = _rng("acceptance-growth-" + spec.describe())
            for m in range(1, 13):
                bound = theoretical_growth_bound(spec, m, n, k).count
                for _ in range(2):
                    S = SampleSet(gen.random((m, n, k)))
                    space = split_sample_space(spec, S, "exact")
                    assert len(space) <= bound, (spec.describe(), m, len(space))
        assert time.perf_counter() - t0 <= 60.0

    _stamp(3, "split-sample cardinality within the class bound for all "
              "m <= 12 (worked m=4 example yields exactly 3)", body)


def test_criterion_4_massart_check():
    def body():
        t0 = time.perf_counter()
        classes = [
            (SINGLE, 1),
            (ClassSpec("anonymous-second-price"), 2),
            (ClassSpec("player-reserves"), 2),
            (ClassSpec("t-level", levels=1), 2),
        ]
        gen = _rng("acceptance-massart")
        pair = 0
        for m in (8, 16):
            for i in range(25):
                spec, n = classes[pair % len(classes)]
                pair += 1
                S = SampleSet(gen.random((m, n, 1)))
                space = split_sample_space(spec, S, "exact")
                est = rademacher_estimate(S, space.hypotheses, draws=10_000,
                                          seed=Seed(9000 + pair))
                limit = math.sqrt(2.0 * math.log(len(space)) / m)
                assert est.estimate <= limit + 3.0 * est.std_error, (
                    spec.describe(), m, est.estimate, limit)
        assert time.perf_counter() - t0 <= 120.0

    _stamp(4, "Monte Carlo Rademacher of enumerated spaces within "
              "sqrt(2 ln|H|/m) + 3 SE (50 pairs, m in {8,16}, 1e4 draws)", body)


def test_criterion_5_generalization_chain():
    def body():
        t0 = time.perf_counter()
        report = generalization_chain_check(SINGLE, U01, m=8, replicates=500,
                                            sigma_draws=2000, seed=Seed(505))
        assert report.optimum == pytest.approx(0.25)
        assert report.optimum_source == "analytic"
        assert theoretical_growth_bound(SINGLE, 16).count == 16
        assert report.theoretical_bound == math.sqrt(2.0 * math.log(16) / 8)
        slack1 = 3.0 * math.hypot(report.gap_se, report.rademacher_se)
        assert report.gap_mean <= report.rademacher_mean + slack1
        assert report.rademacher_mean <= report.theoretical_bound + 3.0 * report.rademacher_se
        assert report.chain_holds
        assert time.perf_counter() - t0 <= 180.0

    _stamp(5, "gap <= E[Rademacher of pooled split-sample space] <= "
              "sqrt(2 ln 16 / 8) at m=8, 500 replicates", body)


@pytest.fixture(scope="module")
def theorem_rows():
    config = ExperimentConfig(
        class_spec=SINGLE, dist=U01, m_grid=(50, 100, 200, 400),
        replicates=1000, delta=0.25, seed=Seed(606), eval_method="analytic")
    t0 = time.perf_counter()
    rows = generalization_experiment(config)
    return rows, time.perf_counter() - t0


def test_criterion_6_expected_gap_bound(theorem_rows):
    rows, elapsed = theorem_rows

    def body():
        assert elapsed <= 300.0
        by_m = {r.m: r for r in rows}
        assert by_m[100].bound == pytest.approx(0.325525, abs=1e-5)
        for r in rows:
            assert r.optimum == pytest.approx(0.25)
            assert r.gap <= r.bound, (r.m, r.gap, r.bound)
        r400 = by_m[400]
        assert r400.gap <= 0.1 * r400.bound + 3.0 * r400.std_error, (
            r400.gap, 0.1 * r400.bound)

    _stamp(6, "expected gap within sqrt(2 ln(2m)/m) on m in {50..400}, "
              "1000 replicates; m=400 gap under 0.1x the bound", body)


def test_criterion_7_high_probability_variant(theorem_rows):
    rows, _ = theorem_rows

    def body():
        for r in rows:
            sigma = math.sqrt(r.delta * (1 - r.delta) / r.replicates)
            assert r.delta == 0.25
            assert r.hp_violation_fraction <= r.delta + 3.0 * sigma, (
                r.m, r.hp_violation_fraction)

    _stamp(7, "fraction of replicates beyond bound/delta stays within "
              "delta + 3 sigma at delta = 0.25", body)


def test_criterion_8_bound_formula_reproduction():
    def body():
        assert bound_formula(SINGLE) == "sqrt(2*log(2*m)/m)"
        assert bound_formula(ClassSpec("anonymous-second-price")) == \
            "sqrt(2*log(2*n*m)/m)"
        assert bound_formula(ClassSpec("player-reserves")) == \
            "sqrt(2*n*log(2*m)/m)"
        assert main_bound(SINGLE, 200).expected_gap_bound == \
            math.sqrt(2 * math.log(2 * 200) / 200)
        assert main_bound(ClassSpec("anonymous-second-price"), 200, n=2
                          ).expected_gap_bound == \
            math.sqrt(2 * math.log(2 * 2 * 200) / 200)
        assert main_bound(ClassSpec("player-reserves"), 1000, n=3
                          ).expected_gap_bound == \
            math.sqrt(2 * 3 * math.log(2 * 1000) / 1000)

        t = tlevel_epsilon(2, 1000)
        assert t.epsilon == (2 * 2 * math.log(2 * 1000) / 1000) ** (1.0 / 3.0)
        assert t.levels == math.ceil(1.0 / t.epsilon)
        assert t.overall_bound == 2.0 * t.epsilon

        assert sample_complexity_estimate(SINGLE, 0.5) == 34
        assert main_bound(SINGLE, 33).expected_gap_bound > 0.5
        assert main_bound(SINGLE, 34).expected_gap_bound <= 0.5

    _stamp(8, "closed-form bound specializations, the level-count tuning, "
              "and m(0.5) = 34 with m = 33 failing", body)


def test_criterion_9_byte_identical_reruns(tmp_path):
    def body():
        argv = ["experiment", "--class", "single-reserve", "--dist", "uniform:0,1",
                "--m-grid", "8,16,32", "--replicates", "60", "--delta", "0.25",
                "--seed", "99", "--eval-method", "analytic", "--svg"]
        outputs = []
        for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            prefix = tmp_path / name
            proc = oracles.run_cli_process(argv + ["--threads", threads, "--out", str(prefix)])
            assert proc.returncode == 0, proc.stderr
            outputs.append({ext: (tmp_path / (name + ext)).read_bytes()
                            for ext in (".csv", ".jsonl", ".svg")})
        assert outputs[0] == outputs[1] == outputs[2]

    _stamp(9, "experiment outputs byte-identical across reruns and "
              "--threads settings with a fixed master seed", body)
