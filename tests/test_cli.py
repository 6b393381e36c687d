"""Command-line surface: spec'd outputs, precedence, reproducibility."""

import dataclasses
import importlib
import json
import re

import pytest

from auctionlearn import ClassSpec, DistributionSpec, Seed, Uniform, load_samples
from auctionlearn.cli import (_COMMANDS, _OPTIONS, Options, build_parser, main,
                              parse_marginal, parse_values)
from auctionlearn.experiments import ExperimentConfig
from oracles import run_cli_process


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_single_reserve_m200(capsys):
    code, out, _ = run_cli(capsys, "bound", "--class", "single-reserve", "--m", "200")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.244775, abs=1e-6)


def test_bound_with_delta_and_csv(capsys, tmp_path):
    path = tmp_path / "bound.csv"
    code, out, _ = run_cli(capsys, "bound", "--class", "player-reserves",
                           "--m", "1000", "--n", "3", "--delta", "0.5",
                           "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "class,m,n,k,s,delta,log_tau_2m,bound,hp_bound,vacuous_flag"
    row = lines[1].split(",")
    assert row[0] == "player-reserves" and row[1] == "1000"
    assert float(row[7]) == pytest.approx(0.213554, abs=1e-6)


@pytest.mark.parametrize("argv, bound, vacuous", [
    # two items sell for up to 1 each: revenue lies in [0, 2], not [0, 1]
    (["--class", "item-prices", "--m", "10", "--k", "2"], "2.18933", True),
    # a no-sale earns 0 on [2, 3]: revenue lies in [0, 3], not [2, 3]
    (["--class", "single-reserve", "--m", "10", "--range", "2,3"], "2.32214", False),
], ids=["k2", "alpha2"])
def test_bound_scales_by_the_revenue_range(capsys, argv, bound, vacuous):
    code, out, err = run_cli(capsys, "bound", *argv)
    assert code == 0 and out == bound + "\n"
    assert (err == "warning: bound exceeds the revenue range (vacuous)\n") == vacuous


def test_rademacher_finite_class_bound_uses_the_revenue_range(capsys):
    # item prices on (0, 0) and (1, 1): the exact average 1 is above the
    # value-range Massart figure 0.832555, below the revenue-range one
    code, out, _ = run_cli(capsys, "rademacher", "--class", "item-prices",
                           "--values", "0/0,1/1", "--draws", "10")
    assert code == 0
    assert out.splitlines() == [
        "rademacher estimate: 1 +/- 0 (exact over 4 sign vectors, 2 hypotheses)",
        "finite-class bound: 1.66511"]


def test_split_sample_worked_example(capsys):
    code, out, _ = run_cli(capsys, "split-sample", "--class", "single-reserve",
                           "--values", "0.2,0.4,0.5,1.0", "--mode", "exact")
    assert code == 0
    assert out.startswith("3 distinct hypotheses")
    prices = [json.loads(line)["price"] for line in out.strip().splitlines()[1:]]
    assert prices == [0.4, 0.5, 1.0]


def test_erm_singleton(capsys):
    code, out, _ = run_cli(capsys, "erm", "--class", "single-reserve",
                           "--values", "0.5")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec == {"class": "single-reserve", "price": 0.5}


def test_erm_multibidder_inline_values(capsys):
    code, out, _ = run_cli(capsys, "erm", "--class", "player-reserves",
                           "--values", "0.3;0.9,0.7;0.4")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec == {"class": "player-reserves", "prices": [0.7, 0.9]}


def test_sample_roundtrip_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "sample", "--dist", "uniform:0,1",
                             "--m", "9", "--seed", "5", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    s = load_samples(str(a))
    assert s.m == 9 and s.n == 1 and s.k == 1


def test_growth_csv(capsys):
    code, out, _ = run_cli(capsys, "growth", "--class", "single-reserve",
                           "--dist", "uniform:0,1", "--m", "4", "--draws", "5",
                           "--seed", "3")
    assert code == 0
    header, row = out.strip().splitlines()[:2]
    assert header == "class,m,n,k,s,draws,observed_max,log_bound"
    cells = row.split(",")
    assert cells[0] == "single-reserve"
    assert int(cells[6]) <= 4


def test_rademacher_smoke(capsys):
    code, out, _ = run_cli(capsys, "rademacher", "--class", "single-reserve",
                           "--values", "0.2,0.4,0.6,0.8", "--draws", "2000",
                           "--seed", "1")
    assert code == 0
    assert "rademacher estimate:" in out and "finite-class bound:" in out


def test_rademacher_reports_which_path_ran(capsys):
    sample = ("--values", "0.2,0.4,0.6,0.8", "--seed", "1")
    code, out, _ = run_cli(capsys, "rademacher", "--class", "single-reserve", *sample,
                           "--draws", "16")
    assert code == 0 and "+/- 0 (exact over 16 sign vectors, 3 hypotheses)" in out
    code, out, _ = run_cli(capsys, "rademacher", "--class", "single-reserve", *sample,
                           "--draws", "15")
    assert code == 0 and "(monte-carlo over 15 sign draws, 3 hypotheses)" in out


def test_experiment_writes_deterministic_files(capsys, tmp_path):
    argv = ["experiment", "--class", "single-reserve", "--dist", "uniform:0,1",
            "--m-grid", "8,16", "--replicates", "30", "--delta", "0.25",
            "--seed", "7", "--eval-method", "analytic", "--svg"]
    outs = []
    for name, threads in (("one", "1"), ("four", "4"), ("again", "1")):
        prefix = tmp_path / name
        code, _, _ = run_cli(capsys, *argv, "--threads", threads,
                             "--out", str(prefix))
        assert code == 0
        outs.append({ext: (tmp_path / (name + ext)).read_bytes()
                     for ext in (".csv", ".jsonl", ".svg")})
    assert outs[0] == outs[1] == outs[2]


def test_multi_bidder_uniform_experiment_evaluates_in_closed_form(capsys, tmp_path):
    prefix = tmp_path / "player"
    code, _, err = run_cli(capsys, "experiment", "--class", "player-reserves", "--n", "2",
                           "--dist", "uniform:0,1", "--m-grid", "10,40", "--replicates", "20",
                           "--eval-method", "analytic", "--out", str(prefix))
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in (tmp_path / "player.jsonl").read_text().splitlines()]
    assert len(rows) == 2 and all(row["gap"] >= 0 for row in rows)


def test_multi_bidder_tlevel_has_no_closed_form_evaluation(capsys, tmp_path):
    config = tmp_path / "grid.json"        # a coarse grid, so the optimum is feasible
    config.write_text(json.dumps({"optimum_grid_step": 0.25, "optimum_draws": 2000}))
    code, out, err = run_cli(capsys, "experiment", "--class", "t-level", "--levels", "1",
                             "--n", "2", "--dist", "uniform:0,1", "--m-grid", "10",
                             "--replicates", "2", "--eval-method", "analytic",
                             "--config", str(config))
    assert code == 1 and out == ""
    assert err == "error: no multi-bidder closed form for t-level s=1 at k = 1\n"


def test_failed_evaluation_exits_before_the_optimum(capsys, monkeypatch):
    """A discrete multi-bidder run has no closed-form evaluation; it exits
    with that error without estimating the in-class optimum."""
    def refuse(*args, **kwargs):
        raise AssertionError("the grid optimum ran")

    monkeypatch.setattr(importlib.import_module("auctionlearn.erm"), "_grid_optimum", refuse)
    code, out, err = run_cli(capsys, "experiment", "--class", "anonymous-second-price",
                             "--n", "2", "--dist", "discrete:0.2@0.5,0.9@0.5", "--m-grid", "10",
                             "--replicates", "2", "--eval-method", "analytic")
    assert code == 1 and out == ""
    assert err == "error: multi-bidder closed forms need uniform marginals\n"


def test_curve_smoke(capsys):
    code, out, _ = run_cli(capsys, "curve", "--class", "single-reserve",
                           "--dist", "uniform:0,1", "--m-grid", "25",
                           "--replicates", "40", "--eps", "0.5",
                           "--eval-method", "analytic", "--seed", "2")
    assert code == 0
    assert "epsilon m_bound m_empirical" in out
    assert " 34 " in out.splitlines()[-1] + " "


def test_config_file_precedence(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"klass": "single-reserve", "m": 100}))
    # config alone
    code, out, _ = run_cli(capsys, "bound", "--config", str(config))
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.325525, abs=1e-6)
    # flag overrides config
    code, out, _ = run_cli(capsys, "bound", "--config", str(config), "--m", "200")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.244775, abs=1e-6)


def test_config_file_sets_every_experiment_field(capsys, tmp_path, monkeypatch):
    """Each ExperimentConfig field the CLI reads comes from the config file,
    and a flag overrides each one that has a flag."""
    built = []
    monkeypatch.setattr(importlib.import_module("auctionlearn.experiments"),
                        "generalization_experiment", lambda config: built.append(config) or [])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "klass": "single-reserve", "dist": "uniform:0,1", "m_grid": [10, 20], "replicates": 7,
        "delta": 0.3, "seed": 5, "eval_draws": 500, "eval_method": "monte-carlo",
        "ceiling": 1000, "optimum_grid_step": 0.01, "optimum_draws": 300}))
    expected = ExperimentConfig(
        ClassSpec("single-reserve"), DistributionSpec.iid(Uniform(0.0, 1.0)), m_grid=(10, 20),
        replicates=7, delta=0.3, seed=Seed(5), eval_draws=500, eval_method="monte-carlo",
        candidate_ceiling=1000, optimum_grid_step=0.01, optimum_draws=300)
    assert run_cli(capsys, "experiment", "--config", str(config))[0] == 0
    flags = ["--m-grid", "30", "--replicates", "9", "--delta", "0.2", "--seed", "6",
             "--eval-draws", "600", "--eval-method", "analytic", "--ceiling", "2000"]
    assert run_cli(capsys, "experiment", "--config", str(config), *flags)[0] == 0
    assert built == [expected, dataclasses.replace(
        expected, m_grid=(30,), replicates=9, delta=0.2, seed=Seed(6), eval_draws=600,
        eval_method="analytic", candidate_ceiling=2000)]
    # a key that names no option is refused by name
    config.write_text(json.dumps({"klass": "single-reserve", "replicate": 5}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(config))
    assert code == 1 and "'replicate'" in err and len(built) == 2


def test_invalid_input_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "erm", "--class", "single-reserve",
                           "--values", "1.5")
    assert code == 1
    assert "error:" in err


UNIT_SAMPLE_FILE = '{"n": 1, "k": 1, "alpha": 0.0, "beta": 1.0}\n[[0.5]]\n[[0.2]]\n'


@pytest.mark.parametrize("argv", [
    ["erm", "--class", "single-reserve", "--values", "abc"],
    ["erm", "--class", "single-reserve", "--values", "0.5", "--range", "x"],
    ["bound", "--class", "single-reserve", "--delta", "2"],
    ["bound", "--class", "single-reserve", "--m", "0"],
    ["bound", "--class", "single-reserve", "--n", "2"],
    ["erm", "--class", "single-reserve", "--values", "0.5",
     "--config", "/nonexistent.json"],
    ["split-sample", "--class", "single-reserve", "--values", "0.5",
     "--mode", "monte-carlo"],
    ["rademacher", "--class", "single-reserve", "--values", "0.5,0.6",
     "--draws", "1"],
    ["experiment", "--class", "single-reserve", "--dist", "uniform:0,1",
     "--m-grid", "5,x"],
    ["curve", "--class", "single-reserve", "--dist", "uniform:0,1", "--eps", "0.5,x"],
    ["experiment", "--class", "single-reserve", "--dist", "uniform:0,1",
     "--config", "{config}"],
    ["experiment", "--class", "player-reserves", "--n", "2", "--dist", "uniform:0,1",
     "--m-grid", "5", "--replicates", "5", "--config", "{grid-config}"],
    ["bound", "--class", "single-reserve", "--m", "5", "--range", "1,0"],
    ["erm", "--class", "single-reserve", "--values", "0.5", "--range", "0,nan"],
    ["split-sample", "--class", "single-reserve", "--values", "0.5,0.2", "--ceiling", "0"],
    ["split-sample", "--class", "single-reserve", "--values", "0.5,0.2", "--mode",
     "monte-carlo", "--trials", "100000000", "--seed", "1"],
    ["erm", "--class", "single-reserve", "--in", "{samples}", "--range", "5,9"],
    ["curve", "--class", "single-reserve", "--dist", "uniform:0,1", "--m-grid", "5",
     "--replicates", "3", "--eps", "nan"],
    ["growth", "--class", "single-reserve", "--m", "4", "--draws", "2",
     "--config", "{dist-no-marginals}"],
    ["growth", "--class", "single-reserve", "--m", "4", "--draws", "2",
     "--config", "{dist-no-high}"],
    ["growth", "--class", "single-reserve", "--m", "4", "--draws", "2",
     "--config", "{dist-low-text}"],
    ["growth", "--class", "single-reserve", "--dist", "uniform:0,1", "--m", "4",
     "--draws", "2", "--config", "{config-list}"],
    ["erm", "--class", "single-reserve", "--in", "{header-n-text}"],
    ["erm", "--class", "single-reserve", "--in", "{record-text}"],
    ["erm", "--class", "single-reserve", "--in", "{header-n-float}"],
    ["erm", "--class", "single-reserve", "--in", "{header-k-bool}"],
    ["experiment", "--class", "player-reserves", "--n", "2", "--dist", "uniform:0,1",
     "--m-grid", "5", "--replicates", "3", "--eval-draws", "1"],
    ["curve", "--class", "single-reserve", "--dist", "uniform:0,1", "--m-grid", "5",
     "--replicates", "2", "--eps", "1e-10"],
    ["bound", "--m", "100", "--n", "2", "--k", "2", "--config", "{per-player-text}"],
    ["bound", "--config", "{unknown-key}"],
    ["bound", "--class", "single-reserve", "--m", "x"],
    ["bound", "--config", "{float-int}"],
    ["bound", "--config", "{whole-float-int}"],
    ["bound", "--config", "{bool-int}"],
    ["bound", "--class", "single-reserve", "--config", "{bool-float}"],
    ["experiment", "--class", "single-reserve", "--dist", "uniform:0,1",
     "--config", "{float-int-list}"],
], ids=["values", "range", "delta", "m", "bound-shape", "config", "trials", "draws", "m-grid",
        "eps", "config-value", "config-grid-step", "bound-range", "range-nan", "split-ceiling",
        "split-mc-ceiling", "range-file", "eps-nan", "dist-no-marginals", "dist-no-high", "dist-low-text",
        "config-list", "header-n-text", "record-text", "header-n-float", "header-k-bool",
        "eval-draws", "eps-tiny", "config-switch-text", "config-unknown-key", "m-text",
        "config-float-int", "config-whole-float-int", "config-bool-int", "config-bool-float",
        "config-float-int-list"])
def test_input_errors_are_one_line_messages(argv, tmp_path):
    uniform = {"type": "uniform", "low": 0}
    files = {"{config}": json.dumps({"replicates": "many"}),
             "{grid-config}": json.dumps({"optimum_grid_step": 0}),
             "{samples}": UNIT_SAMPLE_FILE,
             "{dist-no-marginals}": json.dumps({"dist": {"alpha": 0}}),
             "{dist-no-high}": json.dumps({"dist": {"marginals": [[uniform]]}}),
             "{dist-low-text}": json.dumps(
                 {"dist": {"marginals": [[{**uniform, "low": "x", "high": 1}]]}}),
             "{config-list}": json.dumps([1, 2]),
             "{header-n-text}": UNIT_SAMPLE_FILE.replace('"n": 1', '"n": "x"'),
             "{record-text}": UNIT_SAMPLE_FILE.replace("[[0.2]]", '[["a"]]'),
             "{header-n-float}": UNIT_SAMPLE_FILE.replace('"n": 1', '"n": 1.7'),
             "{header-k-bool}": UNIT_SAMPLE_FILE.replace('"k": 1', '"k": true'),
             "{per-player-text}": json.dumps({"klass": "item-prices", "per_player": "false"}),
             "{unknown-key}": json.dumps({"klass": "single-reserve", "replicate": 5, "m": 100}),
             "{float-int}": json.dumps({"klass": "single-reserve", "m": 200.9}),
             "{whole-float-int}": json.dumps({"klass": "single-reserve", "m": 200.0}),
             "{bool-int}": json.dumps({"klass": "single-reserve", "m": True}),
             "{bool-float}": json.dumps({"m": 100, "delta": True}),
             "{float-int-list}": json.dumps({"m_grid": [50, 100.5], "replicates": 2})}
    # a config number is refused with its flag's message, not truncated or read as 1 or 0
    messages = {"{float-int}": "--m needs an integer, got 200.9",
                "{whole-float-int}": "--m needs an integer, got 200.0",
                "{bool-int}": "--m needs an integer, got True",
                "{bool-float}": "--delta needs a number, got True"}
    message = next((messages[a] for a in argv if a in messages), "")

    def write(placeholder):
        path = tmp_path / "input"
        path.write_text(files[placeholder])
        return str(path)

    argv = [write(a) if a in files else a for a in argv]
    proc = run_cli_process(argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


def test_config_integers_are_numbers(capsys, tmp_path):
    """A JSON integer is accepted for a number option, as the flag's text is."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"klass": "single-reserve", "m": 200, "range": [0, 1]}))
    code, out, _ = run_cli(capsys, "bound", "--config", str(path))
    assert code == 0 and float(out) == pytest.approx(0.244775, abs=1e-6)


def test_sample_file_range_is_checked_only_when_declared(capsys, tmp_path):
    path = tmp_path / "sample.jsonl"
    path.write_text(UNIT_SAMPLE_FILE)
    for declared in ([], ["--range", "0,1"]):
        code, out, _ = run_cli(capsys, "erm", "--class", "single-reserve",
                               "--in", str(path), *declared)
        assert code == 0 and "0.5" in out
    code, _, err = run_cli(capsys, "rademacher", "--class", "single-reserve",
                           "--in", str(path), "--range", "0,2")
    assert code == 1 and "declared range" in err


def test_missing_sample_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "erm", "--class", "single-reserve")
    assert code == 1
    assert "values" in err


def test_parse_helpers():
    m = parse_marginal("discrete:0.2@0.5,0.8@0.5")
    assert m.points == (0.2, 0.8) and m.probs == (0.5, 0.5)
    s = parse_values("0.1/0.2;0.3/0.4", (0.0, 1.0))
    assert s.values.shape == (1, 2, 2)
    assert s.values[0, 1, 0] == 0.3


def test_console_entry_point():
    proc = run_cli_process(["bound", "--class", "single-reserve", "--m", "200"])
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("0.2447")


def test_subcommand_help_lists_flags():
    """Each subcommand's help shows every default the code uses, as text that,
    given back as the flag, resolves to the value used without it."""
    parser = build_parser()
    for sub in ("sample", "erm", "split-sample", "growth", "bound",
                "rademacher", "experiment", "curve"):
        proc = run_cli_process([sub, "--help"])
        assert proc.returncode == 0
        assert "--seed" in proc.stdout
        shown = " ".join(proc.stdout.split())
        unset = Options(parser.parse_args([sub]))
        for name in _COMMANDS[sub][2]:
            flag, kind, text = _OPTIONS[name]
            if flag is None or unset.get(name) is None:
                continue
            match = re.search(f"{re.escape(flag)}(?: \\S+)? {re.escape(text)} "
                              r"\(default (\S+)\)", shown)
            assert match, f"{sub} {flag} shows no default"
            if kind is bool:
                assert match[1] == "False" and unset.get(name) is False
            else:
                given = Options(parser.parse_args([sub, flag, match[1]]))
                assert given.get(name) == unset.get(name), (sub, flag)
