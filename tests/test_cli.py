"""Command-line surface: spec'd outputs, precedence, reproducibility."""

import json

import pytest

from auctionlearn import load_samples
from auctionlearn.cli import main, parse_marginal, parse_values
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


def test_invalid_input_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "erm", "--class", "single-reserve",
                           "--values", "1.5")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["erm", "--class", "single-reserve", "--values", "abc"],
    ["erm", "--class", "single-reserve", "--values", "0.5", "--range", "x"],
    ["bound", "--class", "single-reserve", "--delta", "2"],
    ["bound", "--class", "single-reserve", "--m", "0"],
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
], ids=["values", "range", "delta", "m", "config", "trials", "draws", "m-grid", "eps",
        "config-value"])
def test_input_errors_are_one_line_messages(argv, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"replicates": "many"}))
    argv = [str(config) if a == "{config}" else a for a in argv]
    proc = run_cli_process(argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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
    for sub in ("sample", "erm", "split-sample", "growth", "bound",
                "rademacher", "experiment", "curve"):
        proc = run_cli_process([sub, "--help"])
        assert proc.returncode == 0
        assert "--seed" in proc.stdout
