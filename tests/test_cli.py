"""Command line behavior, artifact layout, and reproducibility."""

import json
import os
import xml.etree.ElementTree as ET

import pytest

from fedaa import cli, config, selection

SMALL_CONFIG = """\
dataset = synthetic00
dataset.num_clients = 6
dataset.samples_per_client = 20
rounds = 3
m_percent = 50
local.lr = 0.05
local.batch_size = 8
local.epochs = 1
ddpg.hidden = 16
ddpg.warmup = 2
ddpg.batch_size = 4
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def test_run_writes_artifacts(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out]) == 0
    captured = capsys.readouterr()
    assert "run finished: 3 rounds" in captured.out
    results = open(os.path.join(out, "results.csv")).read()
    assert results.count("\n") == 4  # header plus one line per round
    canonical = open(os.path.join(out, "config.txt")).read()
    cfg = config.parse_config_text(canonical)
    assert cfg.rounds == 3
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config_hash"] == config.config_hash(cfg)
    assert manifest["seed"] == 0
    assert set(manifest["subsystem_seeds"]) >= {"data", "roles", "model-init"}
    assert manifest["version"]
    assert any(p.endswith("results.csv") for p in manifest["artifacts"])
    assert manifest["started"] <= manifest["finished"]


def test_run_reruns_byte_identical(cfg_path, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["run", "--config", cfg_path, "--out", out_a]) == 0
    assert cli.main(["run", "--config", cfg_path, "--out", out_b]) == 0
    bytes_a = open(os.path.join(out_a, "results.csv"), "rb").read()
    bytes_b = open(os.path.join(out_b, "results.csv"), "rb").read()
    assert bytes_a == bytes_b


def test_run_seed_override_changes_results(cfg_path, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["run", "--config", cfg_path, "--out", out_a]) == 0
    assert cli.main(["run", "--config", cfg_path, "--out", out_b, "--seed", "5"]) == 0
    assert json.load(open(os.path.join(out_b, "manifest.json")))["seed"] == 5
    bytes_a = open(os.path.join(out_a, "results.csv"), "rb").read()
    bytes_b = open(os.path.join(out_b, "results.csv"), "rb").read()
    assert bytes_a != bytes_b


def test_run_rejects_negative_seed(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "fedaa: error: ConfigError: --seed: must be >= 0" in err
    assert not os.path.exists(os.path.join(out, "config.txt"))


@pytest.fixture
def taken_out(tmp_path):
    """An --out that names an existing file, so no directory can be made there."""
    path = tmp_path / "taken"
    path.write_text("")
    return str(path)


def fails_on_out(argv, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("fedaa: error: ConfigError: --out ")
    assert "Traceback" not in err


def test_run_rejects_an_unusable_out_before_running(cfg_path, taken_out, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("ran"))
    fails_on_out(["run", "--config", cfg_path, "--out", taken_out], capsys)


def test_sweep_rejects_an_unusable_out_before_any_cell(cfg_path, taken_out, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("ran a cell"))
    fails_on_out(["sweep", "--config", cfg_path, "--vary", "m_percent=40,60",
                  "--out", taken_out], capsys)


def test_report_rejects_an_unusable_out(cfg_path, tmp_path, taken_out, capsys):
    run_out = str(tmp_path / "run")
    assert cli.main(["run", "--config", cfg_path, "--out", run_out]) == 0
    fails_on_out(["report", "--input", os.path.join(run_out, "results.csv"),
                  "--out", taken_out], capsys)


def test_run_json_format(cfg_path, tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out, "--format", "json"]) == 0
    rows = json.load(open(os.path.join(out, "results.json")))
    assert len(rows) == 3
    assert {"round", "reward", "selected_ids", "action"} <= set(rows[0])


def test_run_plot_writes_svgs(cfg_path, tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out, "--plot"]) == 0
    for name in ("curves.svg", "spread.svg"):
        root = ET.parse(os.path.join(out, name)).getroot()
        assert root.tag.endswith("svg")


def test_run_missing_config_fails_cleanly(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "fedaa: error: ConfigError" in capsys.readouterr().err


def test_run_bad_config_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("rounds = many\n")
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "fedaa: error: ParseError" in err
    assert "line 1" in err


def test_sweep_grid_layout(cfg_path, tmp_path):
    out = str(tmp_path / "sweep")
    code = cli.main(
        [
            "sweep", "--config", cfg_path, "--out", out,
            "--vary", "m_percent=50,80",
            "--seeds", "2",
        ]
    )
    assert code == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    # header + 2 cells x (2 seed rows + 1 mean row)
    assert len(lines) == 1 + 2 * 3
    header = lines[0].split(",")
    m_col = header.index("m_pct")
    seed_col = header.index("seed")
    cells = [line.split(",") for line in lines[1:]]
    assert [c[m_col] for c in cells] == ["50", "50", "50", "80", "80", "80"]
    assert [c[seed_col] for c in cells] == ["0", "1", "mean"] * 2


def test_sweep_single_seed_has_no_mean_row(cfg_path, tmp_path):
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", cfg_path, "--out", out]) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert len(lines) == 2
    assert "mean" not in lines[1]


def test_sweep_parallel_matches_serial(cfg_path, tmp_path):
    serial = str(tmp_path / "serial")
    parallel = str(tmp_path / "parallel")
    args = ["sweep", "--config", cfg_path, "--vary", "seed=0,1"]
    assert cli.main(args + ["--out", serial]) == 0
    os.environ["FEDAA_THREADS"] = "2"
    try:
        assert cli.main(args + ["--out", parallel]) == 0
    finally:
        del os.environ["FEDAA_THREADS"]

    def strip_runtime(path):
        rows = [line.split(",") for line in open(path).read().splitlines()]
        col = rows[0].index("runtime_seconds")
        return [row[:col] + row[col + 1:] for row in rows]

    assert strip_runtime(os.path.join(serial, "sweep.csv")) == strip_runtime(
        os.path.join(parallel, "sweep.csv")
    )


def test_sweep_varied_seed_starts_its_cell(cfg_path, tmp_path):
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", cfg_path, "--out", out, "--vary", "seed=3,7"]) == 0
    rows = [line.split(",") for line in open(os.path.join(out, "sweep.csv")).read().splitlines()]
    header, cells = rows[0], rows[1:]
    assert [cell[header.index("seed")] for cell in cells] == ["3", "7"]
    acc = header.index("mean_acc")
    assert cells[0][acc] != cells[1][acc]


def test_sweep_workers_select_on_one_band(cfg_path, tmp_path, monkeypatch):
    # worker processes share the CPUs already, so none spreads its
    # selections over them; the serial sweep keeps the bands
    pools = []

    class InlinePool:
        def __init__(self, max_workers, initializer):
            pools.append(max_workers)
            initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(selection, "_one_band", False)
    monkeypatch.setattr(selection.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    args = ["sweep", "--config", cfg_path, "--vary", "seed=0,1"]
    assert cli.main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert pools == [] and selection.band_count(121, 14_210) == 2
    monkeypatch.setenv("FEDAA_THREADS", "2")
    assert cli.main(args + ["--out", str(tmp_path / "parallel")]) == 0
    assert pools == [2] and selection.band_count(121, 14_210) == 1


@pytest.mark.parametrize("threads", ["abc", "", "1.5", "0", "-1"])
def test_sweep_rejects_a_bad_thread_count(cfg_path, tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("FEDAA_THREADS", threads)
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", cfg_path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "fedaa: error: ConfigError: FEDAA_THREADS must be an integer >= 1" in err
    assert not os.path.exists(os.path.join(out, "sweep.csv"))


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_sweep_rejects_fewer_than_one_seed(cfg_path, tmp_path, capsys, seeds):
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", cfg_path, "--out", out, "--seeds", seeds]) == 1
    assert "--seeds must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "sweep.csv"))


def test_sweep_names_the_cell_whose_config_fails_before_any_cell_runs(cfg_path, tmp_path, capsys):
    # the base config sets m_percent and ddpg keys, which fedavg does not take
    out = str(tmp_path / "sweep")
    args = ["sweep", "--config", cfg_path, "--out", out, "--vary", "aggregator=fedaa,fedavg"]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        "fedaa: error: ConfigError: sweep cell 1 (aggregator=fedavg): "
        "m_percent applies only to aggregator = fedaa\n"
    )
    assert not os.path.exists(out)


def test_sweep_vary_validation(cfg_path, capsys):
    assert cli.main(["sweep", "--config", cfg_path, "--vary", "bogus=1"]) == 1
    assert "unknown key" in capsys.readouterr().err
    assert cli.main(["sweep", "--config", cfg_path, "--vary", "rounds"]) == 1
    assert "KEY=V1,V2" in capsys.readouterr().err


def test_report_from_results(cfg_path, tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out]) == 0
    rep = str(tmp_path / "rep")
    code = cli.main(["report", "--input", os.path.join(out, "results.csv"), "--out", rep])
    assert code == 0
    assert os.path.exists(os.path.join(rep, "curves.svg"))
    assert os.path.exists(os.path.join(rep, "spread.svg"))


def test_report_rejects_missing_columns(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("round,reward\n0,0.5\n")
    assert cli.main(["report", "--input", str(path)]) == 1
    assert "missing columns" in capsys.readouterr().err


def test_report_rejects_unreadable_cell(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        "round,reward,mean_benign_acc,acc_std,loss_std,mean_global_acc\n0,0.5,x,0.1,0.2,0.3\n"
    )
    assert cli.main(["report", "--input", str(path)]) == 1
    assert "data row 1: unreadable cell" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 6
