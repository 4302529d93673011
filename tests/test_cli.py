"""Command line behavior, artifact layout, and reproducibility."""

import contextlib
import csv
import json
import os
import pathlib
import subprocess
import sys
import types
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fedaa import cli, config, cpus, selftest

from conftest import assert_no_child_left, warning_fork

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


def read_table(path):
    """The rows of a CSV file, header first."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def pin_cpus(monkeypatch, count):
    """An affinity mask of ``count`` CPUs, which the sweep sizes its workers by."""
    monkeypatch.setattr(cpus.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


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
    results = pathlib.Path(out, "results.csv").read_text()
    assert results.count("\n") == 4  # header plus one line per round
    canonical = pathlib.Path(out, "config.txt").read_text()
    cfg = config.parse_config_text(canonical)
    assert cfg.rounds == 3
    manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
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
    bytes_a = pathlib.Path(out_a, "results.csv").read_bytes()
    bytes_b = pathlib.Path(out_b, "results.csv").read_bytes()
    assert bytes_a == bytes_b


def test_run_seed_override_changes_results(cfg_path, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["run", "--config", cfg_path, "--out", out_a]) == 0
    assert cli.main(["run", "--config", cfg_path, "--out", out_b, "--seed", "5"]) == 0
    assert json.loads(pathlib.Path(out_b, "manifest.json").read_text())["seed"] == 5
    bytes_a = pathlib.Path(out_a, "results.csv").read_bytes()
    bytes_b = pathlib.Path(out_b, "results.csv").read_bytes()
    assert bytes_a != bytes_b


def test_run_rejects_negative_seed(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "fedaa: error: ConfigError: --seed: must be >= 0" in err
    assert not os.path.exists(os.path.join(out, "config.txt"))


def test_run_and_sweep_reject_a_seed_of_two_to_the_64(cfg_path, tmp_path, capsys):
    # the seed would alias seed 0, whose results it would write
    limit = 1 << 64
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out, "--seed", str(limit)]) == 1
    assert f"fedaa: error: ConfigError: --seed: must be < {limit}" in capsys.readouterr().err
    # the sweep's second seed passes no parser
    args = ["sweep", "--config", cfg_path, "--out", out, "--vary", f"seed={limit - 1}", "--seeds", "2"]
    assert cli.main(args) == 1
    assert (
        f"fedaa: error: ConfigError: sweep cell 0 (seed={limit - 1}): seed = {limit} must be < {limit}"
        in capsys.readouterr().err
    )
    assert not os.path.exists(out)


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
    pin_cpus(monkeypatch, 1)  # a run in a worker process would not reach the patch
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("ran a cell"))
    fails_on_out(["sweep", "--config", cfg_path, "--vary", "m_percent=40,60",
                  "--out", taken_out], capsys)


def test_report_rejects_an_unusable_out(cfg_path, tmp_path, taken_out, capsys):
    run_out = str(tmp_path / "run")
    assert cli.main(["run", "--config", cfg_path, "--out", run_out]) == 0
    fails_on_out(["report", "--input", os.path.join(run_out, "results.csv"),
                  "--out", taken_out], capsys)


@pytest.mark.parametrize("command, artifact", [
    (["run"], "results.csv"),
    (["run", "--format", "json"], "results.json"),
    (["run"], "config.txt"),
    (["run"], "manifest.json"),
    (["run", "--plot"], "curves.svg"),
    (["run", "--plot"], "spread.svg"),
    (["sweep", "--seeds", "3"], "sweep.csv"),
], ids=lambda part: part if isinstance(part, str) else " ".join(part))
def test_an_artifact_path_that_is_a_directory_fails_before_any_run(
    command, artifact, cfg_path, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)  # a sweep's runs stay in this process
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: calls.append(cfg))
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert cli.main([*command, "--config", cfg_path, "--out", str(out)]) == 1
    assert calls == []
    assert capsys.readouterr().err == (
        f"fedaa: error: ConfigError: cannot write {out / artifact}: is a directory\n"
    )


@pytest.mark.parametrize("command, artifact", [
    ("run", "results.csv"), ("sweep", "sweep.csv"), ("report", "curves.svg"),
])
def test_a_directory_in_the_way_of_an_artifact_fails_typed(cfg_path, tmp_path, capsys, command,
                                                           artifact):
    argv = [command, "--config", cfg_path]
    if command == "report":
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
        argv = [command, "--input", str(tmp_path / "run" / "results.csv")]
    blocked = tmp_path / "out" / artifact
    blocked.mkdir(parents=True)
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"fedaa: error: ConfigError: cannot write {blocked}: ")


def test_run_json_format(cfg_path, tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out, "--format", "json"]) == 0
    rows = json.loads(pathlib.Path(out, "results.json").read_text())
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


@pytest.mark.parametrize(
    "command, content, offset",
    [
        (["run", "--config"], b"rounds = 3\n# caf\xe9\n", 16),
        (["sweep", "--config"], b"rounds = 3\n# caf\xe9\n", 16),
        (["report", "--input"], b"round,reward\n1,0.5\xff\n", 18),
    ],
    ids=["run", "sweep", "report"],
)
def test_a_file_not_in_utf8_fails_cleanly(tmp_path, capsys, command, content, offset):
    path = tmp_path / "latin1"
    path.write_bytes(content)
    assert cli.main([*command, str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "fedaa: error: ConfigError:" in err
    assert f"{path}: byte {offset} is not UTF-8" in err


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
    header, *cells = read_table(os.path.join(out, "sweep.csv"))
    # 2 cells x (2 seed rows + 1 mean row)
    assert len(cells) == 2 * 3
    m_col = header.index("m_pct")
    seed_col = header.index("seed")
    assert [c[m_col] for c in cells] == ["50", "50", "50", "80", "80", "80"]
    assert [c[seed_col] for c in cells] == ["0", "1", "mean"] * 2


def test_sweep_single_seed_has_no_mean_row(cfg_path, tmp_path):
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", cfg_path, "--out", out]) == 0
    lines = pathlib.Path(out, "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert "mean" not in lines[1]


def test_sweep_parallel_matches_serial(cfg_path, tmp_path, capsys, monkeypatch):
    serial = str(tmp_path / "serial")
    parallel = str(tmp_path / "parallel")
    args = ["sweep", "--config", cfg_path, "--vary", "seed=0,1"]
    pin_cpus(monkeypatch, 1)
    assert cli.main(args + ["--out", serial]) == 0
    assert " on 1 process -> " in capsys.readouterr().out
    pin_cpus(monkeypatch, 2)
    assert cli.main(args + ["--out", parallel]) == 0
    assert " on 2 processes -> " in capsys.readouterr().out
    assert_no_child_left()

    def strip_runtime(path):
        rows = read_table(path)
        col = rows[0].index("runtime_seconds")
        return [row[:col] + row[col + 1:] for row in rows]

    assert strip_runtime(os.path.join(serial, "sweep.csv")) == strip_runtime(
        os.path.join(parallel, "sweep.csv")
    )


def test_sweep_varied_seed_starts_its_cell(cfg_path, tmp_path):
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", cfg_path, "--out", out, "--vary", "seed=3,7"]) == 0
    header, *cells = read_table(os.path.join(out, "sweep.csv"))
    assert [cell[header.index("seed")] for cell in cells] == ["3", "7"]
    acc = header.index("mean_acc")
    assert cells[0][acc] != cells[1][acc]


def test_a_sweep_over_a_path_with_a_comma_keeps_one_cell(tmp_path, monkeypatch):
    # a varied value holding a comma is one quoted cell, not two
    pin_cpus(monkeypatch, 1)
    labels = np.arange(60) % 2
    sources = [tmp_path / "a,b.csv", tmp_path / "c.csv"]
    for shift, source in enumerate(sources):
        table = np.column_stack([np.linspace(0.0, 1.0, 60) + labels + shift, labels])
        np.savetxt(source, table, delimiter=",", header="f0,label", comments="")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset = csv\ndataset.num_clients = 4\nvalidation.per_class = 5\n"
                   "rounds = 1\nlocal.epochs = 1\n")
    out = tmp_path / "sweep"
    vary = "dataset.csv_path=" + ";".join(str(source) for source in sources)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--vary", vary]) == 0
    header, *cells = read_table(out / "sweep.csv")
    assert [len(cell) for cell in cells] == [len(header)] * 2
    assert [cell[header.index("dataset.csv_path")] for cell in cells] == [str(s) for s in sources]
    assert [cell[header.index("dataset")] for cell in cells] == ["csv", "csv"]


def test_sweep_workers_train_in_one_process(monkeypatch):
    # a worker process shares the CPUs with its siblings already, so it
    # keeps its training pool at one process (run_rounds sizes the pool by
    # the usable CPUs); the main process spreads it
    monkeypatch.setattr(cpus.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cpus.usable_cpus() == 2
    with cli.ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(cpus.usable_cpus).result() == 1


def test_sweep_workers_fork_without_the_multi_threaded_warning(cfg_path, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fork", warning_fork(os.fork))
    pin_cpus(monkeypatch, 2)
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", cfg_path, "--out", out, "--vary", "seed=0,1"]) == 0
    assert len(pathlib.Path(out, "sweep.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("count, runs, workers", [(1, 3, None), (2, 1, None), (2, 2, 2),
                                                  (2, 5, 2), (4, 3, None)])
def test_sweep_picks_its_processes_from_the_cpus(cfg_path, tmp_path, capsys, monkeypatch,
                                                 count, runs, workers):
    # a worker per CPU where the runs fill every CPU; else the runs go in
    # this process, one at a time
    sizes = []

    @contextlib.contextmanager
    def recorded_pool(max_workers):  # maps in this process
        sizes.append(max_workers)
        yield types.SimpleNamespace(map=map)

    pin_cpus(monkeypatch, count)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", recorded_pool)
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", cfg_path, "--out", out, "--seeds", str(runs)]) == 0
    assert sizes == ([workers] if workers else [])
    processes = f"{workers} processes" if workers else "1 process"
    assert capsys.readouterr().out == (
        f"swept 1 cells x {runs} seeds on {processes} -> {os.path.join(out, 'sweep.csv')}\n"
    )
    assert len(pathlib.Path(out, "sweep.csv").read_text().splitlines()) == 1 + runs + (runs > 1)


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


def test_a_cell_too_small_for_its_run_fails_the_sweep_before_any_cell_runs(
    cfg_path, tmp_path, capsys, monkeypatch
):
    # cell 1's cohort is round(0.2 * 6) = 1 client, too few for selection;
    # the check belongs to the config, so cell 0 does not run either
    pin_cpus(monkeypatch, 1)  # a run in a worker process would not reach the count
    calls = []
    run = cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: calls.append(cfg) or run(cfg))
    out = str(tmp_path / "sweep")
    args = ["sweep", "--config", cfg_path, "--out", out, "--vary", "participation_ratio=1.0,0.2"]
    assert cli.main(args) == 1
    assert calls == []
    assert capsys.readouterr().err == (
        "fedaa: error: ConfigError: sweep cell 1 (participation_ratio=0.2): participation_ratio "
        "= 0.2 with dataset.num_clients = 6 yields a cohort of 1; the distance selector needs "
        "at least 2\n"
    )
    assert not os.path.exists(os.path.join(out, "sweep.csv"))


@pytest.mark.parametrize("count", [1, 2], ids=["serial", "workers"])
def test_sweep_gives_each_varied_key_its_columns_leave_out_a_column(
    cfg_path, tmp_path, monkeypatch, count
):
    pin_cpus(monkeypatch, count)

    def table(name, *vary):
        """sweep.csv of two seeds a cell, less its runtime column."""
        out = tmp_path / name
        args = ["sweep", "--config", cfg_path, "--out", str(out), "--seeds", "2"]
        assert cli.main(args + [arg for axis in vary for arg in ("--vary", axis)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].endswith(",runtime_seconds")
        return [line.rpartition(",")[0] for line in lines]

    # local.lr and rounds have no column of their own: each gets one, in
    # --vary order after c_pct, and a mean row carries its cell's values
    assert table("varied", "local.lr=0.1,0.01", "rounds=1,2") == [
        "method,dataset,attack,malicious_pct,m_pct,c_pct,local.lr,rounds,seed,mean_acc,acc_std,acc_var",
        "fedaa,synthetic00,none,0,50,100,0.1,1,0,0.416667,0.372678,0.138889",
        "fedaa,synthetic00,none,0,50,100,0.1,1,1,0.458333,0.393083,0.154514",
        "fedaa,synthetic00,none,0,50,100,0.1,1,mean,0.4375,0.382881,0.146702",
        "fedaa,synthetic00,none,0,50,100,0.1,2,0,0.458333,0.335927,0.112847",
        "fedaa,synthetic00,none,0,50,100,0.1,2,1,0.458333,0.393083,0.154514",
        "fedaa,synthetic00,none,0,50,100,0.1,2,mean,0.458333,0.364505,0.133681",
        "fedaa,synthetic00,none,0,50,100,0.01,1,0,0.125,0.190941,0.0364583",
        "fedaa,synthetic00,none,0,50,100,0.01,1,1,0.166667,0.372678,0.138889",
        "fedaa,synthetic00,none,0,50,100,0.01,1,mean,0.145834,0.281809,0.0876737",
        "fedaa,synthetic00,none,0,50,100,0.01,2,0,0.125,0.190941,0.0364583",
        "fedaa,synthetic00,none,0,50,100,0.01,2,1,0.166667,0.372678,0.138889",
        "fedaa,synthetic00,none,0,50,100,0.01,2,mean,0.145834,0.281809,0.0876737",
    ]
    # m_percent and seed have columns already: the table has no other
    assert table("covered", "m_percent=50,80", "seed=0,1") == [
        "method,dataset,attack,malicious_pct,m_pct,c_pct,seed,mean_acc,acc_std,acc_var",
        "fedaa,synthetic00,none,0,50,100,0,0.375,0.375,0.140625",
        "fedaa,synthetic00,none,0,50,100,1,0.375,0.401819,0.161458",
        "fedaa,synthetic00,none,0,50,100,mean,0.375,0.388409,0.151041",
        "fedaa,synthetic00,none,0,50,100,1,0.375,0.401819,0.161458",
        "fedaa,synthetic00,none,0,50,100,2,0.708333,0.266797,0.0711806",
        "fedaa,synthetic00,none,0,50,100,mean,0.541667,0.334308,0.116319",
        "fedaa,synthetic00,none,0,80,100,0,0.375,0.375,0.140625",
        "fedaa,synthetic00,none,0,80,100,1,0.416667,0.424918,0.180556",
        "fedaa,synthetic00,none,0,80,100,mean,0.395834,0.399959,0.16059",
        "fedaa,synthetic00,none,0,80,100,1,0.416667,0.424918,0.180556",
        "fedaa,synthetic00,none,0,80,100,2,0.75,0.288675,0.0833333",
        "fedaa,synthetic00,none,0,80,100,mean,0.583333,0.356797,0.131945",
    ]


def test_sweep_rejects_a_repeated_vary_key(cfg_path, tmp_path, capsys, monkeypatch):
    # the second --vary would override the first in every cell
    pin_cpus(monkeypatch, 1)
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("ran a cell"))
    out = str(tmp_path / "sweep")
    args = ["sweep", "--config", cfg_path, "--out", out,
            "--vary", "rounds=1,2", "--vary", "rounds=3"]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        "fedaa: error: ConfigError: --vary: key 'rounds' given twice; "
        "list its values in one --vary\n"
    )
    assert not os.path.exists(out)


@pytest.mark.parametrize("count", [1, 2], ids=["serial", "workers"])
def test_a_run_error_in_a_sweep_names_its_cell_and_seed(tmp_path, capsys, monkeypatch, count):
    # at a learning rate of 1e300 no upload of round 0 is measurable; with
    # two workers the error crosses a worker's pipe
    path = tmp_path / "exp.cfg"
    path.write_text("dataset.num_clients = 4\ndataset.samples_per_client = 30\n"
                    "rounds = 2\nlocal.epochs = 1\nseed = 5\n")
    pin_cpus(monkeypatch, count)
    args = ["sweep", "--config", str(path), "--out", str(tmp_path / "sweep"),
            "--vary", "local.lr=0.1,1e300"]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith(
        "fedaa: error: SimulationError: sweep cell 1 (local.lr=1e+300), seed 5: "
        "round 0: only 0 measurable uploads for a selection of 1; "
    )
    assert not os.path.exists(tmp_path / "sweep" / "sweep.csv")


EXTREME_BASE = ("dataset.num_clients = 6\ndataset.samples_per_client = 30\n"
                "rounds = 6\nlocal.epochs = 1\n")


@pytest.mark.parametrize("overrides, error", [
    ("local.lr = 1e300\naggregator = fedavg\n",
     "NumericError: round 0: non-finite value in field 'loss_std'"),
    ("ddpg.critic_lr = 1e300\nddpg.warmup = 1\n",
     "NumericError: round 0: actor objective is not finite"),
    ("ddpg.gamma = 0.999999\nddpg.critic_lr = 1e150\nddpg.warmup = 1\n",
     "NumericError: round 1: critic loss is not finite"),
], ids=["fairness spread", "actor objective", "critic loss"])
def test_an_extreme_run_fails_typed_with_warnings_as_errors(tmp_path, overrides, error):
    # numpy overflows on the way to each non-finite value; the run reports
    # the value, typed, and no warning comes first or takes its place
    path = tmp_path / "exp.cfg"
    path.write_text(EXTREME_BASE + overrides)
    src = pathlib.Path(__file__).parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fedaa.cli", "run", "--config", str(path),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"fedaa: error: {error}"]


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_report_rejects_a_non_finite_cell(tmp_path, capsys, value):
    # a run never writes one, but a hand-edited file can; no chart is drawn
    path = tmp_path / "bad.csv"
    path.write_text(
        "round,reward,mean_benign_acc,acc_std,loss_std,mean_global_acc\n"
        f"0,0.5,0.6,0.1,0.2,0.3\n1,0.5,0.6,{value},0.2,0.3\n"
    )
    rep = tmp_path / "rep"
    assert cli.main(["report", "--input", str(path), "--out", str(rep)]) == 1
    err = capsys.readouterr().err
    assert f"fedaa: error: ConfigError: {path}: data row 2: non-finite acc_std '{value}'" in err
    assert not list(rep.glob("*.svg"))


def test_report_reads_quoted_cells_and_crlf(tmp_path):
    path = tmp_path / "results.csv"
    path.write_bytes(
        b'"round","reward","mean_benign_acc","mean_global_acc","acc_std","loss_std"\r\n'
        b'0,0.5,0.6,0.3,0.1,0.2\r\n\r\n1,"0.55",0.65,0.35,0.15,0.25\r\n'
    )
    assert cli._read_results_csv(str(path)) == [
        {"round": 0, "reward": 0.5, "mean_benign_acc": 0.6, "mean_global_acc": 0.3,
         "acc_std": 0.1, "loss_std": 0.2},
        {"round": 1, "reward": 0.55, "mean_benign_acc": 0.65, "mean_global_acc": 0.35,
         "acc_std": 0.15, "loss_std": 0.25},
    ]
    rep = tmp_path / "rep"
    assert cli.main(["report", "--input", str(path), "--out", str(rep)]) == 0
    assert sorted(p.name for p in rep.iterdir()) == ["curves.svg", "spread.svg"]


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert len(selftest.CHECKS) == 11
    assert out.splitlines() == [f"PASS {name}" for name, _ in selftest.CHECKS]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# `python -m fedaa.cli run`, then a matmul and the process's thread count
# and BLAS settings as one JSON line
RUN_THEN_COUNT_THREADS = """\
import json, os, runpy, sys
sys.argv = ["fedaa", "run", "--config", sys.argv[1], "--out", sys.argv[2]]
try:
    runpy.run_module("fedaa.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
import numpy as np
np.ones((256, 256)) @ np.ones((256, 256))
with open("/proc/self/status") as fh:
    threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(json.dumps({"threads": threads, "env": {k: os.environ.get(k) for k in %r}}))
""" % (BLAS_VARS,)


def run_counting_threads(cfg_path, out, **blas):
    """The thread count and BLAS settings of a ``fedaa run`` subprocess
    started with only the ``blas`` variables set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas)
    src = pathlib.Path(__file__).parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_THEN_COUNT_THREADS, cfg_path, str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_a_run_pins_one_blas_thread_unless_told_otherwise(cfg_path, tmp_path):
    got = run_counting_threads(cfg_path, tmp_path / "out")
    assert got == {"threads": 1, "env": dict.fromkeys(BLAS_VARS, "1")}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_a_run_keeps_the_blas_thread_count_it_was_given(cfg_path, tmp_path):
    got = run_counting_threads(cfg_path, tmp_path / "out", OPENBLAS_NUM_THREADS="2")
    assert got["env"] == dict(dict.fromkeys(BLAS_VARS, "1"), OPENBLAS_NUM_THREADS="2")


# `python -m fedaa.cli` with the given arguments, then the scipy modules
# the process loaded, and fedaa.reference if it did, as one JSON line
RUN_THEN_LIST_ORACLES = """\
import json, runpy, sys
sys.argv = ["fedaa", *sys.argv[1:]]
try:
    runpy.run_module("fedaa.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m == "fedaa.reference")))
"""


def oracle_modules(*argv):
    src = pathlib.Path(__file__).parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_THEN_LIST_ORACLES, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fedavg_runs_and_reports_load_no_scipy_spatial(tmp_path):
    # neither runs nor reports load scipy or fedaa.reference: fedavg
    # selects nothing, and fedaa measures its selections on numpy
    fedavg = tmp_path / "fedavg.cfg"
    fedavg.write_text("aggregator = fedavg\ndataset.num_clients = 6\n"
                      "dataset.samples_per_client = 20\nrounds = 2\nlocal.epochs = 1\n")
    out = tmp_path / "out"
    assert oracle_modules("run", "--config", str(fedavg), "--out", str(out)) == []
    assert oracle_modules(
        "report", "--input", str(out / "results.csv"), "--out", str(tmp_path / "rep")
    ) == []
    # fedaa selects over 20 uploads of 610 parameters
    fedaa = tmp_path / "fedaa.cfg"
    fedaa.write_text("dataset.num_clients = 20\ndataset.samples_per_client = 20\n"
                     "rounds = 2\nlocal.epochs = 1\n")
    assert oracle_modules("run", "--config", str(fedaa), "--out", str(tmp_path / "fedaa")) == []
    # the control: selftest checks selection against fedaa.reference's pdist
    assert {"fedaa.reference", "scipy.spatial.distance"} <= set(oracle_modules("selftest"))


IDX_CONFIG = "dataset = idx\ndataset.idx_images = {images}\ndataset.idx_labels = {labels}\n"
THREE_IMAGES = np.array([2051, 3, 2, 2], dtype=">u4").tobytes() + bytes(12)


# (files by name, arguments, error); "{name}" stands for the file's path
@pytest.mark.parametrize("files, argv, error", [
    ({"results": b""}, ["report", "--input", "{results}"],
     "ConfigError: {results}: empty results file"),
    ({"results": "round,reward,mean_benign_acc,mean_global_acc,acc_std,loss_std\n"},
     ["report", "--input", "{results}"], "ConfigError: {results}: no data rows"),
    ({"results": "round," + "9" * 131073 + "\n"}, ["report", "--input", "{results}"],
     "ConfigError: {results}: unreadable table: field larger than field limit (131072)"),
    ({"config": "rounds = 2\n"}, ["sweep", "--config", "{config}", "--vary", "local.lr=abc"],
     "ConfigError: --vary local.lr: not a number: 'abc'"),
    ({"table": "f0,label\n1.0,0\n2.0,-1\n0.5,1\n",
      "config": "dataset = csv\ndataset.csv_path = {table}\n"},
     ["run", "--config", "{config}"], "IngestionError: {table}: negative label"),
    ({"images": bytes(6), "labels": np.array([2049, 3], dtype=">u4").tobytes() + bytes(3),
      "config": IDX_CONFIG},
     ["run", "--config", "{config}"], "IngestionError: {images}: truncated at byte 6 (needed 16)"),
    ({"images": THREE_IMAGES, "labels": np.array([2049, 3], dtype=">u4").tobytes() + bytes(1),
      "config": IDX_CONFIG},
     ["run", "--config", "{config}"], "IngestionError: {labels}: truncated at byte 9 (needed 11)"),
], ids=["empty results", "header-only results", "oversized results cell", "vary not a number",
        "negative csv label", "truncated idx images", "truncated idx labels"])
def test_an_unusable_input_fails_typed(tmp_path, capsys, files, argv, error):
    paths = {name: str(tmp_path / name) for name in files}
    for name, content in files.items():
        if isinstance(content, str):
            content = content.format(**paths).encode()
        pathlib.Path(paths[name]).write_bytes(content)
    args = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"fedaa: error: {error.format(**paths)}\n"
