"""Code outside the package that calls into it: the demos and the benchmark."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import numpy as np

import fedaa
from fedaa import cli, clients, config, data, orchestrator

ROOT = pathlib.Path(__file__).parents[1]
# demo 05 is left out: it takes ~10 s on the sign-flip path that the
# acceptance trend tests already run
DEMOS = (
    "01_gradient_check.py",
    "02_synthetic_federation.py",
    "03_client_selection.py",
    "04_policy_bandit.py",
    "06_configs_and_sweeps.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def load_perfbench(name, monkeypatch):
    """Import perfbench/<name>.py under a private module name, read-only."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_resolve(monkeypatch):
    # perfbench/ is read, never edited: its tracer patches these names
    tracing = load_perfbench("tracing", monkeypatch)
    for module_name, attr in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )
    # what perfbench/run.py and perfbench/workloads.py call directly
    for fn in (
        config.parse_config,
        cli.main,
        orchestrator.build_experiment,
        fedaa.lognormal_sizes,
        fedaa.stream,
    ):
        assert callable(fn)


def test_benchmark_trains_the_clients_the_program_trains(monkeypatch):
    # client_samples_per_s counts the samples of the clients that
    # perfbench/workloads.trains says train; a new attack kind that trains
    # must not skew it silently
    workloads = load_perfbench("workloads", monkeypatch)
    split = data.LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), 2)
    benign = clients.ClientRecord(0, None, split, split)
    attackers = [
        clients.ClientRecord(1, clients.AttackSpec(kind), split, split)
        for kind in clients.ATTACKS
    ]
    for client in (benign, *attackers):
        assert workloads.trains(client) == clients.trains(client), client.attack


def test_benchmark_reads_the_built_experiment(monkeypatch):
    # perfbench/workloads.py computes its exact counts, sample counts and
    # byte counts from build_experiment's result; a reshaped Experiment or
    # ClientRecord must fail here, not only in a benchmark run
    workloads = load_perfbench("workloads", monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        exp = orchestrator.build_experiment(
            config.parse_config_text(workloads.config_text(workload, seed=0))
        )
        trainers = [c for c in exp.clients if clients.trains(c)]
        counts = workloads.expected_counts(exp)
        assert counts["clients.local_update"] == exp.cfg.rounds * len(exp.clients), name
        samples = workloads.client_samples(exp)
        assert samples == exp.cfg.rounds * exp.cfg.local.epochs * sum(len(c.train) for c in trainers)
        sizes = workloads.computed_bytes(exp)
        assert sizes["clients.upload_bytes"] == exp.cfg.rounds * exp.local_models.nbytes, name
