"""The benchmark's recorded results.csv digests, checked on two seeds,
and through a training pool's child; ``pytest -m digests`` checks every
recorded seed.

A change to the selection kernels, the pool (or anything else on the
run path) that moves a result fails here, not only in the benchmark's
own gate.
The test reads perfbench/workloads.py and perfbench/reference.json and
writes nothing under perfbench/.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from fedaa import cli, orchestrator

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def run_digest(workloads, tmp_path, name, seed):
    """The recorded results digest of the workload at ``seed``, and that of
    a ``fedaa run`` of its config."""
    recorded = json.loads((PERFBENCH / "reference.json").read_text())["digests"][name][str(seed)]
    text = workloads.config_text(workloads.WORKLOADS[name], seed)
    assert hashlib.sha256(text.encode()).hexdigest() == recorded["config"]
    cfg_path = tmp_path / "config.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return recorded["results"], hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()


def recorded_runs():
    digests = json.loads((PERFBENCH / "reference.json").read_text())["digests"]
    return [(name, int(seed)) for name, seeds in digests.items() for seed in seeds]


# every recorded (workload, seed); deselected by default (pyproject.toml),
# as it takes about a minute
@pytest.mark.digests
@pytest.mark.parametrize("name, seed", recorded_runs())
def test_every_recorded_digest_reproduces(workloads, tmp_path, name, seed):
    recorded, got = run_digest(workloads, tmp_path, name, seed)
    assert got == recorded


# server_heavy's selections take the Gram route, signflip_logistic's pdist
@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize("name", ["server_heavy", "signflip_logistic"])
def test_a_run_reproduces_the_recorded_digest(workloads, tmp_path, name, seed):
    recorded, got = run_digest(workloads, tmp_path, name, seed)
    assert got == recorded


# on two usable CPUs these two workloads train their rounds on a pool of
# two processes, whatever the host has
@pytest.mark.parametrize("name, seed", [
    ("signflip_logistic", 0), ("signflip_logistic", 7919), ("mlp_fedavg_clean", 0),
])
def test_a_run_on_a_pool_reproduces_the_recorded_digest(
    workloads, tmp_path, monkeypatch, counted_forks, name, seed
):
    monkeypatch.setattr(orchestrator, "usable_cpus", lambda: 2)
    recorded, got = run_digest(workloads, tmp_path, name, seed)
    assert len(counted_forks) == 1
    assert got == recorded
