"""Code outside the package that calls into it: the demos and the benchmark."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import fedaa
from fedaa import cli, config, orchestrator

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


def test_benchmark_names_resolve(monkeypatch):
    # perfbench/ is read, never edited: its tracer patches these names
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
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
