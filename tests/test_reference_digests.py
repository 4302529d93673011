"""Recorded results.csv digests.

The benchmark's, checked on two seeds and through a training pool's
child; ``pytest -m digests`` checks every recorded seed. These tests
read perfbench/workloads.py and perfbench/reference.json and write
nothing under perfbench/.

And those of small configs that the benchmark does not run: the other
dataset kinds, the file loaders, attacks and options.

A change to the selection kernels, the pool, the data layer (or anything
else on the run path) that moves a result fails here, not only in the
benchmark's own gate.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
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


# server_heavy's selections take the Gram route, signflip_logistic's the numpy one
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


def small_configs(tmp_path):
    """Config texts of 3 rounds of 2 local epochs, over what the benchmark
    leaves out. The csv and idx files are written here: 300 rows of 3
    classes, the csv's features in ``%.6f``."""
    rng = np.random.default_rng(24)
    labels = np.arange(300) % 3
    table = np.column_stack([rng.normal(size=(300, 4)) + labels[:, None], labels])
    csv = tmp_path / "table.csv"
    np.savetxt(csv, table, fmt=["%.6f"] * 4 + ["%d"], delimiter=",",
               header="a,b,c,d,label", comments="")
    images, image_labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(np.array([2051, 300, 3, 3], dtype=">u4").tobytes()
                       + rng.integers(0, 256, size=(300, 3, 3)).astype(np.uint8).tobytes())
    image_labels.write_bytes(np.array([2049, 300], dtype=">u4").tobytes()
                             + labels.astype(np.uint8).tobytes())
    few = "dataset.num_clients = 6\ndataset.samples_per_client = 25\n"
    texts = {
        "lognormal": "dataset.num_clients = 8\n",
        "synthetic": "dataset = synthetic\ndataset.alpha = 0.5\ndataset.beta = 1.5\n"
                     "dataset.num_clients = 6\ndataset.samples_per_client = 30\n",
        "synthetic11 sizes": "dataset = synthetic11\ndataset.num_clients = 4\n"
                             "dataset.samples_per_client = 20,35,50,65\n",
        "dirichlet": "dataset = synthetic_dirichlet\ndataset.num_clients = 8\n"
                     "dataset.total_samples = 8000\n",
        "dirichlet counts": "dataset = synthetic_dirichlet\ndataset.num_clients = 5\n"
                            "dataset.total_samples = 600\n"
                            "validation.per_class = 5,8,3,6,4,7,5,9,2,6\n",
        "csv": f"dataset = csv\ndataset.csv_path = {csv}\ndataset.num_clients = 5\n"
               "validation.per_class = 20\n",
        "idx": f"dataset = idx\ndataset.idx_images = {images}\ndataset.idx_labels = {image_labels}\n"
               "dataset.num_clients = 5\nvalidation.per_class = 10,20,15\n",
        "gaussian": "dataset.num_clients = 8\ndataset.samples_per_client = 25\n"
                    "participation_ratio = 0.75\nmalicious_fraction = 0.25\nattack = gaussian\n",
        "same_value mlp": few + "model.hidden = 8\ndistance_scope = last_hidden_layer\n"
                               "malicious_fraction = 0.34\nattack = same_value\n",
        "ipm fedavg": few + "aggregator = fedavg\nmalicious_fraction = 0.34\nattack = ipm\n",
        "sign_flip warmup": few + "malicious_fraction = 0.34\nattack = sign_flip\nddpg.warmup = 1\n",
    }
    return {name: "rounds = 3\nlocal.epochs = 2\n" + text for name, text in texts.items()}


SMALL_DIGESTS = {
    "lognormal": "3886df06aa28620e964d19fbb55e6c178d2a87ac6d0fa573aa04a2f6f18c1edf",
    "synthetic": "8b252c63dc6120cf2c0aa0ebcc03fb2072e1aa4d222f0aacfc2addcac8215314",
    "synthetic11 sizes": "a93d23f264e5d352c079c36e60a6e6f978d6029dad909657ef46d0ddc4d26c56",
    "dirichlet": "59c3ddf834115b34479168add5e0e19ad3ea2e7597811aff7d2314d4d80b17d3",
    "dirichlet counts": "efca601b2f8ad78034321b933060626493b0c1d30ce6ab5ee2785c4e32c5e430",
    "csv": "bfabf614ae0d2960050528c760fec22e960db6d52da8646b0c4658f2f7894593",
    "idx": "3f528f9682ccc78f16da9d0782f37aa64010e59383d56effb2acf237831dead3",
    "gaussian": "a0857435e992480ce401bb7c81b18d43d66376a6fe09b3dfbec78eb981e1eade",
    "same_value mlp": "ae77cdd13fd379bac64f8b5e3fd171129a34f08506f8c0c675579fc374942578",
    "ipm fedavg": "d1ae6b66ebf8ce382df2e4d479056628382219b5923b1d811394fa5ccc5f9a55",
    "sign_flip warmup": "c0b0241dd1b16522c14522233dc8511d1ce566568f86ec65cded6a347b96ad1f",
}


@pytest.mark.parametrize("name", list(SMALL_DIGESTS))
def test_a_small_config_reproduces_its_recorded_digest(tmp_path, name):
    cfg_path = tmp_path / "config.cfg"
    cfg_path.write_text(small_configs(tmp_path)[name], encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "results.csv").read_bytes()).hexdigest() == SMALL_DIGESTS[name]
