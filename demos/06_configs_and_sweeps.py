"""Drive the simulator the way the command line does.

A run takes a flat key=value config and leaves behind a results table,
the canonical config text, and a manifest with the config hash and the
per-subsystem seeds. Reruns are byte-identical; sweeps fan a config out
over a grid and summarize one row per cell per seed.
"""

import json
import os
import pathlib
import tempfile

from fedaa import cli

workdir = tempfile.mkdtemp(prefix="fedaa-demo-")
cfg_path = os.path.join(workdir, "exp.cfg")
with open(cfg_path, "w") as fh:
    fh.write(
        "dataset = synthetic00\n"
        "dataset.num_clients = 8\n"
        "dataset.samples_per_client = 40\n"
        "rounds = 5\n"
        "m_percent = 50\n"
        "local.batch_size = 16\n"
        "local.epochs = 2\n"
        "ddpg.hidden = 32\n"
        "ddpg.warmup = 2\n"
        "ddpg.batch_size = 4\n"
    )

out_a = os.path.join(workdir, "run_a")
out_b = os.path.join(workdir, "run_b")
cli.main(["run", "--config", cfg_path, "--out", out_a, "--plot"])
cli.main(["run", "--config", cfg_path, "--out", out_b])

bytes_a = pathlib.Path(out_a, "results.csv").read_bytes()
bytes_b = pathlib.Path(out_b, "results.csv").read_bytes()
print(f"\nrerun byte-identical: {bytes_a == bytes_b}")

manifest = json.loads(pathlib.Path(out_a, "manifest.json").read_text())
print(f"config hash: {manifest['config_hash'][:16]}...")
print(f"subsystem seeds: {list(manifest['subsystem_seeds'])[:4]} ...")

sweep_out = os.path.join(workdir, "sweep")
cli.main(
    [
        "sweep", "--config", cfg_path, "--out", sweep_out,
        "--vary", "m_percent=50,100",
        "--seeds", "2",
    ]
)
print("\nsweep table:")
print(pathlib.Path(sweep_out, "sweep.csv").read_text())
print(f"artifacts under {workdir}")
