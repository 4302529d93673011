"""Command line entry points: run, sweep, report, selftest."""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .cpus import quiet_fork, usable_cpus
from .errors import ConfigError, FedaaError
from .config import (
    ExperimentConfig,
    SCHEMA,
    build_config,
    config_hash,
    emit_config,
    parse_config_values,
    read_text,
)
from .orchestrator import run_experiment, subsystem_seeds
from .results import (
    RunManifest,
    emit_results,
    emit_sweep_table,
    records_to_rows,
    render_curves_svg,
    sweep_row,
    utc_now,
    write_manifest,
    write_text,
)


# (file, title, y label, ((legend, results column), ...)): the charts that
# `run --plot` and `report` draw, and the columns `report` reads
CHARTS = (
    (
        "curves.svg",
        "accuracy curves",
        "accuracy",
        (
            ("reward", "reward"),
            ("mean benign acc", "mean_benign_acc"),
            ("mean global acc", "mean_global_acc"),
        ),
    ),
    ("spread.svg", "client spread", "spread", (("acc std", "acc_std"), ("loss std", "loss_std"))),
)


def _plot_records(rows: list[dict], out_dir: str) -> list[str]:
    rounds = [float(r["round"]) for r in rows]
    paths = []
    for name, title, y_label, curves in CHARTS:
        series = [(legend, rounds, [r[col] for r in rows]) for legend, col in curves]
        path = os.path.join(out_dir, name)
        render_curves_svg(series, path, title=title, y_label=y_label)
        paths.append(path)
    return paths


def _make_out_dir(path: str) -> None:
    """Create the output directory; each command calls this before its
    work, so an --out that cannot be a directory fails before any run."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: {exc}") from None


def _artifact_paths(out_dir: str, *names: str) -> list[str]:
    """The paths of the files ``names`` in ``out_dir``, checked before
    any run: one that is a directory fails now. Other write failures
    surface as the file is written."""
    paths = [os.path.join(out_dir, name) for name in names]
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: is a directory")
    return paths


def _cmd_run(args: argparse.Namespace) -> int:
    values = parse_config_values(read_text(args.config, "config"))
    if args.seed is not None:
        try:
            values["seed"] = SCHEMA["seed"](args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    cfg = build_config(values)
    _make_out_dir(args.out)
    charts = [chart[0] for chart in CHARTS] if args.plot else []
    results_path, config_path, manifest_path, *_ = _artifact_paths(
        args.out, f"results.{args.format}", "config.txt", "manifest.json", *charts
    )
    started = utc_now()
    records = run_experiment(cfg)
    emit_results(records, results_path, args.format)
    write_text(config_path, emit_config(cfg))
    artifacts = [results_path, config_path]
    if args.plot:
        artifacts.extend(_plot_records(records_to_rows(records), args.out))
    manifest = RunManifest(
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        subsystem_seeds=subsystem_seeds(cfg.seed),
        started=started,
        finished=utc_now(),
        artifacts=sorted(artifacts),
        version=__import__("fedaa").__version__,
    )
    write_manifest(manifest, manifest_path)
    final = records[-1]
    print(
        f"run finished: {len(records)} rounds, final reward {final.reward:.4f}, "
        f"final mean benign acc {final.mean_benign_acc:.4f}"
    )
    print(f"artifacts in {args.out}")
    return 0


def _parse_vary(specs: list[str]) -> list[tuple[str, list[object]]]:
    axes = []
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"--vary expects KEY=V1,V2 (got {spec!r})")
        key, _, raw = spec.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"--vary: unknown key {key!r}")
        if key in dict(axes):
            raise ConfigError(f"--vary: key {key!r} given twice; list its values in one --vary")
        # ';' separates values when the values themselves contain commas
        parts = raw.split(";") if ";" in raw else raw.split(",")
        values = []
        for part in parts:
            try:
                values.append(SCHEMA[key](part.strip()))
            except ValueError as exc:
                raise ConfigError(f"--vary {key}: {exc}") from None
        axes.append((key, values))
    return axes


def _grid(axes: list[tuple[str, list[object]]]) -> list[dict[str, object]]:
    """The cells of the axes' cross product, the first axis outermost."""
    keys = [key for key, _ in axes]
    return [dict(zip(keys, point)) for point in itertools.product(*(v for _, v in axes))]


def _cell_name(index: int, cell: dict[str, object]) -> str:
    overrides = ", ".join(f"{key}={value}" for key, value in cell.items())
    return f"sweep cell {index} ({overrides or 'no overrides'})"


def _sweep_one(task: tuple[str, ExperimentConfig, dict[str, object]]) -> dict:
    name, cfg, cell = task
    t0 = time.perf_counter()
    try:
        records = run_experiment(cfg)
    except FedaaError as exc:
        raise type(exc)(f"{name}, seed {cfg.seed}: {exc}") from exc
    return sweep_row(cfg, records[-1], time.perf_counter() - t0, cell)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1 (got {args.seeds})")
    base = parse_config_values(read_text(args.config, "config"))
    axes = _parse_vary(args.vary or [])
    cells = _grid(axes)
    # cell by cell, then seed by seed: the order of the table's rows
    tasks = []
    for index, cell in enumerate(cells):
        values = {**base, **cell}
        # a cell's seeds start at its own seed, varied or not
        start = int(values.get("seed", 0))
        for seed in range(start, start + args.seeds):
            try:
                cfg = build_config({**values, "seed": seed})
            except ConfigError as exc:
                raise ConfigError(f"{_cell_name(index, cell)}: {exc}") from exc
            tasks.append((_cell_name(index, cell), cfg, cell))
    # a worker process per CPU where the runs fill every CPU (cpus.usable_cpus)
    cpus = usable_cpus()
    workers = cpus if len(tasks) >= cpus > 1 else 1
    _make_out_dir(args.out)
    (table_path,) = _artifact_paths(args.out, "sweep.csv")
    if workers > 1:
        # where the workers are forked, they are forked in this thread,
        # while the map submits its first task
        with quiet_fork(), ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(task) for task in tasks]
    emit_sweep_table([rows[lo : lo + args.seeds] for lo in range(0, len(rows), args.seeds)],
                     table_path)
    processes = f"{workers} processes" if workers > 1 else "1 process"
    print(f"swept {len(cells)} cells x {args.seeds} seeds on {processes} -> {table_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    rows = _read_results_csv(args.input)
    _make_out_dir(args.out)
    for path in _plot_records(rows, args.out):
        print(f"wrote {path}")
    return 0


def _read_results_csv(path: str) -> list[dict]:
    lines = [line for line in read_text(path, "results").split("\n") if line.strip()]
    reader = csv.DictReader(lines, restval="")  # a short row's missing cells are unreadable
    try:
        table = list(reader)
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise ConfigError(f"{path}: unreadable table: {exc}") from None
    if reader.fieldnames is None:
        raise ConfigError(f"{path}: empty results file")
    columns = [col for *_, curves in CHARTS for _, col in curves]
    missing = {"round", *columns} - set(reader.fieldnames)
    if missing:
        raise ConfigError(f"{path}: missing columns {sorted(missing)}")
    if not table:
        raise ConfigError(f"{path}: no data rows")
    rows = []
    for number, cells in enumerate(table, start=1):
        try:
            rows.append({"round": int(cells["round"]), **{c: float(cells[c]) for c in columns}})
        except ValueError as exc:
            raise ConfigError(f"{path}: data row {number}: unreadable cell {exc}") from None
        for col in columns:
            if not math.isfinite(rows[-1][col]):
                raise ConfigError(f"{path}: data row {number}: non-finite {col} {cells[col]!r}")
    return rows


def _cmd_selftest(_: argparse.Namespace) -> int:
    from .selftest import run_selftest  # loads fedaa.reference, which no other command needs

    failures = 0
    for name, passed, detail in run_selftest():
        if passed:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedaa",
        description="Deterministic simulator of robust federated averaging "
        "with a learned aggregation-weight policy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True, help="path to a key=value config file")
    p_run.add_argument("--seed", default=None, help="override the config seed")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--plot", action="store_true", help="also write SVG curves")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs over config overrides")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument(
        "--vary",
        action="append",
        metavar="KEY=V1,V2",
        help="axis of config overrides; repeatable; ';' separates values "
        "that contain commas",
    )
    p_sweep.add_argument("--seeds", type=int, default=1, help="seeds per grid cell")
    p_sweep.add_argument("--out", default="out")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_report = sub.add_parser("report", help="render SVG curves from a results CSV")
    p_report.add_argument("--input", required=True, help="results.csv from a run")
    p_report.add_argument("--out", default="out")
    p_report.set_defaults(fn=_cmd_report)

    p_self = sub.add_parser("selftest", help="fast internal consistency checks")
    p_self.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FedaaError as exc:
        print(f"fedaa: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
