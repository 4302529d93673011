"""Command line entry points: run, sweep, report, selftest."""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .errors import ConfigError, FedaaError
from .config import (
    ExperimentConfig,
    SCHEMA,
    build_config,
    config_hash,
    emit_config,
    parse_config_values,
    read_config_text,
)
from .orchestrator import run_experiment, subsystem_seeds
from .results import (
    RunManifest,
    emit_results,
    emit_sweep_table,
    records_to_rows,
    render_curves_svg,
    sig6,
    utc_now,
    write_manifest,
)
from .selection import one_band_per_process
from .selftest import run_selftest


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
    work, so an unusable --out fails at once and costs none."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    values = parse_config_values(read_config_text(args.config))
    if args.seed is not None:
        try:
            values["seed"] = SCHEMA["seed"](args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    cfg = build_config(values)
    _make_out_dir(args.out)
    started = utc_now()
    records = run_experiment(cfg)
    results_path = os.path.join(args.out, f"results.{args.format}")
    emit_results(records, results_path, args.format)
    config_path = os.path.join(args.out, "config.txt")
    with open(config_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(emit_config(cfg))
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
    manifest_path = os.path.join(args.out, "manifest.json")
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
        # ';' separates values when the values themselves contain commas
        parts = raw.split(";") if ";" in raw else raw.split(",")
        values = []
        for part in parts:
            try:
                values.append(SCHEMA[key](part.strip()))
            except ValueError as exc:
                raise ConfigError(f"--vary {key}: {exc}") from None
        if not values:
            raise ConfigError(f"--vary {key}: no values given")
        axes.append((key, values))
    return axes


def _grid(axes: list[tuple[str, list[object]]]) -> list[dict[str, object]]:
    cells: list[dict[str, object]] = [{}]
    for key, values in axes:
        cells = [{**cell, key: value} for cell in cells for value in values]
    return cells


def _sweep_one(task: tuple[int, int, ExperimentConfig]) -> tuple[int, int, dict]:
    cell_index, seed, cfg = task
    t0 = time.perf_counter()
    records = run_experiment(cfg)
    runtime = time.perf_counter() - t0
    final = records[-1]
    row = {
        "method": cfg.aggregator,
        "dataset": cfg.dataset.kind,
        "attack": cfg.attack.kind if cfg.attack else "none",
        "malicious_pct": sig6(100.0 * cfg.malicious_fraction),
        "m_pct": sig6(cfg.m_percent),
        "c_pct": sig6(100.0 * cfg.participation_ratio),
        "seed": seed,
        "mean_acc": sig6(final.mean_benign_acc),
        "acc_std": sig6(final.acc_std),
        "acc_var": sig6(final.acc_var),
        "runtime_seconds": sig6(runtime),
    }
    return cell_index, seed, row


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1 (got {args.seeds})")
    base = parse_config_values(read_config_text(args.config))
    axes = _parse_vary(args.vary or [])
    cells = _grid(axes)
    tasks = []
    for index, cell in enumerate(cells):
        values = {**base, **cell}
        # a cell's seeds start at its own seed, varied or not
        start = int(values.get("seed", 0))
        for seed in range(start, start + args.seeds):
            try:
                cfg = build_config({**values, "seed": seed})
            except ConfigError as exc:
                overrides = ", ".join(f"{key}={value}" for key, value in cell.items())
                raise ConfigError(
                    f"sweep cell {index} ({overrides or 'no overrides'}): {exc}"
                ) from exc
            tasks.append((index, seed, cfg))
    threads = os.environ.get("FEDAA_THREADS", "1")
    if not threads.isdecimal() or int(threads) < 1:
        raise ConfigError(f"FEDAA_THREADS must be an integer >= 1 (got {threads!r})")
    workers = int(threads)
    _make_out_dir(args.out)
    if workers > 1 and len(tasks) > 1:
        # the workers already share the CPUs, so each selects on one band
        with ProcessPoolExecutor(max_workers=workers, initializer=one_band_per_process) as pool:
            outcomes = list(pool.map(_sweep_one, tasks))
    else:
        outcomes = [_sweep_one(task) for task in tasks]
    by_cell: dict[int, list[dict]] = {}
    for cell_index, _, row in sorted(outcomes, key=lambda o: (o[0], o[1])):
        by_cell.setdefault(cell_index, []).append(row)
    rows: list[dict] = []
    for cell_index in sorted(by_cell):
        group = by_cell[cell_index]
        rows.extend(group)
        if len(group) > 1:
            mean_row = dict(group[0])
            mean_row["seed"] = "mean"
            for col in ("mean_acc", "acc_std", "acc_var", "runtime_seconds"):
                mean_row[col] = sig6(sum(r[col] for r in group) / len(group))
            rows.append(mean_row)
    table_path = os.path.join(args.out, "sweep.csv")
    emit_sweep_table(rows, table_path)
    print(f"swept {len(cells)} cells x {args.seeds} seeds -> {table_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    rows = _read_results_csv(args.input)
    _make_out_dir(args.out)
    for path in _plot_records(rows, args.out):
        print(f"wrote {path}")
    return 0


def _read_results_csv(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read results {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"{path}: empty results file")
    header = lines[0].split(",")
    columns = [col for *_, curves in CHARTS for _, col in curves]
    missing = {"round", *columns} - set(header)
    if missing:
        raise ConfigError(f"{path}: missing columns {sorted(missing)}")
    if len(lines) == 1:
        raise ConfigError(f"{path}: no data rows")
    rows = []
    for number, line in enumerate(lines[1:], start=1):
        cells = dict(zip(header, line.split(",")))
        try:
            rows.append({"round": int(cells["round"]), **{c: float(cells[c]) for c in columns}})
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path}: data row {number}: unreadable cell {exc}") from None
    return rows


def _cmd_selftest(_: argparse.Namespace) -> int:
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
