"""Result serialization: per-round tables, sweep tables, manifests, plots.

Float cells are rounded to 6 significant digits before writing, so a
rerun under the same config and seed reproduces the files byte for
byte. List-valued cells join with '|' in CSV and stay lists in JSON.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .orchestrator import RoundRecord

ROUND_COLUMNS = tuple(f.name for f in fields(RoundRecord))
_COLUMN_TYPES = get_type_hints(RoundRecord)

SWEEP_COLUMNS = (
    "method",
    "dataset",
    "attack",
    "malicious_pct",
    "m_pct",
    "c_pct",
    "seed",
    "mean_acc",
    "acc_std",
    "acc_var",
    "runtime_seconds",
)


def sig6(x: float) -> float:
    """Round to 6 significant digits (stable text round trip)."""
    return float(f"{float(x):.6g}")


def _value(kind, value):
    """One cell by its RoundRecord type: ints stay ints, floats are rounded."""
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        return [_value(item, v) for v in value]
    if kind is int:
        return int(value)
    return sig6(value)


def records_to_rows(records: list[RoundRecord]) -> list[dict]:
    """Round records as plain dicts with rounded floats (a RoundRecord
    holds only finite values)."""
    return [
        {col: _value(_COLUMN_TYPES[col], getattr(rec, col)) for col in ROUND_COLUMNS}
        for rec in records
    ]


def _cell(value) -> str:
    if isinstance(value, list):
        return "|".join(_cell(v) for v in value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_results(records: list[RoundRecord], path: str, fmt: str = "csv") -> None:
    """Write per-round results as CSV (header + one line per round) or JSON."""
    rows = records_to_rows(records)
    if fmt == "csv":
        lines = [",".join(ROUND_COLUMNS)]
        for row in rows:
            lines.append(",".join(_cell(row[col]) for col in ROUND_COLUMNS))
        text = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    elif fmt == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown results format: {fmt!r}")


def emit_sweep_table(rows: list[dict], path: str) -> None:
    """Sweep summary CSV; one row per grid cell per seed, plus seed-mean rows."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(row[col]) for col in SWEEP_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    subsystem_seeds: dict[str, int]
    started: str
    finished: str
    artifacts: list[str]
    version: str


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(manifest: RunManifest, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(manifest), fh, indent=2)
        fh.write("\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_curves_svg(
    series: list[tuple[str, list[float], list[float]]],
    path: str,
    title: str = "",
    x_label: str = "round",
    y_label: str = "",
    width: int = 720,
    height: int = 440,
) -> None:
    """Minimal line-chart SVG: axes, ticks, legend, one polyline per series."""
    if not series:
        raise ConfigError("need at least one series to plot")
    margin_l, margin_r, margin_t, margin_b = 64, 24, 36, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ConfigError("series hold no points")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    def px(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return margin_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    axis = 'stroke="#333" stroke-width="1"'
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" {axis}/>'
    )
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" '
        f'x2="{margin_l + plot_w}" y2="{margin_t + plot_h}" {axis}/>'
    )
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{margin_t + plot_h}" x2="{x:.1f}" '
                     f'y2="{margin_t + plot_h + 5}" {axis}/>')
        parts.append(
            f'<text x="{x:.1f}" y="{margin_t + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.4g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{margin_l - 5}" y1="{y:.1f}" x2="{margin_l}" '
                     f'y2="{y:.1f}" {axis}/>')
        parts.append(
            f'<text x="{margin_l - 9}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.4g}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">{y_label}</text>'
    )
    for index, (label, xs, ys) in enumerate(series):
        if len(xs) != len(ys):
            raise ConfigError(f"series {label!r}: {len(xs)} x values, {len(ys)} y values")
        color = _PALETTE[index % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{points}"/>'
        )
        ly = margin_t + 14 + 16 * index
        lx = margin_l + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
