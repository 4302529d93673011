"""Outside-in span tracing of fedaa's module functions.

The tracer replaces a function at the name its caller resolves it by
(for example ``fedaa.orchestrator.select_clients``, which the round
loop looks up in its own module) with a wrapper that records a span.
Each span is labelled ``<defining module>.<function>`` and remembers
the span that was open when it started, so self times can be computed
afterwards. Nothing in the program changes; removing the tracer puts
the original functions back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field

# (module whose global the caller resolves, attribute name)
TARGETS = (
    ("fedaa.cli", "parse_config_values"),
    ("fedaa.cli", "build_config"),
    ("fedaa.cli", "run_experiment"),
    ("fedaa.cli", "emit_results"),
    ("fedaa.cli", "write_manifest"),
    ("fedaa.orchestrator", "build_experiment"),
    # the orchestrator calls these through its `datamod` alias of fedaa.data
    ("fedaa.data", "generate_synthetic"),
    ("fedaa.data", "extract_server_pool"),
    ("fedaa.orchestrator", "local_update"),
    ("fedaa.clients", "sgd_epoch"),
    ("fedaa.nn", "backward_ce"),
    ("fedaa.orchestrator", "select_clients"),
    ("fedaa.orchestrator", "act"),
    ("fedaa.orchestrator", "update_critic"),
    ("fedaa.orchestrator", "update_actor"),
    ("fedaa.orchestrator", "soft_update"),
    ("fedaa.orchestrator", "aggregate"),
    ("fedaa.orchestrator", "evaluate_reward"),
    ("fedaa.orchestrator", "evaluate_fairness"),
)


def label_of(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records (label, start, end, parent index) spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._open: list[int] = []

    def _wrap(self, fn):
        label = label_of(fn)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (label, start, end, open_[-1] if open_ else -1)

        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        patched = []
        try:
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        """Spans as JSON lines, times in microseconds from the first start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for label, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "name": label,
                    "start_us": round((start - origin) * 1e6, 3),
                    "dur_us": round((end - start) * 1e6, 3),
                    "parent": parent,
                }) + "\n")


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def summarize(spans) -> dict[str, LayerStats]:
    """Per-label call count, busy time, and self time.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for label, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, LayerStats] = {}
    for index, (label, start, end, _) in enumerate(spans):
        s = stats.setdefault(label, LayerStats())
        s.calls += 1
        s.busy_s += end - start
        s.self_s += end - start - child_time[index]
        s.durations.append(end - start)
    return stats


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
