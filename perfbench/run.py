"""fedaa benchmark: full in-process `fedaa run` calls on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record

Run from the root of a source checkout; the program is imported from
`src/`. Each timed run goes through the real command path (parse the
config, run_experiment, write results.csv, config.txt and
manifest.json) and its results.csv digest is checked against the
reference in perfbench/reference.json. With --trace 0 the last line of
standard output holds the end-to-end metrics; with --trace 1 it holds
per-layer metrics from runs traced from outside the program. The line
before it holds the details: quartiles, sample counts, digests and the
machine. --smoke runs every workload for one round and checks the
benchmark itself; --record rewrites the reference digests for seeds
0..RECORD_SEEDS-1 and the held-out seed.
"""

import os

# pin BLAS threads before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
RECORD_SEEDS = 64  # reference digests are recorded for seeds 0..RECORD_SEEDS-1
HELD_OUT_SEED = 7919  # recorded, but not used while tuning the benchmark or a change

# build_experiment takes 10-60 ms, so set-up is timed over repeats, in a
# block before every run: the host's speed drifts over seconds, and
# spreading the samples over the whole measurement averages the drift
SETUP_BLOCK_SECONDS = 0.1


def load_program():
    """Import fedaa from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "fedaa", "__init__.py")):
        sys.exit(f"perfbench: no program at {SRC}/fedaa; run from the root of a fedaa checkout")
    sys.path.insert(0, SRC)
    import fedaa
    if not os.path.abspath(fedaa.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported fedaa from {fedaa.__file__}, not from {SRC}")


load_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from fedaa import cli, config, orchestrator  # noqa: E402

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    client_samples,
    computed_bytes,
    config_text,
    expected_counts,
    stress_met,
)


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def gate(path: str, expected: str) -> tuple[bool, str]:
    """Digest gate: the results file must hash to the expected digest."""
    digest = sha256_file(path)
    return digest == expected, digest


def reference_digest(workload: str, seed: int, config_sha256: str) -> str | None:
    """Recorded results.csv digest for this workload config, if any."""
    with open(REFERENCE, encoding="utf-8") as fh:
        entry = json.load(fh)["digests"].get(workload, {}).get(str(seed))
    if entry is None:
        return None
    if entry["config"] != config_sha256:
        raise RuntimeError(f"reference for {workload} seed {seed} was recorded for another config")
    return entry["results"]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q1, "median": q2, "p75": q3, "n": len(values)}


class Runner:
    """One workload at one seed: config file, output directory, run loop."""

    def __init__(self, name: str, seed: int, rounds: int | None, tag: str, use_reference: bool = True):
        self.workload = WORKLOADS[name]
        self.text = config_text(self.workload, seed, rounds)
        self.config_sha256 = hashlib.sha256(self.text.encode()).hexdigest()
        self.dir = os.path.join(WORK, f"{name}-s{seed}-{tag}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.cfg_path = os.path.join(self.dir, "config.cfg")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            fh.write(self.text)
        self.out = os.path.join(self.dir, "out")
        self.results_csv = os.path.join(self.out, "results.csv")
        self.cfg = config.parse_config(self.cfg_path)
        use_reference = use_reference and rounds is None
        self.expected = reference_digest(name, seed, self.config_sha256) if use_reference else None
        self.reference = "recorded" if self.expected else "first run of this invocation"
        self.digests: list[str] = []
        self.errors: list[str] = []

    def time_setup(self) -> list[float]:
        """orchestrator.build_experiment, repeated for one set-up block."""
        times: list[float] = []
        while sum(times) < SETUP_BLOCK_SECONDS:
            start = time.perf_counter()
            orchestrator.build_experiment(self.cfg)
            times.append(time.perf_counter() - start)
        return times

    def run(self) -> tuple[bool, float]:
        """One in-process `fedaa run`; returns (passed the gate, wall seconds)."""
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(["run", "--config", self.cfg_path, "--out", self.out])
        except Exception:  # a crash is a failed run, not a crashed benchmark
            self.errors.append(traceback.format_exc())
            return False, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if code != 0:
            self.errors.append(f"fedaa run exited with {code}")
            return False, elapsed
        try:
            if self.expected is None:
                self.expected = sha256_file(self.results_csv)
            ok, digest = gate(self.results_csv, self.expected)
        except OSError as exc:
            self.errors.append(f"cannot read results.csv: {exc}")
            return False, elapsed
        self.digests.append(digest)
        if not ok:
            self.errors.append(f"results.csv digest {digest} != {self.expected}")
        return ok, elapsed


def measure(name: str, seed: int, seconds: float, trace: bool, rounds: int | None = None):
    """Timed runs until `seconds` have passed (at least one of each kind).

    Returns (final result object, detail record).
    """
    runner = Runner(name, seed, rounds, "trace" if trace else "time")
    # warms up, and gives the sizes the exact counts are computed from; the
    # experiment is dropped before timing so that peak_rss_mb holds only
    # what build_experiment and the runs allocate
    exp = orchestrator.build_experiment(runner.cfg)
    samples, counts, computed = client_samples(exp), expected_counts(exp), computed_bytes(exp)
    del exp
    setup_times: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict] = []
    attempted = failed = 0
    tracer = None
    deadline = time.perf_counter() + seconds
    while not untraced or (trace and not traced) or time.perf_counter() < deadline:
        setup_times += runner.time_setup()
        use_trace = trace and len(traced) < len(untraced)
        if use_trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                ok, elapsed = runner.run()
            traced.append(elapsed)
            summaries.append(tracing.summarize(tracer.spans))
        else:
            ok, elapsed = runner.run()
            untraced.append(elapsed)
        attempted += 1
        failed += not ok

    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "config_sha256": runner.config_sha256,
        "results_sha256": sorted(set(runner.digests)),
        "reference": runner.reference,
        "run_s": quartiles(untraced),
        "setup_s": quartiles(setup_times),
        "environment": environment(),
        "errors": runner.errors[:3],
    }
    run_s = statistics.median(untraced)
    if trace:
        metrics, count_check = layer_metrics(summaries, traced, run_s, counts, computed)
        detail["exact_counts"] = count_check
        detail["exact_counts_match"] = all(c["measured"] == [c["expected"]] for c in count_check.values())
        detail["stress"] = {"expect": runner.workload.stress, "met": stress_met(runner.workload, metrics)}
        detail["traced_run_s"] = quartiles(traced)
        detail["computed_not_measured"] = sorted(computed)
        tracer.write(os.path.join(runner.dir, "spans.jsonl"))
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "run_s": run_s,
            "client_samples_per_s": samples / run_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_share": (attempted - failed) / attempted,
        }
        units = {"run_s": "s", "client_samples_per_s": "1/s", "setup_s": "s",
                 "peak_rss_mb": "MiB", "passed_share": "share"}
    detail["all_metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(os.path.join(runner.dir, "detail.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": declared(detail["all_metrics"], "per_layer" if trace else "end_to_end"),
    }
    return result, detail


def layer_metrics(summaries: list[dict], traced: list[float], untraced_median: float,
                  expected: dict[str, int], computed: dict[str, int]):
    """Per-layer metrics from traced runs: counts from the first run, times as
    medians over runs, per-call percentiles over the pooled spans."""
    empty = tracing.LayerStats()
    labels = [tracing.label_of(getattr(sys.modules[m], a)) for m, a in tracing.TARGETS]
    first = summaries[0]
    metrics: dict[str, float] = {}
    for label in labels:
        metrics[f"{label}.calls"] = first.get(label, empty).calls
        for attr in ("busy_s", "self_s"):
            metrics[f"{label}.{attr}"] = statistics.median(
                getattr(s.get(label, empty), attr) for s in summaries)
    steps = [d for s in summaries for d in s.get("nn.backward_ce", empty).durations]
    metrics["nn.backward_ce.p50_us"] = tracing.percentile(steps, 50) * 1e6 if steps else 0.0
    metrics["nn.backward_ce.p99_us"] = tracing.percentile(steps, 99) * 1e6 if steps else 0.0
    picks = [d for s in summaries for d in s.get("selection.select_clients", empty).durations]
    metrics["selection.select_clients.p50_ms"] = tracing.percentile(picks, 50) * 1e3 if picks else 0.0
    metrics.update(computed)
    metrics["trace.run_s"] = statistics.median(traced)
    metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.run_s"] / untraced_median - 1.0)
    # each traced run should make exactly the computed number of calls; a
    # mismatch is reported, not failed, since a change may restructure calls
    counts = {
        label: {"expected": want, "measured": sorted({s.get(label, empty).calls for s in summaries})}
        for label, want in expected.items()
    }
    return metrics, counts


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("bytes") or name.endswith("bytes_in"):
        return "bytes_computed"
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_ms", "ms"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


def declared(all_metrics: dict, kind: str) -> dict:
    """Exactly the metrics BENCHMARK.json declares for this kind, with its units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)[kind]
    out = {}
    for entry in spec:
        got = all_metrics.get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            raise RuntimeError(f"metric {entry['name']} [{entry['unit']}] not produced as declared: {got}")
        out[entry["name"]] = got
    return out


def smoke() -> int:
    """One-round run of every workload, traced and untraced: every declared
    metric is emitted with its unit, and the digest gate rejects an altered file."""
    failures = 0

    def check(label: str, passed: bool) -> None:
        nonlocal failures
        failures += not passed
        print(f"{'PASS' if passed else 'FAIL'} {label}")

    for name in WORKLOADS:
        for trace in (False, True):
            try:
                result, detail = measure(name, 0, 0.0, trace, rounds=1)
            except RuntimeError as exc:
                check(f"{name} trace={int(trace)}: {exc}", False)
                continue
            check(f"{name} trace={int(trace)}: {len(result['metrics'])} declared metrics with units", True)
            check(f"{name} trace={int(trace)}: runs pass the digest gate", result["correct"])
            if trace:
                check(f"{name}: traced call counts equal the computed counts", detail["exact_counts_match"])
        results_csv = os.path.join(WORK, f"{name}-s0-trace", "out", "results.csv")
        digest = sha256_file(results_csv)
        altered = results_csv + ".altered"
        with open(results_csv, encoding="utf-8") as fh:
            text = fh.read()
        with open(altered, "w", encoding="utf-8") as fh:
            fh.write(text.replace("0.", "1.", 1))
        check(f"{name}: gate accepts the run's own results", gate(results_csv, digest)[0])
        check(f"{name}: gate rejects an altered results file", not gate(altered, digest)[0])
    return 1 if failures else 0


def record() -> int:
    """Record reference digests for seeds 0..RECORD_SEEDS-1 and the held-out seed."""
    digests: dict[str, dict[str, dict[str, str]]] = {}
    for name in WORKLOADS:
        digests[name] = {}
        for seed in [*range(RECORD_SEEDS), HELD_OUT_SEED]:
            runner = Runner(name, seed, None, "record", use_reference=False)
            ok, _ = runner.run()
            if not ok:
                print(f"{name} seed {seed}: {runner.errors}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = {
                "config": runner.config_sha256,
                "results": runner.digests[-1],
            }
            print(f"{name} seed {seed}: {runner.digests[-1]}", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"held_out_seed": HELD_OUT_SEED, "digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one-round self-check of every workload")
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite reference digests for seeds 0..{RECORD_SEEDS - 1} and the held-out seed")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
