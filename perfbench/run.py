"""Seeded benchmark of vbisnr, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload measure-cli --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with nothing attached, scales each time
to a reference speed (speed.py) and reports the end-to-end metrics;
``--trace 1`` runs the same path in-process with spans
and counters around every public vbisnr call and reports the per-layer
metrics. Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check and the count self-check
passed. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import procs
import spans
import speed

WORK_DIR = ".perfbench-work"
IMPORT_MARKER = "perfbench: import starts"
IMPORT_REPS = 3
FLOOR_REPS = 5
# A reference probe is taken after the op that ends this many seconds after
# the last probe: after every CLI call, after about 50 monitor-lib steps.
PROBE_EVERY_S = 0.5

# Per-layer metrics are reported per op (set-up metrics per set-up); a
# layer a workload does not reach reads 0. Their names and units, like those
# of the end-to-end metrics, are listed in BENCHMARK.json.

# Per-layer times: metric -> (span name, self time instead of inclusive).
LAYER_TIMES = {
    "cli.main_self_s": ("cli.main", True),
    "capture.read_capture_s": ("capture.read_capture", False),
    "capture.extract_vbi_lines_s": ("capture.extract_vbi_lines", False),
    "scan.scan_self_s": ("scan.scan", True),
    "scan.render_report_s": ("scan.render_report", False),
    "measure.accumulate_raw_s": ("measure.accumulate_raw", True),
    "measure.accumulate_filtered_s": ("measure.accumulate_filtered", True),
    "dsp.design_lowpass_s": ("dsp.design_lowpass", False),
    "dsp.apply_filter_s": ("dsp.apply_filter", False),
}
COUNTS = (
    "capture.read_capture_calls", "capture.bytes_read", "capture.samples_decoded",
    "capture.lines_extracted", "capture.window_samples", "scan.resident_capture_bytes",
    "scan.rows_measured", "scan.rows_skipped", "scan.rows_no_capture",
    "measure.accumulate_calls", "measure.samples_pooled", "dsp.design_lowpass_calls",
    "dsp.apply_filter_calls", "dsp.filter_macs",
)


@dataclasses.dataclass
class Cycle:
    """One traced cycle: its wall time, span times and counts."""

    wall_s: float
    times: spans.SpanTimes
    counts: dict
    taps: frozenset


class Failures:
    """Ops attempted and the reasons of those that failed their check."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.reasons.append(reason)


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    memory_mb = None
    with contextlib.suppress(OSError, ValueError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                memory_mb = int(line.split()[1]) // 1024
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "memory_mb": memory_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest of p90/p99/p99.9 with at least ten
    samples beyond it, by nearest rank; None when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            rank = max(1, -(-n * p // 100))  # ceil(n * p / 100)
            return p, ordered[int(rank) - 1]
    return None


def timed_run(workload, seconds: float, failures: Failures) -> dict:
    """End-to-end metrics, with every time scaled to the reference speed."""
    setup = speed.Scaler()
    for _ in range(workload.setup_reps):
        setup.add(workload.set_up())
    setup.flush()
    # One untimed cycle first, so page cache and compiled bytecode are warm.
    for op in range(workload.ops_per_cycle):
        workload.run(op)

    ops = speed.Scaler(every_s=PROBE_EVERY_S)
    peak_mb = 0.0
    op = 0
    start = time.perf_counter()
    while True:
        result = workload.run(op)
        failures.record(result.failure)
        ops.add(result.wall_s, result.cpu_s)
        peak_mb = max(peak_mb, result.maxrss_mb)
        op += 1
        if op % workload.ops_per_cycle == 0 and time.perf_counter() - start >= seconds:
            break
    ops.flush()

    latencies = [wall for wall, _ in ops.scaled]
    tail = tail_percentile(latencies)
    if tail is None:
        print(f"latency_tail_s omitted: {op} samples, fewer than the 100 that p90 needs")
    else:
        print(f"latency_tail_s {tail[1]!r} s (p{tail[0]:g}, {op} samples)")
    print("setup runs (raw s): " + " ".join(f"{t:.4f}" for t, in setup.raw))
    print(f"raw medians: setup_s {statistics.median(t for t, in setup.raw):.6g} s, "
          f"latency_p50_s {statistics.median(w for w, _ in ops.raw):.6g} s, "
          f"cpu_s_per_op {statistics.median(c for _, c in ops.raw):.6g} s")
    probes = setup.probes + ops.probes
    print(f"reference probes: {len(probes)}, median {statistics.median(probes) * 1e3:.3f} ms, "
          f"range {min(probes) * 1e3:.3f}-{max(probes) * 1e3:.3f} ms "
          f"(scaled to {speed.REF_S * 1e3:g} ms)")
    return {
        "setup_s": statistics.median(t for t, in setup.scaled),
        "latency_p50_s": statistics.median(latencies),
        "ops_per_s": op / sum(latencies),
        "cpu_s_per_op": statistics.median(cpu for _, cpu in ops.scaled),
        "peak_rss_mb": peak_mb,
    }


def import_breakdown(ctx: procs.Context) -> dict:
    """Import of vbisnr.cli in fresh interpreters, and the bare start-up."""
    wall, scipy_s, numpy_s = [], [], []
    for _ in range(IMPORT_REPS):
        seconds, stderr = ctx.time_import("vbisnr.cli", importtime=True,
                                          marker=IMPORT_MARKER + "\n")
        owners = spans.parse_importtime(stderr, IMPORT_MARKER)
        wall.append(seconds)
        scipy_s.append(owners["scipy"])
        numpy_s.append(owners["numpy"])
    floor = [ctx.run([sys.executable, "-c", "pass"]).wall_s for _ in range(FLOOR_REPS)]
    return {
        "cli.import_s": statistics.median(wall),
        "cli.import_scipy_s": statistics.median(scipy_s),
        "cli.import_numpy_s": statistics.median(numpy_s),
        "cli.interpreter_floor_s": statistics.median(floor),
    }


def in_process_cycle(workload, first_op: int, failures: Failures, tracer=None) -> None:
    """One cycle of the workload's path in this process; with a tracer,
    each op is an ``op`` span."""
    for op in range(first_op, first_op + workload.ops_per_cycle):
        with tracer.span("op") if tracer else contextlib.nullcontext():
            failures.record(workload.run_in_process(op))


def traced_run(workload, ctx: procs.Context, seconds: float,
               failures: Failures) -> tuple[dict, list[str]]:
    """Per-layer metrics, and the reasons the count self-check failed."""
    tracer = spans.Tracer()
    setups = []
    with spans.installed(tracer):
        for _ in range(workload.setup_reps):
            tracer.reset()
            workload.set_up()
            inclusive = spans.span_times(tracer.spans).inclusive
            setups.append((inclusive["synth.synthesize"], inclusive["capture.write_capture"],
                           tracer.counts["synth.samples_generated"]))
    metrics = import_breakdown(ctx)
    metrics["synth.synthesize_s"] = statistics.median(s[0] for s in setups)
    metrics["capture.write_capture_s"] = statistics.median(s[1] for s in setups)
    metrics["synth.samples_generated"] = setups[-1][2]
    problems = []
    if len({s[2] for s in setups}) != 1:
        problems.append("synth.samples_generated differs between set-ups")

    # Traced and untraced cycles alternate; the difference of their median
    # wall times is the cost of the spans.
    traced, untraced = [], []
    in_process_cycle(workload, 0, failures)  # untimed, to warm caches
    op = workload.ops_per_cycle
    start = time.perf_counter()
    while len(traced) < 2 or not untraced or time.perf_counter() - start < seconds:
        trace_this = len(traced) <= len(untraced)
        tracer.reset()
        with spans.installed(tracer) if trace_this else contextlib.nullcontext():
            t0 = time.perf_counter()
            in_process_cycle(workload, op, failures, tracer if trace_this else None)
            wall = time.perf_counter() - t0
        op += workload.ops_per_cycle
        if trace_this:
            traced.append(Cycle(wall, spans.span_times(tracer.spans),
                                {k: tracer.counts[k] for k in COUNTS}, frozenset(tracer.taps)))
        else:
            untraced.append(wall)

    per_op = 1.0 / workload.ops_per_cycle
    for metric, (name, use_self) in LAYER_TIMES.items():
        metrics[metric] = per_op * statistics.median(
            (c.times.self_s if use_self else c.times.inclusive)[name] for c in traced)
    first = traced[0]
    for other in traced[1:]:
        for key in COUNTS:
            if other.counts[key] != first.counts[key]:
                problems.append(f"{key} is {other.counts[key]} in one cycle "
                                f"and {first.counts[key]} in another")
        if other.taps != first.taps:
            problems.append(f"filter taps {sorted(other.taps)} differ from {sorted(first.taps)}")
    if len(first.taps) > 1:
        problems.append(f"filters of different lengths in one cycle: {sorted(first.taps)}")
    for key in COUNTS:
        if key != "capture.window_samples":
            metrics[key] = first.counts[key] * per_op
    metrics["dsp.taps"] = max(first.taps, default=0)
    decoded = first.counts["capture.samples_decoded"]
    metrics["capture.useful_sample_ratio"] = (
        first.counts["capture.window_samples"] / decoded if decoded else 0.0)
    metrics["trace.overhead_s"] = per_op * (
        statistics.median(c.wall_s for c in traced) - statistics.median(untraced))
    # The share of op time spent inside a named layer. The rest is the self
    # time of the entry point: the op span itself and, on the CLI path,
    # cli.main's own work (argument parsing, JSON output).
    metrics["trace.coverage"] = statistics.median(
        1.0 - (c.times.self_s["op"] + c.times.self_s["cli.main"]) / c.times.inclusive["op"]
        for c in traced)

    print(f"traced cycles {len(traced)}, untraced cycles {len(untraced)}, "
          f"{workload.ops_per_cycle} op(s) per cycle")
    print("stage                           calls/op  ms/call (median)  self ms/op (median)")
    for name in sorted({name for c in traced for name in c.times.calls}):
        calls = len(first.times.calls[name]) * per_op
        per_call = statistics.median(d for c in traced for d in c.times.calls[name])
        self_per_op = per_op * statistics.median(c.times.self_s[name] for c in traced)
        print(f"{name:<30} {calls:>9g} {per_call * 1e3:>17.3f} {self_per_op * 1e3:>20.3f}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "vbisnr" / "__init__.py").is_file():
        print(f"perfbench: no vbisnr sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import vbisnr

    if not Path(vbisnr.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported vbisnr from {vbisnr.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ctx = procs.Context(root, root / WORK_DIR)
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir()
    failures = Failures()
    try:
        print("machine " + json.dumps(machine_info()))
        workload = workloads.WORKLOADS[args.workload](args.seed, ctx)
        why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
        print(f"workload {args.workload}: {why}")
        if args.trace:
            metrics, problems = traced_run(workload, ctx, args.seconds, failures)
        else:
            metrics, problems = timed_run(workload, args.seconds, failures), []
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    for reason in failures.reasons[:10]:
        print(f"failed check: {reason}")
    for problem in problems:
        print(f"count self-check failed: {problem}")
    print(f"fail_ratio {len(failures.reasons) / failures.attempted!r} "
          f"({len(failures.reasons)} of {failures.attempted} ops)")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    correct = not failures.reasons and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": failures.attempted,
        "failed": len(failures.reasons),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
