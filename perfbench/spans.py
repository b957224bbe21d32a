"""Spans and counters recorded around calls into vbisnr's public functions.

The wrappers are installed in the module where each caller looks the name
up (``vbisnr.cli.read_capture``, ``vbisnr.scan.accumulate``,
``vbisnr.dsp.apply_filter`` as ``vbisnr.measure`` calls it, ...), so the
program runs unchanged and the benchmark sees every call at a layer
boundary. Counts are computed from the arguments and results at the same
boundaries, never from inside the program.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import os
import time
from typing import NamedTuple


class Tracer:
    """Spans (name, start, end, parent) and counters of one traced cycle."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.taps: set[int] = set()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def reset(self) -> None:
        # In place: installed wrappers hold these objects.
        self.spans.clear()
        self.counts.clear()
        self.taps.clear()


class SpanTimes(NamedTuple):
    inclusive: dict  # seconds per span name
    self_s: dict  # seconds per span name, child spans subtracted
    calls: dict  # the duration of each call, per span name


def span_times(spans) -> SpanTimes:
    """Sum the spans of one cycle by name.

    A span's self time is its duration minus the time its child spans
    cover; spans on one thread nest, so children never overlap.
    """
    durations = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for (_, _, _, parent), duration in zip(spans, durations):
        if parent >= 0:
            covered[parent] += duration
    times = SpanTimes(collections.defaultdict(float), collections.defaultdict(float),
                      collections.defaultdict(list))
    for (name, _, _, _), duration, child in zip(spans, durations, covered):
        times.inclusive[name] += duration
        times.self_s[name] += duration - child
        times.calls[name].append(duration)
    return times


def _window_samples(lines) -> int:
    return sum(line.window[1] - line.window[0] for line in lines)


def _wrap(tracer: Tracer, attr: str, fn):
    """A traced stand-in for vbisnr function ``attr``."""
    count = tracer.counts
    taps_seen = tracer.taps

    if attr == "read_capture":
        def wrapper(path):
            count["capture.read_capture_calls"] += 1
            # read_capture reads the whole file before it validates it.
            count["capture.bytes_read"] += os.stat(path).st_size
            with tracer.span("capture.read_capture"):
                capture = fn(path)
            count["capture.samples_decoded"] += capture.samples.size
            return capture
    elif attr == "extract_vbi_lines":
        def wrapper(*args, **kwargs):
            with tracer.span("capture.extract_vbi_lines"):
                lines = fn(*args, **kwargs)
            count["capture.lines_extracted"] += len(lines)
            count["capture.window_samples"] += _window_samples(lines)
            return lines
    elif attr == "accumulate":
        def wrapper(lines, config=None):
            lines = list(lines)
            filtered = config is not None and config.filter is not None
            with tracer.span("measure.accumulate_" + ("filtered" if filtered else "raw")):
                result = fn(lines, config)
            pooled = _window_samples(lines)
            count["measure.accumulate_calls"] += 1
            count["measure.samples_pooled"] += pooled
            if filtered:
                # Each line loses taps - 1 samples to the valid convolution.
                taps = (pooled - result.n_samples) // len(lines) + 1
                taps_seen.add(taps)
                count["dsp.filter_macs"] += result.n_samples * taps
            return result
    elif attr == "scan":
        def wrapper(plan, source, config=None, **kwargs):
            count["scan.resident_capture_bytes"] += sum(c.samples.nbytes for c in source.values())
            with tracer.span("scan.scan"):
                report = fn(plan, source, config, **kwargs)
            for row in report.rows:
                key = {"measured": "scan.rows_measured",
                       "no-capture": "scan.rows_no_capture"}.get(row.status, "scan.rows_skipped")
                count[key] += 1
            return report
    elif attr == "synthesize":
        def wrapper(config):
            with tracer.span("synth.synthesize"):
                capture = fn(config)
            count["synth.samples_generated"] += capture.samples.size
            return capture
    else:
        name = {"main": "cli.main", "render_report": "scan.render_report",
                "write_capture": "capture.write_capture",
                "design_lowpass": "dsp.design_lowpass", "apply_filter": "dsp.apply_filter"}[attr]
        calls = {"design_lowpass": "dsp.design_lowpass_calls",
                 "apply_filter": "dsp.apply_filter_calls"}.get(attr)

        def wrapper(*args, **kwargs):
            if calls:
                count[calls] += 1
            with tracer.span(name):
                return fn(*args, **kwargs)
    return wrapper


# (module, name) pairs: every place a caller on a workload path looks up a
# public function. vbisnr.measure calls the filter through ``dsp.<name>``.
PATCH_POINTS = (
    ("vbisnr.cli", "main"),
    ("vbisnr.cli", "read_capture"),
    ("vbisnr.cli", "extract_vbi_lines"),
    ("vbisnr.cli", "accumulate"),
    ("vbisnr.cli", "scan"),
    ("vbisnr.cli", "render_report"),
    ("vbisnr.scan", "extract_vbi_lines"),
    ("vbisnr.scan", "accumulate"),
    ("vbisnr.capture", "extract_vbi_lines"),
    ("vbisnr.capture", "write_capture"),
    ("vbisnr.measure", "accumulate"),
    ("vbisnr.dsp", "design_lowpass"),
    ("vbisnr.dsp", "apply_filter"),
    ("vbisnr.synth", "synthesize"),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every patch point through ``tracer`` for the ``with`` body."""
    originals = []
    try:
        for module_name, attr in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def parse_importtime(stderr: str, marker: str) -> dict[str, float]:
    """Seconds of ``-X importtime`` self time after ``marker``, by owner.

    Each imported module is charged to the outermost numpy or scipy import
    it is nested in, so ``scipy`` holds everything that would not be
    imported without scipy; everything else is ``other``.
    """
    entries = []
    seen_marker = False
    for line in stderr.splitlines():
        if line.strip() == marker:
            seen_marker = True
            continue
        if not seen_marker or not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(fields[0]) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "other": 0.0}
    owners: list[tuple[int, str]] = []  # (depth, owner) of the open ancestors
    # importtime prints a module after the imports nested in it; reversed,
    # each parent comes before its children.
    for depth, name, self_s in reversed(entries):
        while owners and owners[-1][0] >= depth:
            owners.pop()
        owner = owners[-1][1] if owners else "other"
        if owner == "other":
            top = name.split(".")[0]
            owner = top if top in ("numpy", "scipy") else "other"
        owners.append((depth, owner))
        totals[owner] += self_s
    return totals
