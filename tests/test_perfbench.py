"""The benchmark harness's view of the library, checked without a benchmark run.

``perfbench/spans.py`` wraps the public functions of a ``monitor-lib`` step
and of the ``measure`` and ``scan`` commands, and counts lines and samples
from their arguments and results. A traced step or command must give the
untraced results, and the counts must stay what the inputs imply, or the
traced and timed runs stop measuring the same work.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

import vbisnr.cli
import vbisnr.measure
import vbisnr.synth
from vbisnr import SynthConfig, synthesize, write_capture

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return spans, workloads


def test_traced_monitor_steps_give_the_untraced_results(harness):
    spans, workloads = harness
    monitor = workloads.MonitorLib(seed=1, ctx=None)  # no set-up: no import timing
    monitor.capture = vbisnr.synth.synthesize(monitor.config)
    ops = (0, 17)
    untraced = [monitor.step(op) for op in ops]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = [monitor.step(op) for op in ops]
    assert traced == untraced
    assert all(monitor.check(results) is None for results in traced)

    # Per step: the 30-frame window and the newest frame, 2 VBI lines each,
    # each accumulated raw and filtered.
    rows = 2 * (monitor.window_frames + 1)
    counts = tracer.counts
    assert counts["capture.lines_extracted"] == len(ops) * rows
    assert counts["capture.window_samples"] == len(ops) * rows * workloads.WINDOW
    assert counts["measure.samples_pooled"] == len(ops) * 2 * rows * workloads.WINDOW
    assert counts["measure.accumulate_calls"] == len(ops) * 4
    # A filtered call filters its windows in blocks of _BLOCK_SAMPLES // 743
    # = 44 rows: the 60 rows of the 30-frame window in two, the newest
    # frame's 2 rows in one.
    assert vbisnr.measure._BLOCK_SAMPLES // workloads.WINDOW == 44
    assert counts["dsp.apply_filter_calls"] == len(ops) * 3
    assert tracer.taps == {workloads.TAPS}
    names = {span[0] for span in tracer.spans}
    assert {"capture.extract_vbi_lines", "measure.accumulate_raw",
            "measure.accumulate_filtered", "dsp.apply_filter"} <= names


FRAMES = 5  # of 2 VBI lines each


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # Looked up at each call, so the traced stand-in runs when installed.
        code = vbisnr.cli.main(argv)
    return code, out.getvalue()


def traced_cli(spans, argv):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        result = run_cli(argv)
    return result, tracer


@pytest.fixture
def capture_file(tmp_path):
    path = tmp_path / "S02.vbi"
    write_capture(synthesize(SynthConfig(noise_sigma=2.19, seed=1, frames=FRAMES)), path)
    return path


@pytest.mark.parametrize("mode", ["off", "on"])
def test_traced_measure_gives_the_untraced_output(harness, capture_file, mode):
    spans, _ = harness
    argv = ["measure", "--in", str(capture_file), "--json", "--filter", mode]
    untraced = run_cli(argv)
    traced, tracer = traced_cli(spans, argv)
    assert untraced[0] == 0
    assert traced == untraced
    counts = tracer.counts
    assert counts["capture.read_capture_calls"] == 1
    assert counts["capture.lines_extracted"] == FRAMES * 2
    assert counts["measure.accumulate_calls"] == 1
    assert counts["dsp.apply_filter_calls"] == (mode == "on")
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "capture.read_capture", "capture.extract_vbi_lines",
            f"measure.accumulate_{'filtered' if mode == 'on' else 'raw'}"} <= names


def test_traced_scan_gives_the_untraced_output(harness, capture_file, tmp_path):
    # S02 has a capture and S03 has none. The harness's resident-bytes count
    # is not pinned: the CLI's capture directory iterates as empty.
    spans, _ = harness
    plan = tmp_path / "plan.csv"
    plan.write_text("designation,name,video_carrier_mhz\nS02,TVR1,112.25\nS03,TVR2,119.25\n")
    argv = ["scan", "--plan", str(plan), "--captures-dir", str(tmp_path), "--format", "csv"]
    untraced = run_cli(argv)
    traced, tracer = traced_cli(spans, argv)
    assert untraced[0] == 0
    assert traced == untraced
    assert [row.split(",")[-1] for row in untraced[1].splitlines()[1:]] == [
        "measured", "no-capture"]
    counts = tracer.counts
    assert counts["capture.read_capture_calls"] == 1
    assert counts["capture.lines_extracted"] == FRAMES * 2
    assert counts["scan.rows_measured"] == 1
    assert counts["scan.rows_no_capture"] == 1
    assert counts["scan.rows_skipped"] == 0
    assert counts["measure.accumulate_calls"] == 2
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "scan.scan", "scan.render_report", "measure.accumulate_raw",
            "measure.accumulate_filtered"} <= names
