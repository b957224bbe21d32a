"""The benchmark harness's view of the library, checked without a benchmark run.

``perfbench/spans.py`` wraps the public functions of a ``monitor-lib`` step
and counts lines and samples from their arguments and results. A traced step
must give the untraced results, and the counts must stay what the harness's
geometry implies, or the traced and timed runs stop measuring the same work.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import vbisnr.measure
import vbisnr.synth

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
