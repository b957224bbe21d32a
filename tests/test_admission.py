"""Admission happens once: outside input is checked in a record's constructor,
and what the package builds from admitted values is not checked again.

``extract_vbi_lines``, ``LineBlock.stack``, ``accumulate`` and a block's
indexing and slicing build their records without the constructor's checks.
These tests hold those records to the ones the checked constructors build
from the same values, pin the filtered constant-input shortcut, and count
the admission calls on the monitor path, which must not grow with the
number of lines, and on a block's rows and slices, which check only the
index.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import vbisnr.capture
import vbisnr.measure
from vbisnr import (
    CaptureFile,
    FilterSpec,
    InvalidInputError,
    LineBlock,
    LineRecord,
    MeasureConfig,
    Measurement,
    SynthConfig,
    accumulate,
    extract_vbi_lines,
    synthesize,
)

from conftest import SIGMA

CONFIGS = {"raw": MeasureConfig(), "filtered": MeasureConfig(filter=FilterSpec())}


def capture_of(bit_depth: int, frames: int = 30, vbi=None) -> CaptureFile:
    scale = 1 << (bit_depth - 8)
    capture = synthesize(SynthConfig(black_level=60.0 * scale, noise_sigma=SIGMA * scale,
                                     seed=bit_depth, bit_depth=bit_depth, frames=frames,
                                     lines_per_frame=4))
    if vbi is None:  # a synthesized capture lists every line: a whole-frame view
        return capture
    return CaptureFile(dataclasses.replace(capture.header, vbi_line_indices=vbi),
                       capture.samples)


def assert_same_block(built, checked) -> None:
    # A block, or a record, equal in each field's value and type.
    assert type(built) is type(checked) and type(checked) in (LineBlock, LineRecord)
    for f in dataclasses.fields(checked):
        got, want = getattr(built, f.name), getattr(checked, f.name)
        if f.name == "samples":
            assert type(got) is type(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert not got.flags.writeable and not want.flags.writeable
        else:
            assert type(got) is type(want) and got == want, f.name
            if isinstance(got, tuple):
                assert [type(v) for v in got] == [type(v) for v in want], f.name
    assert repr(built) == repr(checked)


def checked_block(block: LineBlock) -> LineBlock:
    return LineBlock(block.samples, frame_indices=block.frame_indices,
                     line_indices=block.line_indices, bit_depth=block.bit_depth,
                     sample_rate_hz=block.sample_rate_hz, window=block.window)


@pytest.mark.parametrize("bit_depth", [8, 10])
@pytest.mark.parametrize("vbi", [None, (3, 0, 2)], ids=["whole-frame", "gathered"])
@pytest.mark.parametrize("frame_range", [(0, 30), (29, 30)], ids=["30-frame", "1-frame"])
def test_private_builds_equal_the_checked_builds(bit_depth, vbi, frame_range):
    capture = capture_of(bit_depth, vbi=vbi)
    block = extract_vbi_lines(capture, frame_range)
    # The constructor keeps a read-only input of its dtype, so both blocks
    # hold the same array.
    assert_same_block(block, checked_block(block))
    assert np.shares_memory(block.samples, capture.samples) == (vbi is None)

    stacked = LineBlock.stack(block)
    assert_same_block(stacked, checked_block(stacked))

    for config in CONFIGS.values():
        for lines in (block, stacked):
            m = accumulate(lines, config)
            init = {f.name: getattr(m, f.name) for f in dataclasses.fields(m) if f.init}
            checked = Measurement(**init)
            assert m == checked and repr(m) == repr(checked)
            assert [type(getattr(m, f.name)) for f in dataclasses.fields(m)] == [
                type(getattr(checked, f.name)) for f in dataclasses.fields(m)
            ]


def test_a_capture_keeps_the_samples_it_admitted():
    # extract_vbi_lines trusts a capture's samples, so they cannot be swapped
    # for unchecked ones after the constructor ran.
    capture = capture_of(8, frames=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        capture.samples = np.full(capture.samples.shape, 999)


@pytest.mark.parametrize("bit_depth", [8, 10])
def test_constant_filtered_codes_read_zero_noise(bit_depth):
    # A constant total is a multiple of the sample count, so the codes are
    # scanned for variation, and none is found.
    level = 60 << (bit_depth - 8)
    samples = np.full((4, 864), level, dtype=np.uint8 if bit_depth == 8 else np.uint16)
    block = LineBlock(samples, frame_indices=(0, 0, 1, 1), line_indices=(0, 1, 0, 1),
                      bit_depth=bit_depth)
    m = accumulate(block, CONFIGS["filtered"])
    assert m.v_n == 0.0 and m.saturated and m.snr_db == MeasureConfig.snr_cap_db


def test_varying_codes_with_a_whole_mean_measure_noise():
    # Equal numbers of 59 and 61 total 60 per sample: the shortcut cannot
    # tell them from a constant, and the min/max scan must.
    row = np.tile(np.array([59, 61], dtype=np.uint8), 432)
    samples = np.stack([row, row[::-1]])
    block = LineBlock(samples, frame_indices=(0, 1), line_indices=(0, 0))
    window = samples[:, slice(*block.window)]
    assert int(window.sum()) % window.size == 0
    m = accumulate(block, CONFIGS["filtered"])
    assert m.v_ref == 60.0 and m.v_n > 0 and not m.saturated


def test_admission_calls_do_not_grow_with_the_lines(monkeypatch):
    calls = []
    as_int = vbisnr.measure._as_int

    def counted(*args, **kwargs):
        calls.append(args[1])
        return as_int(*args, **kwargs)

    for module in (vbisnr.measure, vbisnr.capture):
        monkeypatch.setattr(module, "_as_int", counted)
    capture = capture_of(8, frames=300)
    gathered = capture_of(8, frames=300, vbi=(3, 1))

    def count(call) -> int:
        calls.clear()
        call()
        return len(calls)

    for cap in (capture, gathered):
        extracts = {n: count(lambda: extract_vbi_lines(cap, (300 - n, 300)))
                    for n in (1, 30, 300)}
        assert len(set(extracts.values())) == 1, extracts
        # 300 frames exceed accumulate's frame limit; 1 and 30 frames of
        # 2 or 4 lines span 2 to 120 rows.
        for config in CONFIGS.values():
            accumulates = {n: count(lambda: accumulate(extract_vbi_lines(cap, n), config))
                           for n in (1, 30)}
            assert accumulates[1] == accumulates[30], accumulates
            records = [LineRecord(cap.samples[f, 0], frame_index=f) for f in range(30)]
            stacked = {n: count(lambda: accumulate(records[:n], config)) for n in (1, 30)}
            assert stacked[1] == stacked[30], stacked


def sliced(block: LineBlock, index: slice) -> LineBlock:
    return LineBlock(block.samples[index], frame_indices=block.frame_indices[index],
                     line_indices=block.line_indices[index], bit_depth=block.bit_depth,
                     sample_rate_hz=block.sample_rate_hz, window=block.window)


def row(block: LineBlock, index: int) -> LineRecord:
    return LineRecord(block.samples[index], bit_depth=block.bit_depth,
                      sample_rate_hz=block.sample_rate_hz,
                      line_index=block.line_indices[index],
                      frame_index=block.frame_indices[index], window=block.window)


SLICES = [slice(None), slice(1, 7), slice(-5, None), slice(None, None, 3),
          slice(None, None, -1), slice(8, 2, -2), slice(4, 4), slice(100, None)]


@pytest.mark.parametrize("bit_depth", [8, 10])
@pytest.mark.parametrize("vbi", [None, (3, 0, 2)], ids=["whole-frame", "gathered"])
@pytest.mark.parametrize("stack", [False, True], ids=["extracted", "stacked"])
def test_rows_and_slices_equal_the_checked_builds(bit_depth, vbi, stack):
    capture = capture_of(bit_depth, frames=5, vbi=vbi)
    block = extract_vbi_lines(capture)
    if stack:
        block = LineBlock.stack(block)
    n = len(block)
    for index in (0, 5, n - 1, -1, -n, np.int64(2), np.intp(-3)):
        record = block[index]
        assert_same_block(record, row(block, index))
        assert np.shares_memory(record.samples, block.samples)
    assert [r.frame_index for r in block] == list(block.frame_indices)
    for index in SLICES:
        part = block[index]
        assert_same_block(part, sliced(block, index))
        assert part.frame_indices == block.frame_indices[index]
        assert part.line_indices == block.line_indices[index]
        if len(part):
            assert np.shares_memory(part.samples, block.samples)
            # A slice of a slice is a slice of the block.
            assert_same_block(part[::-1], sliced(block, index)[::-1])
    if vbi is None and not stack:  # a whole-frame view, and its rows and slices, view the capture
        assert np.shares_memory(block[-1].samples, capture.samples)
        assert np.shares_memory(block[2:9:3].samples, capture.samples)


@pytest.mark.parametrize("vbi", [None, (3, 0, 2)], ids=["whole-frame", "gathered"])
def test_rows_and_slices_check_only_the_index(monkeypatch, vbi):
    calls = []

    def counted(check):
        def call(*args, **kwargs):
            calls.append((check.__name__, args[1] if check is as_int else None))
            return check(*args, **kwargs)
        return call

    as_int, admit_codes = vbisnr.measure._as_int, vbisnr.measure._admit_codes
    monkeypatch.setattr(vbisnr.measure, "_as_int", counted(as_int))
    monkeypatch.setattr(vbisnr.measure, "_admit_codes", counted(admit_codes))
    block = extract_vbi_lines(capture_of(10, frames=30, vbi=vbi))
    calls.clear()
    records = list(block)
    # The sequence protocol asks for one index past the end to stop.
    assert len(records) == len(block) and calls == [("_as_int", "index")] * (len(block) + 1)
    calls.clear()
    for index in SLICES:
        block[index]
    assert calls == []
    # A window set on a block is outside input, checked as the constructor does.
    with pytest.raises(InvalidInputError, match=r"window \[0, 1\) is shorter than 2 samples"):
        dataclasses.replace(block[1:], window=(0, 1))
