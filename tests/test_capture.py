"""Capture container format and VBI line extraction."""

from __future__ import annotations

import collections.abc
import math
import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vbisnr import (
    CaptureFile,
    CaptureFormatError,
    CaptureHeader,
    FilterSpec,
    InvalidInputError,
    LineBlock,
    MeasureConfig,
    MeasurementImpossibleError,
    SynthConfig,
    accumulate,
    extract_vbi_lines,
    read_capture,
    synthesize,
    write_capture,
)
from vbisnr.capture import _serialize_header


def small_capture(bit_depth=8, frames=2, value=60):
    header = CaptureHeader(
        samples_per_line=64,
        lines_per_frame=3,
        frames=frames,
        vbi_line_indices=(0, 2),
        bit_depth=bit_depth,
        channel_label="bench A",
    )
    samples = np.full((frames, 3, 64), value, dtype=np.int32)
    return CaptureFile(header=header, samples=samples)


def assert_measures_as_its_records(block):
    stacked = LineBlock.stack(block)
    for spec in (None, FilterSpec()):
        config = MeasureConfig(filter=spec)
        assert accumulate(block, config) == accumulate(stacked, config)


class TestRoundTrip:
    @pytest.mark.parametrize("bit_depth,value", [(8, 200), (10, 700)])
    def test_write_read_write_is_bit_identical(self, tmp_path, bit_depth, value):
        cap = small_capture(bit_depth=bit_depth, value=value)
        first = tmp_path / "a.vbi"
        second = tmp_path / "b.vbi"
        write_capture(cap, first)
        write_capture(read_capture(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_synthesized_capture_round_trips(self, tmp_path, clean_capture):
        path = tmp_path / "c.vbi"
        write_capture(clean_capture, path)
        back = read_capture(path)
        assert back.header == clean_capture.header
        assert np.array_equal(back.samples, clean_capture.samples)

    def test_ten_bit_little_endian_layout(self, tmp_path):
        cap = small_capture(bit_depth=10, value=700)
        path = tmp_path / "d.vbi"
        write_capture(cap, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[4:8])
        payload = blob[8 + header_len :]
        assert payload[0] == 0xBC and payload[1] == 0x02  # 700 = 0x02BC
        assert read_capture(path).samples[0, 0, 0] == 700

    @pytest.mark.parametrize("bit_depth,value", [(8, 200), (10, 700)])
    def test_rewrite_in_place_keeps_bytes(self, tmp_path, bit_depth, value):
        path = tmp_path / "p.vbi"
        write_capture(small_capture(bit_depth=bit_depth, value=value), path)
        before = path.read_bytes()
        write_capture(read_capture(path), path)
        assert path.read_bytes() == before

    def test_header_bytes_are_pinned(self, tmp_path):
        # Key order, float repr and the sorted extras are part of the format:
        # a round trip alone would not see a change in any of them.
        header = CaptureHeader(
            samples_per_line=16, lines_per_frame=3, frames=1, vbi_line_indices=(0, 2),
            bit_depth=10, sample_rate_hz=27e6, channel_label="ARD=1 Sächsisch",
            extra={"zeta": "a=b", "alpha": "1"},
        )
        path = tmp_path / "pinned.vbi"
        write_capture(CaptureFile(header, np.full((1, 3, 16), 700, dtype=np.int32)), path)
        blob = path.read_bytes()
        assert blob[:-96] == (
            b"VBI1\xac\x00\x00\x00format_version=1\nbit_depth=10\n"
            b"sample_rate_hz=27000000.0\nsamples_per_line=16\nlines_per_frame=3\n"
            b"frames=1\nvbi_line_indices=0,2\nchannel_label=ARD=1 S\xc3\xa4chsisch\n"
            b"alpha=1\nzeta=a=b\n"
        )
        assert blob[-96:] == b"\xbc\x02" * 48
        assert read_capture(path).header == header

    def test_rewrite_keeps_a_live_capture(self, tmp_path):
        path = tmp_path / "live.vbi"
        write_capture(small_capture(value=60), path)
        live = read_capture(path)
        write_capture(small_capture(value=90), path)
        assert np.all(live.samples == 60)
        assert np.all(read_capture(path).samples == 90)

    def test_rewrite_through_a_symlink_replaces_its_target(self, tmp_path):
        target = tmp_path / "target.vbi"
        link = tmp_path / "link.vbi"
        write_capture(small_capture(value=60), target)
        link.symlink_to(target)
        live = read_capture(link)
        write_capture(small_capture(value=90), link)
        assert link.is_symlink() and link.resolve() == target
        assert np.all(live.samples == 60)
        assert np.all(read_capture(target).samples == 90)

    def test_device_is_written_not_unlinked(self, monkeypatch):
        unlinked = []
        monkeypatch.setattr(os, "unlink", unlinked.append)
        write_capture(small_capture(), os.devnull)
        assert unlinked == []

    def test_write_does_not_copy_the_payload(self, tmp_path):
        cap = small_capture(frames=6000)  # 6000 x 3 x 64 one-byte samples
        payload = cap.header.payload_bytes
        assert payload >= 1 << 20
        tracemalloc.start()
        try:
            write_capture(cap, tmp_path / "big.vbi")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < payload // 4

    def test_read_samples_are_read_only(self, tmp_path):
        path = tmp_path / "r.vbi"
        write_capture(small_capture(), path)
        samples = read_capture(path).samples
        assert isinstance(samples.base, np.memmap) and samples.dtype == np.uint8
        with pytest.raises(ValueError, match="read-only"):
            samples[0, 0, 0] = 1


class TestFormatErrors:
    def test_not_a_capture(self, tmp_path):
        path = tmp_path / "x.vbi"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(CaptureFormatError, match="not a VBI1"):
            read_capture(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.vbi"
        path.write_bytes(b"VBI1" + struct.pack("<I", 40) + b"format_version=1\n")
        with pytest.raises(CaptureFormatError, match="header truncated"):
            read_capture(path)

    def test_header_not_utf8(self, tmp_path):
        path = tmp_path / "u.vbi"
        header = b"format_version=1\nchannel_label=\xff\n"
        path.write_bytes(b"VBI1" + struct.pack("<I", len(header)) + header)
        with pytest.raises(CaptureFormatError, match="not valid UTF-8"):
            read_capture(path)

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        cap = small_capture()
        path = tmp_path / "t.vbi"
        write_capture(cap, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-64])  # drop one line
        with pytest.raises(CaptureFormatError, match=r"expected 384 bytes, found 320"):
            read_capture(path)

    def test_oversized_payload_rejected(self, tmp_path):
        cap = small_capture()
        path = tmp_path / "o.vbi"
        write_capture(cap, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CaptureFormatError, match="payload size mismatch"):
            read_capture(path)

    def test_unknown_format_version(self, tmp_path):
        path = tmp_path / "v.vbi"
        header = (
            "format_version=9\nbit_depth=8\nsample_rate_hz=13500000.0\n"
            "samples_per_line=16\nlines_per_frame=1\nframes=1\n"
            "vbi_line_indices=0\nchannel_label=\n"
        ).encode()
        path.write_bytes(b"VBI1" + struct.pack("<I", len(header)) + header + b"\x00" * 16)
        with pytest.raises(CaptureFormatError, match="format_version 9"):
            read_capture(path)

    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "m.vbi"
        header = "format_version=1\nbit_depth=8\n".encode()
        path.write_bytes(b"VBI1" + struct.pack("<I", len(header)) + header)
        with pytest.raises(CaptureFormatError, match="missing header field"):
            read_capture(path)

    def test_header_line_without_equals(self, tmp_path):
        path = tmp_path / "e.vbi"
        header = "format_version=1\nbit_depth 8\n".encode()
        path.write_bytes(b"VBI1" + struct.pack("<I", len(header)) + header)
        with pytest.raises(CaptureFormatError, match="malformed header line 'bit_depth 8'"):
            read_capture(path)

    @pytest.mark.parametrize("line", ["bit_depth=10", "note=b"])
    def test_duplicate_header_field(self, tmp_path, line):
        # A key given twice has no one value; the later one must not win.
        cap = small_capture()
        path = tmp_path / "d.vbi"
        write_capture(CaptureFile(replace(cap.header, extra={"note": "a"}), cap.samples), path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[4:8])
        header = blob[8 : 8 + header_len] + f"{line}\n".encode()
        path.write_bytes(b"VBI1" + struct.pack("<I", len(header)) + header
                         + blob[8 + header_len :])
        key = line.partition("=")[0]
        with pytest.raises(CaptureFormatError, match=f"duplicate header field '{key}'"):
            read_capture(path)

    def test_ten_bit_value_overflow_rejected(self, tmp_path):
        cap = small_capture(bit_depth=10, value=700)
        path = tmp_path / "w.vbi"
        write_capture(cap, path)
        blob = bytearray(path.read_bytes())
        blob[-2:] = struct.pack("<H", 1030)  # > 1023
        path.write_bytes(bytes(blob))
        with pytest.raises(CaptureFormatError, match="exceed the 10-bit"):
            read_capture(path)

    def test_header_payload_shape_mismatch(self):
        header = CaptureHeader(samples_per_line=64, lines_per_frame=3, frames=2)
        with pytest.raises(InvalidInputError, match="does not match"):
            CaptureFile(header=header, samples=np.zeros((2, 3, 63), dtype=np.int32))


class TestExtract:
    def test_counts_frames_times_vbi_lines(self, clean_capture):
        records = extract_vbi_lines(clean_capture)
        assert len(records) == 30 * 2
        assert [r.frame_index for r in records[:4]] == [0, 0, 1, 1]

    def test_replaced_window_is_carried(self, clean_capture):
        records = replace(extract_vbi_lines(clean_capture), window=(100, 800))
        assert all(r.window == (100, 800) for r in records)

    def test_default_window_on_864(self, clean_capture):
        records = extract_vbi_lines(clean_capture)
        assert records[0].window == (104, 847)

    def test_int_frame_range_caps_at_capture(self, clean_capture):
        assert len(extract_vbi_lines(clean_capture, frame_range=10)) == 20
        assert len(extract_vbi_lines(clean_capture, frame_range=99)) == 60

    def test_tuple_frame_range_is_strict(self, clean_capture):
        records = extract_vbi_lines(clean_capture, frame_range=(5, 7))
        assert sorted({r.frame_index for r in records}) == [5, 6]
        with pytest.raises(InvalidInputError, match="outside capture"):
            extract_vbi_lines(clean_capture, frame_range=(20, 31))

    def test_numpy_integer_frame_count_is_a_count(self, clean_capture):
        records = extract_vbi_lines(clean_capture, frame_range=np.int64(3))
        assert [r.frame_index for r in records] == [0, 0, 1, 1, 2, 2]

    @pytest.mark.parametrize("frame_range", [(0, 2.9), (0.0, 2), (0, 1, 2), 2.0, True, "3"])
    def test_non_integer_frame_selection_rejected(self, clean_capture, frame_range):
        with pytest.raises(InvalidInputError):
            extract_vbi_lines(clean_capture, frame_range=frame_range)

    @pytest.mark.parametrize("bit_depth", [8, 10])
    def test_one_read_only_block_in_frame_major_order(self, bit_depth):
        cap = small_capture(bit_depth=bit_depth, frames=3)
        cap = CaptureFile(cap.header, np.arange(3 * 3 * 64).reshape(3, 3, 64) % 200)
        block = extract_vbi_lines(cap, frame_range=(1, 3))
        assert isinstance(block, LineBlock)
        assert block.samples.shape == (4, 64)
        assert block.samples.dtype == cap.header.sample_dtype
        assert not block.samples.flags.writeable
        assert block.frame_indices == (1, 1, 2, 2)
        assert block.line_indices == (0, 2, 0, 2)
        expected = [cap.samples[f, i] for f in (1, 2) for i in (0, 2)]
        assert np.array_equal(block.samples, expected)
        assert (block.bit_depth, block.sample_rate_hz) == (bit_depth, 13.5e6)

    @pytest.mark.parametrize("frame_range", [None, 4, (5, 9)])
    def test_block_reads_as_records(self, clean_capture, frame_range):
        block = extract_vbi_lines(clean_capture, frame_range)
        frames = {None: range(30), 4: range(4), (5, 9): range(5, 9)}[frame_range]
        pairs = [(f, i) for f in frames for i in (0, 1)]
        assert isinstance(block, collections.abc.Sequence)
        assert len(block) == len(pairs)
        records = list(block)
        for record, (f, i) in zip(records, pairs):
            assert (record.frame_index, record.line_index) == (f, i)
            assert record.window == (104, 847)
            assert record.bit_depth == 8 and record.sample_rate_hz == 13.5e6
            assert np.array_equal(record.samples, clean_capture.samples[f, i])
        last = block[-1]
        assert (last.frame_index, last.line_index) == pairs[-1]
        assert np.array_equal(last.samples, records[-1].samples)
        with pytest.raises(IndexError):
            block[len(pairs)]
        tail = block[2:]
        assert isinstance(tail, LineBlock) and len(tail) == len(pairs) - 2
        assert tail.frame_indices == tuple(f for f, _ in pairs[2:])
        assert [r.frame_index for r in block[::-1]] == [f for f, _ in reversed(pairs)]

    def test_too_short_window_fails_at_replace(self, clean_capture):
        with pytest.raises(
            InvalidInputError, match=r"line 0 frame 5: window \[100, 101\) is shorter than 2"
        ):
            replace(extract_vbi_lines(clean_capture, frame_range=(5, 7)), window=(100, 101))
        with pytest.raises(InvalidInputError, match=r"window \[100, 900\) does not fit a 864"):
            replace(extract_vbi_lines(clean_capture), window=(100, 900))

    @pytest.mark.parametrize("label", ["", "x"])
    def test_mapped_gather_copies_only_the_measured_rows(self, tmp_path, label):
        # A payload starts right after the header, so one of these labels
        # leaves the two-byte samples of a 10-bit file unaligned.
        header = CaptureHeader(samples_per_line=64, lines_per_frame=40, frames=1000,
                               vbi_line_indices=(9, 2), bit_depth=10, channel_label=label)
        samples = np.full((1000, 40, 64), 600, dtype="<u2")
        write_capture(CaptureFile(header, samples), tmp_path / "c.vbi")
        mapped = read_capture(tmp_path / "c.vbi")
        tracemalloc.start()
        try:
            block = extract_vbi_lines(mapped)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.samples.shape == (2000, 64) and np.all(block.samples == 600)
        assert peak < header.payload_bytes // 4

    @pytest.mark.parametrize("bit_depth", [8, 10])
    @pytest.mark.parametrize("vbi", [None, (6, 318)])
    def test_whole_frames_are_viewed_and_measure_as_records(self, bit_depth, vbi):
        # A synthesized capture lists every line of its frames as a VBI line.
        cap = synthesize(SynthConfig(noise_sigma=2.19 * 2 ** (bit_depth - 8), seed=5,
                                     bit_depth=bit_depth, frames=3, lines_per_frame=625))
        if vbi is not None:
            cap = CaptureFile(replace(cap.header, vbi_line_indices=vbi), cap.samples)
        block = extract_vbi_lines(cap, frame_range=(1, 3))
        lines = cap.header.vbi_line_indices
        assert np.shares_memory(block.samples, cap.samples) == (vbi is None)
        assert not block.samples.flags.writeable
        assert block.frame_indices == tuple(f for f in (1, 2) for _ in lines)
        assert block.line_indices == lines * 2
        assert np.array_equal(block.samples, cap.samples[1:3, list(lines)].reshape(-1, 864))
        assert_measures_as_its_records(block)

    def test_unaligned_mapped_frames_are_viewed(self, tmp_path):
        cap = synthesize(SynthConfig(noise_sigma=8.76, black_level=240, seed=3,
                                     bit_depth=10, frames=2, lines_per_frame=625))
        header = cap.header
        if len(_serialize_header(header)) % 2 == 0:
            header = replace(header, channel_label="x")
        write_capture(CaptureFile(header, cap.samples), tmp_path / "c.vbi")
        mapped = read_capture(tmp_path / "c.vbi")
        assert not mapped.samples.flags.aligned  # the payload starts at an odd offset
        block = extract_vbi_lines(mapped)
        assert np.shares_memory(block.samples, mapped.samples)
        assert np.array_equal(block.samples, cap.samples.reshape(-1, 864))
        assert_measures_as_its_records(block)

    def test_no_vbi_lines_is_actionable(self):
        header = CaptureHeader(
            samples_per_line=64, lines_per_frame=2, frames=1, vbi_line_indices=()
        )
        cap = CaptureFile(header=header, samples=np.zeros((1, 2, 64), dtype=np.int32))
        with pytest.raises(MeasurementImpossibleError, match="clean blanked lines"):
            extract_vbi_lines(cap)


def test_vbi_indices_validated():
    with pytest.raises(InvalidInputError, match="vbi_line_indices"):
        CaptureHeader(samples_per_line=64, lines_per_frame=2, frames=1,
                      vbi_line_indices=(0, 2))
    with pytest.raises(InvalidInputError, match="duplicates"):
        CaptureHeader(samples_per_line=64, lines_per_frame=2, frames=1,
                      vbi_line_indices=(0, 0))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("bit_depth", 8.5, "bit_depth must be an integer"),
        ("bit_depth", True, "bit_depth must be an integer"),
        ("sample_rate_hz", math.nan, "sample_rate_hz must be positive"),
        ("sample_rate_hz", math.inf, "sample_rate_hz must be positive"),
        ("samples_per_line", 16.5, "samples_per_line must be an integer"),
        ("lines_per_frame", 2.0, "lines_per_frame must be an integer"),
        ("frames", True, "frames must be an integer"),
        ("vbi_line_indices", (0.7,), "VBI line index must be an integer"),
    ],
)
def test_header_numbers_validated(field, value, message):
    geometry = {"samples_per_line": 64, "lines_per_frame": 2, "frames": 1}
    with pytest.raises(InvalidInputError, match=message):
        CaptureHeader(**{**geometry, field: value})


def test_header_holds_python_ints():
    header = CaptureHeader(
        samples_per_line=np.int64(64), lines_per_frame=np.uint16(2), frames=np.int32(3),
        vbi_line_indices=np.arange(2), bit_depth=np.uint8(10),
    )
    values = [header.samples_per_line, header.lines_per_frame, header.frames,
              header.bit_depth, *header.vbi_line_indices]
    assert values == [64, 2, 3, 10, 0, 1]
    assert all(type(v) is int for v in values)
    assert header.payload_bytes == 64 * 2 * 3 * 2


def test_extra_metadata_round_trips(tmp_path):
    cap = synthesize(SynthConfig(noise_sigma=1.0, seed=3, frames=2))
    path = tmp_path / "meta.vbi"
    write_capture(cap, path)
    back = read_capture(path)
    assert back.header.extra == cap.header.extra
    assert "clip_count" in back.header.extra
