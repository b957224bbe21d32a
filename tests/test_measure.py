"""Core measurement math: reference level, noise RMS, SNR, margins, PSNR."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import statistics

import numpy as np
import pytest

from vbisnr import (
    CaptureFile,
    CaptureHeader,
    InvalidInputError,
    LineBlock,
    LineRecord,
    MeasureConfig,
    Measurement,
    MeasurementImpossibleError,
    PsnrResult,
    Spectrum,
    SynthConfig,
    accumulate,
    apply_filter,
    default_window,
    design_lowpass,
    error_margin,
    extract_vbi_lines,
    noise_gain,
    noise_rms,
    psnr,
    read_capture,
    snr_db,
    synthesize,
    write_capture,
)
from vbisnr.dsp import FilterSpec
from vbisnr.measure import _full_scale

from conftest import SIGMA, SOUND_CARRIER_HZ


def line_of(values, window=None, **kw):
    return LineRecord(samples=np.asarray(values, dtype=np.int32), window=window, **kw)


class TestLineRecord:
    @pytest.mark.parametrize(
        "dtype,bad,bit_depth",
        [(np.int32, -1, 8), (np.int32, 256, 8), (np.int32, 512, 9), ("<u2", 1024, 10)],
    )
    def test_out_of_range_code_rejected(self, dtype, bad, bit_depth):
        # The bad code sits outside the default window: the whole line is checked.
        samples = np.zeros((1, 2, 64), dtype=dtype)
        samples[0, 1, 0] = bad
        with pytest.raises(InvalidInputError, match=f"exceed the {bit_depth}-bit code range"):
            LineRecord(samples=samples[0, 1], bit_depth=bit_depth)
        header = CaptureHeader(
            samples_per_line=64, lines_per_frame=2, frames=1, bit_depth=bit_depth
        )
        with pytest.raises(InvalidInputError, match=f"exceed the {bit_depth}-bit code range"):
            CaptureFile(header=header, samples=samples)

    @pytest.mark.parametrize("dtype", [np.bool_, np.float64])
    def test_non_integer_samples_rejected(self, dtype):
        samples = np.zeros((1, 2, 64), dtype=dtype)
        with pytest.raises(InvalidInputError, match="samples must be integer ADC codes"):
            LineRecord(samples=samples[0, 1])
        header = CaptureHeader(samples_per_line=64, lines_per_frame=2, frames=1)
        with pytest.raises(InvalidInputError, match="samples must be integer ADC codes"):
            CaptureFile(header=header, samples=samples)

    @pytest.mark.parametrize("bit_depth", [9.5, 8.0, True, "8"])
    def test_bit_depth_must_be_an_integer(self, bit_depth):
        with pytest.raises(InvalidInputError, match="bit_depth must be an integer"):
            LineRecord(samples=np.zeros(64, dtype=np.uint8), bit_depth=bit_depth)
        line = LineRecord(samples=np.zeros(64, dtype=np.uint8), bit_depth=np.int64(9),
                          line_index=np.int64(3), frame_index=np.uint8(2))
        assert (line.bit_depth, line.line_index, line.frame_index) == (9, 3, 2)
        assert type(line.bit_depth) is int
        assert type(line.line_index) is int and type(line.frame_index) is int

    @pytest.mark.parametrize("samples,window,message", [
        (np.zeros((2, 64), dtype=np.uint8), None, "samples must be one-dimensional"),
        (np.zeros(64, dtype=np.uint8), 5, r"window 5 is not a \(start, end\) pair"),
    ], ids=["2-D-samples", "scalar-window"])
    def test_shape_and_window_are_checked(self, samples, window, message):
        with pytest.raises(InvalidInputError, match=message):
            LineRecord(samples=samples, window=window)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0])
    def test_sample_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(InvalidInputError, match="sample_rate_hz must be positive"):
            LineRecord(samples=np.zeros(64, dtype=np.uint8), sample_rate_hz=rate)

    def test_mapped_line_is_a_read_only_view(self, tmp_path, clean_capture):
        # A record keeps a mapped row as it is; extract_vbi_lines instead
        # copies the measured rows into one block (see TestLineBlock).
        path = tmp_path / "c.vbi"
        write_capture(clean_capture, path)
        capture = read_capture(path)
        line = LineRecord(capture.samples[0, 1])
        assert not line.samples.flags.writeable
        assert line.samples.dtype == np.uint8
        assert np.shares_memory(line.samples, capture.samples)

    def test_equality_is_identity(self, clean_capture):
        # Records hold arrays, so value equality would be ambiguous; a record
        # equals itself alone, and containment, counting and hashing work.
        block = extract_vbi_lines(clean_capture)
        r = block[0]
        assert r == r
        assert not block[0] == block[0]
        assert hash(r) == hash(r)
        assert r not in block and block.count(r) == 0
        with pytest.raises(ValueError):
            block.index(r)  # each block[i] is a new record: not found
        records = list(block)
        assert records[3] in records and records.index(records[3]) == 3
        assert records.count(records[3]) == 1
        assert len({*records, *records}) == len(records)

    def test_writable_input_is_copied(self):
        source = np.full(64, 60, dtype=np.int32)
        line = LineRecord(samples=source)
        source[:] = 0
        assert not line.samples.flags.writeable
        assert line.samples.dtype == np.int32
        assert np.all(line.samples == 60)


class TestLineBlock:
    ROWS = np.full((4, 64), 60, dtype=np.uint8)

    def block(self, samples=None, **kw):
        kw = {"frame_indices": (0, 0, 1, 1), "line_indices": (3, 5, 3, 5), **kw}
        return LineBlock(self.ROWS if samples is None else samples, **kw)

    def test_samples_are_read_only(self):
        source = np.full((4, 64), 60, dtype=np.int32)
        block = self.block(source)
        source[:] = 0  # a writable input is copied
        assert np.all(block.samples == 60) and block.samples.dtype == np.int32
        with pytest.raises(ValueError, match="read-only"):
            block.samples[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            block[0].samples[0] = 1

    def test_records_are_views_of_the_block(self):
        block = self.block()
        assert np.shares_memory(block[2].samples, block.samples)
        assert np.shares_memory(block[1:].samples, block.samples)

    def test_checks_follow_the_record_rules(self):
        with pytest.raises(InvalidInputError, match="rows, samples_per_line"):
            self.block(self.ROWS[0])
        with pytest.raises(InvalidInputError, match="3 frame_indices for 4 rows"):
            self.block(frame_indices=(0, 0, 1))
        with pytest.raises(InvalidInputError, match="line_indices must be at least 0"):
            self.block(line_indices=(3, -5, 3, 5))
        with pytest.raises(InvalidInputError, match="frame_indices must be an integer"):
            self.block(frame_indices=(0, True, 1, 1))
        with pytest.raises(InvalidInputError, match="bit_depth must be 8..10"):
            self.block(bit_depth=12)
        with pytest.raises(InvalidInputError, match="exceed the 8-bit code range"):
            self.block(np.full((4, 64), 256, dtype=np.uint16))
        with pytest.raises(
            InvalidInputError, match=r"line 3 frame 0: window \[0, 65\) does not fit"
        ):
            self.block(window=(0, 65))

    def test_numbers_are_normalized(self):
        block = self.block(frame_indices=np.arange(4), bit_depth=np.int64(9),
                           sample_rate_hz=np.float32(13.5e6))
        assert block.frame_indices == (0, 1, 2, 3)
        assert type(block.frame_indices[0]) is int and type(block.bit_depth) is int
        assert type(block.sample_rate_hz) is float
        assert block.window == default_window(64)

    def test_an_index_is_an_integer_and_no_bool(self):
        block = self.block()
        assert block[np.int64(1)].line_index == 5 and block[-1].frame_index == 1
        for index in (True, 1.0, "1"):
            with pytest.raises(InvalidInputError, match="index must be an integer"):
                block[index]

    def test_stack_gathers_each_window_as_a_row(self):
        # Equally long windows at different positions pool; each row is one
        # record's window, so the block's window is the whole row.
        records = [
            line_of(np.arange(864) % 97, window=(104, 700), line_index=3, frame_index=0),
            LineRecord(np.arange(864, dtype=np.uint16) % 89, line_index=5, frame_index=0,
                       window=(250, 846)),
            line_of(np.arange(864) % 83, window=(0, 596), line_index=3, frame_index=4),
        ]
        block = LineBlock.stack(iter(records))
        assert block.samples.dtype == np.int64 and not block.samples.flags.writeable
        assert np.array_equal(block.samples, [r.window_samples() for r in records])
        assert block.window == (0, 596)
        assert block.frame_indices == (0, 0, 4) and block.line_indices == (3, 5, 3)
        assert (block.bit_depth, block.sample_rate_hz) == (8, 13.5e6)
        samples = np.concatenate([r.window_samples() for r in records]).tolist()
        for config in (MeasureConfig(), MeasureConfig(filter=FilterSpec())):
            m = accumulate(block, config)
            assert m == accumulate(records, config) == accumulate(records[::-1], config)
            assert m.frames_used == 2 and m.v_ref == statistics.fmean(samples)
        assert accumulate(block).v_n == math.sqrt(statistics.variance(samples))

    @pytest.mark.parametrize(
        "records,message",
        [
            ([], "no lines to accumulate"),
            ([line_of([60] * 64), line_of([60] * 64, bit_depth=10)],
             r"mixed bit depths in accumulation: \[8, 10\]"),
            ([line_of([60] * 64), line_of([60] * 64, sample_rate_hz=14.75e6)],
             r"mixed sample rates in accumulation: \[13500000.0, 14750000.0\]"),
            ([line_of([60] * 64, window=(0, 10)), line_of([60] * 64, window=(5, 16))],
             r"mixed window lengths in accumulation: \[10, 11\]"),
        ],
        ids=["empty", "bit-depths", "sample-rates", "window-lengths"],
    )
    def test_stack_takes_one_format_and_window_length(self, records, message):
        with pytest.raises(InvalidInputError, match=message):
            LineBlock.stack(records)

    def test_empty_block_has_nothing_to_accumulate(self):
        empty = self.block()[4:]
        assert isinstance(empty, LineBlock) and len(empty) == 0
        with pytest.raises(InvalidInputError, match="no lines to accumulate"):
            accumulate(empty)


class TestReferenceLevel:
    def test_constant_input(self):
        assert accumulate([line_of([60] * 500, window=(0, 500))]).v_ref == 60.0

    def test_symmetric_window(self):
        assert accumulate([line_of([59, 60, 61], window=(0, 3))]).v_ref == 60.0

    def test_seeded_gaussian_recovers_level(self):
        rng = np.random.Generator(np.random.PCG64(11))
        samples = np.round(60.0 + rng.normal(0.0, 2.0, 10_000)).astype(np.int32)
        line = line_of(samples, window=(0, 10_000))
        est = accumulate([line]).v_ref
        # independent oracle: direct mean over the same samples
        assert est == pytest.approx(math.fsum(samples.tolist()) / 10_000, rel=1e-15)
        assert abs(est - 60.0) < 3.0 * (2.0 / math.sqrt(10_000)) + 0.01

    def test_short_window_rejected(self):
        with pytest.raises(InvalidInputError, match="line 3 frame 2"):
            LineRecord(
                samples=np.arange(100, dtype=np.int32),
                line_index=3,
                frame_index=2,
                window=(10, 11),
            )


class TestNoiseRms:
    def test_zero_deviation(self):
        assert noise_rms(line_of([60] * 100, window=(0, 100)), 60.0) == 0.0

    def test_two_point_case(self):
        line = line_of([117, 119], window=(0, 2))
        assert noise_rms(line, 118.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_alternating_deviations(self):
        values = [60 + (1 if i % 2 else -1) for i in range(100)]
        line = line_of(values, window=(0, 100))
        # literal definition: sqrt(sum((x - v_ref)^2) / (N - 1))
        oracle = math.sqrt(sum((x - 60.0) ** 2 for x in values) / 99.0)
        got = noise_rms(line, 60.0)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(1.005037815259212, rel=1e-12)

    def test_nonfinite_reference_rejected(self):
        with pytest.raises(InvalidInputError):
            noise_rms(line_of([1, 2, 3], window=(0, 3)), float("nan"))


class TestSnrDb:
    def test_unity_ratio(self):
        assert snr_db(219.0) == 0.0

    def test_forty_db(self):
        value = snr_db(2.19)
        assert type(value) is float
        assert value == pytest.approx(40.0, abs=1e-12)

    def test_full_scale_log(self):
        value = snr_db(1.0)
        assert value == pytest.approx(20.0 * math.log10(219.0), rel=1e-15)
        assert value == pytest.approx(46.808882296802366, abs=1e-9)

    def test_zero_noise_saturates_at_cap(self):
        assert snr_db(0.0) == snr_db(0.0, 10) == MeasureConfig.snr_cap_db == 100.0
        for config in (MeasureConfig(), MeasureConfig(filter=FilterSpec())):
            m = accumulate([line_of([60] * 864)], config)
            assert m.snr_db == 100.0 and m.saturated

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidInputError):
            snr_db(-0.1)

    def test_full_scale_scales_with_bit_depth(self):
        assert _full_scale(8) == 219.0
        assert _full_scale(10) == 876.0
        assert snr_db(876.0, 10) == snr_db(219.0, 8) == 0.0

    @pytest.mark.parametrize("v_n", [1.0, 0.0])
    def test_bit_depth_outside_8_to_10_rejected(self, v_n):
        with pytest.raises(InvalidInputError, match="bit_depth must be 8..10, got 11"):
            snr_db(v_n, 11)


class TestErrorMargin:
    def test_simple_values(self):
        assert error_margin(10.0, 100) == 1.0
        assert error_margin(0.0, 12345) == 0.0
        assert error_margin(3.0, 900) == 0.1

    def test_zero_samples_rejected(self):
        with pytest.raises(InvalidInputError):
            error_margin(1.0, 0)

    def test_a_measurement_works_out_its_margin_and_saturation(self):
        m = Measurement(60.0, 0.3, 100.0, 38700, True, 30)
        assert m.error_margin == 0.3 / math.sqrt(38700)
        assert m.saturated is False
        assert Measurement(60.0, 0.0, 100.0, 38700, True, 30).saturated is True


@pytest.mark.parametrize(
    "record,given,worked_out",
    [
        (Measurement, 6, ["error_margin", "saturated"]),
        (FilterSpec, 1, ["transition_hz", "stopband_atten_db", "kind"]),
        (CaptureHeader, 8, ["format_version"]),
        (Spectrum, 2, []),
        (PsnrResult, 4, ["saturated"]),
        (MeasureConfig, 1, ["full_scale", "max_frames", "snr_cap_db"]),
    ],
)
def test_records_take_only_what_they_cannot_work_out(record, given, worked_out):
    # A field the code can work out, or that has one legal value, is no argument.
    assert sum(f.init for f in dataclasses.fields(record)) == given
    assert [f.name for f in dataclasses.fields(record) if not f.init] == worked_out


class TestSingleLine:
    def test_constant_line_saturates(self):
        m = accumulate([line_of([60] * 864)])
        assert m.v_n == 0.0
        assert m.saturated
        assert m.snr_db == 100.0
        assert m.frames_used == 1

    def test_matches_literal_formula_chain(self):
        # regenerate the synthetic line independently and apply the
        # definitions step by step
        rng = np.random.Generator(np.random.PCG64(5))
        raw = 60.0 + rng.normal(0.0, SIGMA, 864)
        q = np.clip(np.copysign(np.floor(np.abs(raw) + 0.5), raw), 0, 255)
        line = line_of(q.astype(np.int32))

        start, end = line.window
        w = q[start:end]
        v_ref = w.mean()
        v_n = math.sqrt(float(np.sum((w - v_ref) ** 2)) / (len(w) - 1))
        expected_snr = 20.0 * math.log10(219.0 / v_n)

        m = accumulate([line])
        assert m.v_ref == pytest.approx(v_ref, rel=1e-12)
        assert m.v_n == pytest.approx(v_n, rel=1e-12)
        assert m.snr_db == pytest.approx(expected_snr, rel=1e-12)
        # three error margins in dB around the true 40 dB value
        db_margin = 3.0 * 20.0 / (math.log(10.0) * math.sqrt(m.n_samples))
        assert abs(m.snr_db - 40.0) < db_margin + 0.2
        assert m.error_margin == m.v_n / math.sqrt(m.n_samples)

    def test_filter_recovers_snr_under_interferer(self):
        t = np.arange(864) / 13.5e6
        rng = np.random.Generator(np.random.PCG64(2))
        raw = 60.0 + 10.0 * np.sin(2 * np.pi * 5.5e6 * t) + rng.normal(0.0, SIGMA, 864)
        q = np.clip(np.copysign(np.floor(np.abs(raw) + 0.5), raw), 0, 255)
        line = line_of(q.astype(np.int32))

        unfiltered = accumulate([line])
        filtered = accumulate([line], MeasureConfig(filter=FilterSpec()))
        assert unfiltered.snr_db < 30.0
        assert abs(filtered.snr_db - 40.0) < 1.0
        assert filtered.filtered and not unfiltered.filtered
        assert filtered.n_samples < unfiltered.n_samples


class TestAccumulate:
    def test_single_line_identity(self, clean_capture):
        # One record and the one-row block it came from give the same bits.
        block = extract_vbi_lines(clean_capture)
        for config in (MeasureConfig(), MeasureConfig(filter=FilterSpec())):
            assert accumulate([block[0]], config) == accumulate(block[:1], config)

    @pytest.mark.parametrize("filt", [None, FilterSpec()], ids=["raw", "filtered"])
    def test_constant_lines_saturate(self, filt):
        lines = [
            line_of([60] * 864, frame_index=f, line_index=0) for f in range(30)
        ]
        m = accumulate(lines, MeasureConfig(filter=filt))
        assert m.v_n == 0.0 and m.saturated and m.frames_used == 30
        assert m.snr_db == 100.0 and m.error_margin == 0.0

    def test_error_margin_quarter_sample_law(self):
        # pooling 4x the frames should halve the margin, up to noise in v_n
        for seed in range(50):
            rng = np.random.Generator(np.random.PCG64(seed))
            frames = []
            for f in range(4):
                raw = 60.0 + rng.normal(0.0, SIGMA, 864)
                q = np.clip(np.round(raw), 0, 255).astype(np.int32)
                frames.append(line_of(q, frame_index=f))
            one = accumulate(frames[:1])
            four = accumulate(frames)
            ratio = four.error_margin / one.error_margin
            assert abs(ratio - 0.5) < 0.1

    def test_raw_statistics_are_exactly_rounded(self):
        # statistics.variance works in exact fractions and rounds once, so
        # its square root and fmean are the exactly rounded oracle. The lines
        # of a measurement share one window, a different one per seed; the
        # last case pools two equally long windows at different positions.
        windows = [None, (104, 700), (250, 847), (300, 600)]
        cases = [(bit_depth, seed, [windows[seed % 4]])
                 for bit_depth, seed in itertools.product((8, 10), range(60))]
        cases += [(bit_depth, 60, [(104, 700), (250, 846)]) for bit_depth in (8, 10)]
        for bit_depth, seed, shared in cases:
            scale = 1 << (bit_depth - 8)
            config = SynthConfig(
                black_level=60.0 * scale,
                noise_sigma=SIGMA * scale,
                seed=seed,
                interferers=((SOUND_CARRIER_HZ, 10.0 * scale, 0.0),),
                bit_depth=bit_depth,
            )
            lines = extract_vbi_lines(synthesize(config))
            lines = [
                LineRecord(line.samples, bit_depth=bit_depth,
                           frame_index=line.frame_index, window=shared[i % len(shared)])
                for i, line in enumerate(lines)
            ]
            samples = np.concatenate([line.window_samples() for line in lines]).tolist()
            m = accumulate(lines)
            assert m.v_n == math.sqrt(statistics.variance(samples)), (bit_depth, seed)
            assert m.v_ref == statistics.fmean(samples), (bit_depth, seed)
            assert m.n_samples == len(samples)

    def test_filtered_mixed_window_lengths(self, interferer_capture):
        # Each line is filtered on its own and its sum of squares taken
        # alone, so the per-line 1-D path is a bit-exact oracle. The six
        # lines share each window in turn; the last case pools two equally
        # long windows at different positions.
        config = MeasureConfig(filter=FilterSpec())
        taps = design_lowpass(config.filter, 13.5e6)
        records = list(extract_vbi_lines(interferer_capture, 3))
        cases = [[window] * 6 for window in [(104, 847), (104, 700), (300, 847), (250, 600)]]
        cases.append([(104, 700), (250, 846)] * 3)
        for windows in cases:
            lines = [
                LineRecord(samples=line.samples, frame_index=line.frame_index, window=window)
                for line, window in zip(records, windows)
            ]
            m = accumulate(lines, config)
            v_ref = statistics.fmean(
                np.concatenate([line.window_samples() for line in lines]).tolist()
            )
            filtered = [apply_filter(line.window_samples() - v_ref, taps) for line in lines]
            n = sum(y.size for y in filtered)
            ss = math.fsum(float(np.sum(np.square(y))) for y in filtered)
            assert m.v_ref == v_ref, windows
            assert m.n_samples == n == sum(e - s - len(taps) + 1 for s, e in windows)
            assert m.v_n == math.sqrt(ss / (n - 1)) / noise_gain(taps), windows
            assert accumulate(lines[::-1], config) == m
            # Writable int32 copies of the same rows give the same measurement,
            # raw and filtered: the result does not depend on the input dtype.
            widened = [
                LineRecord(line.samples.astype(np.int32), frame_index=line.frame_index,
                           window=line.window)
                for line in lines
            ]
            assert widened[0].samples.dtype == np.int32
            assert accumulate(widened, config) == m
            assert accumulate(widened) == accumulate(lines)

    @pytest.mark.parametrize("bit_depth", [8, 10])
    @pytest.mark.parametrize("frame_range", [None, 5, (3, 11)])
    @pytest.mark.parametrize("window", [None, (150, 800)])
    def test_block_and_records_give_the_same_bits(self, bit_depth, frame_range, window):
        scale = 1 << (bit_depth - 8)
        capture = synthesize(SynthConfig(
            black_level=60.0 * scale, noise_sigma=SIGMA * scale, seed=11,
            interferers=((SOUND_CARRIER_HZ, 10.0 * scale, 0.0),),
            bit_depth=bit_depth, frames=12, lines_per_frame=4,
        ))
        # Lines out of order and not adjacent, so the gather is no plain slice.
        header = dataclasses.replace(capture.header, vbi_line_indices=(3, 0, 2))
        capture = CaptureFile(header, capture.samples)
        block = dataclasses.replace(extract_vbi_lines(capture, frame_range), window=window)
        records = list(block)
        shuffled = random.Random(5).sample(records, len(records))
        # The records extract_vbi_lines built one by one: mapped rows.
        frames = {None: range(12), 5: range(5), (3, 11): range(3, 11)}[frame_range]
        built = [
            LineRecord(capture.samples[f, i], bit_depth=bit_depth, line_index=i,
                       frame_index=f, window=window)
            for f in frames for i in (3, 0, 2)
        ]
        for config in (MeasureConfig(), MeasureConfig(filter=FilterSpec())):
            m = accumulate(block, config)
            assert m.frames_used == len(frames)
            assert accumulate(records, config) == m
            assert accumulate(shuffled, config) == m
            assert accumulate(built, config) == m

    def test_block_frame_limit_counts_distinct_frames(self, clean_capture):
        block = extract_vbi_lines(clean_capture)
        assert len(block) == 60 and accumulate(block).frames_used == 30
        longer = extract_vbi_lines(synthesize(SynthConfig(frames=31)))
        for config in (MeasureConfig(), MeasureConfig(filter=FilterSpec())):
            with pytest.raises(InvalidInputError, match="31 frames exceed the 30-frame limit"):
                accumulate(longer, config)

    def test_filtered_short_window_reported_in_any_order(self):
        config = MeasureConfig(filter=FilterSpec())
        short = [line_of([60] * 864, frame_index=f, window=(0, 60)) for f in range(3)]
        for order in (short, short[::-1]):
            with pytest.raises(MeasurementImpossibleError, match="input of 60 samples"):
                accumulate(order, config)
        # Lines whose windows differ in length do not pool, whatever the order.
        mixed = [
            line_of([60] * 864, frame_index=0),
            line_of([60] * 864, frame_index=1, window=(0, 80)),
            line_of([60] * 864, frame_index=2, window=(0, 60)),
        ]
        for order in (mixed, mixed[::-1]):
            with pytest.raises(
                InvalidInputError,
                match=r"mixed window lengths in accumulation: \[60, 80, 743\]",
            ):
                accumulate(order, config)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError, match="no lines"):
            accumulate([])

    def test_mixed_bit_depths_rejected(self):
        a = line_of([60] * 864, bit_depth=8)
        b = line_of([60] * 864, bit_depth=10)
        with pytest.raises(InvalidInputError, match="mixed bit depths"):
            accumulate([a, b])

    def test_mixed_sample_rates_rejected(self):
        a = line_of([60] * 864)
        b = line_of([60] * 864, sample_rate_hz=14.75e6)
        with pytest.raises(InvalidInputError, match="mixed sample rates"):
            accumulate([a, b])

    def test_frame_limit_enforced(self):
        lines = [line_of([60] * 864, frame_index=f) for f in range(31)]
        with pytest.raises(InvalidInputError, match="30-frame limit"):
            accumulate(lines)
        # 31 records over 30 distinct frames is fine
        lines[30] = line_of([60] * 864, frame_index=0, line_index=1)
        assert accumulate(lines).frames_used == 30


class TestMeasureConfig:
    def test_json_object_lists_the_fields_in_order(self):
        config = MeasureConfig(filter=FilterSpec(cutoff_hz=1.5e6))
        assert dataclasses.asdict(config) == {
            "full_scale": None,
            "max_frames": 30,
            "snr_cap_db": 100.0,
            "filter": {
                "cutoff_hz": 1.5e6,
                "transition_hz": 0.5e6,
                "stopband_atten_db": 60.0,
                "kind": "windowed-sinc-lowpass",
            },
        }
        assert list(dataclasses.asdict(config)) == [
            "full_scale", "max_frames", "snr_cap_db", "filter"]
        assert MeasureConfig.from_dict(dataclasses.asdict(config)) == config
        assert dataclasses.asdict(MeasureConfig())["filter"] is None

    @pytest.mark.parametrize("filt", ["on", {"cutoff_hz": 2e6}], ids=["text", "dict"])
    def test_filter_must_be_none_or_a_filter_spec(self, filt):
        with pytest.raises(InvalidInputError, match="filter must be None or a FilterSpec"):
            MeasureConfig(filter=filt)


class TestPsnr:
    def test_identical_planes_saturate(self):
        plane = np.arange(64, dtype=np.int32).reshape(8, 8)
        result = psnr(plane, plane)
        assert result.mse == 0.0
        assert result.saturated
        assert result.psnr_db == 100.0

    def test_a_result_works_out_its_saturation(self):
        assert PsnrResult(0.0, 100.0, 8).saturated is True
        assert PsnrResult(1.0, 48.13, 8).saturated is False

    def test_peak_error_is_zero_db(self):
        a = np.zeros((16, 16), dtype=np.int32)
        b = np.full((16, 16), 255, dtype=np.int32)
        result = psnr(a, b, bits_per_pixel=8)
        assert result.mse == 65025.0
        assert result.psnr_db == 0.0

    def test_unit_mse(self):
        a = np.zeros((10, 10), dtype=np.int32)
        b = np.ones((10, 10), dtype=np.int32)
        result = psnr(a, b, bits_per_pixel=8)
        assert result.mse == 1.0
        assert result.psnr_db == pytest.approx(10.0 * math.log10(255.0**2), rel=1e-12)
        assert result.psnr_db == pytest.approx(48.1308036086791, abs=1e-3)

    def test_shape_mismatch_lists_both(self):
        with pytest.raises(InvalidInputError, match=r"\(4, 4\) vs \(4, 5\)"):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_one_dimensional_plane_rejected(self):
        with pytest.raises(InvalidInputError, match="expected a 2-D or 3-D pixel plane, got 1-D"):
            psnr(np.zeros(16), np.zeros(16))

    def test_one_label_per_channel(self):
        with pytest.raises(InvalidInputError, match="2 labels supplied for 3 channels"):
            psnr(np.zeros((4, 4, 3), dtype=np.uint8), np.zeros((4, 4, 3), dtype=np.uint8),
                 channel_labels=["Y", "U"])

    def test_per_channel_breakdown(self):
        a = np.zeros((4, 4, 3), dtype=np.int32)
        b = a.copy()
        b[:, :, 1] = 3  # only the middle channel differs
        result = psnr(a, b, bits_per_pixel=8)
        assert result.per_channel is not None
        labels = [label for label, _ in result.per_channel]
        assert labels == ["ch0", "ch1", "ch2"]
        values = dict(result.per_channel)
        assert values["ch0"] == 100.0  # per-channel saturation
        assert values["ch1"] == pytest.approx(10 * math.log10(255**2 / 9.0), rel=1e-12)
        assert result.mse == pytest.approx(9.0 / 3.0, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bad,fault",
        [
            (np.full((2, 2), 256), "sample values exceed the 8-bit code range"),
            (np.full((2, 2), -1), "sample values exceed the 8-bit code range"),
            (np.zeros((2, 2)), "samples must be integer ADC codes"),
            (np.array([[0.0, np.nan], [0.0, 0.0]]), "samples must be integer ADC codes"),
        ],
        ids=["above-top", "negative", "float", "nan"],
    )
    @pytest.mark.parametrize("name", ["original", "decoded"])
    def test_each_plane_is_admitted_by_name(self, bad, fault, name):
        good = np.zeros(bad.shape, dtype=np.uint8)
        planes = {"original": good, "decoded": good, name: bad}
        with pytest.raises(InvalidInputError, match=f"^{name}: {fault}$"):
            psnr(**planes, bits_per_pixel=8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(0, 0), (4, 0), (0, 4, 3)])
    def test_empty_planes_rejected(self, shape):
        # Equal shapes, so the first plane is the one named.
        empty = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(InvalidInputError, match="^original: the pixel plane is empty$"):
            psnr(empty, empty)

    @pytest.mark.parametrize("bits", [1, 10, 16])
    def test_the_top_code_of_each_width_is_admitted(self, bits):
        top = np.full((2, 2), (1 << bits) - 1)
        assert psnr(top, np.zeros((2, 2), dtype=np.int64), bits_per_pixel=bits).psnr_db == 0.0
        with pytest.raises(InvalidInputError, match=f"^original: .*{bits}-bit code range$"):
            psnr(top + 1, top, bits_per_pixel=bits)

    def test_bits_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            psnr(np.zeros((2, 2)), np.zeros((2, 2)), bits_per_pixel=17)

    @pytest.mark.parametrize("bits", [8.5, True])
    def test_bits_must_be_an_integer(self, bits):
        with pytest.raises(InvalidInputError, match="bits_per_pixel must be an integer"):
            psnr(np.zeros((2, 2)), np.zeros((2, 2)), bits_per_pixel=bits)


def test_default_window_rule():
    assert default_window(864) == (104, 847)
    assert default_window(1000) == (120, 980)
    start, end = default_window(100)
    assert start == 12 and end == 98
