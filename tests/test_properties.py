"""Invariants and statistical properties of the measurement chain."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vbisnr import (
    FilterSpec,
    LineBlock,
    LineRecord,
    MeasureConfig,
    SynthConfig,
    accumulate,
    error_margin,
    extract_vbi_lines,
    noise_rms,
    psnr,
    read_capture,
    snr_db,
    synthesize,
    write_capture,
)

from conftest import SIGMA

samples_strategy = st.lists(st.integers(min_value=0, max_value=255), min_size=2, max_size=200)


@given(samples_strategy)
def test_noise_rms_equals_sample_standard_deviation(values):
    # with v_ref at the sample mean, the estimator is the textbook
    # N-1 standard deviation; oracle is an independent two-pass loop
    line = LineRecord(samples=np.asarray(values, dtype=np.int32),
                      window=(0, len(values)))
    mean = math.fsum(values) / len(values)
    oracle = math.sqrt(math.fsum((x - mean) ** 2 for x in values) / (len(values) - 1))
    got = noise_rms(line, mean)
    assert got == pytest.approx(oracle, rel=1e-9, abs=1e-12)


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1e-6, max_value=1e6),
)
@example(1.0000000000000002e-06, 1e-06)
def test_snr_strictly_decreases_with_noise(a, b):
    if a == b:
        return
    low, high = sorted((a, b))
    if high > low * (1 + 1e-12):
        assert snr_db(low) > snr_db(high)
    else:
        # A few ulps of v_n move the dB value by less than its own ulp.
        assert snr_db(low) >= snr_db(high)


@pytest.mark.parametrize("scale", [2, 3, 5, 10])
def test_scaling_deviations_shifts_snr_by_log_of_scale(scale):
    rng = np.random.Generator(np.random.PCG64(17))
    deviations = rng.integers(-10, 11, size=500)
    base = (100 + deviations).astype(np.int32)
    scaled = (100 + scale * deviations).astype(np.int32)

    line = LineRecord(samples=base, window=(0, 500))
    line_scaled = LineRecord(samples=scaled, window=(0, 500))
    v_n = noise_rms(line, 100.0)
    v_n_scaled = noise_rms(line_scaled, 100.0)
    assert v_n_scaled == pytest.approx(scale * v_n, rel=1e-12)
    delta = snr_db(v_n_scaled) - snr_db(v_n)
    assert delta == pytest.approx(-20.0 * math.log10(scale), abs=1e-9)


@given(
    st.floats(min_value=1e-9, max_value=1e9),
    st.integers(min_value=1, max_value=10**12),
)
def test_error_margin_sample_scaling_law(v_n, n):
    # quadrupling the population halves the margin bit-exactly
    assert error_margin(v_n, 4 * n) == error_margin(v_n, n) / 2.0
    assert error_margin(v_n, 16 * n) == error_margin(v_n, n) / 4.0
    # general k: exact up to final rounding
    for k in (2, 3, 7):
        assert error_margin(v_n, k * n) == pytest.approx(
            error_margin(v_n, n) / math.sqrt(k), rel=1e-14
        )


@st.composite
def line_batches(draw):
    n_lines = draw(st.integers(min_value=2, max_value=6))
    length = draw(st.integers(min_value=150, max_value=220))
    lines = []
    for i in range(n_lines):
        values = draw(
            st.lists(
                st.integers(min_value=40, max_value=80),
                min_size=length,
                max_size=length,
            )
        )
        lines.append(
            LineRecord(
                samples=np.asarray(values, dtype=np.int32),
                frame_index=i,
                window=(0, length),
            )
        )
    return lines


def _permuted_block(lines, rand):
    # The drawn lines as one block, built directly, its rows in a random order.
    order = list(range(len(lines)))
    rand.shuffle(order)
    return LineBlock(
        np.array([lines[i].samples for i in order]),
        frame_indices=[lines[i].frame_index for i in order],
        line_indices=[lines[i].line_index for i in order],
        window=lines[0].window,
    )


@settings(max_examples=30, deadline=None)
@given(line_batches(), st.randoms(use_true_random=False))
def test_accumulation_is_order_independent(lines, rand):
    shuffled = list(lines)
    rand.shuffle(shuffled)
    assert accumulate(shuffled) == accumulate(lines)
    assert accumulate(_permuted_block(lines, rand)) == accumulate(lines)


@settings(max_examples=10, deadline=None)
@given(line_batches(), st.randoms(use_true_random=False))
def test_filtered_accumulation_is_order_independent(lines, rand):
    config = MeasureConfig(filter=FilterSpec())
    shuffled = list(lines)
    rand.shuffle(shuffled)
    assert accumulate(shuffled, config) == accumulate(lines, config)
    assert accumulate(_permuted_block(lines, rand), config) == accumulate(lines, config)


@given(st.integers(min_value=1, max_value=255))
def test_psnr_matches_snr_form_for_constant_error(v):
    a = np.zeros((8, 8), dtype=np.int32)
    b = np.full((8, 8), v, dtype=np.int32)
    result = psnr(a, b, bits_per_pixel=8)
    assert result.mse == float(v * v)
    assert result.psnr_db == pytest.approx(20.0 * math.log10(255.0 / v), abs=1e-9)


def test_measurement_invariants_hold_on_real_output(interferer_capture):
    lines = extract_vbi_lines(interferer_capture)
    for config in (MeasureConfig(), MeasureConfig(filter=FilterSpec())):
        m = accumulate(lines, config)
        assert m.error_margin == m.v_n / math.sqrt(m.n_samples)
        assert m.saturated == (m.v_n == 0.0)
        if not m.filtered:
            assert m.snr_db == pytest.approx(
                20.0 * math.log10(219.0 / m.v_n), rel=1e-15
            )


def test_statistical_recovery_at_64k_samples():
    # 16 frames x 4 lines x 1024 samples = 65536 pooled values per seed
    truth = 20.0 * math.log10(219.0 / SIGMA)  # 40 dB
    hits = 0
    for seed in range(100):
        cap = synthesize(
            SynthConfig(
                noise_sigma=SIGMA, seed=seed, frames=16, lines_per_frame=4,
                samples_per_line=1024,
            )
        )
        lines = replace(extract_vbi_lines(cap), window=(0, 1024))
        m = accumulate(lines)
        assert m.n_samples == 65536
        if abs(m.snr_db - truth) <= 0.2:
            hits += 1
    assert hits >= 95


def test_mean_noise_estimate_tracks_sigma():
    # averaged over seeds, the pooled RMS estimate stays within 1% of sigma
    estimates = []
    for seed in range(100):
        cap = synthesize(
            SynthConfig(
                noise_sigma=SIGMA, seed=1000 + seed, frames=16, lines_per_frame=4,
                samples_per_line=1024,
            )
        )
        lines = replace(extract_vbi_lines(cap), window=(0, 1024))
        estimates.append(accumulate(lines).v_n)
    assert abs(float(np.mean(estimates)) - SIGMA) / SIGMA < 0.01


@pytest.mark.parametrize("freq_hz", [2.6e6, 5.5e6])
@pytest.mark.parametrize("amplitude", [5.0, 20.0])
def test_out_of_band_interference_only_hurts_unfiltered(freq_hz, amplitude):
    base_cfg = dict(noise_sigma=1.5, seed=31, frames=6)
    clean = synthesize(SynthConfig(**base_cfg))
    dirty = synthesize(SynthConfig(**base_cfg, interferers=((freq_hz, amplitude, 0.0),)))
    filtered = MeasureConfig(filter=FilterSpec())

    clean_lines = extract_vbi_lines(clean)
    dirty_lines = extract_vbi_lines(dirty)
    clean_filtered = accumulate(clean_lines, filtered).snr_db
    dirty_filtered = accumulate(dirty_lines, filtered).snr_db
    assert dirty_filtered >= clean_filtered - 0.5

    clean_raw = accumulate(clean_lines).snr_db
    dirty_raw = accumulate(dirty_lines).snr_db
    assert dirty_raw < clean_raw


@settings(max_examples=25, deadline=None)
@given(
    frames=st.integers(min_value=1, max_value=3),
    lines_per_frame=st.integers(min_value=1, max_value=3),
    spl=st.integers(min_value=16, max_value=64),
    bit_depth=st.sampled_from([8, 9, 10]),
    seed=st.integers(min_value=0, max_value=2**32),
    label=st.text(
        alphabet=st.characters(codec="utf-8", exclude_characters="\n\r"),
        max_size=12,
    ),
)
def test_capture_round_trip_is_identity(tmp_path_factory, frames, lines_per_frame,
                                        spl, bit_depth, seed, label):
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = rng.integers(0, 1 << bit_depth, size=(frames, lines_per_frame, spl))
    from vbisnr import CaptureFile, CaptureHeader

    cap = CaptureFile(
        header=CaptureHeader(
            samples_per_line=spl,
            lines_per_frame=lines_per_frame,
            frames=frames,
            vbi_line_indices=(0,),
            bit_depth=bit_depth,
            channel_label=label,
        ),
        samples=samples.astype(np.int32),
    )
    path = tmp_path_factory.mktemp("rt") / "cap.vbi"
    write_capture(cap, path)
    first = path.read_bytes()
    back = read_capture(path)
    assert back.header == cap.header
    assert np.array_equal(back.samples, cap.samples)
    write_capture(back, path)
    assert path.read_bytes() == first


def test_filter_keeps_snr_comparable_between_modes(clean_capture):
    # white-noise capture: filtered and unfiltered modes must agree
    lines = extract_vbi_lines(clean_capture)
    unfiltered = accumulate(lines)
    filtered = accumulate(lines, MeasureConfig(filter=FilterSpec()))
    assert abs(filtered.snr_db - unfiltered.snr_db) < 0.5
