"""Accumulation reads the known truth of each impairment in tests/impairments.py:
raw for every impairment, and filtered for the coloured noise."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from vbisnr import (
    CaptureFile,
    FilterSpec,
    MeasureConfig,
    SynthConfig,
    accumulate,
    default_window,
    extract_vbi_lines,
    synthesize,
)
from vbisnr.synth import _quantize

from impairments import (
    BASE_SIGMA,
    BURST_HZ,
    BURST_LEVEL,
    BURST_SAMPLES,
    BURST_TAIL_SAMPLES,
    CLIP_CODES,
    COLOURED_FILTERED,
    COLOURED_LAG1,
    COLOURED_SIGMA,
    COLOURING_TAPS,
    DATA_LEVEL,
    FILTERED_TOLERANCE,
    HUM_CODES,
    IMPULSE_CODES,
    IMPULSE_RATE,
    LAG1_TOLERANCE,
    QUANTIZATION_FLOOR,
    SEEDS,
    TOLERANCE,
    TONE_CODES,
    TONE_HZ,
    black_clip,
    burst_tail,
    coloured_noise,
    data_line,
    field_hum,
    free_tone,
    impulses,
    locked_tone,
)


def raw_variance(capture) -> float:
    return accumulate(extract_vbi_lines(capture)).v_n ** 2


@pytest.mark.parametrize("bit_depth", [8, 10])
@pytest.mark.parametrize("seed", SEEDS)
def test_coloured_noise_reads_its_truth_plus_the_floor(seed, bit_depth):
    clean = synthesize(SynthConfig(bit_depth=bit_depth))
    impaired, truth = coloured_noise(clean, seed=seed)
    assert truth == COLOURED_SIGMA**2 * sum(h * h for h in COLOURING_TAPS)
    assert raw_variance(impaired) == pytest.approx(truth + QUANTIZATION_FLOOR, rel=TOLERANCE)


@pytest.mark.parametrize("bit_depth", [8, 10])
@pytest.mark.parametrize("seed", SEEDS)
def test_coloured_noise_reads_its_filtered_truth(seed, bit_depth):
    impaired, _ = coloured_noise(synthesize(SynthConfig(bit_depth=bit_depth)), seed=seed)
    assert COLOURED_FILTERED == pytest.approx(13.63, abs=5e-3)
    filtered = accumulate(extract_vbi_lines(impaired), MeasureConfig(filter=FilterSpec()))
    assert filtered.n_samples == 38700
    assert filtered.v_n**2 == pytest.approx(COLOURED_FILTERED, rel=FILTERED_TOLERANCE)


def pooled_lag1(capture) -> float:
    # The lag-1 sample correlation of the pooled windows about their pooled
    # mean, over neighbours within a row.
    start, end = default_window(capture.header.samples_per_line)
    lines = list(capture.header.vbi_line_indices)
    x = capture.samples[:, lines, start:end].astype(np.float64)
    x -= x.mean()
    return float(np.sum(x[..., 1:] * x[..., :-1]) / np.sum(x * x))


@pytest.mark.parametrize("bit_depth", [8, 10])
@pytest.mark.parametrize("seed", SEEDS)
def test_coloured_noise_reads_its_lag1_correlation(seed, bit_depth):
    impaired, _ = coloured_noise(synthesize(SynthConfig(bit_depth=bit_depth)), seed=seed)
    assert COLOURED_LAG1 == pytest.approx(0.658, abs=5e-4)
    assert pooled_lag1(impaired) == pytest.approx(COLOURED_LAG1, abs=LAG1_TOLERANCE)


@pytest.mark.parametrize("seed", SEEDS)
def test_field_hum_reads_its_truth_plus_the_floor(seed):
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed))
    impaired, truth = field_hum(base)
    assert truth == HUM_CODES**2
    expected = BASE_SIGMA**2 + truth + QUANTIZATION_FLOOR
    assert raw_variance(impaired) == pytest.approx(expected, rel=TOLERANCE)


def test_hum_alone_is_exactly_the_between_line_variance():
    # A noise-free line has no rounding error, so the pooled N - 1 variance
    # is the truth scaled by N / (N - 1).
    impaired, truth = field_hum(synthesize(SynthConfig()))
    m = accumulate(extract_vbi_lines(impaired))
    assert m.v_n**2 == pytest.approx(truth * m.n_samples / (m.n_samples - 1), rel=1e-12)


def test_impairments_leave_their_input_and_repeat_by_seed():
    clean = synthesize(SynthConfig())
    before = clean.samples.copy()
    first, _ = coloured_noise(clean, seed=SEEDS[0])
    again, _ = coloured_noise(clean, seed=SEEDS[0])
    hum, _ = field_hum(clean)
    data, _, _ = data_line(clean, seed=SEEDS[0])
    data_again, _, _ = data_line(clean, seed=SEEDS[0])
    spiked, _, _ = impulses(clean, seed=SEEDS[0])
    spiked_again, _, _ = impulses(clean, seed=SEEDS[0])
    clipped, _ = black_clip(clean)
    locked, _, _ = locked_tone(clean)
    free, _ = free_tone(clean, seed=SEEDS[0])
    free_again, _ = free_tone(clean, seed=SEEDS[0])
    burst, _, _ = burst_tail(clean)
    np.testing.assert_array_equal(clean.samples, before)
    np.testing.assert_array_equal(first.samples, again.samples)
    np.testing.assert_array_equal(data.samples, data_again.samples)
    np.testing.assert_array_equal(spiked.samples, spiked_again.samples)
    np.testing.assert_array_equal(free.samples, free_again.samples)
    for impaired in (first, hum, data, spiked, clipped, locked, free, burst):
        assert impaired.header == clean.header
        assert impaired.samples.dtype == clean.samples.dtype


def test_coloured_noise_needs_a_noise_free_capture():
    with pytest.raises(ValueError, match="noise-free"):
        coloured_noise(synthesize(SynthConfig(noise_sigma=1.0)))


@pytest.mark.parametrize("seed", SEEDS)
def test_data_line_reads_its_truth_plus_the_floor(seed):
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed, lines_per_frame=3))
    impaired, line, truth = data_line(base, seed=seed)
    assert line == 0
    expected = BASE_SIGMA**2 + truth + QUANTIZATION_FLOOR
    assert raw_variance(impaired) == pytest.approx(expected, rel=TOLERANCE)


@pytest.mark.parametrize("seed", SEEDS)
def test_data_line_is_the_one_line_that_reads_loud(seed):
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed, lines_per_frame=3))
    impaired, line, _ = data_line(base, line=1, seed=seed)
    assert line == 1
    block = extract_vbi_lines(impaired)
    # Rows are frame-major, so every third row from i is listed line i.
    variances = [accumulate(block[i::3]).v_n ** 2 for i in range(3)]
    assert int(np.argmax(variances)) == line
    for i in (0, 2):
        assert variances[i] == pytest.approx(BASE_SIGMA**2 + QUANTIZATION_FLOOR, rel=TOLERANCE)


@pytest.mark.parametrize("bit_depth,codes", [(8, 145), (10, 578)])
def test_data_line_is_two_whole_code_levels_on_its_line(bit_depth, codes):
    clean = synthesize(SynthConfig(bit_depth=bit_depth, lines_per_frame=3))
    impaired, line, _ = data_line(clean, line=2, seed=SEEDS[0])
    assert codes == round(DATA_LEVEL * 219 * 2 ** (bit_depth - 8))
    added = impaired.samples.astype(np.int64) - clean.samples
    assert set(np.unique(added[:, line]).tolist()) == {0, codes}
    assert not added[:, :line].any()
    # The level changes only where a 6.9375 Mbit/s bit ends, and there about
    # half the time, as random bits do.
    ends = np.diff(np.floor(np.arange(864) * (6.9375e6 / 13.5e6))) > 0
    changes = np.diff(added[:, line], axis=-1) != 0
    assert not changes[:, ~ends].any()
    assert 0.45 < changes[:, ends].mean() < 0.55


def test_data_line_must_be_listed():
    with pytest.raises(ValueError, match="not a listed VBI line"):
        data_line(synthesize(SynthConfig()), line=5)


@pytest.mark.parametrize("seed", SEEDS)
def test_impulses_read_their_truth_plus_the_floor(seed):
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed))
    impaired, _, truth = impulses(base, seed=seed)
    assert 0 < truth < 2 * IMPULSE_RATE * IMPULSE_CODES**2
    expected = BASE_SIGMA**2 + truth + QUANTIZATION_FLOOR
    assert raw_variance(impaired) == pytest.approx(expected, rel=TOLERANCE)


@pytest.mark.parametrize("seed", SEEDS)
def test_impulses_are_whole_code_spikes_at_their_positions(seed):
    # Three lines, of which 0 and 2 are listed.
    three = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed, lines_per_frame=3))
    base = CaptureFile(replace(three.header, vbi_line_indices=(0, 2)), three.samples)
    impaired, positions, truth = impulses(base, seed=seed)
    added = impaired.samples.astype(np.int64) - base.samples
    assert not added[:, 1].any()
    start, end = default_window(864)
    inside = np.zeros(added.shape, dtype=bool)
    inside[:, [0, 2], start:end] = True
    np.testing.assert_array_equal(positions, np.argwhere((added != 0) & inside))
    spikes = added[tuple(positions.T)]
    assert set(np.unique(spikes).tolist()) == {-IMPULSE_CODES, IMPULSE_CODES}
    n = 30 * 2 * (end - start)
    assert truth == pytest.approx(np.sum(spikes**2) / n - (spikes.sum() / n) ** 2, rel=1e-12)


def test_impulses_that_would_clip_are_refused():
    with pytest.raises(ValueError, match="clipped"):
        impulses(synthesize(SynthConfig(black_level=IMPULSE_CODES - 1.0)))


@pytest.mark.parametrize("seed", SEEDS)
def test_clip_count_is_the_one_quantize_gives(seed):
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed))
    impaired, truth = black_clip(base)
    start, end = default_window(864)
    windows = base.samples[:, :, start:end].astype(np.float64) - CLIP_CODES
    assert truth == _quantize(windows, 255, np.empty(windows.shape, np.uint8)) > 0
    assert np.count_nonzero(impaired.samples[:, :, start:end] == 0) >= truth


@pytest.mark.parametrize("seed", SEEDS)
def test_clipping_reads_below_the_band(seed):
    # Clipping pulls the low tail in, so the estimator reads too little
    # noise: the failure a clip flag must report.
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed))
    impaired, _ = black_clip(base)
    unclipped = BASE_SIGMA**2 + QUANTIZATION_FLOOR
    assert raw_variance(impaired) < unclipped * (1 - TOLERANCE)


def window_offsets(impaired, base) -> np.ndarray:
    # The whole codes an impairment added to the pooled windows, one row per line.
    start, end = default_window(864)
    lines = list(base.header.vbi_line_indices)
    added = impaired.samples.astype(np.int64) - base.samples
    return added[:, lines, start:end].reshape(-1, end - start)


@pytest.mark.parametrize("seed", SEEDS)
def test_locked_tone_reads_its_truth_plus_the_floor(seed):
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed))
    impaired, _, power = locked_tone(base)
    expected = BASE_SIGMA**2 + power + QUANTIZATION_FLOOR
    assert raw_variance(impaired) == pytest.approx(expected, rel=TOLERANCE)


@pytest.mark.parametrize("seed", SEEDS)
def test_free_tone_reads_its_truth_plus_the_floor(seed):
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed))
    impaired, power = free_tone(base, seed=seed)
    expected = BASE_SIGMA**2 + power + QUANTIZATION_FLOOR
    assert raw_variance(impaired) == pytest.approx(expected, rel=TOLERANCE)


@pytest.mark.parametrize("seed", SEEDS)
def test_locked_tone_repeats_its_pattern_on_every_line(seed):
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed))
    impaired, pattern, power = locked_tone(base)
    rows = window_offsets(impaired, base)
    np.testing.assert_array_equal(rows, np.broadcast_to(pattern, rows.shape))
    assert power == np.var(pattern)
    # A sine of TONE_CODES rounded to whole codes: about TONE_CODES^2 / 2,
    # plus the rounding's 1/12.
    assert np.abs(pattern).max() == TONE_CODES
    assert power == pytest.approx(TONE_CODES**2 / 2 + QUANTIZATION_FLOOR, rel=0.05)
    # One cycle every 13.5 samples at 13.5 MHz.
    spectrum = np.abs(np.fft.rfft(pattern - pattern.mean()))
    assert np.argmax(spectrum) == round(TONE_HZ / 13.5e6 * pattern.size)


@pytest.mark.parametrize("seed", SEEDS)
def test_free_tone_leaves_no_pattern(seed):
    # The same tone, but each line at its own phase: the per-position mean
    # over the 60 lines keeps about 1/60 of the power, not all of it.
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed))
    impaired, power = free_tone(base, seed=seed)
    _, _, locked_power = locked_tone(base)
    rows = window_offsets(impaired, base)
    assert power == pytest.approx(np.var(rows), rel=1e-12)
    assert power == pytest.approx(locked_power, rel=0.05)
    assert np.var(rows.mean(axis=0)) < power / 20
    assert np.abs(rows).max() == TONE_CODES


def test_a_tone_that_would_clip_is_refused():
    for tone in (locked_tone, free_tone):
        with pytest.raises(ValueError, match="clipped"):
            tone(synthesize(SynthConfig(black_level=TONE_CODES - 1.0)))


@pytest.mark.parametrize("seed", SEEDS)
def test_burst_tail_reads_its_truth_plus_the_floor(seed):
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed))
    impaired, _, power = burst_tail(base)
    expected = BASE_SIGMA**2 + power + QUANTIZATION_FLOOR
    assert raw_variance(impaired) == pytest.approx(expected, rel=TOLERANCE)


@pytest.mark.parametrize("seed", SEEDS)
def test_burst_tail_covers_its_window_positions(seed):
    base = synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=seed))
    impaired, positions, power = burst_tail(base)
    # Ten subcarrier cycles at 13.5 MHz, of 47 codes at 8 bits.
    assert BURST_SAMPLES == round(10 * 13.5e6 / BURST_HZ)
    added = impaired.samples.astype(np.int64) - base.samples
    np.testing.assert_array_equal(added, np.broadcast_to(added[0, 0], added.shape))
    assert np.abs(added).max() == round(BURST_LEVEL * 219)
    # The burst ends BURST_TAIL_SAMPLES past the window start, and inside
    # the window moves the codes at exactly the positions it names.
    start, end = default_window(864)
    line = added[0, 0]
    assert not line[: start + BURST_TAIL_SAMPLES - BURST_SAMPLES].any()
    assert not line[start + BURST_TAIL_SAMPLES :].any()
    np.testing.assert_array_equal(positions, np.flatnonzero(line[start:end]))
    rows = window_offsets(impaired, base)
    assert power == pytest.approx(np.var(rows), rel=1e-12)


def test_a_burst_that_would_clip_is_refused():
    with pytest.raises(ValueError, match="burst clipped"):
        burst_tail(synthesize(SynthConfig(black_level=40.0)))
