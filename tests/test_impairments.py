"""Raw accumulation reads the known truth of each impairment in tests/impairments.py."""

from __future__ import annotations

import numpy as np
import pytest

from vbisnr import SynthConfig, accumulate, extract_vbi_lines, synthesize

from impairments import (
    COLOURED_SIGMA,
    COLOURING_TAPS,
    HUM_BASE_SIGMA,
    HUM_CODES,
    QUANTIZATION_FLOOR,
    SEEDS,
    TOLERANCE,
    coloured_noise,
    field_hum,
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


@pytest.mark.parametrize("seed", SEEDS)
def test_field_hum_reads_its_truth_plus_the_floor(seed):
    base = synthesize(SynthConfig(noise_sigma=HUM_BASE_SIGMA, seed=seed))
    impaired, truth = field_hum(base)
    assert truth == HUM_CODES**2
    expected = HUM_BASE_SIGMA**2 + truth + QUANTIZATION_FLOOR
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
    np.testing.assert_array_equal(clean.samples, before)
    np.testing.assert_array_equal(first.samples, again.samples)
    assert first.header == clean.header == hum.header
    assert first.samples.dtype == hum.samples.dtype == clean.samples.dtype


def test_coloured_noise_needs_a_noise_free_capture():
    with pytest.raises(ValueError, match="noise-free"):
        coloured_noise(synthesize(SynthConfig(noise_sigma=1.0)))
