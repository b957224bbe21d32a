"""Filter design, zero-phase application, and line spectra."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from vbisnr import (
    FilterSpec,
    InvalidInputError,
    LineRecord,
    apply_filter,
    design_lowpass,
    line_spectrum,
    noise_gain,
)
from vbisnr.dsp import _fft_size, _kaiser_order
from vbisnr.measure import _periodic_hann

FS = 13.5e6


@pytest.fixture(scope="module")
def scipy_signal():
    # scipy is the test-only oracle for the numpy filter design and window.
    return pytest.importorskip("scipy.signal")


def response_db(taps, freq_hz, fs=FS):
    # independent of the implementation: direct evaluation of
    # sum(taps * exp(-j w k))
    k = np.arange(len(taps))
    h = np.sum(taps * np.exp(-2j * np.pi * freq_hz * k / fs))
    return 20.0 * math.log10(abs(h))


def stopband_peak_db(taps, stop_edge, fs=FS):
    # The largest response from ``stop_edge`` to Nyquist: the edge itself, and
    # a 2^18-point transform over the band, hundreds of points per sidelobe.
    size = 1 << 18
    grid = np.abs(np.fft.rfft(taps, size))[math.ceil(stop_edge / fs * size):]
    return max(response_db(taps, stop_edge, fs), 20.0 * math.log10(grid.max()))


class TestDesign:
    def test_unity_dc_gain(self):
        taps = design_lowpass(FilterSpec(), FS)
        assert abs(float(np.sum(taps)) - 1.0) <= 1e-6

    def test_odd_length_and_exact_symmetry(self):
        taps = design_lowpass(FilterSpec(), FS)
        assert len(taps) % 2 == 1
        assert np.array_equal(taps, taps[::-1])

    def test_stopband_attenuation(self):
        taps = design_lowpass(FilterSpec(), FS)
        assert response_db(taps, 5.5e6) <= -60.0
        # contract point: the stopband starts at cutoff + transition
        assert response_db(taps, 2.5e6) <= -60.0

    def test_passband_loss(self):
        taps = design_lowpass(FilterSpec(), FS)
        assert response_db(taps, 0.5e6) >= -1.0

    @pytest.mark.parametrize("cutoff", [1.0e6, 1.5e6, 2.0e6, 3.0e6, 4.0e6])
    @pytest.mark.parametrize("fs", [10.0e6, 10.75e6, 13.5e6, 27.0e6, 35.46895e6])
    def test_fixed_attenuation_is_met(self, cutoff, fs):
        # Meeting 60 dB at the edge alone leaves 19 of these with a peak of
        # -58.4 to -59.9 dB, mostly at the first sidelobe some 30 kHz above it.
        spec = FilterSpec(cutoff_hz=cutoff)
        taps = design_lowpass(spec, fs)
        assert stopband_peak_db(taps, spec.cutoff_hz + spec.transition_hz, fs) <= -60.0

    @pytest.mark.parametrize("fs, numtaps", [(13.5e6, 99), (27.0e6, 197), (35.46895e6, 259)])
    def test_default_cutoff_keeps_the_kaiser_estimate(self, fs, numtaps):
        assert _kaiser_order(60.0, 0.5e6 / (fs / 2))[0] | 1 == numtaps
        assert len(design_lowpass(FilterSpec(), fs)) == numtaps

    def test_lengthening_runs_until_the_stopband_is_met(self):
        # A cutoff near Nyquist at 54 MHz takes 30 lengthenings of the
        # 393-tap estimate: the search runs until the stopband is met.
        spec = FilterSpec(cutoff_hz=13.25e6)
        taps = design_lowpass(spec, 54.0e6)
        assert len(taps) == 453
        assert stopband_peak_db(taps, spec.cutoff_hz + spec.transition_hz, 54.0e6) <= -60.0

    def test_short_kaiser_estimate_is_lengthened(self):
        # At 10.75 MHz the estimate for a 2 MHz cutoff is 79 taps, 4 short of
        # 60 dB over the stopband (2 short at its edge alone).
        assert _kaiser_order(60.0, 0.5e6 / 5.375e6)[0] | 1 == 79
        assert len(design_lowpass(FilterSpec(), 10.75e6)) == 83

    def test_nyquist_violation_names_both_frequencies(self):
        with pytest.raises(
            InvalidInputError, match="cutoff 6500000.0 Hz [+] transition 500000.0 Hz"
        ):
            design_lowpass(FilterSpec(cutoff_hz=6.5e6), FS)

    @pytest.mark.parametrize("atten", [55.0, 60.0, 80.0])
    @pytest.mark.parametrize("width", [0.01, 0.5e6 / 6.75e6, 0.2, 0.5])
    def test_kaiser_order_matches_scipy(self, scipy_signal, atten, width):
        assert _kaiser_order(atten, width) == scipy_signal.kaiserord(atten, width)

    @pytest.mark.parametrize("cutoff", [1.5e6, 2.0e6, 3.0e6])
    @pytest.mark.parametrize("fs", [10.0e6, 10.75e6, 13.5e6, 14.75e6, 27.0e6])
    def test_taps_match_firwin_design(self, scipy_signal, cutoff, fs):
        spec = FilterSpec(cutoff_hz=cutoff)
        atten = spec.stopband_atten_db
        stop_edge = spec.cutoff_hz + spec.transition_hz
        numtaps, beta = scipy_signal.kaiserord(atten, spec.transition_hz / (fs / 2))
        numtaps |= 1
        while True:
            expected = scipy_signal.firwin(
                numtaps, spec.cutoff_hz + spec.transition_hz / 2,
                window=("kaiser", beta), fs=fs,
            )
            expected = 0.5 * (expected + expected[::-1])
            expected = expected / expected.sum()
            if stopband_peak_db(expected, stop_edge, fs) <= -atten:
                break
            numtaps += 2
        taps = design_lowpass(spec, fs)
        assert len(taps) == len(expected)
        assert np.max(np.abs(taps - expected)) <= 1e-15

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            FilterSpec(cutoff_hz=-1.0)
        with pytest.raises(
            InvalidInputError,
            match="kind 'butterworth' disagrees with the computed 'windowed-sinc-lowpass'",
        ):
            FilterSpec.from_dict({**asdict(FilterSpec()), "kind": "butterworth"})

    @pytest.mark.parametrize("field", ["transition_hz", "stopband_atten_db", "kind"])
    def test_fixed_fields_are_not_arguments(self, field):
        with pytest.raises(TypeError, match=field):
            FilterSpec(**{field: asdict(FilterSpec())[field]})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_spec_rejected(self, value):
        with pytest.raises(InvalidInputError, match="cutoff_hz must be positive"):
            FilterSpec(cutoff_hz=value)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_sample_rate_rejected(self, rate):
        with pytest.raises(InvalidInputError, match="sample_rate_hz must be positive"):
            design_lowpass(FilterSpec(), rate)


class TestDesignCache:
    def test_equal_arguments_share_one_read_only_array(self):
        first = design_lowpass(FilterSpec(), FS)
        assert design_lowpass(FilterSpec(), FS) is first
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_different_specs_or_rates_get_their_own_taps(self):
        base = design_lowpass(FilterSpec(), FS)
        others = [
            design_lowpass(FilterSpec(cutoff_hz=1.5e6), FS),
            design_lowpass(FilterSpec(cutoff_hz=3.0e6), FS),
            design_lowpass(FilterSpec(), 10.0e6),
            design_lowpass(FilterSpec(), 2 * FS),
        ]
        for taps in others:
            assert taps is not base
            assert len(taps) != len(base) or not np.array_equal(taps, base)

    def test_errors_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="reaches Nyquist"):
                design_lowpass(FilterSpec(cutoff_hz=6.5e6), FS)
            with pytest.raises(InvalidInputError, match="must be positive"):
                design_lowpass(FilterSpec(), 0.0)


class TestApplyFilter:
    def test_dc_passthrough(self):
        taps = design_lowpass(FilterSpec(), FS)
        out = apply_filter(np.full(500, 60.0), taps)
        assert len(out) == 500 - len(taps) + 1
        assert np.all(np.abs(out - 60.0) <= 1e-6 * 60.0)

    def test_stopband_sinusoid_removed(self):
        taps = design_lowpass(FilterSpec(), FS)
        t = np.arange(2000) / FS
        x = 10.0 * np.sin(2 * np.pi * 5.5e6 * t)
        out = apply_filter(x, taps)
        assert np.sqrt(np.mean(out**2)) <= 0.01 * np.sqrt(np.mean(x**2))

    def test_passband_sinusoid_preserved(self):
        taps = design_lowpass(FilterSpec(), FS)
        t = np.arange(2000) / FS
        x = 10.0 * np.sin(2 * np.pi * 0.5e6 * t)
        out = apply_filter(x, taps)
        ratio = np.sqrt(np.mean(out**2)) / np.sqrt(np.mean(x**2))
        assert abs(ratio - 1.0) <= 0.12

    def test_linearity(self):
        taps = design_lowpass(FilterSpec(), FS)
        rng = np.random.Generator(np.random.PCG64(3))
        x = rng.normal(0, 1, 1000)
        y = rng.normal(0, 1, 1000)
        combined = apply_filter(2.5 * x - 1.25 * y, taps)
        separate = 2.5 * apply_filter(x, taps) - 1.25 * apply_filter(y, taps)
        assert np.max(np.abs(combined - separate)) <= 1e-9

    def test_short_input_rejected(self):
        taps = design_lowpass(FilterSpec(), FS)
        with pytest.raises(InvalidInputError, match="not longer"):
            apply_filter(np.zeros(len(taps)), taps)

    @pytest.mark.parametrize("cutoff,fs", [(1.5e6, 10.0e6), (2.0e6, FS), (3.0e6, 27.0e6)])
    @pytest.mark.parametrize("bit_depth", [8, 10])
    def test_matches_direct_convolution(self, cutoff, fs, bit_depth):
        # np.convolve computes the valid region directly: the oracle.
        taps = design_lowpass(FilterSpec(cutoff_hz=cutoff), fs)
        rng = np.random.Generator(np.random.PCG64(bit_depth))
        for n in (len(taps) + 1, 211, 1009, 743):
            x = rng.integers(0, 1 << bit_depth, n).astype(np.uint16)
            out = apply_filter(x, taps)
            expected = np.convolve(x.astype(np.float64), taps, mode="valid")
            assert out.shape == expected.shape
            assert np.max(np.abs(out - expected)) <= 1e-12, n

    @pytest.mark.parametrize("rows", [1, 2, 7, 60])
    def test_rows_are_filtered_independently(self, rows):
        taps = design_lowpass(FilterSpec(), FS)
        rng = np.random.Generator(np.random.PCG64(rows))
        block = rng.integers(0, 256, (rows, 743)).astype(np.uint8)
        out = apply_filter(block, taps)
        assert out.shape == (rows, 743 - len(taps) + 1)
        for i in range(rows):
            assert np.array_equal(out[i], apply_filter(block[i], taps)), i
        order = rng.permutation(rows)
        assert np.array_equal(apply_filter(block[order], taps), out[order])

    @pytest.mark.parametrize("n", [743, 750])
    @pytest.mark.parametrize("shape", [(), (44,)])
    @pytest.mark.parametrize("dtype", [np.uint8, "<u2", np.int64, np.float64])
    def test_one_padded_buffer_gives_the_bits_of_a_sized_transform(self, n, shape, dtype):
        # The input is cast into a zero-padded buffer that the inverse
        # transform overwrites; numpy's own padding in rfft(x, size), with a
        # fresh output, gives the same bits.
        taps = design_lowpass(FilterSpec(), FS)
        size = _fft_size(n)
        assert (size == n) == (n == 750)
        rng = np.random.Generator(np.random.PCG64(n))
        x = rng.integers(0, 256, shape + (n,)).astype(dtype)
        kept = x.copy()
        out = apply_filter(x, taps)
        expected = np.fft.irfft(
            np.fft.rfft(np.asarray(x, np.float64), size) * np.fft.rfft(taps, size), size
        )[..., len(taps) - 1 : n]
        assert np.array_equal(out, expected)
        assert np.array_equal(x, kept)
        assert out.base.shape == shape + (size,) and out.base.dtype == np.float64

    def test_block_holds_one_buffer_and_one_spectrum(self):
        # A 44-row block of 743-sample windows: the padded float64 buffer and
        # its spectrum are 529 KB. A separate float64 copy of the input, and
        # a fresh output beside the spectrum, would take the peak near 800 KB.
        taps = design_lowpass(FilterSpec(), FS)
        block = np.random.Generator(np.random.PCG64(44)).integers(0, 1024, (44, 743))
        block = block.astype("<u2")
        size = _fft_size(743)
        held = 44 * size * 8 + 44 * (size // 2 + 1) * 16
        apply_filter(block, taps)  # the taps' spectrum is cached
        tracemalloc.start()
        try:
            out = apply_filter(block, taps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.base.nbytes == 44 * size * 8
        assert peak < 1.4 * held

    def test_fft_size_matches_scipy(self):
        next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
        for n in range(2, 5001):
            assert _fft_size(n) == next_fast_len(n, real=True), n

    def test_bad_shapes_rejected(self):
        taps = design_lowpass(FilterSpec(), FS)
        for samples, t in (
            (np.zeros((2, 2, 500)), taps),
            (np.zeros(500), np.stack([taps, taps])),
            (np.zeros(500), np.zeros(0)),
        ):
            with pytest.raises(InvalidInputError, match="expects"):
                apply_filter(samples, t)
        with pytest.raises(InvalidInputError, match="not longer"):
            apply_filter(np.zeros((3, len(taps))), taps)

    def test_noise_gain_matches_definition(self):
        taps = design_lowpass(FilterSpec(), FS)
        assert noise_gain(taps) == pytest.approx(
            math.sqrt(sum(float(t) ** 2 for t in taps)), rel=1e-12
        )


def constant_line(value=60, n=864):
    return LineRecord(samples=np.full(n, value, dtype=np.int32))


class TestLineSpectrum:
    @pytest.mark.parametrize("n", [7, 720, 864, 1000])
    def test_window_is_periodic_hann(self, scipy_signal, n):
        expected = scipy_signal.windows.hann(n, sym=False)
        assert np.max(np.abs(_periodic_hann(n) - expected)) <= 1e-15

    def test_constant_line_is_pure_dc(self):
        spectrum = line_spectrum(constant_line())
        db = spectrum.magnitudes_db
        assert len(db) == spectrum.fft_size // 2 + 1
        assert spectrum.fft_size == 1024
        assert db[0] - np.max(db[1:]) >= 60.0

    def test_bin_centered_sinusoid_peaks_at_its_bin(self):
        n = np.arange(1024)
        k = 64
        x = np.round(100 + 50 * np.sin(2 * np.pi * k * n / 1024)).astype(np.int32)
        spectrum = line_spectrum(LineRecord(samples=x))
        assert int(np.argmax(spectrum.magnitudes_db[1:])) + 1 == k

    def test_two_mhz_tone_lands_in_bin_152(self):
        t = np.arange(864) / FS
        x = np.round(60 + 10 * np.sin(2 * np.pi * 2.0e6 * t)).astype(np.int32)
        spectrum = line_spectrum(LineRecord(samples=x))
        expected_bin = round(2.0e6 / FS * 1024)
        assert expected_bin == 152
        assert int(np.argmax(spectrum.magnitudes_db[1:])) + 1 == expected_bin

        # independent oracle: direct DFT magnitude at the peak bin
        windows = pytest.importorskip("scipy.signal").windows
        mean = x.mean()
        w = windows.hann(864, sym=False)
        y = (x - mean) * w
        n = np.arange(864)
        direct = abs(np.sum(y * np.exp(-2j * np.pi * expected_bin * n / 1024)))
        direct_db = 20 * math.log10(direct * 2 / w.sum() / 219.0)
        assert spectrum.magnitudes_db[expected_bin] == pytest.approx(direct_db, abs=1e-9)

    def test_bin_spacing(self):
        spectrum = line_spectrum(constant_line())
        assert spectrum.bin_hz == FS / 1024
        assert len(spectrum.frequencies_hz()) == 513

    @pytest.mark.parametrize("n,size", [(100, 128), (1024, 1024), (1025, 2048), (2048, 2048)])
    def test_length_is_the_next_power_of_two(self, n, size):
        assert line_spectrum(constant_line(n=n)).fft_size == size

    def test_length_is_not_an_argument(self):
        with pytest.raises(TypeError, match="fft_size"):
            line_spectrum(constant_line(), fft_size=1024)
        with pytest.raises(TypeError):
            line_spectrum(constant_line(), 1024)


def test_parseval_on_rectangular_variant():
    # the spectral plumbing sanity-checked without a window
    rng = np.random.Generator(np.random.PCG64(9))
    x = rng.normal(0, 1, 1024)
    spectrum = np.fft.rfft(x)
    energy_freq = (
        abs(spectrum[0]) ** 2
        + 2.0 * np.sum(np.abs(spectrum[1:-1]) ** 2)
        + abs(spectrum[-1]) ** 2
    ) / 1024
    energy_time = float(np.sum(x**2))
    assert energy_freq == pytest.approx(energy_time, rel=1e-6)
