"""Impairments with a known truth, for testing the estimator off its premise.

``synthesize`` makes white noise and sinusoids only. Each function here
takes a synthesized capture and returns a new :class:`CaptureFile` with the
impairment applied, plus its truth. For noise, hum, a data line, impulses
and tones that is the variance in code units squared that the impairment
adds to the raw pooled samples, the windows of the listed VBI lines that
``accumulate`` reads; a data line also names its line, impulses give their
positions in those windows, a line-locked tone gives the pattern it repeats
on every window, and clipping counts the window samples that clip. The
input capture is left as it is.

Every level, seed and tolerance band is fixed here, before any measurement
reads an impaired capture. Raw ``accumulate`` should read each added
variance plus the quantization floor within ``TOLERANCE``.
"""

from __future__ import annotations

import numpy as np

from vbisnr import CaptureFile, default_window
from vbisnr.measure import _full_scale
from vbisnr.synth import _quantize

# Rounding to whole codes adds uniform error of 1/12 LSB^2 (Widrow), once
# the noise before rounding spans a few codes.
QUANTIZATION_FLOOR = 1.0 / 12.0

# Relative band around truth + floor for a 30-frame, 2-line, 864-sample
# capture: about four standard errors of the coloured-noise variance
# (N = 44580 window samples, sum of rho^2 = 35/18 for these taps).
TOLERANCE = 0.04

SEEDS = (3, 4, 5)

# Coloured noise: white Gaussian noise of COLOURED_SIGMA through this FIR.
COLOURED_SIGMA = 2.0
COLOURING_TAPS = (0.5, 1.0, 0.5)

# Its lag-1 correlation in whole codes, the truth a successive-difference
# test estimates: sigma^2 * sum(c_k c_k+1) / (sigma^2 * sum(c^2) + 1/12),
# since rounding adds white error. 0.658 at sigma 2; 2/3 before rounding.
COLOURED_LAG1 = (
    COLOURED_SIGMA**2 * sum(a * b for a, b in zip(COLOURING_TAPS, COLOURING_TAPS[1:]))
    / (COLOURED_SIGMA**2 * sum(c * c for c in COLOURING_TAPS) + QUANTIZATION_FLOOR)
)

# Absolute band around COLOURED_LAG1 for the pooled lag-1 sample correlation
# of a 30-frame, 2-line, 864-sample capture: about four standard errors by
# Bartlett's formula (rho(1) 0.658, rho(2) 0.164: sd 0.0026 over N = 44580).
LAG1_TOLERANCE = 0.01

# White noise under hum, a data line, impulses and clipping.
BASE_SIGMA = 2.19

# Field-rate hum: a square wave of +-HUM_CODES across frames.
HUM_CODES = 1

# A data line: two-level NRZ at the System B teletext bit rate (ETS 300 706),
# its upper level DATA_LEVEL of the nominal video amplitude above black.
DATA_RATE_HZ = 6.9375e6
DATA_LEVEL = 0.66

# Sparse impulses: whole-code spikes of +-IMPULSE_CODES, each sample of a
# listed line struck with probability IMPULSE_RATE: on white noise of
# BASE_SIGMA they lower the raw SNR by 0.68-0.83 dB on SEEDS.
IMPULSE_RATE = 1e-3
IMPULSE_CODES = 30

# A tone inside the 2 MHz passband, TONE_CODES in amplitude. Line-locked, it
# starts every line at TONE_PHASE, as synthesize's interferers do: its power
# is a pattern shared by every window position, not noise that varies from
# line to line. Free-running, each line draws its own phase, and its power
# is residual noise.
TONE_HZ = 1.0e6
TONE_CODES = 3.0
TONE_PHASE = 0.0

# Clipping: black pushed down by CLIP_CODES, from 60 to 3 at 8 bits, so the
# noise of BASE_SIGMA reaches below code 0.
CLIP_CODES = 57


def coloured_noise(
    capture: CaptureFile, sigma: float = COLOURED_SIGMA, taps=COLOURING_TAPS, seed: int = 0
) -> tuple[CaptureFile, float]:
    """Add white Gaussian noise filtered by ``taps`` to a noise-free capture.

    Each line gets its own stationary noise: ``len(taps) - 1`` extra draws
    lead it, so every sample is a full convolution. The sum is re-quantized
    by the generator's round-half-away rule. Truth: ``sigma^2 * sum(taps^2)``.
    """
    if float(capture.header.extra["noise_sigma"]) != 0.0:
        raise ValueError("coloured noise goes on a noise-free capture")
    h = np.asarray(taps, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = capture.samples.shape
    white = rng.normal(0.0, sigma, size=(*shape[:-1], shape[-1] + h.size - 1))
    noise = np.lib.stride_tricks.sliding_window_view(white, h.size, axis=-1) @ h[::-1]
    out = np.empty(shape, dtype=capture.samples.dtype)
    max_code = (1 << capture.header.bit_depth) - 1
    if _quantize(capture.samples + noise, max_code, out):
        raise ValueError("coloured noise clipped; its truth would not hold")
    return CaptureFile(capture.header, out), sigma**2 * float(np.sum(h * h))


def field_hum(capture: CaptureFile, codes: int = HUM_CODES) -> tuple[CaptureFile, float]:
    """Offset even frames by ``+codes`` and odd frames by ``-codes``.

    Whole codes need no re-quantization, and ``CaptureFile`` rejects a
    code the hum pushes out of range. Truth: the between-line variance, the
    variance of the per-frame offsets, which every line of a frame shares.
    """
    offsets = np.where(np.arange(capture.header.frames) % 2 == 0, codes, -codes)
    shifted = capture.samples.astype(np.int64) + offsets[:, None, None]
    return CaptureFile(capture.header, shifted), float(np.var(offsets))


def _pooled(capture: CaptureFile, values: np.ndarray) -> np.ndarray:
    # The window samples of the listed VBI lines, as ``accumulate`` pools them.
    header = capture.header
    start, end = default_window(header.samples_per_line)
    return values[:, list(header.vbi_line_indices), start:end]


def data_line(
    capture: CaptureFile, line: int | None = None, seed: int = 0
) -> tuple[CaptureFile, int, float]:
    """Put seeded random NRZ bits on one listed VBI line of every frame.

    ``line`` defaults to the first listed line. A one bit adds ``DATA_LEVEL``
    of the nominal video amplitude, rounded to whole codes, across the whole
    line; sample ``n`` carries bit ``floor(n * DATA_RATE_HZ / sample_rate_hz)``.
    Truth: the line's index, and the variance of the offsets over the
    pooled windows.
    """
    header = capture.header
    line = header.vbi_line_indices[0] if line is None else line
    if line not in header.vbi_line_indices:
        raise ValueError(f"line {line} is not a listed VBI line")
    codes = round(DATA_LEVEL * _full_scale(header.bit_depth))
    bit_of_sample = np.floor(
        np.arange(header.samples_per_line) * (DATA_RATE_HZ / header.sample_rate_hz)
    ).astype(np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = rng.integers(0, 2, size=(header.frames, bit_of_sample[-1] + 1))
    offsets = np.zeros(capture.samples.shape, dtype=np.int64)
    offsets[:, line] = codes * bits[:, bit_of_sample]
    shifted = capture.samples + offsets
    return CaptureFile(header, shifted), line, float(np.var(_pooled(capture, offsets)))


def impulses(capture: CaptureFile, seed: int = 0) -> tuple[CaptureFile, np.ndarray, float]:
    """Add spikes of ``+-IMPULSE_CODES`` at seeded samples of the listed lines.

    Each sample of a listed VBI line is struck with probability
    ``IMPULSE_RATE``, with a seeded sign. Whole codes need no re-quantization,
    and a capture the spikes would clip is refused. Truth: the ``(frame,
    line, sample)`` positions of the spikes inside the pooled windows, in
    capture coordinates, and the variance of the spikes over those windows.
    """
    header = capture.header
    lines = list(header.vbi_line_indices)
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = (header.frames, len(lines), header.samples_per_line)
    struck = rng.random(shape) < IMPULSE_RATE
    signs = rng.integers(0, 2, size=shape) * 2 - 1
    offsets = np.zeros(capture.samples.shape, dtype=np.int64)
    offsets[:, lines] = np.where(struck, signs * IMPULSE_CODES, 0)
    shifted = capture.samples + offsets
    if shifted.min() < 0 or shifted.max() > (1 << header.bit_depth) - 1:
        raise ValueError("impulses clipped; their truth would not hold")
    pooled = _pooled(capture, offsets)
    frame, row, sample = np.nonzero(pooled)
    start, _ = default_window(header.samples_per_line)
    positions = np.stack([frame, np.asarray(lines)[row], sample + start], axis=1)
    return CaptureFile(header, shifted), positions, float(np.var(pooled))


def _tone(capture: CaptureFile, phases: np.ndarray) -> tuple[CaptureFile, np.ndarray]:
    # The capture with a TONE_HZ sine of TONE_CODES added to every line at
    # its phase in ``phases`` (broadcast over frames and lines), re-quantized
    # by the generator's rule, and the whole-code offsets it added.
    header = capture.header
    n = np.arange(header.samples_per_line)
    tone = TONE_CODES * np.sin(2.0 * np.pi * TONE_HZ / header.sample_rate_hz * n + phases)
    out = np.empty(capture.samples.shape, dtype=capture.samples.dtype)
    if _quantize(capture.samples + tone, (1 << header.bit_depth) - 1, out):
        raise ValueError("the tone clipped; its truth would not hold")
    return CaptureFile(header, out), out.astype(np.int64) - capture.samples


def locked_tone(capture: CaptureFile) -> tuple[CaptureFile, np.ndarray, float]:
    """Add a line-locked tone: every line starts it at ``TONE_PHASE``.

    The generator's rounding of a positive level is shift-invariant, so each
    line gains the same whole-code offsets. Truth: those offsets over the
    default window, the pattern that repeats at each window position, and
    their variance, the power the pattern adds to the pooled samples.
    """
    impaired, offsets = _tone(capture, np.full((1, 1, 1), TONE_PHASE))
    start, end = default_window(capture.header.samples_per_line)
    pattern = offsets[0, capture.header.vbi_line_indices[0], start:end]
    return impaired, pattern, float(np.var(pattern))


def free_tone(capture: CaptureFile, seed: int = 0) -> tuple[CaptureFile, float]:
    """Add a free-running tone: each line draws its phase uniformly.

    Same frequency and amplitude as :func:`locked_tone`. Truth: the variance
    of its whole-code offsets over the pooled windows, which no pattern
    shared by the lines holds.
    """
    header = capture.header
    rng = np.random.Generator(np.random.PCG64(seed))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(header.frames, header.lines_per_frame, 1))
    impaired, offsets = _tone(capture, phases)
    return impaired, float(np.var(_pooled(capture, offsets)))


def black_clip(capture: CaptureFile) -> tuple[CaptureFile, int]:
    """Lower every sample by ``CLIP_CODES`` whole codes, clipping at code 0.

    Truth: the number of pooled window samples that fall below code 0.
    """
    lowered = capture.samples.astype(np.int64) - CLIP_CODES
    clipped = int(np.count_nonzero(_pooled(capture, lowered) < 0))
    return CaptureFile(capture.header, np.maximum(lowered, 0)), clipped
