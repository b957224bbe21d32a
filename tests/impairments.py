"""Impairments with a known truth, for testing the estimator off its premise.

``synthesize`` makes white noise and sinusoids only. Each function here
takes a synthesized capture and returns a new :class:`CaptureFile` with the
impairment applied, plus its truth: the variance in code units squared that
the impairment adds to the raw pooled samples. The input capture is left
as it is.

Every level, seed and tolerance band is fixed here, before any measurement
reads an impaired capture. Raw ``accumulate`` should read each truth plus
the quantization floor within ``TOLERANCE``.
"""

from __future__ import annotations

import numpy as np

from vbisnr import CaptureFile
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

# Field-rate hum: a square wave of +-HUM_CODES across frames, on white
# noise of HUM_BASE_SIGMA.
HUM_CODES = 1
HUM_BASE_SIGMA = 2.19


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
