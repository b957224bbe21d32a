"""Low-pass pre-filtering.

The low-pass filter implements the "filtered" measurement mode: a
linear-phase windowed-sinc FIR whose group delay is removed by trimming,
so the filtered sample population stays free of edge padding artifacts.
It is applied by FFT convolution, row by row along the last axis, so a
block of equally long lines is filtered in one pass and each row's output
depends only on that row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, _as_float, _from_dict


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass pre-filter description.

    The passband ends at ``cutoff_hz``, the one setting. The stopband starts
    ``transition_hz`` (0.5 MHz) above it and is at least ``stopband_atten_db``
    (60 dB) down from there on. Those two and ``kind``, the one design there
    is, are fixed.
    """

    cutoff_hz: float = 2.0e6
    transition_hz: float = field(default=0.5e6, init=False)
    stopband_atten_db: float = field(default=60.0, init=False)
    kind: str = field(default="windowed-sinc-lowpass", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cutoff_hz", _as_float(self.cutoff_hz, "cutoff_hz", 0, above=True))

    from_dict = classmethod(_from_dict)


@functools.lru_cache
def design_lowpass(spec: FilterSpec, sample_rate_hz: float) -> np.ndarray:
    """Design the FIR taps for ``spec`` at the given sample rate.

    Returns an odd-length, exactly symmetric tap vector with unity DC gain.
    The length comes from the Kaiser estimate for the fixed stopband
    attenuation over the fixed transition width. The filter is lengthened
    two taps at a time until its realized response meets that attenuation
    over the whole stopband, from its edge to Nyquist: the estimate's first
    sidelobe can be a fraction of a dB short. The taps are read-only and
    cached per ``(spec, sample_rate_hz)``, so equal arguments return the
    same array.
    """
    sample_rate_hz = _as_float(sample_rate_hz, "sample_rate_hz", 0, above=True)
    nyquist = sample_rate_hz / 2.0
    stop_edge = spec.cutoff_hz + spec.transition_hz
    if stop_edge >= nyquist:
        raise InvalidInputError(
            f"cutoff {spec.cutoff_hz} Hz + transition {spec.transition_hz} Hz "
            f"reaches Nyquist ({nyquist} Hz)"
        )

    numtaps, beta = _kaiser_order(spec.stopband_atten_db, spec.transition_hz / nyquist)
    numtaps |= 1  # linear phase with integer group delay
    cutoff = (spec.cutoff_hz + spec.transition_hz / 2.0) / nyquist
    while True:
        m = np.arange(numtaps) - (numtaps - 1) / 2.0
        taps = cutoff * np.sinc(cutoff * m) * np.kaiser(numtaps, beta)
        # Enforce exact tap symmetry and unity DC gain.
        taps = 0.5 * (taps + taps[::-1])
        taps = taps / taps.sum()
        if _stopband_peak_db(taps, stop_edge, sample_rate_hz) <= -spec.stopband_atten_db:
            break
        numtaps += 2
    taps.flags.writeable = False
    return taps


def _kaiser_order(atten_db: float, width: float) -> tuple[int, float]:
    """Kaiser's (1974) filter length and window beta for a stopband more than
    50 dB down; ``width`` is a fraction of Nyquist."""
    beta = 0.1102 * (atten_db - 8.7)
    return math.ceil((atten_db - 7.95) / 2.285 / (math.pi * width) + 1), beta


def _stopband_peak_db(taps: np.ndarray, stop_edge: float, sample_rate_hz: float) -> float:
    # The peak response from ``stop_edge`` to Nyquist: at the edge itself, and
    # on a grid of 64 points to a sidelobe (about sample_rate_hz / len(taps)
    # wide), which reads a sidelobe's peak at most 0.003 dB low.
    k = np.arange(len(taps))
    edge = abs(np.sum(taps * np.exp(-2j * np.pi * stop_edge * k / sample_rate_hz)))
    size = 64 * len(taps)
    grid = np.abs(np.fft.rfft(taps, size))[math.ceil(stop_edge / sample_rate_hz * size):]
    return 20.0 * math.log10(max(edge, grid.max(initial=0.0), 1e-300))


def noise_gain(taps: np.ndarray) -> float:
    """RMS gain of the filter for white noise input, sqrt(sum taps^2)."""
    return float(np.sqrt(np.sum(np.square(taps))))


@functools.lru_cache
def _noise_gain(taps: bytes) -> float:
    return noise_gain(np.frombuffer(taps))


@functools.lru_cache
def _fft_size(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c not less than ``n``: a fast real FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@functools.lru_cache
def _taps_spectrum(taps: bytes, size: int) -> np.ndarray:
    # Keyed by the taps' bytes: a short call (one or two lines) would
    # otherwise spend a large share of its time transforming the taps.
    spectrum = np.fft.rfft(np.frombuffer(taps), size)
    spectrum.flags.writeable = False
    return spectrum


def apply_filter(samples, taps) -> np.ndarray:
    """Filter ``samples`` along the last axis, keeping the fully-supported region.

    ``samples`` is one line (1-D) or a block of equally long lines (2-D,
    one per row), in any real dtype; it is not modified. The output is the
    valid convolution: (len(taps) - 1) / 2 samples are trimmed from each
    end, which removes the symmetric group delay and avoids injecting
    padded values. Output rows are ``n - len(taps) + 1`` long for
    ``n``-sample input rows.

    The convolution runs by FFT, ``irfft(rfft(x) * rfft(taps))`` at the
    smallest 2^a * 3^b * 5^c length not below ``n``. That length is at least
    ``n``, so the circular wrap only reaches the trimmed outputs. The
    samples are cast once into a zero-padded float64 buffer of that length,
    and the inverse transform writes back into it: the result is a view of
    that buffer, and the call holds it and one spectrum. Each row is
    transformed on its own: a row gives the same bits alone as in any block
    and at any position.
    """
    x = np.asarray(samples)
    t = np.asarray(taps, dtype=np.float64)
    if x.ndim not in (1, 2) or t.ndim != 1 or t.size == 0:
        raise InvalidInputError(
            "apply_filter expects one- or two-dimensional samples and one-dimensional taps"
        )
    n = x.shape[-1]
    if n <= t.size:
        raise InvalidInputError(
            f"input of {n} samples is not longer than the {t.size}-tap filter"
        )
    size = _fft_size(n)
    buffer = np.empty(x.shape[:-1] + (size,))
    buffer[..., :n] = x
    buffer[..., n:] = 0.0
    spectrum = np.fft.rfft(buffer)
    spectrum *= _taps_spectrum(t.tobytes(), size)
    np.fft.irfft(spectrum, size, out=buffer)
    return buffer[..., t.size - 1 : n]
