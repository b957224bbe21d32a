"""Statistical SNR measurement on blanked video lines.

A blanked (empty black) vertical-blanking-interval line carries a constant
level, so its sample mean estimates the reference level and the spread of
the samples around that mean is pure noise. The functions here implement
that separation: reference level, noise RMS over an N-1 denominator,
SNR in dB against the nominal full-scale video amplitude, the statistical
error margin of the estimate, multi-frame accumulation, and PSNR between
pixel planes.

A measurement's lines come as a :class:`LineBlock`, the rows
``extract_vbi_lines`` gathers from a capture, or as :class:`LineRecord`
objects, one per line, that share one window length. Either way the windows
are gathered once, into one int64 block with one row per line. Raw
statistics are its exact integer moments, so one division and one square
root are the only roundings. Filtered statistics filter the block row by
row and combine per-line sums of squared deviations with ``math.fsum``.
Either way, pooling frames in any order yields bit-identical measurements.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import dsp
from .errors import InvalidInputError, MeasurementImpossibleError, _as_float, _as_int

# Nominal 8-bit video signal amplitude: 235 - 16 code units (ITU-R BT.601
# levels). Wider samples scale proportionally.
FULL_SCALE_8BIT = 219.0

_LN10 = math.log(10.0)


def default_window(n_samples: int) -> tuple[int, int]:
    """Measurement window for an ``n_samples``-long line.

    Excludes the first 12% (sync, burst, back porch at nominal timing) and
    the last 2% (front porch) of the line. Integer arithmetic, so exact.
    """
    start = (12 * n_samples + 99) // 100
    end = n_samples - (2 * n_samples) // 100
    return (start, end)


def _admit_codes(samples: np.ndarray, bit_depth: int, dtype: np.dtype) -> np.ndarray:
    # ``bit_depth``-bit ADC codes, read-only in ``dtype``: an input already so
    # (a mapped capture or one of its rows) is kept, any other is copied.
    if samples.dtype.kind not in "iu":
        raise InvalidInputError("samples must be integer ADC codes")
    # Scan only the bounds the dtype can break: none for uint8, the maximum
    # for <u2; an empty array has none.
    signed = samples.dtype.kind == "i"
    value_bits = 8 * samples.dtype.itemsize - signed
    if samples.size and (
        (signed and samples.min() < 0)
        or (value_bits > bit_depth and samples.max() >= 1 << bit_depth)
    ):
        raise InvalidInputError(f"sample values exceed the {bit_depth}-bit code range")
    if samples.flags.writeable or samples.dtype != dtype:
        samples = samples.astype(dtype)
        samples.flags.writeable = False
    return samples


def _line_format(bit_depth, sample_rate_hz) -> tuple[int, float]:
    # The ADC format of a line, a block or a capture: 8..10-bit codes at a
    # positive rate.
    bit_depth = _as_int(bit_depth, "bit_depth")
    if not 8 <= bit_depth <= 10:
        raise InvalidInputError(f"bit_depth must be 8..10, got {bit_depth}")
    return bit_depth, _as_float(sample_rate_hz, "sample_rate_hz", 0, above=True)


def _check_window(window, n_samples: int, line_frame) -> tuple[int, int]:
    # ``window``, or the default one, as a (start, end) pair of at least 2
    # samples within an ``n_samples``-long line. A misfit names the
    # ``(line_index, frame_index)`` pair, when one is given.
    if window is None:
        window = default_window(n_samples)
    try:
        start, end = window
    except (TypeError, ValueError):
        raise InvalidInputError(f"window {window!r} is not a (start, end) pair") from None
    start, end = _as_int(start, "window start"), _as_int(end, "window end")
    fits = 0 <= start < end <= n_samples
    if not fits or end - start < 2:
        where = "line {} frame {}: ".format(*line_frame) if line_frame else ""
        fault = "is shorter than 2 samples" if fits else f"does not fit a {n_samples}-sample line"
        raise InvalidInputError(f"{where}window [{start}, {end}) {fault}")
    return (start, end)


@dataclass(frozen=True, eq=False)
class LineRecord:
    """One digitized video line plus the region to measure.

    ``window`` is a half-open ``(start, end)`` sample range; it defaults to
    :func:`default_window` of the line length. Samples are ADC codes in
    their input integer dtype, never widened to int32; a read-only input
    (such as a row of a mapped capture) is kept, a writable one is copied.
    """

    samples: np.ndarray
    bit_depth: int = 8
    sample_rate_hz: float = 13.5e6
    line_index: int = 0
    frame_index: int = 0
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        if arr.ndim != 1:
            raise InvalidInputError("samples must be one-dimensional")
        bit_depth, rate = _line_format(self.bit_depth, self.sample_rate_hz)
        _as_int(self.line_index, "line_index", 0)
        _as_int(self.frame_index, "frame_index", 0)
        window = _check_window(self.window, arr.size, (self.line_index, self.frame_index))
        object.__setattr__(self, "samples", _admit_codes(arr, bit_depth, arr.dtype))
        object.__setattr__(self, "sample_rate_hz", rate)
        object.__setattr__(self, "window", window)

    def window_samples(self) -> np.ndarray:
        start, end = self.window
        return self.samples[start:end]


@dataclass(frozen=True, eq=False)
class LineBlock(Sequence):
    """Equally long lines of one ADC format and one window, as one block.

    ``samples`` is a read-only ``(rows, samples_per_line)`` array of ADC
    codes; row ``i`` is line ``line_indices[i]`` of frame
    ``frame_indices[i]``. ``window`` applies to every row and defaults to
    :func:`default_window` of the line length. The block is checked once,
    here, by the rules of :class:`LineRecord`, and it reads as a sequence
    of :class:`LineRecord`: one is built from a row view when asked for,
    and a slice is a block.
    """

    samples: np.ndarray
    frame_indices: tuple[int, ...]
    line_indices: tuple[int, ...]
    bit_depth: int = 8
    sample_rate_hz: float = 13.5e6
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        if arr.ndim != 2:
            raise InvalidInputError("samples must be a (rows, samples_per_line) array")
        bit_depth, rate = _line_format(self.bit_depth, self.sample_rate_hz)
        for key in ("frame_indices", "line_indices"):
            indices = tuple(_as_int(i, key, 0) for i in getattr(self, key))
            if len(indices) != len(arr):
                raise InvalidInputError(f"{len(indices)} {key} for {len(arr)} rows")
            object.__setattr__(self, key, indices)
        first = (self.line_indices[0], self.frame_indices[0]) if len(arr) else None
        window = _check_window(self.window, arr.shape[1], first)
        object.__setattr__(self, "samples", _admit_codes(arr, bit_depth, arr.dtype))
        object.__setattr__(self, "bit_depth", bit_depth)
        object.__setattr__(self, "sample_rate_hz", rate)
        object.__setattr__(self, "window", window)

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return replace(
                self,
                samples=self.samples[index],
                frame_indices=self.frame_indices[index],
                line_indices=self.line_indices[index],
            )
        index = operator.index(index)
        return LineRecord(
            samples=self.samples[index],
            bit_depth=self.bit_depth,
            sample_rate_hz=self.sample_rate_hz,
            line_index=self.line_indices[index],
            frame_index=self.frame_indices[index],
            window=self.window,
        )


@dataclass(frozen=True)
class MeasureConfig:
    """Measurement parameters.

    ``full_scale`` of ``None`` means the nominal video range for the line's
    bit depth: 219 code units at 8 bits, doubling per extra bit. When the
    noise RMS is exactly zero the SNR is reported as ``snr_cap_db`` with
    the measurement flagged saturated.
    """

    full_scale: float | None = None
    max_frames: int = 30
    snr_cap_db: float = 100.0
    filter: dsp.FilterSpec | None = None

    def __post_init__(self) -> None:
        if self.full_scale is not None:
            full_scale = _as_float(self.full_scale, "full_scale", 0, above=True)
            object.__setattr__(self, "full_scale", full_scale)
        object.__setattr__(self, "snr_cap_db", _as_float(self.snr_cap_db, "snr_cap_db"))
        object.__setattr__(self, "max_frames", _as_int(self.max_frames, "max_frames", 1))

    def full_scale_for(self, bit_depth: int) -> float:
        if self.full_scale is not None:
            return self.full_scale
        return FULL_SCALE_8BIT * 2.0 ** (bit_depth - 8)

    def as_dict(self) -> dict:
        """The JSON object: the fields in declaration order, ``filter`` nested."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MeasureConfig":
        filt = d.get("filter")
        return cls(
            full_scale=d.get("full_scale"),
            max_frames=d["max_frames"],
            snr_cap_db=d["snr_cap_db"],
            filter=None if filt is None else dsp.FilterSpec.from_dict(filt),
        )


@dataclass(frozen=True)
class Measurement:
    """One SNR measurement result.

    ``v_ref`` and ``v_n`` are in ADC code units; ``error_margin`` is the
    statistical uncertainty of ``v_n`` (``v_n / sqrt(n_samples)``).
    ``saturated`` is set when zero noise forced the configured SNR cap.
    """

    v_ref: float
    v_n: float
    snr_db: float
    error_margin: float
    n_samples: int
    filtered: bool
    frames_used: int
    saturated: bool

    def as_dict(self) -> dict:
        """The JSON object of ``measure --json``: the fields in declaration order."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Measurement":
        for key in ("filtered", "saturated"):
            if not isinstance(d[key], bool):
                raise InvalidInputError(f"{key} must be true or false, got {d[key]!r}")
        return cls(
            v_ref=_as_float(d["v_ref"], "v_ref"),
            v_n=_as_float(d["v_n"], "v_n", 0),
            snr_db=_as_float(d["snr_db"], "snr_db"),
            error_margin=_as_float(d["error_margin"], "error_margin", 0),
            n_samples=_as_int(d["n_samples"], "n_samples"),
            filtered=d["filtered"],
            frames_used=_as_int(d["frames_used"], "frames_used"),
            saturated=d["saturated"],
        )


@dataclass(frozen=True)
class PsnrResult:
    """PSNR between an original and a degraded pixel plane."""

    mse: float
    psnr_db: float
    bits_per_pixel: int
    per_channel: tuple[tuple[str, float], ...] | None = None
    saturated: bool = False


def _squared_deviation(values: np.ndarray, v_ref: float) -> np.ndarray:
    """sum((x - v_ref)^2) over the last axis: per line of a block."""
    return np.sum(np.square(values - v_ref), axis=-1)


def estimate_reference_level(line: LineRecord) -> float:
    """Black level of a blanked line: arithmetic mean over the window."""
    values = line.window_samples()
    return int(np.sum(values, dtype=np.int64)) / values.size


def noise_rms(line: LineRecord, v_ref: float) -> float:
    """Noise RMS over the window: sqrt(sum((x - v_ref)^2) / (N - 1))."""
    v_ref = _as_float(v_ref, "v_ref")
    values = line.window_samples()
    return math.sqrt(float(_squared_deviation(values, v_ref)) / (values.size - 1))


def snr_db(v_n: float, config: MeasureConfig, bit_depth: int = 8) -> tuple[float, bool]:
    """SNR in dB for a noise RMS, as (value, saturated).

    ``20 * log10(full_scale / v_n)`` for positive noise; zero noise returns
    the configured cap with ``saturated`` set.
    """
    v_n = _as_float(v_n, "noise RMS", 0)
    if v_n == 0.0:
        return (config.snr_cap_db, True)
    return (20.0 * math.log10(config.full_scale_for(bit_depth) / v_n), False)


def error_margin(v_n: float, n_samples: int) -> float:
    """Statistical error of the noise estimate: v_n / sqrt(n_samples)."""
    return _as_float(v_n, "noise RMS", 0) / math.sqrt(_as_int(n_samples, "n_samples", 1))


def error_margin_db(n_samples: int) -> float:
    """Error margin mapped to dB via the local slope of the SNR curve.

    d(snr_db)/d(v_n) = -20 / (ln 10 * v_n), so an uncertainty of
    v_n / sqrt(N) code units is 20 / (ln 10 * sqrt(N)) dB regardless of
    the noise level.
    """
    return 20.0 / (_LN10 * math.sqrt(_as_int(n_samples, "n_samples", 1)))


def measure_line(line: LineRecord, config: MeasureConfig | None = None) -> Measurement:
    """Measure one line. Equivalent to :func:`accumulate` on a single line."""
    return accumulate([line], config)


def _window_block(lines: LineBlock | Iterable[LineRecord]):
    # (bit_depth, sample_rate_hz, frames_used, one int64 copy of the windows,
    # one row per line).
    if isinstance(lines, LineBlock):
        if not len(lines):
            raise InvalidInputError("no lines to accumulate")
        start, end = lines.window
        block = lines.samples[:, start:end].astype(np.int64)
        return lines.bit_depth, lines.sample_rate_hz, len(set(lines.frame_indices)), block
    lines = list(lines)
    if not lines:
        raise InvalidInputError("no lines to accumulate")
    for what, values in (
        ("bit depths", {line.bit_depth for line in lines}),
        ("sample rates", {line.sample_rate_hz for line in lines}),
        ("window lengths", {line.window[1] - line.window[0] for line in lines}),
    ):
        if len(values) > 1:
            raise InvalidInputError(f"mixed {what} in accumulation: {sorted(values)}")
    frames_used = len({line.frame_index for line in lines})
    block = np.array([line.window_samples() for line in lines], dtype=np.int64)
    return lines[0].bit_depth, lines[0].sample_rate_hz, frames_used, block


def accumulate(
    lines: LineBlock | Iterable[LineRecord], config: MeasureConfig | None = None
) -> Measurement:
    """Pool the window samples of several lines into one measurement.

    ``lines`` is a :class:`LineBlock`, as :func:`extract_vbi_lines` returns,
    or any iterable of :class:`LineRecord` whose windows share one length.
    All samples form one population, gathered once into one int64 block:
    the reference level is their unfiltered mean, and the noise RMS and its
    error margin run over all of them. At most ``config.max_frames`` distinct
    frames; any line order, and either form of the same lines, gives the
    same bits.
    """
    if config is None:
        config = MeasureConfig()
    bit_depth, sample_rate_hz, frames_used, block = _window_block(lines)
    if frames_used > config.max_frames:
        raise InvalidInputError(
            f"{frames_used} frames exceed the {config.max_frames}-frame limit"
        )

    n = block.size
    total = int(block.sum())
    v_ref = total / n

    if config.filter is not None:
        taps = dsp.design_lowpass(config.filter, sample_rate_hz)
        try:
            y = dsp.apply_filter(block, taps)
        except InvalidInputError as exc:
            raise MeasurementImpossibleError(
                f"measurement window too short for the {len(taps)}-tap filter: {exc}"
            ) from exc
        n = y.size
        # Each line's sum depends only on that line, and fsum over them gives
        # the same bits in any line order.
        ss = math.fsum(_squared_deviation(y, v_ref).tolist())
        # Filtering narrows the noise bandwidth; dividing by the filter's white
        # noise gain refers the in-band RMS back to an equivalent full-band
        # level, keeping filtered and unfiltered readings comparable.
        v_n = math.sqrt(ss / (n - 1)) / dsp.noise_gain(taps)
    else:
        # n*sum(x^2) - sum(x)^2 is exact in Python ints.
        squares = int(np.vdot(block, block))
        v_n = math.sqrt((n * squares - total * total) / (n * (n - 1)))
    snr, saturated = snr_db(v_n, config, bit_depth)
    return Measurement(
        v_ref=v_ref,
        v_n=v_n,
        snr_db=snr,
        error_margin=error_margin(v_n, n),
        n_samples=n,
        filtered=config.filter is not None,
        frames_used=frames_used,
        saturated=saturated,
    )


def psnr(
    original,
    decoded,
    bits_per_pixel: int = 8,
    cap_db: float = 100.0,
    channel_labels: Sequence[str] | None = None,
) -> PsnrResult:
    """Peak SNR between two equally shaped pixel planes.

    2-D inputs are a single plane; 3-D inputs are height x width x channels
    and additionally get a per-channel breakdown while ``mse``/``psnr_db``
    stay pooled over all pixels. Zero MSE reports ``cap_db`` and sets the
    saturation flag.
    """
    a = np.asarray(original)
    b = np.asarray(decoded)
    if a.shape != b.shape:
        raise InvalidInputError(f"plane shapes differ: {a.shape} vs {b.shape}")
    if a.ndim not in (2, 3):
        raise InvalidInputError(f"expected a 2-D or 3-D pixel plane, got {a.ndim}-D")
    bits_per_pixel = _as_int(bits_per_pixel, "bits_per_pixel")
    if not 1 <= bits_per_pixel <= 16:
        raise InvalidInputError(f"bits_per_pixel must be 1..16, got {bits_per_pixel}")
    cap_db = _as_float(cap_db, "cap_db")

    diff = a.astype(np.float64) - b.astype(np.float64)
    sq = np.square(diff)
    peak = float((1 << bits_per_pixel) - 1)

    def one(mse: float) -> tuple[float, bool]:
        if mse == 0.0:
            return (cap_db, True)
        return (10.0 * math.log10(peak * peak / mse), False)

    mse = float(np.mean(sq))
    value, saturated = one(mse)

    per_channel = None
    if a.ndim == 3:
        n_ch = a.shape[2]
        if channel_labels is None:
            labels = [f"ch{i}" for i in range(n_ch)]
        elif len(channel_labels) != n_ch:
            raise InvalidInputError(
                f"{len(channel_labels)} labels supplied for {n_ch} channels"
            )
        else:
            labels = [str(s) for s in channel_labels]
        per_channel = tuple(
            (labels[i], one(float(np.mean(sq[:, :, i])))[0]) for i in range(n_ch)
        )

    return PsnrResult(
        mse=mse,
        psnr_db=value,
        bits_per_pixel=bits_per_pixel,
        per_channel=per_channel,
        saturated=saturated,
    )
