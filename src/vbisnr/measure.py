"""Statistical SNR measurement on blanked video lines.

A blanked (empty black) vertical-blanking-interval line carries a constant
level, so its sample mean estimates the reference level and the spread of
the samples around that mean is pure noise. The functions here implement
that separation: reference level, noise RMS over an N-1 denominator,
SNR in dB against the nominal full-scale video amplitude, the statistical
error margin of the estimate, multi-frame accumulation, a line's magnitude
spectrum, and PSNR between pixel planes.

A measurement's lines are a :class:`LineBlock`: the rows
``extract_vbi_lines`` gathers from a capture, or :class:`LineRecord`
objects, one per line, that share one window length, stacked by
:meth:`LineBlock.stack`. The block's windows are read in place, a fixed
number of rows at a time. Raw statistics are their exact integer moments,
so one division and one square root are the only roundings. Filtered
statistics filter each window less the reference level, row by row, and
combine per-line sums of squares with ``math.fsum``. Either way, pooling frames in any
order, or reading them in blocks of any size, yields bit-identical
measurements. A record is admitted once: its constructor checks outside
input, and what the package builds from admitted values is not checked again.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import dsp
from .errors import InvalidInputError, MeasurementImpossibleError, _as_float, _as_int, _from_dict

# Nominal 8-bit video signal amplitude: 235 - 16 code units (ITU-R BT.601
# levels). Wider samples scale proportionally.
FULL_SCALE_8BIT = 219.0

# Magnitudes below this are reported as the floor instead of -inf.
DB_FLOOR = -200.0

_LN10 = math.log(10.0)

# ``accumulate`` and ``synthesize`` work on whole rows in blocks of about
# this many samples (at least one row), so each of their float temporaries
# is about one block, 256 KiB in float64, whatever the input; smaller blocks
# pay more per-call overhead. A block's float buffers lie above glibc's
# starting 128 KiB mmap and trim thresholds, so unless an earlier, larger
# free raised those, a call may map them, or regrow the heap, afresh. How
# many faults that costs depends on the heap layout, not on this code: a fresh
# process's 30-frame raw-and-filtered step took 0 or 97 minor faults by
# layout, and a fresh ``scan`` child's filtered call 129-175 faults and
# 1.1-1.4 ms against ~0.4 ms warm (numpy 2.4, glibc defaults). Choosing the
# block waits for a benchmark that times such fresh-process steps.
_BLOCK_SAMPLES = 1 << 15


def _row_blocks(rows: np.ndarray) -> list[np.ndarray]:
    # ``rows`` as views of whole rows, about ``_BLOCK_SAMPLES`` samples each.
    step = max(1, _BLOCK_SAMPLES // rows.shape[1])
    return [rows[first : first + step] for first in range(0, len(rows), step)]


def _bit_depth(bit_depth) -> int:
    # The width of an ADC code: 8..10 bits.
    bit_depth = _as_int(bit_depth, "bit_depth")
    if not 8 <= bit_depth <= 10:
        raise InvalidInputError(f"bit_depth must be 8..10, got {bit_depth}")
    return bit_depth


def _full_scale(bit_depth) -> float:
    # The nominal video amplitude in ``bit_depth``-bit codes.
    return FULL_SCALE_8BIT * 2.0 ** (_bit_depth(bit_depth) - 8)


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


def _built(cls, **fields):
    # A record of values the package made from admitted ones, set unchecked.
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def _line_format(bit_depth, sample_rate_hz) -> tuple[int, float]:
    # The ADC format of a line, a block or a capture: 8..10-bit codes at a
    # positive rate.
    return _bit_depth(bit_depth), _as_float(sample_rate_hz, "sample_rate_hz", 0, above=True)


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
        for key in ("line_index", "frame_index"):
            object.__setattr__(self, key, _as_int(getattr(self, key), key, 0))
        window = _check_window(self.window, arr.size, (self.line_index, self.frame_index))
        object.__setattr__(self, "samples", _admit_codes(arr, bit_depth, arr.dtype))
        object.__setattr__(self, "bit_depth", bit_depth)
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
    :func:`default_window` of the line length. The constructor checks its
    input by the rules of :class:`LineRecord`; the blocks the package builds
    are not checked again. A block reads as a sequence of :class:`LineRecord`:
    one is built from a row view when asked for, and a slice is a block, both
    from the block's admitted values without checks: only the index is checked.
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

    @classmethod
    def stack(cls, records: Iterable[LineRecord]) -> "LineBlock":
        """Each record's window as a row of one block, whose window is the row.

        The records share one ADC format and one window length, at any
        position in their lines.
        """
        records = list(records)
        if not records:
            raise InvalidInputError("no lines to accumulate")
        for what, values in (
            ("bit depths", {line.bit_depth for line in records}),
            ("sample rates", {line.sample_rate_hz for line in records}),
            ("window lengths", {line.window[1] - line.window[0] for line in records}),
        ):
            if len(values) > 1:
                raise InvalidInputError(f"mixed {what} in accumulation: {sorted(values)}")
        samples = np.array([line.window_samples() for line in records], dtype=np.int64)
        samples.flags.writeable = False
        first = records[0]
        return _built(cls, samples=samples, window=(0, samples.shape[1]),
                      frame_indices=tuple(line.frame_index for line in records),
                      line_indices=tuple(line.line_index for line in records),
                      bit_depth=first.bit_depth, sample_rate_hz=first.sample_rate_hz)

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _built(type(self), **{**vars(self), "samples": self.samples[index],
                                         "frame_indices": self.frame_indices[index],
                                         "line_indices": self.line_indices[index]})
        index = _as_int(index, "index")
        return _built(LineRecord, samples=self.samples[index], bit_depth=self.bit_depth,
                      sample_rate_hz=self.sample_rate_hz, line_index=self.line_indices[index],
                      frame_index=self.frame_indices[index], window=self.window)


@dataclass(frozen=True)
class MeasureConfig:
    """Measurement parameters: the low-pass ``filter``, or ``None`` for raw samples.

    The other fields are fixed, and a report lists them. ``full_scale`` of
    ``None`` means the nominal video range for the line's bit depth: 219
    code units at 8 bits, doubling per extra bit. At most ``max_frames``
    frames pool into one measurement, and zero noise reads ``snr_cap_db``.
    """

    full_scale: None = field(default=None, init=False)
    max_frames: int = field(default=30, init=False)
    snr_cap_db: float = field(default=100.0, init=False)
    filter: dsp.FilterSpec | None = None

    def __post_init__(self) -> None:
        if not (self.filter is None or isinstance(self.filter, dsp.FilterSpec)):
            raise InvalidInputError(f"filter must be None or a FilterSpec, got {self.filter!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "MeasureConfig":
        filt = d["filter"]
        d = {**d, "filter": None if filt is None else dsp.FilterSpec.from_dict(filt)}
        return _from_dict(cls, d)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Single-sided magnitude spectrum of one line.

    Bin 0 holds the line's mean level (the black level on a blanked line);
    it is measured separately and removed before windowing so that leakage
    from the large DC term cannot mask low-level structure in the AC bins.
    Magnitudes are in dB relative to the nominal full-scale amplitude.
    """

    bin_hz: float
    magnitudes_db: np.ndarray

    @property
    def fft_size(self) -> int:
        return 2 * (len(self.magnitudes_db) - 1)

    def frequencies_hz(self) -> np.ndarray:
        return np.arange(len(self.magnitudes_db)) * self.bin_hz


def _periodic_hann(n: int) -> np.ndarray:
    """The ``n``-point Hann window of an ``n``-periodic sequence."""
    return np.hanning(n + 1)[:-1]


def line_spectrum(line: LineRecord) -> Spectrum:
    """Hann-windowed magnitude spectrum of a whole line, zero-padded to the
    smallest power of two no shorter than the line."""
    n = len(line.samples)
    fft_size = 1 << (n - 1).bit_length()

    x = np.asarray(line.samples, dtype=np.float64)
    mean = float(x.mean())
    window = _periodic_hann(n)
    bins = np.fft.rfft((x - mean) * window, n=fft_size)

    # Single-sided amplitude normalization: a full-scale sinusoid reads 0 dB.
    mags = np.abs(bins) * (2.0 / window.sum())
    mags[-1] /= 2.0  # Nyquist bin is not mirrored
    mags[0] = abs(mean)

    full_scale = _full_scale(line.bit_depth)
    floor = full_scale * 10.0 ** (DB_FLOOR / 20.0)
    db = 20.0 * np.log10(np.maximum(mags, floor) / full_scale)
    db.flags.writeable = False
    return Spectrum(bin_hz=line.sample_rate_hz / fft_size, magnitudes_db=db)


@dataclass(frozen=True)
class Measurement:
    """One SNR measurement result, checked when it is built from outside input.

    ``v_ref`` and ``v_n`` are in ADC code units. The noise RMS divides by
    N - 1, so ``n_samples`` is at least 2, and ``frames_used`` at least 1.
    Two fields are worked out, not given: ``error_margin``, the statistical
    uncertainty of ``v_n`` (:func:`error_margin`), and ``saturated``, set
    when zero noise forced the SNR cap.
    """

    v_ref: float
    v_n: float
    snr_db: float
    error_margin: float = field(init=False)
    n_samples: int
    filtered: bool
    frames_used: int
    saturated: bool = field(init=False)

    def __post_init__(self) -> None:
        for key, low in (("v_ref", -math.inf), ("v_n", 0), ("snr_db", -math.inf)):
            object.__setattr__(self, key, _as_float(getattr(self, key), key, low))
        for key, low in (("n_samples", 2), ("frames_used", 1)):
            object.__setattr__(self, key, _as_int(getattr(self, key), key, low))
        if not isinstance(self.filtered, bool):
            raise InvalidInputError(f"filtered must be true or false, got {self.filtered!r}")
        object.__setattr__(self, "error_margin", error_margin(self.v_n, self.n_samples))
        object.__setattr__(self, "saturated", self.v_n == 0.0)

    from_dict = classmethod(_from_dict)


@dataclass(frozen=True)
class PsnrResult:
    """PSNR between two pixel planes; ``saturated`` (zero MSE) is worked out, not given."""

    mse: float
    psnr_db: float
    bits_per_pixel: int
    per_channel: tuple[tuple[str, float], ...] | None = None
    saturated: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "saturated", self.mse == 0.0)


def noise_rms(line: LineRecord, v_ref: float) -> float:
    """Noise RMS over the window: sqrt(sum((x - v_ref)^2) / (N - 1))."""
    v_ref = _as_float(v_ref, "v_ref")
    values = line.window_samples()
    return math.sqrt(float(np.sum(np.square(values - v_ref))) / (values.size - 1))


def snr_db(v_n: float, bit_depth: int = 8) -> float:
    """SNR in dB for a noise RMS in ``bit_depth``-bit codes.

    ``20 * log10(full_scale / v_n)`` against the nominal video amplitude for
    positive noise; zero noise returns the cap, ``MeasureConfig.snr_cap_db``.
    """
    v_n = _as_float(v_n, "noise RMS", 0)
    full_scale = _full_scale(bit_depth)
    if v_n == 0.0:
        return MeasureConfig.snr_cap_db
    return 20.0 * math.log10(full_scale / v_n)


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


def accumulate(
    lines: LineBlock | Iterable[LineRecord], config: MeasureConfig | None = None
) -> Measurement:
    """Pool the window samples of several lines into one measurement.

    ``lines`` is a :class:`LineBlock`, as :func:`extract_vbi_lines` returns,
    or any iterable of :class:`LineRecord`, which :meth:`LineBlock.stack`
    makes one. All samples form one population: the reference level is
    their unfiltered mean, and the noise RMS and its error margin run over
    all of them. At most ``config.max_frames`` distinct frames; any line
    order, and either form of the same lines, gives the same bits. The
    windows are read in place, in blocks of rows, so the working memory
    does not grow with the number of lines.
    """
    if config is None:
        config = MeasureConfig()
    if not isinstance(lines, LineBlock):
        lines = LineBlock.stack(lines)
    if not len(lines):
        raise InvalidInputError("no lines to accumulate")
    frames_used = len(set(lines.frame_indices))
    if frames_used > config.max_frames:
        raise InvalidInputError(
            f"{frames_used} frames exceed the {config.max_frames}-frame limit"
        )
    codes = lines.samples[:, slice(*lines.window)]
    n = codes.size
    blocks = _row_blocks(codes)
    total = sum(int(block.sum(dtype=np.int64)) for block in blocks)
    v_ref = total / n

    if config.filter is not None:
        taps = dsp.design_lowpass(config.filter, lines.sample_rate_hz)
        if codes.shape[1] <= len(taps):
            raise MeasurementImpossibleError(
                f"measurement window too short for the {len(taps)}-tap filter: input of "
                f"{codes.shape[1]} samples is not longer than the {len(taps)}-tap filter"
            )
        n = len(codes) * (codes.shape[1] - len(taps) + 1)
        sums = []
        for block in blocks:
            # The window less its reference level: one with no variation
            # filters to exact zeros.
            y = dsp.apply_filter(block - v_ref, taps)
            np.square(y, out=y)
            sums += y.sum(axis=-1).tolist()
            del y  # before the next block is filtered
        # Each line's sum depends only on that line, and fsum over them gives
        # the same bits in any line order.
        # Filtering narrows the noise bandwidth; dividing by the filter's white
        # noise gain refers the in-band RMS back to an equivalent full-band
        # level, keeping filtered and unfiltered readings comparable.
        v_n = math.sqrt(math.fsum(sums) / (n - 1)) / dsp._noise_gain(taps.tobytes())
    else:
        # n*sum(x^2) - sum(x)^2 is exact in Python ints.
        squares = 0
        for block in blocks:
            block = block.astype(np.int64, copy=False)
            squares += int(np.vdot(block, block))
        v_n = math.sqrt((n * squares - total * total) / (n * (n - 1)))
    return _built(Measurement, v_ref=v_ref, v_n=v_n, snr_db=snr_db(v_n, lines.bit_depth),
                  error_margin=error_margin(v_n, n), n_samples=n,
                  filtered=config.filter is not None, frames_used=frames_used,
                  saturated=v_n == 0.0)


def _pixel_bits(bits) -> int:
    # The bits of a PSNR pixel code: 1..16.
    bits = _as_int(bits, "bits_per_pixel")
    if not 1 <= bits <= 16:
        raise InvalidInputError(f"bits_per_pixel must be 1..16, got {bits}")
    return bits


def psnr(
    original,
    decoded,
    bits_per_pixel: int = 8,
    channel_labels: Sequence[str] | None = None,
) -> PsnrResult:
    """Peak SNR between two equally shaped pixel planes.

    2-D inputs are a single plane; 3-D inputs are height x width x channels
    and additionally get a per-channel breakdown while ``mse``/``psnr_db``
    stay pooled over all pixels. Zero MSE reads the SNR cap,
    ``MeasureConfig.snr_cap_db``, and sets the saturation flag. Each plane
    is admitted as a capture's samples are: non-empty, of integer codes
    within ``bits_per_pixel``; a fault names the plane's parameter.
    """
    a = np.asarray(original)
    b = np.asarray(decoded)
    if a.shape != b.shape:
        raise InvalidInputError(f"plane shapes differ: {a.shape} vs {b.shape}")
    if a.ndim not in (2, 3):
        raise InvalidInputError(f"expected a 2-D or 3-D pixel plane, got {a.ndim}-D")
    bits_per_pixel = _pixel_bits(bits_per_pixel)
    planes = []
    for name, plane in (("original", a), ("decoded", b)):
        try:
            if not plane.size:
                raise InvalidInputError("the pixel plane is empty")
            planes.append(_admit_codes(plane, bits_per_pixel, plane.dtype))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{name}: {exc}") from None
    a, b = planes

    diff = a.astype(np.float64) - b.astype(np.float64)
    sq = np.square(diff)
    peak = float((1 << bits_per_pixel) - 1)

    def one(mse: float) -> float:
        if mse == 0.0:
            return MeasureConfig.snr_cap_db
        return 10.0 * math.log10(peak * peak / mse)

    mse = float(np.mean(sq))

    per_channel = None
    if a.ndim == 3:
        n_ch = a.shape[2]
        if channel_labels is None:
            channel_labels = [f"ch{i}" for i in range(n_ch)]
        if len(channel_labels) != n_ch:
            raise InvalidInputError(f"{len(channel_labels)} labels supplied for {n_ch} channels")
        per_channel = tuple(
            (str(label), one(float(np.mean(sq[..., i])))) for i, label in enumerate(channel_labels)
        )

    return PsnrResult(
        mse=mse, psnr_db=one(mse), bits_per_pixel=bits_per_pixel, per_channel=per_channel
    )
