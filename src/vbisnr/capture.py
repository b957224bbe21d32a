"""Capture file container and VBI line extraction.

A capture is a self-describing binary file: the magic bytes ``VBI1``, a
4-byte little-endian header length, a UTF-8 ``key=value`` header block,
then the raw sample payload, line-major within frame-major order. Samples
occupy one byte up to 8-bit depth and two little-endian, LSB-aligned bytes
above that. Write then read is bit-identical on every valid file.
:func:`extract_vbi_lines` returns the VBI lines of the selected frames as
one :class:`~vbisnr.measure.LineBlock` for measurement: a view of the frames
when every line is a VBI line, and a gathered copy of the listed rows
otherwise.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CaptureFormatError, InvalidInputError, MeasurementImpossibleError, _as_int
from .measure import LineBlock, _admit_codes, _built, _line_format, default_window

MAGIC = b"VBI1"
FORMAT_VERSION = 1


def _sample_dtype(bit_depth: int) -> np.dtype:
    return np.dtype(np.uint8 if bit_depth <= 8 else "<u2")


# The header keys in file order: how each value's text is parsed and how the
# value is written. A key parsed with ``int`` or ``float`` is held as one.
_HEADER_FIELDS = {
    "format_version": (int, str),
    "bit_depth": (int, str),
    "sample_rate_hz": (float, repr),
    "samples_per_line": (int, str),
    "lines_per_frame": (int, str),
    "frames": (int, str),
    "vbi_line_indices": (
        lambda text: tuple(int(v) for v in text.split(",") if v != ""),
        lambda v: ",".join(map(str, v)),
    ),
    "channel_label": (str, str),
}
# The least value of an integer header field; the line format bounds bit_depth.
_HEADER_LOW = {"samples_per_line": 16, "lines_per_frame": 1, "frames": 1}


@dataclass(frozen=True)
class CaptureHeader:
    """Metadata block of a capture file, and the one check of its geometry.

    ``vbi_line_indices`` names the blanked lines suitable for measurement;
    it may be empty, in which case the capture cannot be measured.
    ``extra`` holds free-form key=value pairs (the generator records its
    parameters and clip count there).
    """

    samples_per_line: int
    lines_per_frame: int
    frames: int
    vbi_line_indices: tuple[int, ...] = ()
    bit_depth: int = 8
    sample_rate_hz: float = 13.5e6
    channel_label: str = ""
    format_version: int = field(default=FORMAT_VERSION, init=False)
    extra: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, (parse, _) in _HEADER_FIELDS.items():
            if parse is int:
                low = _HEADER_LOW.get(key, -math.inf)
                object.__setattr__(self, key, _as_int(getattr(self, key), key, low))
        _, rate = _line_format(self.bit_depth, self.sample_rate_hz)
        object.__setattr__(self, "sample_rate_hz", rate)
        label = self.channel_label
        if not isinstance(label, str):
            raise InvalidInputError(f"channel_label must be a string, got {label!r}")
        if "\n" in label:
            raise InvalidInputError("channel_label may not contain newlines")
        try:
            extra = dict(self.extra)
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"extra must map strings to strings, got {self.extra!r}"
            ) from None
        for key, value in extra.items():
            if not (isinstance(key, str) and isinstance(value, str)):
                raise InvalidInputError(
                    f"extra metadata entry {key!r}={value!r} is not a pair of strings"
                )
            if key in _HEADER_FIELDS:
                raise InvalidInputError(f"extra metadata key {key!r} shadows a header field")
            if "\n" in key or "\n" in value or "=" in key:
                raise InvalidInputError(f"extra metadata entry {key!r} is not encodable")
        object.__setattr__(self, "extra", extra)
        last = self.lines_per_frame - 1
        idx = tuple(_as_int(i, "VBI line index", 0, last) for i in self.vbi_line_indices)
        if len(set(idx)) != len(idx):
            raise InvalidInputError("vbi_line_indices contains duplicates")
        object.__setattr__(self, "vbi_line_indices", idx)

    @property
    def sample_dtype(self) -> np.dtype:
        return _sample_dtype(self.bit_depth)

    @property
    def payload_bytes(self) -> int:
        return (
            self.frames
            * self.lines_per_frame
            * self.samples_per_line
            * self.sample_dtype.itemsize
        )


@dataclass(frozen=True, eq=False)
class CaptureFile:
    """Parsed capture: header plus samples shaped (frames, lines, samples).

    ``samples`` is a plain read-only ndarray in the file's sample dtype
    (``uint8`` up to 8 bits, else ``<u2``). A read-only array already in
    that dtype, such as the map :func:`read_capture` makes, is viewed, not
    copied; any other array is copied.
    """

    header: CaptureHeader
    samples: np.ndarray

    def __post_init__(self) -> None:
        h = self.header
        arr = np.asarray(self.samples)
        expected = (h.frames, h.lines_per_frame, h.samples_per_line)
        if arr.shape != expected:
            raise InvalidInputError(
                f"payload shape {arr.shape} does not match header {expected}"
            )
        object.__setattr__(self, "samples", _admit_codes(arr, h.bit_depth, h.sample_dtype))


def _serialize_header(header: CaptureHeader) -> bytes:
    lines = [f"{k}={write(getattr(header, k))}" for k, (_, write) in _HEADER_FIELDS.items()]
    lines += [f"{key}={header.extra[key]}" for key in sorted(header.extra)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_capture(capture: CaptureFile, path) -> None:
    """Write a capture to ``path`` in the VBI1 container format.

    An existing regular file (or the target of a symlink to one) is unlinked
    and replaced, not truncated, so a capture that maps it keeps its samples.
    """
    header_bytes = _serialize_header(capture.header)
    # A device such as /dev/null is written in place, never unlinked.
    target = os.path.realpath(path)
    if os.path.isfile(target):
        os.unlink(target)
    with open(target, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        capture.samples.tofile(fh)


def read_capture(path) -> CaptureFile:
    """Parse a VBI1 capture file, validating header/payload consistency.

    Only the header is read. The samples are a read-only array over a memory
    map of the payload, so a line is read from the file when it is used, and
    the capture is valid only while the file is not truncated or written in place.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise CaptureFormatError(f"{path}: not a VBI1 capture file")
        (header_len,) = struct.unpack("<I", head[4:])
        if size < 8 + header_len:
            raise CaptureFormatError(f"{path}: header truncated")
        try:
            text = fh.read(header_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CaptureFormatError(f"{path}: header is not valid UTF-8") from exc
        header = _parse_header(path, text)

        found = size - 8 - header_len
        if found != header.payload_bytes:
            raise CaptureFormatError(
                f"{path}: payload size mismatch: expected {header.payload_bytes} bytes, "
                f"found {found}"
            )
        samples = np.memmap(
            fh,
            dtype=header.sample_dtype,
            mode="r",
            offset=8 + header_len,
            shape=(header.frames, header.lines_per_frame, header.samples_per_line),
        )
    try:
        return CaptureFile(header=header, samples=samples)
    except InvalidInputError as exc:
        raise CaptureFormatError(f"{path}: {exc}") from exc


def _parse_header(path, text: str) -> CaptureHeader:
    fields: dict[str, str] = {}
    # the separator is strictly \n; values may hold any other character
    for raw in text.split("\n"):
        if not raw:
            continue
        if "=" not in raw:
            raise CaptureFormatError(f"{path}: malformed header line {raw!r}")
        key, _, value = raw.partition("=")
        if key in fields:
            raise CaptureFormatError(f"{path}: duplicate header field {key!r}")
        fields[key] = value
    fields.setdefault("channel_label", "")  # the one key a file may omit

    parsed = {}
    try:
        for key, (parse, _) in _HEADER_FIELDS.items():
            if key not in fields:
                raise CaptureFormatError(f"{path}: missing header field {key!r}")
            parsed[key] = parse(fields.pop(key))
            # The version comes first: a later format may carry other keys. The
            # header is not given it, as it holds the one version there is.
            if key == "format_version" and (version := parsed.pop(key)) != FORMAT_VERSION:
                raise CaptureFormatError(f"{path}: unknown format_version {version}")
        return CaptureHeader(**parsed, extra=fields)
    except (ValueError, InvalidInputError) as exc:
        raise CaptureFormatError(f"{path}: bad header: {exc}") from exc


def extract_vbi_lines(capture: CaptureFile, frame_range=None) -> LineBlock:
    """The VBI lines of the selected frames as one :class:`LineBlock`.

    ``frame_range`` may be ``None`` (all frames), a half-open
    ``(start, stop)`` tuple, which must lie within the capture, or an
    integer n (the first n frames, capped at what the capture holds). Rows
    are frame-major: each frame's VBI lines in header order. The block gets
    the default measurement window for the line length.

    When the header lists every line of the frame, in order, as a VBI line,
    the block's samples are a view of the capture's frames, not a copy, and
    a block that views a mapped capture is valid only as long as that
    capture is. Any other selection gathers its rows into a new array.
    """
    header = capture.header
    if frame_range is None:
        start, stop = 0, header.frames
    elif isinstance(frame_range, tuple):
        if len(frame_range) != 2:
            raise InvalidInputError(f"frame range must be (start, stop): {frame_range}")
        start, stop = (_as_int(v, "frame range bound") for v in frame_range)
        if not (0 <= start < stop <= header.frames):
            raise InvalidInputError(
                f"frame range [{start}, {stop}) outside capture of {header.frames} frames"
            )
    else:
        start, stop = 0, min(_as_int(frame_range, "frame count", 1), header.frames)

    vbi = header.vbi_line_indices
    if not vbi:
        raise MeasurementImpossibleError(
            "capture designates no VBI lines; record clean blanked lines "
            "(no teletext or test inserts) and list them in vbi_line_indices"
        )

    if vbi == tuple(range(header.lines_per_frame)):
        # Every line is a VBI line: the frame range is already the block.
        rows = capture.samples[start:stop]
    else:
        # Indexing copies just the measured rows. (np.take would first copy
        # the whole frame range of a 10-bit map, whose payload need not be
        # aligned.)
        rows = capture.samples[start:stop, list(vbi)]
    rows = rows.reshape(-1, header.samples_per_line)
    rows.flags.writeable = False
    return _built(LineBlock, samples=rows, window=default_window(header.samples_per_line),
                  frame_indices=tuple(f for f in range(start, stop) for _ in vbi),
                  line_indices=vbi * (stop - start),
                  bit_depth=header.bit_depth, sample_rate_hz=header.sample_rate_hz)
