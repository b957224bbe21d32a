"""Synthetic VBI line generator with known ground truth.

Stands in for a tuner board: emits captures whose noise level, interferer
content, and seed are exactly known, so measurements can be verified
against the truth. Every line is black level plus seeded Gaussian noise
plus optional interfering sinusoids, quantized to the code range.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .capture import CaptureFile, CaptureHeader
from .errors import InvalidInputError, _as_float, _as_int
from .measure import _built, _row_blocks, default_window


@dataclass(frozen=True)
class SynthConfig:
    """Generator parameters.

    ``interferers`` is a tuple of (frequency_hz, amplitude, phase_radians)
    sinusoids added to every line, e.g. a 5.5e6 Hz entry to imitate a
    PAL B/G sound carrier. ``sync``, a bool, prepends a sync-tip plus
    color-burst region over the first 12% of each line, which the default
    measurement window excludes. Identical configs produce bit-identical captures.
    ``header`` is the capture's header, built and so checked at construction.
    """

    black_level: float = 60.0
    noise_sigma: float = 0.0
    interferers: tuple[tuple[float, float, float], ...] = ()
    seed: int = 0
    samples_per_line: int = 864
    sample_rate_hz: float = 13.5e6
    bit_depth: int = 8
    frames: int = 30
    lines_per_frame: int = 2
    sync: bool = False
    channel_label: str = ""
    header: CaptureHeader = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        header = CaptureHeader(
            samples_per_line=self.samples_per_line,
            lines_per_frame=self.lines_per_frame,
            frames=self.frames,
            bit_depth=self.bit_depth,
            sample_rate_hz=self.sample_rate_hz,
            channel_label=self.channel_label,
        )
        object.__setattr__(self, "header", header)
        for key in ("samples_per_line", "lines_per_frame", "frames", "bit_depth",
                    "sample_rate_hz"):
            object.__setattr__(self, key, getattr(header, key))
        max_code = (1 << header.bit_depth) - 1
        black_level = _as_float(self.black_level, "black_level")
        if not 0 <= black_level <= max_code:
            raise InvalidInputError(
                f"black_level {self.black_level} outside the 0..{max_code} code range"
            )
        object.__setattr__(self, "black_level", black_level)
        object.__setattr__(self, "noise_sigma", _as_float(self.noise_sigma, "noise_sigma", 0))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0))
        if not isinstance(self.sync, bool):
            raise InvalidInputError(f"sync must be true or false, got {self.sync!r}")
        triples = "interferers must be (frequency_hz, amplitude, phase) triples"
        try:
            specs = tuple(tuple(spec) for spec in self.interferers)
        except TypeError:
            raise InvalidInputError(f"{triples}, got {self.interferers!r}") from None
        admitted = []
        for spec in specs:
            if len(spec) != 3:
                raise InvalidInputError(triples)
            bad = f"bad interferer {spec}:"
            admitted.append((
                _as_float(spec[0], f"{bad} frequency_hz", 0, above=True),
                _as_float(spec[1], f"{bad} amplitude", 0),
                _as_float(spec[2], f"{bad} phase"),
            ))
        object.__setattr__(self, "interferers", tuple(admitted))


def _quantize(x: np.ndarray, max_code: int, out: np.ndarray) -> int:
    # Round half away from zero, then clip into ``out``; return how many
    # samples clipped. ``x`` is overwritten. floor(x + 0.5) rounds every
    # level that does not clip low, and one that does clips to 0 either way.
    # Those are the levels at most nextafter(-0.5, 0): their |x| + 0.5 is at
    # least 1.0 in float64 (0.49999999999999994 + 0.5 is 1.0).
    clipped = int(np.count_nonzero(x <= np.nextafter(-0.5, 0.0)))
    x += 0.5
    np.floor(x, out=x)
    clipped += int(np.count_nonzero(x > max_code))
    np.clip(x, 0, max_code, out=out, casting="unsafe")
    return clipped


def synthesize(config: SynthConfig) -> CaptureFile:
    """Generate a capture per ``config``; a pure function of the config."""
    header = config.header
    spl = header.samples_per_line
    max_code = (1 << header.bit_depth) - 1
    t = np.arange(spl, dtype=np.float64) / header.sample_rate_hz

    base = np.full(spl, config.black_level, dtype=np.float64)
    for freq, amp, phase in config.interferers:
        base += amp * np.sin(2.0 * np.pi * freq * t + phase)

    if config.sync:
        # Sync tip then a burst, confined to the region the default window
        # excludes so measurements stay uncontaminated.
        sync_len = default_window(spl)[0]
        tip_len = (2 * sync_len) // 3
        base[:tip_len] = config.black_level / 4.0
        base[tip_len:sync_len] = config.black_level + (config.black_level / 3.0) * np.sin(
            2.0 * np.pi * 4.43e6 * t[tip_len:sync_len]
        )

    samples = np.empty(
        (header.frames, header.lines_per_frame, spl), dtype=header.sample_dtype
    )
    rows = samples.reshape(-1, spl)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    blocks = _row_blocks(rows)
    buf = np.empty(blocks[0].shape)
    clip_count = 0
    # The generator fills its output in order, so drawing one block of
    # lines after another yields the values of a single whole-capture draw,
    # and sigma * z + base those of ``rng.normal(0.0, sigma) + base``; at
    # sigma 0 that is base exactly, as +-0 + base is base.
    for out in blocks:
        block = buf[: len(out)]
        rng.standard_normal(out=block)
        block *= config.noise_sigma
        block += base
        clip_count += _quantize(block, max_code, out)
    samples.flags.writeable = False
    total = samples.size

    extra = {
        "black_level": repr(config.black_level),
        "noise_sigma": repr(config.noise_sigma),
        "seed": str(config.seed),
        "sync": "1" if config.sync else "0",
        "interferers": ";".join(f"{f!r},{a!r},{p!r}" for f, a, p in config.interferers),
        "clip_count": str(clip_count),
    }
    if clip_count > 0.01 * total:
        extra["clip_warning"] = (
            f"{clip_count} of {total} samples clipped; reduce noise_sigma or amplitudes"
        )
    header = replace(header, vbi_line_indices=range(header.lines_per_frame), extra=extra)
    return _built(CaptureFile, header=header, samples=samples)
