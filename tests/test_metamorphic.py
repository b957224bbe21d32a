"""Metamorphic relations of ``accumulate``: transforms of the codes whose effect
on the readings is known without a truth.

Each case is a seeded 30-frame, 2-line capture at 8 or 10 bits, every other
seed with a 5.5 MHz sound carrier. A transform rewrites every row and keeps
the block's window, so a slip in the window slice or at one end of a row
moves a reading:

- codes x 4, read as 10-bit codes: ``v_ref`` and ``v_n`` are exactly 4x and
  ``snr_db`` is unchanged, in both modes. A power of two scales exactly
  through the integer sums, the FFT and the square root.
- codes + 17, the top code - codes, and each row's window reversed: the raw
  ``v_n`` and ``snr_db`` are unchanged, since the raw moments are exact
  integers. The filtered ``v_n`` moves by round-off only: the reference
  level rounds afresh, and the FFT rounds a negated or reversed window in
  other places. That is a few ulp, where one lost sample at an end of each
  row moves the reversed reading by 1e-5 or more.

The Hypothesis cases draw the block itself: a few rows of codes at 8 or 10
bits, and a window that starts and ends anywhere in the row but is long
enough for the 99 taps of the default filter at 13.5 MHz. They assert the
exact relations only.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vbisnr import (
    FilterSpec, LineBlock, MeasureConfig, SynthConfig, accumulate, extract_vbi_lines, synthesize,
)

SEEDS = range(20)
MODES = {"raw": MeasureConfig(), "filtered": MeasureConfig(filter=FilterSpec())}
# The filtered readings' bound, relative; observed up to 2.1e-16 over 200 seeds.
FILTERED_RTOL = 1e-13


@functools.lru_cache
def _lines(seed: int, bit_depth: int) -> LineBlock:
    scale = 1 << (bit_depth - 8)
    carrier = ((5.5e6, 3.0 * scale, 0.0),) if seed % 2 else ()
    return extract_vbi_lines(synthesize(SynthConfig(
        black_level=60.0 * scale, noise_sigma=2.19 * scale, interferers=carrier,
        seed=seed, bit_depth=bit_depth,
    )))


def _transformed(lines: LineBlock, rows: np.ndarray, bit_depth: int) -> LineBlock:
    # ``rows`` in place of the block's rows, under the same window.
    return LineBlock(rows, frame_indices=lines.frame_indices, line_indices=lines.line_indices,
                     bit_depth=bit_depth, sample_rate_hz=lines.sample_rate_hz,
                     window=lines.window)


def _reversed_windows(lines: LineBlock) -> np.ndarray:
    rows = lines.samples.astype(np.int64)
    start, end = lines.window
    rows[:, start:end] = rows[:, start:end][:, ::-1]
    return rows


TRANSFORMS = {
    "offset": lambda lines, top: lines.samples.astype(np.int64) + 17,
    "negation": lambda lines, top: top - lines.samples.astype(np.int64),
    "reversal": lambda lines, top: _reversed_windows(lines),
}


@pytest.mark.parametrize("mode", MODES)
def test_codes_times_four_read_as_ten_bit_scale_exactly(mode):
    for seed in SEEDS:
        lines = _lines(seed, 8)
        base = accumulate(lines, MODES[mode])
        wide = accumulate(_transformed(lines, lines.samples.astype(np.int64) * 4, 10), MODES[mode])
        assert wide.v_ref == 4 * base.v_ref, seed
        assert wide.v_n == 4 * base.v_n, seed
        assert wide.snr_db == base.snr_db, seed
        assert wide.n_samples == base.n_samples, seed


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("bit_depth", [8, 10])
def test_offset_negation_and_reversal_keep_the_noise(bit_depth, transform):
    top = (1 << bit_depth) - 1
    for seed in SEEDS:
        lines = _lines(seed, bit_depth)
        moved = _transformed(lines, TRANSFORMS[transform](lines, top), bit_depth)
        for mode, config in MODES.items():
            base, other = accumulate(lines, config), accumulate(moved, config)
            assert other.n_samples == base.n_samples, (seed, mode)
            if mode == "raw":
                assert other.v_n == base.v_n, seed
                assert other.snr_db == base.snr_db, seed
            else:
                assert other.v_n == pytest.approx(base.v_n, rel=FILTERED_RTOL, abs=0), seed
            if transform == "reversal":
                assert other.v_ref == base.v_ref, (seed, mode)


# The filter's taps at 13.5 MHz; a filtered window must be longer.
TAPS = 99


@st.composite
def blocks(draw, bit_depths=(8, 10)) -> LineBlock:
    """A block of 1 to 4 rows of codes, with a window at least ``TAPS + 1`` long."""
    bit_depth = draw(st.sampled_from(bit_depths))
    rows = draw(st.integers(1, 4))
    start = draw(st.integers(0, 9))
    end = start + draw(st.integers(TAPS + 1, TAPS + 40))
    codes = draw(arrays(np.int64, (rows, end + draw(st.integers(0, 9))),
                        elements=st.integers(0, (1 << bit_depth) - 1)))
    return LineBlock(codes, frame_indices=range(rows), line_indices=(0,) * rows,
                     bit_depth=bit_depth, window=(start, end))


@settings(max_examples=100, deadline=None)
@given(blocks(bit_depths=(8,)))
def test_drawn_codes_times_four_read_as_ten_bit_scale_exactly(lines):
    wide = _transformed(lines, lines.samples * 4, 10)
    for config in MODES.values():
        base, other = accumulate(lines, config), accumulate(wide, config)
        assert (other.v_ref, other.v_n) == (4 * base.v_ref, 4 * base.v_n)
        assert (other.snr_db, other.n_samples) == (base.snr_db, base.n_samples)


@settings(max_examples=100, deadline=None)
@given(blocks(), st.data())
def test_drawn_offset_negation_and_reversal_keep_the_raw_noise(lines, data):
    top = (1 << lines.bit_depth) - 1
    codes = lines.samples
    offset = data.draw(st.integers(-int(codes.min()), top - int(codes.max())), label="offset")
    base = accumulate(lines)
    for rows in (codes + offset, top - codes, _reversed_windows(lines)):
        other = accumulate(_transformed(lines, rows, lines.bit_depth))
        assert (other.v_n, other.snr_db, other.n_samples) == (
            base.v_n, base.snr_db, base.n_samples)
    assert other.v_ref == base.v_ref  # reversal, the last, keeps the level too
