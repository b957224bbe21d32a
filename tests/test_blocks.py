"""Fixed row blocks: ``synthesize`` and ``accumulate`` give the bits of a
whole-array pass, at any block size and BLAS thread count, in bounded
working memory."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vbisnr.measure
from vbisnr import (
    FilterSpec,
    MeasureConfig,
    SynthConfig,
    accumulate,
    default_window,
    extract_vbi_lines,
    synthesize,
)
from vbisnr.synth import _quantize

from conftest import SIGMA, SOUND_CARRIER_HZ

FILTERED = MeasureConfig(filter=FilterSpec())
# Lines of 864 samples per block of synthesis.
BLOCK_LINES = vbisnr.measure._BLOCK_SAMPLES // 864


def _one_draw_quantize(x: np.ndarray, max_code: int, out: np.ndarray) -> int:
    # Round half away from zero through an np.abs copy, then clip into ``out``.
    q = np.abs(x)
    q += 0.5
    np.floor(q, out=q)
    np.copysign(q, x, out=q)
    clipped = int(np.count_nonzero((q < 0) | (q > max_code)))
    np.clip(q, 0, max_code, out=q)
    out[...] = q
    return clipped


def _one_draw_synthesize(config: SynthConfig) -> tuple[bytes, int]:
    """The capture bytes and clip count of one whole-capture ``rng.normal`` draw."""
    header = config.header
    spl = header.samples_per_line
    t = np.arange(spl, dtype=np.float64) / header.sample_rate_hz
    base = np.full(spl, config.black_level, dtype=np.float64)
    for freq, amp, phase in config.interferers:
        base += amp * np.sin(2.0 * np.pi * freq * t + phase)
    if config.sync:
        sync_len = default_window(spl)[0]
        tip_len = (2 * sync_len) // 3
        base[:tip_len] = config.black_level / 4.0
        base[tip_len:sync_len] = config.black_level + (config.black_level / 3.0) * np.sin(
            2.0 * np.pi * 4.43e6 * t[tip_len:sync_len]
        )
    shape = (header.frames, header.lines_per_frame, spl)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    if config.noise_sigma > 0:
        x = rng.normal(0.0, config.noise_sigma, size=shape) + base
    else:
        x = np.broadcast_to(base, shape)
    out = np.empty(shape, dtype=header.sample_dtype)
    clipped = _one_draw_quantize(x, (1 << header.bit_depth) - 1, out)
    return out.tobytes(), clipped


SYNTH_GRID = {
    "8-bit": SynthConfig(noise_sigma=SIGMA, seed=1),
    "9-bit": SynthConfig(black_level=120.0, noise_sigma=2 * SIGMA, bit_depth=9, seed=2),
    "10-bit": SynthConfig(black_level=240.0, noise_sigma=4 * SIGMA, bit_depth=10, seed=3),
    "sigma-0": SynthConfig(noise_sigma=0.0, interferers=((1.2e6, 4.0, 0.5),)),
    "sync": SynthConfig(noise_sigma=SIGMA, sync=True, seed=4),
    "interferers": SynthConfig(
        noise_sigma=SIGMA, seed=5,
        interferers=((SOUND_CARRIER_HZ, 10.0, 0.0), (1.2e6, 4.0, 0.5)),
    ),
    "both-rails": SynthConfig(black_level=0.0, noise_sigma=400.0, seed=6, frames=4),
    "16-sample-line": SynthConfig(noise_sigma=SIGMA, samples_per_line=16, seed=7, frames=3),
    "block-minus-1": SynthConfig(noise_sigma=SIGMA, seed=8, frames=1,
                                 lines_per_frame=BLOCK_LINES - 1),
    "block": SynthConfig(noise_sigma=SIGMA, seed=9, frames=1, lines_per_frame=BLOCK_LINES),
    "block-plus-1": SynthConfig(noise_sigma=SIGMA, seed=10, frames=1,
                                lines_per_frame=BLOCK_LINES + 1),
    "two-blocks-plus-1": SynthConfig(noise_sigma=SIGMA, seed=11, frames=1,
                                     lines_per_frame=2 * BLOCK_LINES + 1),
}


@pytest.mark.parametrize("config", SYNTH_GRID.values(), ids=SYNTH_GRID.keys())
def test_synthesize_equals_one_whole_capture_draw(config):
    capture = synthesize(config)
    expected, clipped = _one_draw_synthesize(config)
    assert capture.samples.tobytes() == expected
    assert capture.header.extra["clip_count"] == str(clipped)


def test_both_rails_clip():
    capture = synthesize(SYNTH_GRID["both-rails"])
    assert int(capture.header.extra["clip_count"]) > 0
    assert np.any(capture.samples == 0) and np.any(capture.samples == 255)


@pytest.mark.parametrize("max_code", [255, 511, 1023])
def test_quantize_edges_follow_the_scalar_rule(max_code):
    values = [-0.5, -0.49999999999999994, -0.0, 0.5,
              max_code + 0.49999999999999994, max_code + 0.5]
    rounded = [math.copysign(math.floor(abs(v) + 0.5), v) for v in values]
    out = np.empty(len(values), dtype=np.uint16)
    clipped = _quantize(np.array(values), max_code, out)
    assert out.tolist() == [min(max(r, 0), max_code) for r in rounded]
    assert clipped == sum(r < 0 or r > max_code for r in rounded)


# _BLOCK_SAMPLES, the one block size of synthesize, which walks 864-sample
# lines, and of accumulate, which reads their 743-sample default windows:
# less than one row (so one row), seven windows (six whole lines), and more
# rows than any capture here. For the 1762-sample windows of 2048-sample
# lines the same sizes read one row, two rows and all rows.
BLOCK_SIZES = {
    "under-one-row": 1,
    "seven-rows": 7 * 743,
    "all-rows": 10**9,
}


def _results(config: SynthConfig):
    capture = synthesize(config)
    lines = extract_vbi_lines(capture)
    return capture.samples.tobytes(), accumulate(lines), accumulate(lines, FILTERED)


@pytest.mark.parametrize("block_samples", BLOCK_SIZES.values(), ids=BLOCK_SIZES.keys())
def test_no_bit_depends_on_the_block_size(monkeypatch, block_samples):
    configs = [
        SynthConfig(black_level=60.0 * scale, noise_sigma=SIGMA * scale, seed=seed,
                    bit_depth=8 if scale == 1 else 10,
                    interferers=((SOUND_CARRIER_HZ, 10.0 * scale, 0.0),) if carrier else ())
        for seed in range(10) for scale in (1, 4) for carrier in (False, True)
    ]
    # 2048 samples at 35.46895 MHz, 8x the PAL subcarrier: 259 taps, 1504-sample
    # filtered rows, a second dot product length.
    configs += [
        SynthConfig(black_level=60.0 * scale, noise_sigma=SIGMA * scale, seed=seed,
                    bit_depth=8 if scale == 1 else 10, samples_per_line=2048,
                    sample_rate_hz=35.46895e6,
                    interferers=((SOUND_CARRIER_HZ, 10.0 * scale, 0.0),) if carrier else ())
        for seed in range(2) for scale in (1, 4) for carrier in (False, True)
    ]
    # 12,000 samples at 13.5 MHz: 10,222-sample filtered rows, each taken in
    # two dot products.
    configs.append(SynthConfig(noise_sigma=SIGMA, seed=23, samples_per_line=12000))
    configs.append(SynthConfig(noise_sigma=0.0))  # constant codes: v_n reads 0
    expected = [_results(config) for config in configs]
    monkeypatch.setattr(vbisnr.measure, "_BLOCK_SAMPLES", block_samples)
    assert [_results(config) for config in configs] == expected
    assert expected[-1][1].v_n == expected[-1][2].v_n == 0.0


# Filtered v_n of 40 captures of 12,000-sample lines, printed in hex by a
# child process.
THREAD_CHILD = """
from vbisnr import FilterSpec, MeasureConfig, SynthConfig, accumulate, extract_vbi_lines, synthesize
for seed in range(40):
    capture = synthesize(SynthConfig(noise_sigma=2.19, seed=seed, samples_per_line=12000))
    print(accumulate(extract_vbi_lines(capture), MeasureConfig(filter=FilterSpec())).v_n.hex())
"""


def _filtered_v_n(blas_threads: str) -> list[str]:
    environ = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
               "PYTHONPATH": str(Path(vbisnr.measure.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", THREAD_CHILD], env=environ,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_no_bit_depends_on_the_blas_thread_count():
    """Filtered rows of 10,222 samples read the same bits with one BLAS thread
    as with two. OpenBLAS threads a dot product of over 10,000 samples, which
    rounds otherwise; accumulate takes each row's energy in dot products of at
    most 8192. On one core OpenBLAS runs one thread either way, so there this
    test cannot fail."""
    assert _filtered_v_n("1") == _filtered_v_n("2")


def _traced_peak(fn, *args) -> tuple[int, object]:
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


# Working memory of synthesize beyond its output: the float64 block and
# the boolean mask of each of _quantize's two clip counts, one at a time,
# 0.33 MiB for the 300x2 capture and 0.39 MiB for the 30x625. Drawing the whole
# capture took 9.65 MB for the 300x2x864 capture and 18.55 MB for 30x625x864
# at 10 bits.
SYNTH_BUDGET_BYTES = 1 << 20


@pytest.mark.parametrize("config", [
    SynthConfig(noise_sigma=SIGMA, seed=1, frames=300, lines_per_frame=2),
    SynthConfig(black_level=240.0, noise_sigma=4 * SIGMA, bit_depth=10, seed=2,
                frames=30, lines_per_frame=625, sync=True),
], ids=["300x2", "30x625-10-bit"])
def test_synthesize_holds_its_output_plus_one_block(config):
    synthesize(SynthConfig(noise_sigma=SIGMA, frames=1))  # first-call set-up, untraced
    peak, capture = _traced_peak(synthesize, config)
    assert peak - capture.samples.nbytes < SYNTH_BUDGET_BYTES


def test_filtered_accumulate_memory_does_not_grow_with_rows():
    def lines(lines_per_frame):
        return extract_vbi_lines(synthesize(SynthConfig(
            noise_sigma=SIGMA, seed=4, lines_per_frame=lines_per_frame,
            interferers=((SOUND_CARRIER_HZ, 10.0, 0.0),))))

    small, large = lines(2), lines(20)
    assert (len(small), len(large)) == (60, 600)
    accumulate(small, FILTERED)  # design and cache the taps outside the trace
    small_peak, _ = _traced_peak(accumulate, small, FILTERED)
    large_peak, _ = _traced_peak(accumulate, large, FILTERED)
    one_block = vbisnr.measure._BLOCK_SAMPLES * np.dtype(np.float64).itemsize
    assert large_peak <= small_peak + one_block
