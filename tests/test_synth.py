"""Synthetic line generator: determinism, statistics, clipping."""

from __future__ import annotations

import math

import numpy as np
import pytest

from vbisnr import (
    InvalidInputError,
    SynthConfig,
    accumulate,
    default_window,
    extract_vbi_lines,
    synthesize,
)

from conftest import SIGMA


def test_noiseless_lines_are_flat_black():
    cap = synthesize(SynthConfig(noise_sigma=0.0, frames=3))
    assert np.all(cap.samples == 60)


def test_seeded_noise_std_matches_sigma():
    # 16 frames x 4 lines x 1024 samples pools 65536 values
    cap = synthesize(
        SynthConfig(
            noise_sigma=SIGMA, seed=21, frames=16, lines_per_frame=4,
            samples_per_line=1024,
        )
    )
    values = cap.samples.reshape(-1).astype(np.float64)
    # two-pass standard deviation over the emitted payload
    mean = values.mean()
    std = math.sqrt(float(np.sum((values - mean) ** 2)) / (values.size - 1))
    assert abs(std - SIGMA) / SIGMA < 0.02


def test_interferer_rms_identity():
    # 5.5 MHz at 13.5 MHz sampling completes 352 whole cycles per 864 samples
    cap = synthesize(
        SynthConfig(noise_sigma=0.0, interferers=((5.5e6, 10.0, 0.0),), frames=1)
    )
    line = cap.samples[0, 0].astype(np.float64)
    rms = math.sqrt(np.mean((line - 60.0) ** 2))
    assert abs(rms - 10.0 / math.sqrt(2.0)) / (10.0 / math.sqrt(2.0)) < 0.03


def test_identical_configs_are_bit_identical():
    config = SynthConfig(noise_sigma=2.0, seed=99, interferers=((1.2e6, 4.0, 0.5),))
    a = synthesize(config)
    b = synthesize(config)
    assert np.array_equal(a.samples, b.samples)
    assert a.header == b.header


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(noise_sigma=SIGMA, seed=3, frames=5, lines_per_frame=625, sync=True,
                    interferers=((5.5e6, 10.0, 0.3),)),
        SynthConfig(noise_sigma=40.0, seed=4, frames=3, lines_per_frame=625, bit_depth=10,
                    black_level=1000.0),
        SynthConfig(noise_sigma=0.0, frames=3, lines_per_frame=625,
                    interferers=((5.5e6, 80.0, 0.0),)),
    ],
    ids=["sync-8bit", "clipping-10bit", "noiseless"],
)
def test_blocked_generation_matches_one_whole_capture_draw(config):
    # These captures span several generation blocks; the reference draws,
    # rounds and clips the whole capture at once.
    spl = config.samples_per_line
    t = np.arange(spl) / config.sample_rate_hz
    base = np.full(spl, config.black_level)
    for freq, amp, phase in config.interferers:
        base += amp * np.sin(2.0 * np.pi * freq * t + phase)
    if config.sync:
        sync_len = default_window(spl)[0]
        tip_len = 2 * sync_len // 3
        base[:tip_len] = config.black_level / 4.0
        base[tip_len:sync_len] = config.black_level + (config.black_level / 3.0) * np.sin(
            2.0 * np.pi * 4.43e6 * t[tip_len:sync_len]
        )
    shape = (config.frames, config.lines_per_frame, spl)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    raw = base + (rng.normal(0.0, config.noise_sigma, size=shape) if config.noise_sigma else 0.0)
    rounded = np.broadcast_to(np.copysign(np.floor(np.abs(raw) + 0.5), raw), shape)
    max_code = (1 << config.bit_depth) - 1
    cap = synthesize(config)
    assert np.array_equal(cap.samples, np.clip(rounded, 0, max_code))
    clipped = int(np.count_nonzero((rounded < 0) | (rounded > max_code)))
    assert cap.header.extra["clip_count"] == str(clipped)
    assert cap.samples.dtype == cap.header.sample_dtype
    assert not cap.samples.flags.writeable


def test_different_seeds_differ():
    a = synthesize(SynthConfig(noise_sigma=2.0, seed=1))
    b = synthesize(SynthConfig(noise_sigma=2.0, seed=2))
    assert not np.array_equal(a.samples, b.samples)


def test_clip_count_matches_brute_force_recount():
    config = SynthConfig(black_level=6.0, noise_sigma=4.0, seed=13, frames=4)
    cap = synthesize(config)
    # regenerate the raw signal and recount out-of-range samples
    rng = np.random.Generator(np.random.PCG64(13))
    raw = 6.0 + rng.normal(0.0, 4.0, size=(4, 2, 864))
    rounded = np.copysign(np.floor(np.abs(raw) + 0.5), raw)
    expected = int(np.count_nonzero((rounded < 0) | (rounded > 255)))
    assert int(cap.header.extra["clip_count"]) == expected
    assert expected > 0


def test_heavy_clipping_sets_warning():
    cap = synthesize(SynthConfig(black_level=2.0, noise_sigma=8.0, seed=5, frames=2))
    assert "clip_warning" in cap.header.extra
    clean = synthesize(SynthConfig(noise_sigma=SIGMA, seed=5, frames=2))
    assert "clip_warning" not in clean.header.extra
    assert clean.header.extra["clip_count"] == "0"


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_noise_sigma_must_be_non_negative_and_finite(sigma):
    with pytest.raises(InvalidInputError, match="noise_sigma must be non-negative"):
        SynthConfig(noise_sigma=sigma)


@pytest.mark.parametrize(
    "interferer",
    [(math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0), (1e6, math.nan, 0.0), (1e6, 1.0, math.inf)],
)
def test_non_finite_interferer_rejected(interferer):
    with pytest.raises(InvalidInputError, match="bad interferer"):
        SynthConfig(interferers=(interferer,))


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_non_finite_sample_rate_rejected(rate):
    with pytest.raises(InvalidInputError, match="sample_rate_hz must be positive"):
        synthesize(SynthConfig(sample_rate_hz=rate, frames=1))


@pytest.mark.parametrize(
    "setting,message",
    [
        ({"frames": 2.5}, "frames must be an integer"),
        ({"lines_per_frame": True}, "lines_per_frame must be an integer"),
        ({"samples_per_line": 8}, "samples_per_line must be at least 16"),
        ({"bit_depth": 12}, "bit_depth must be 8..10"),
        ({"frames": 0}, "frames must be positive"),
        ({"seed": 1.5}, "seed must be an integer"),
    ],
)
def test_bad_settings_rejected_at_construction(setting, message):
    with pytest.raises(InvalidInputError, match=message):
        SynthConfig(**setting)


def test_black_level_outside_code_range_rejected():
    with pytest.raises(InvalidInputError, match="code range"):
        synthesize(SynthConfig(black_level=300.0))
    with pytest.raises(InvalidInputError, match="code range"):
        synthesize(SynthConfig(black_level=-1.0))


def test_sync_region_stays_outside_default_window():
    cap = synthesize(SynthConfig(noise_sigma=0.0, sync=True, frames=1))
    line = cap.samples[0, 0]
    assert line[0] == 15  # sync tip at black/4
    assert np.any(line[:104] != 60)
    # the measurement window sees only the flat black region
    record = extract_vbi_lines(cap)[0]
    m = accumulate([record])
    assert m.saturated and m.v_ref == 60.0


def test_generator_metadata_recorded():
    cap = synthesize(
        SynthConfig(noise_sigma=1.5, seed=8, interferers=((5.5e6, 10.0, 0.0),),
                    channel_label="S02")
    )
    extra = cap.header.extra
    assert extra["seed"] == "8"
    assert extra["noise_sigma"] == "1.5"
    assert extra["interferers"] == "5500000.0,10.0,0.0"
    assert cap.header.channel_label == "S02"
    assert cap.header.vbi_line_indices == (0, 1)
