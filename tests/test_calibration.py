"""The scatter of ``v_n`` over seeds, measured against the reported ``error_margin``.

``error_margin`` is the paper's ``v_n / sqrt(N)``, not a calibrated standard
error. Over SEEDS captures of sigma SIGMA, 30 frames x 2 lines at 8 bits,
the ratio of the sample standard deviation of ``v_n`` to the median
``error_margin`` tells how far the margin is from the real scatter in each
mode. Raw samples are independent, but the margin counts a line-locked
carrier as noise; filtered samples are correlated, so ``N`` overstates the
independent samples, the more so at a higher sample rate under the same
2 MHz cutoff. Each band is fixed here around the ratio measured before any
change to the estimator, so a change that moves the ratio shows.
"""

from __future__ import annotations

import numpy as np
import pytest

from vbisnr import FilterSpec, MeasureConfig, SynthConfig, accumulate, extract_vbi_lines, synthesize

SEEDS = range(100)
SIGMA = 2.19
# The capture of each case: 864 samples at 13.5 MHz with no interferer, or
# with a 5.5 MHz sound carrier of amplitude 10; 1600 samples at 27 MHz, or
# 2048 at 35.46895 MHz (8x the PAL colour subcarrier), with no interferer.
CASES = {
    "clean": {},
    "carrier": {"interferers": ((5.5e6, 10.0, 0.0),)},
    "27MHz": {"samples_per_line": 1600, "sample_rate_hz": 27e6},
    "35MHz": {"samples_per_line": 2048, "sample_rate_hz": 35.46895e6},
}

MODES = {"raw": MeasureConfig(), "filtered": MeasureConfig(filter=FilterSpec())}

# std(v_n) / median(error_margin); measured 0.771, 1.305, 0.290 and 1.279 for
# the first four. The higher-rate bands were fixed from 40-seed estimates
# (0.77 and 1.70 at 27 MHz, 0.78 and 2.00 at 35.46895 MHz) before these cases
# ran here; the filtered ones record the margin's known shortfall.
BANDS = {
    ("clean", "raw"): (0.65, 0.90),
    ("clean", "filtered"): (1.15, 1.45),
    ("carrier", "raw"): (0.20, 0.40),
    ("carrier", "filtered"): (1.15, 1.45),
    ("27MHz", "raw"): (0.60, 0.95),
    ("27MHz", "filtered"): (1.30, 2.10),
    ("35MHz", "raw"): (0.60, 0.95),
    ("35MHz", "filtered"): (1.55, 2.45),
}


@pytest.mark.parametrize("case", CASES)
def test_scatter_over_margin_stays_in_its_band(case):
    readings = {mode: [] for mode in MODES}
    for seed in SEEDS:
        lines = extract_vbi_lines(
            synthesize(SynthConfig(noise_sigma=SIGMA, seed=seed, **CASES[case]))
        )
        for mode, config in MODES.items():
            readings[mode].append(accumulate(lines, config))
    for mode, results in readings.items():
        v_n = [r.v_n for r in results]
        ratio = np.std(v_n, ddof=1) / np.median([r.error_margin for r in results])
        low, high = BANDS[case, mode]
        assert low <= ratio <= high, f"{case} {mode}: {ratio:.3f} outside {low}-{high}"
