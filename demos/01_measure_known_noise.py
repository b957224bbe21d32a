"""Recover a known noise level from synthetic VBI lines.

The generator injects Gaussian noise with an exactly known RMS around the
black level. With sigma = 2.19 code units against the 219-code nominal
video amplitude, the true SNR is 20*log10(219 / 2.19) = 40 dB. This demo
measures a single line, then a full 30-frame accumulation, and shows how
the statistical error margin shrinks with the pooled sample count.
"""

import math

from vbisnr import MeasureConfig, SynthConfig, accumulate, extract_vbi_lines, synthesize

SIGMA = 2.19
TRUTH_DB = 20 * math.log10(219 / SIGMA)

capture = synthesize(SynthConfig(noise_sigma=SIGMA, seed=7))
lines = extract_vbi_lines(capture)
print(f"capture: {capture.header.frames} frames, "
      f"{len(capture.header.vbi_line_indices)} VBI lines each, "
      f"{capture.header.samples_per_line} samples per line")
print(f"ground truth SNR: {TRUTH_DB:.1f} dB\n")

# One line: ~743 window samples, so the noise estimate is still jittery.
single = accumulate(lines[:1])
print(f"single line:  snr = {single.snr_db:6.2f} dB   "
      f"v_n = {single.v_n:.3f} +- {single.error_margin:.3f}  (N = {single.n_samples})")

# Accumulating frames pools all window samples into one population.
for n_frames in (4, 30):
    m = accumulate(extract_vbi_lines(capture, n_frames), MeasureConfig())
    print(f"{m.frames_used:3d} frames:  snr = {m.snr_db:6.2f} dB   "
          f"v_n = {m.v_n:.3f} +- {m.error_margin:.3f}  (N = {m.n_samples})")

print("\nerror margin follows v_n / sqrt(N): quadrupling the samples halves it.")
