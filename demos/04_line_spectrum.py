"""Inspect a line in the frequency domain.

The spectrum export is how you see what is polluting a channel: bin 0
carries the black level, a clean line shows only the noise floor, and an
interferer stands out at its frequency. The CSV the CLI writes has the
same two columns printed here.
"""

import numpy as np

from vbisnr import SynthConfig, extract_vbi_lines, line_spectrum, synthesize

capture = synthesize(
    SynthConfig(
        noise_sigma=2.19,
        seed=3,
        interferers=((5.5e6, 10.0, 0.0), (1.2e6, 3.0, 1.0)),
        frames=1,
    )
)
line = extract_vbi_lines(capture)[0]
spectrum = line_spectrum(line)

print(f"fft size {spectrum.fft_size}, bin width {spectrum.bin_hz / 1e3:.1f} kHz, "
      f"{len(spectrum.magnitudes_db)} bins\n")

mags = np.asarray(spectrum.magnitudes_db)
print("strongest AC bins (all magnitudes relative to full scale):")
for k in np.argsort(mags[1:])[::-1][:5] + 1:
    print(f"  {k * spectrum.bin_hz / 1e6:6.2f} MHz   {mags[k]:7.1f} dB")

print(f"\nblack level (bin 0): {mags[0]:.1f} dB")
print("expected peaks: 5.50 MHz (amp 10) and 1.20 MHz (amp 3, nearest bin)")
