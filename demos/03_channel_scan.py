"""Scan a channel plan and render the paired snr1/snr2 report.

Each channel in a plan maps to a capture file named <designation>.vbi.
This demo writes a small plan and a capture per channel (with a different
sound-carrier level on each, and two channels deliberately missing) into a
temporary directory, scans the set, and prints the human-readable table plus
the CSV export. The directory is removed when the scan is done.
"""

import tempfile
from pathlib import Path

from vbisnr import (
    SynthConfig,
    parse_plan,
    read_capture,
    render_report,
    scan,
    synthesize,
    write_capture,
)

PLAN = """\
designation,name,video_carrier_mhz
S02,TVR1,112.25
S03,TVR2,119.25
S04,TVR3,126.25
C06,ProTV,182.25
C07,Antena1,189.25
"""

# interferer amplitude per occupied channel; S04 and C07 stay dark
AMPLITUDES = {"S02": 10.0, "S03": 4.0, "C06": 17.0}

plan = parse_plan(PLAN)
with tempfile.TemporaryDirectory(prefix="vbisnr-scan-") as tmp:
    workdir = Path(tmp)
    for i, (designation, amplitude) in enumerate(AMPLITUDES.items()):
        capture = synthesize(
            SynthConfig(
                noise_sigma=2.19,
                seed=500 + i,
                interferers=((5.5e6, amplitude, 0.0),),
                channel_label=designation,
            )
        )
        write_capture(capture, workdir / f"{designation}.vbi")

    source = {
        path.stem: read_capture(path) for path in sorted(workdir.glob("*.vbi"))
    }
    report = scan(plan, source)

print(render_report(report, "table"))
print("CSV export:\n")
print(render_report(report, "csv"))
