"""Analog TV SNR measurement from digitized vertical blanking interval lines.

The library measures channel quality on blanked VBI lines, where the video
signal is a known constant: the sample mean gives the black reference
level, the spread around it gives the noise RMS, and the nominal video
amplitude over that RMS gives the SNR. It includes an optional low-pass
pre-filter that rejects out-of-band disturbances such as the sound
carrier, multi-frame accumulation, PSNR between pixel planes, a capture
file container, a seeded synthetic line generator for verification, and
channel-plan scan reports.
"""

from .capture import (
    CaptureFile,
    CaptureHeader,
    extract_vbi_lines,
    read_capture,
    write_capture,
)
from .dsp import (
    FilterSpec,
    Spectrum,
    apply_filter,
    design_lowpass,
    line_spectrum,
    noise_gain,
)
from .errors import (
    CaptureFormatError,
    InvalidInputError,
    MeasurementImpossibleError,
    VbiSnrError,
)
from .measure import (
    FULL_SCALE_8BIT,
    LineBlock,
    LineRecord,
    MeasureConfig,
    Measurement,
    PsnrResult,
    accumulate,
    default_window,
    error_margin,
    error_margin_db,
    noise_rms,
    psnr,
    snr_db,
)
from .scan import (
    ChannelEntry,
    ChannelPlan,
    ScanReport,
    ScanRow,
    parse_plan,
    render_report,
    report_from_json,
    scan,
)
from .synth import SynthConfig, synthesize

__version__ = "0.1.0"

__all__ = [
    "CaptureFile",
    "CaptureFormatError",
    "CaptureHeader",
    "ChannelEntry",
    "ChannelPlan",
    "FULL_SCALE_8BIT",
    "FilterSpec",
    "InvalidInputError",
    "LineBlock",
    "LineRecord",
    "MeasureConfig",
    "Measurement",
    "MeasurementImpossibleError",
    "PsnrResult",
    "ScanReport",
    "ScanRow",
    "Spectrum",
    "SynthConfig",
    "VbiSnrError",
    "accumulate",
    "apply_filter",
    "default_window",
    "design_lowpass",
    "error_margin",
    "error_margin_db",
    "extract_vbi_lines",
    "line_spectrum",
    "noise_gain",
    "noise_rms",
    "parse_plan",
    "psnr",
    "read_capture",
    "render_report",
    "report_from_json",
    "scan",
    "snr_db",
    "synthesize",
    "write_capture",
]
