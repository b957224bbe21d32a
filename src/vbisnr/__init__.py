"""Analog TV SNR measurement from digitized vertical blanking interval lines.

The library measures channel quality on blanked VBI lines, where the video
signal is a known constant: the sample mean gives the black reference
level, the spread around it gives the noise RMS, and the nominal video
amplitude over that RMS gives the SNR. It includes an optional low-pass
pre-filter that rejects out-of-band disturbances such as the sound
carrier, multi-frame accumulation, PSNR between pixel planes, a capture
file container, a seeded synthetic line generator for verification, and
channel-plan scan reports.

Importing the package loads no numpy: a public name, when first asked
for, imports the submodule that defines it and binds that submodule's
public names (PEP 562).
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "capture": ("CaptureFile", "CaptureHeader", "extract_vbi_lines", "read_capture", "write_capture"),
    "dsp": ("FilterSpec", "apply_filter", "design_lowpass", "noise_gain"),
    "errors": ("CaptureFormatError", "InvalidInputError", "MeasurementImpossibleError", "VbiSnrError"),
    "measure": (
        "FULL_SCALE_8BIT", "LineBlock", "LineRecord", "MeasureConfig", "Measurement", "PsnrResult",
        "Spectrum", "accumulate", "default_window", "error_margin", "error_margin_db",
        "line_spectrum", "noise_rms", "psnr", "snr_db",
    ),
    "scan": (
        "ChannelEntry", "ChannelPlan", "ScanReport", "ScanRow", "parse_plan", "render_report",
        "report_from_json", "scan",
    ),
    "synth": ("SynthConfig", "synthesize"),
}

_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNERS)


def __getattr__(name):
    if name in _OWNERS:
        module = _OWNERS[name]
        source = importlib.import_module(f"{__name__}.{module}")
        globals().update((public, getattr(source, public)) for public in _EXPORTS[module])
        return globals()[name]
    if name in _EXPORTS:  # a submodule, bound as the eager import bound it
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Package(types.ModuleType):
    # The import system binds a loaded submodule on its package. Where the
    # submodule shares its name with a public function (``scan``), the
    # package keeps the function, in every import order.
    def __setattr__(self, name, value):
        if name in __all__ and getattr(value, "__name__", None) == f"{__name__}.{name}":
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
