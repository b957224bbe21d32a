"""Command-line frontend.

Subcommands: synth, measure, scan, psnr, spectrum, plan-validate. Machine
output goes to stdout (or --out); diagnostics go to stderr. Exit codes:
0 success, 1 invalid input, 2 I/O failure, 3 measurement impossible. A
stderr that fails loses its lines, never the report or the exit code.

Each command imports only what it runs: the generator loads for synth
alone, and the scan module for scan and plan-validate alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections.abc import Mapping
from dataclasses import asdict
from pathlib import Path

# Filtered accumulate calls BLAS ddot only in slices too short to be threaded;
# one thread stops numpy's OpenBLAS from starting a worker thread that spins
# on another core. A user's own setting still wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .capture import CaptureFile, _sample_dtype, extract_vbi_lines, read_capture, write_capture
from .dsp import FilterSpec
from .errors import (
    CaptureFormatError,
    InvalidInputError,
    MeasurementImpossibleError,
    _as_int,
)
from .measure import (
    LineRecord, MeasureConfig, _pixel_bits, _row_blocks, accumulate, line_spectrum, psnr
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_NO_MEASUREMENT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the exit-code contract
    # reserves 2 for I/O, so route usage problems through InvalidInputError.
    def error(self, message):
        raise InvalidInputError(message)


def _parse_interferer(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise InvalidInputError(
            f"--interferer expects frequency,amplitude[,phase], got {text!r}"
        )
    try:
        freq = float(parts[0])
        amp = float(parts[1])
        phase = float(parts[2]) if len(parts) == 3 else 0.0
    except ValueError as exc:
        raise InvalidInputError(f"bad --interferer value {text!r}") from exc
    return (freq, amp, phase)


def _read_text(path: str | Path) -> str:
    # Text inputs are UTF-8; a spreadsheet's "CSV UTF-8" starts with a byte-order mark.
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def _to_devnull(stream) -> None:
    # What stays buffered would fail again in the interpreter's own flush
    # at exit; send it to the null device, as the Python docs' SIGPIPE note does.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _diagnose(line: str) -> None:
    # Every warning and error line leaves here, flushed, so a stderr that
    # cannot take it costs the line and not the command's outcome.
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)


def _write_report(text: str, out: str | None) -> None:
    # --out is UTF-8, as _read_text reads; stdout takes text, so a StringIO may stand in.
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
        return
    try:
        sys.stdout.write(text)
        # Flushed here, so a closed pipe or a full disk is an I/O failure.
        sys.stdout.flush()
    except UnicodeEncodeError as exc:
        raise OSError(f"stdout cannot encode the report ({exc}); use --out") from None
    except OSError:
        _to_devnull(sys.stdout)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vbisnr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # An absent flag leaves SynthConfig's own default; each dest is its field.
    p = sub.add_parser("synth", help="generate a synthetic capture file",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--sigma", type=float, dest="noise_sigma", metavar="SIGMA",
                   help="Gaussian noise RMS in code units")
    p.add_argument("--black-level", type=float)
    p.add_argument(
        "--interferer",
        action="append",
        dest="interferers",
        metavar="FREQ,AMP[,PHASE]",
        help="add a sinusoidal interferer (repeatable)",
    )
    p.add_argument("--frames", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--vbi-lines", type=int, dest="lines_per_frame", metavar="VBI_LINES",
                   help="VBI lines per frame")
    p.add_argument("--samples-per-line", type=int)
    p.add_argument("--sample-rate", type=float, dest="sample_rate_hz", metavar="SAMPLE_RATE")
    p.add_argument("--bit-depth", type=int)
    p.add_argument("--sync", action="store_true", help="include a sync/burst region")
    p.add_argument("--label", dest="channel_label", metavar="LABEL",
                   help="channel label for the header")
    # Not ``out``: that is where a command's report goes, and synth writes none.
    p.add_argument("--out", dest="path", metavar="OUT", required=True)

    p = sub.add_parser("measure", help="measure SNR of a capture")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--frames", type=int, default=MeasureConfig.max_frames,
                   help=f"frames to accumulate (max {MeasureConfig.max_frames})")
    p.add_argument("--filter", choices=("on", "off"), default="off")
    p.add_argument("--cutoff-hz", type=float, default=FilterSpec.cutoff_hz)
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("scan", help="scan a channel plan against capture files")
    p.add_argument("--plan", required=True)
    p.add_argument("--captures-dir", required=True)
    p.add_argument("--filter-cutoff", type=float, default=FilterSpec.cutoff_hz)
    p.add_argument("--format", choices=("csv", "json", "table"), default="table")
    p.add_argument("--out")

    p = sub.add_parser("psnr", help="PSNR between two raw pixel planes")
    p.add_argument("--original", required=True)
    p.add_argument("--decoded", required=True)
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--per-channel", action="store_true")

    p = sub.add_parser("spectrum", help="export a line's magnitude spectrum as CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--line", type=int, help="line index within the frame")
    p.add_argument("--out")

    p = sub.add_parser("plan-validate", help="check a channel-plan CSV")
    p.add_argument("--plan", required=True)

    return parser


def _cmd_synth(args) -> str:
    # Imported here: no other command loads the generator.
    from .synth import SynthConfig, synthesize

    settings = {k: v for k, v in vars(args).items() if k not in ("command", "path")}
    if "interferers" in settings:
        settings["interferers"] = [_parse_interferer(s) for s in settings["interferers"]]
    capture = synthesize(SynthConfig(**settings))
    write_capture(capture, args.path)
    _diagnose(f"wrote {args.path}: clip_count={capture.header.extra['clip_count']}")
    return ""


def _cmd_measure(args) -> str:
    frames = _as_int(args.frames, "--frames", 1, MeasureConfig.max_frames)
    # Built in either mode, so a bad --cutoff-hz is invalid input even when unused.
    filt = FilterSpec(cutoff_hz=args.cutoff_hz)
    config = MeasureConfig(filter=filt if args.filter == "on" else None)
    capture = read_capture(args.infile)
    lines = extract_vbi_lines(capture, frame_range=frames)
    result = accumulate(lines, config)
    # Codes at a rail stand for any level beyond it, so the spread reads low.
    window, top = lines.samples[:, slice(*lines.window)], (1 << lines.bit_depth) - 1
    clipped = sum(int(np.count_nonzero((b == 0) | (b == top))) for b in _row_blocks(window))
    if clipped:
        _diagnose(f"warning: {clipped} of {window.size} window samples sit at code 0 "
                  f"or {top}, where the ADC clips; v_n reads low")
    if args.json:
        return json.dumps(asdict(result), indent=2) + "\n"
    return (f"v_ref {result.v_ref:.4f}\n"
            f"v_n {result.v_n:.4f}\n"
            f"snr_db {result.snr_db:.1f}\n"
            f"error_margin {result.error_margin:.6f}\n"
            f"n_samples {result.n_samples}\n"
            f"frames_used {result.frames_used}\n"
            f"filtered {'on' if result.filtered else 'off'}\n"
            + ("saturated true\n" if result.saturated else ""))


class _CaptureDirectory(Mapping):
    """Captures looked up by designation in ``<designation>.vbi`` files.

    A lookup reads the file then and there, and nothing is kept, so a scan
    holds one capture at a time. It holds no captures between lookups, so
    iterating it yields none. A file that cannot be read is reported on
    stderr and looks up as missing.
    """

    def __init__(self, directory: Path):
        self.directory = directory

    def __getitem__(self, designation: str) -> CaptureFile:
        path = self.directory / f"{designation}.vbi"
        if not path.exists():
            raise KeyError(designation)
        try:
            return read_capture(path)
        except (CaptureFormatError, OSError) as exc:
            # A CaptureFormatError's message starts with the path; an OSError's ends with it.
            reason = f"{path}: {exc.strerror}" if isinstance(exc, OSError) else exc
            _diagnose(f"warning: skipping {reason}")
            raise KeyError(designation) from exc

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0


# The scan module loads when scan or plan-validate first asks for its names
# (PEP 562), and a stand-in bound here before then is kept. Those commands
# look the names up on the module: a global name lookup never calls this.
def __getattr__(name):
    if name not in ("parse_plan", "render_report", "scan"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .scan import parse_plan, render_report, scan

    for value in (parse_plan, render_report, scan):
        globals().setdefault(value.__name__, value)
    return globals()[name]


def _cmd_scan(args) -> str:
    cli = sys.modules[__name__]
    plan = cli.parse_plan(_read_text(args.plan))
    directory = Path(args.captures_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"captures directory not found: {directory}")
    report = cli.scan(plan, _CaptureDirectory(directory), FilterSpec(cutoff_hz=args.filter_cutoff))
    return cli.render_report(report, args.format)


def _load_plane(path: str, bits: int, width: int, height: int) -> np.ndarray:
    # Whole samples of ``bits``-bit codes, as a capture's payload is; psnr()
    # admits the codes.
    width, height = _as_int(width, "width", 1), _as_int(height, "height", 1)
    dtype = _sample_dtype(bits)
    data = np.fromfile(path, dtype=np.uint8)
    if data.size % dtype.itemsize:
        raise InvalidInputError(
            f"{path}: {data.size} bytes are not whole {dtype.itemsize}-byte samples"
        )
    data = data.view(dtype)
    plane_px = width * height
    if data.size == plane_px:
        return data.reshape(height, width)
    if data.size == 3 * plane_px:
        # Planar file: three consecutive planes.
        return np.moveaxis(data.reshape(3, height, width), 0, -1)
    raise InvalidInputError(
        f"{path}: {data.size} samples match neither {width}x{height} "
        f"nor 3 planes of it"
    )


def _cmd_psnr(args) -> str:
    bits = _pixel_bits(args.bits)
    original = _load_plane(args.original, bits, args.width, args.height)
    decoded = _load_plane(args.decoded, bits, args.width, args.height)
    result = psnr(original, decoded, bits_per_pixel=bits)
    if args.per_channel and result.per_channel is None:
        raise InvalidInputError("--per-channel needs planes of 3 channels, got a single plane")
    text = f"mse {result.mse:.6f}\npsnr_db {result.psnr_db:.1f}\n"
    if result.saturated:
        text += "saturated true\n"
    if args.per_channel:
        text += "".join(f"{label} {value:.1f}\n" for label, value in result.per_channel)
    return text


def _cmd_spectrum(args) -> str:
    capture = read_capture(args.infile)
    header = capture.header
    frame = _as_int(args.frame, "--frame", 0, header.frames - 1)
    if args.line is not None:
        line_idx = _as_int(args.line, "--line", 0, header.lines_per_frame - 1)
    elif header.vbi_line_indices:
        line_idx = header.vbi_line_indices[0]
    else:
        raise InvalidInputError("capture lists no VBI lines; pass --line")
    record = LineRecord(capture.samples[frame, line_idx], header.bit_depth, header.sample_rate_hz)
    spectrum = line_spectrum(record)
    rows = ["frequency_hz,magnitude_db"]
    for f, db in zip(spectrum.frequencies_hz(), spectrum.magnitudes_db):
        rows.append(f"{float(f)!r},{float(db)!r}")
    return "\n".join(rows) + "\n"


def _cmd_plan_validate(args) -> str:
    plan = sys.modules[__name__].parse_plan(_read_text(args.plan))
    return f"plan ok: {len(plan)} channels\n"


_COMMANDS = {
    "synth": _cmd_synth,
    "measure": _cmd_measure,
    "scan": _cmd_scan,
    "psnr": _cmd_psnr,
    "spectrum": _cmd_spectrum,
    "plan-validate": _cmd_plan_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _write_report(_COMMANDS[args.command](args), getattr(args, "out", None))
        return EXIT_OK
    except (InvalidInputError, MemoryError) as exc:
        # A setting too large to allocate (synth --frames 10**12) is invalid input.
        _diagnose(f"error: {exc}")
        return EXIT_INVALID
    except (CaptureFormatError, OSError) as exc:
        _diagnose(f"error: {exc}")
        return EXIT_IO
    except MeasurementImpossibleError as exc:
        _diagnose(f"error: {exc}")
        return EXIT_NO_MEASUREMENT


def run() -> None:
    code = main()
    # The shutdown collections skip frozen objects, so the process does not
    # walk and free the heap numpy and the package built; the OS reclaims it.
    # atexit handlers and the standard streams' flush still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
