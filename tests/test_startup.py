"""Start-up: the package import loads no numpy, the CLI asks OpenBLAS for
one thread, the lazily bound public API is the eager one, and the modules
import one way, with no cycle.

Each start-up case runs in a fresh interpreter without OPENBLAS_NUM_THREADS,
since this process has long since imported numpy and every public name.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vbisnr

SRC = str(Path(vbisnr.__file__).parents[1])

# The package's modules in layer order: each imports from earlier ones only.
LAYERS = ["errors", "dsp", "measure", "capture", "synth", "scan", "cli"]

PUBLIC_NAMES = [
    "CaptureFile", "CaptureFormatError", "CaptureHeader", "ChannelEntry", "ChannelPlan",
    "FULL_SCALE_8BIT", "FilterSpec", "InvalidInputError", "LineBlock", "LineRecord",
    "MeasureConfig", "Measurement", "MeasurementImpossibleError", "PsnrResult", "ScanReport",
    "ScanRow", "Spectrum", "SynthConfig", "VbiSnrError", "accumulate", "apply_filter",
    "default_window", "design_lowpass", "error_margin", "error_margin_db", "extract_vbi_lines",
    "line_spectrum", "noise_gain", "noise_rms", "parse_plan", "psnr", "read_capture",
    "render_report", "report_from_json", "scan", "snr_db", "synthesize", "write_capture",
]


def run_child(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    environ = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", code], env=environ, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_package_import_loads_no_numpy():
    assert run_child("import sys, vbisnr; print('numpy' in sys.modules)") == "False"


def test_cli_import_asks_for_one_blas_thread():
    code = "import os, vbisnr.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_child(code) == "1"


def test_users_blas_threads_win():
    code = "import os, vbisnr.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_child(code, OPENBLAS_NUM_THREADS="3") == "3"


def test_numpy_loaded_first_leaves_blas_threads_unset():
    # Too late to matter: the BLAS pool starts when numpy loads.
    code = "import os, numpy, vbisnr.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_child(code) == "None"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_import_starts_no_thread():
    code = "import os, vbisnr.cli; print(len(os.listdir('/proc/self/task')))"
    assert run_child(code) == "1"


def test_public_names_are_the_eager_ones():
    assert vbisnr.__all__ == PUBLIC_NAMES
    code = "ns = {}; exec('from vbisnr import *', ns); print(sorted(set(ns) - {'__builtins__'}))"
    assert run_child(code) == str(PUBLIC_NAMES)


def test_dir_lists_the_public_names_before_they_load():
    code = (
        "import sys, vbisnr\n"
        "listed = dir(vbisnr)\n"
        "print('__all__' in listed, set(vbisnr.__all__) <= set(listed), 'numpy' in sys.modules)"
    )
    assert run_child(code) == "True True False"


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vbisnr.no_such_name
    assert not hasattr(vbisnr, "cli_main")


@pytest.mark.parametrize(
    "first",
    [
        "import vbisnr.scan",
        "import vbisnr.cli",
        "from vbisnr import scan",
        "import vbisnr; vbisnr.CaptureFile",
        "import vbisnr; vbisnr.measure",
        "from vbisnr.scan import scan",
    ],
)
def test_scan_is_the_function_in_every_import_order(first):
    # ``scan`` names a submodule and the function it defines; the package
    # binds the function whichever of the two is imported first.
    code = (
        f"{first}\n"
        "import inspect, vbisnr\n"
        "from vbisnr import scan\n"
        "import vbisnr.scan\n"
        "print(inspect.isfunction(scan), vbisnr.scan is scan, scan.__module__)"
    )
    assert run_child(code) == "True True vbisnr.scan"


def test_submodules_are_reachable_from_the_package():
    code = (
        "import vbisnr\n"
        "print(vbisnr.capture.CaptureFile is vbisnr.CaptureFile, vbisnr.errors.__name__)"
    )
    assert run_child(code) == "True vbisnr.errors"


def package_imports(module: str) -> set[str]:
    """The vbisnr modules ``module`` imports anywhere in its source, nested too."""
    tree = ast.parse(Path(SRC, "vbisnr", f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


@pytest.mark.parametrize("index,module", list(enumerate(LAYERS)))
def test_modules_import_only_earlier_layers(index, module):
    # One-way layering: no import cycle, not even a deferred or type-only one.
    assert package_imports(module) <= set(LAYERS[:index])


def test_commands_but_synth_load_no_generator(tmp_path):
    # cli imports synth inside _cmd_synth alone, and scan inside the scan
    # and plan-validate commands alone, which the layering allows.
    from vbisnr import SynthConfig, synthesize, write_capture

    write_capture(synthesize(SynthConfig(seed=7)), tmp_path / "S02.vbi")
    plan = tmp_path / "plan.csv"
    plan.write_text("designation,name,video_carrier_mhz\nS02,TVR1,112.25\n")
    plane = tmp_path / "plane.raw"
    plane.write_bytes(bytes([200]) * 64)
    capture = str(tmp_path / "S02.vbi")
    commands = [
        ["measure", "--in", capture],
        ["measure", "--in", capture, "--filter", "on", "--json"],
        ["psnr", "--original", str(plane), "--decoded", str(plane),
         "--width", "8", "--height", "8"],
        ["spectrum", "--in", capture],
    ]
    scans = [
        ["scan", "--plan", str(plan), "--captures-dir", str(tmp_path)],
        ["plan-validate", "--plan", str(plan)],
    ]
    # After each command: its exit code and whether the scan module, csv
    # and the generator are loaded.
    code = (
        "import contextlib, io, sys\n"
        "import vbisnr.cli\n"
        f"for argv in {commands + scans!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        status = vbisnr.cli.main(argv)\n"
        "    print(status, *(m in sys.modules for m in ('vbisnr.scan', 'csv', 'vbisnr.synth')))\n"
    )
    expected = ["0 False False False"] * len(commands) + ["0 True True False"] * len(scans)
    assert run_child(code).splitlines() == expected


def test_stand_in_bound_before_the_scan_module_loads_runs(tmp_path):
    # render_report is bound on vbisnr.cli before anything loads the scan
    # module, scan after; main() calls both stand-ins.
    plan = tmp_path / "plan.csv"
    plan.write_text("designation,name,video_carrier_mhz\nS02,TVR1,112.25\n")
    argv = ["scan", "--plan", str(plan), "--captures-dir", str(tmp_path), "--format", "csv"]
    code = (
        "import sys, vbisnr.cli\n"
        "calls = []\n"
        "def render_report(report, fmt):\n"
        "    calls.append(('render_report', fmt))\n"
        "    return f'{len(report.rows)} rows\\n'\n"
        "vbisnr.cli.render_report = render_report\n"
        "print('vbisnr.scan' in sys.modules)\n"
        "real_scan = vbisnr.cli.scan\n"
        "def scan(plan, *args):\n"
        "    calls.append(('scan', len(plan)))\n"
        "    return real_scan(plan, *args)\n"
        "vbisnr.cli.scan = scan\n"
        f"print(vbisnr.cli.main({argv!r}), calls)\n"
    )
    assert run_child(code).splitlines() == [
        "False", "1 rows", "0 [('scan', 1), ('render_report', 'csv')]"
    ]


def test_first_public_name_loads_only_its_submodule():
    # The names of measure, and of what measure imports; no capture, scan
    # or generator.
    code = (
        "import sys\n"
        "from vbisnr import accumulate\n"
        "print(sorted(m for m in sys.modules if m.startswith('vbisnr')))"
    )
    assert run_child(code) == "['vbisnr', 'vbisnr.dsp', 'vbisnr.errors', 'vbisnr.measure']"


def test_filter_module_loads_no_measurement_code():
    code = (
        "import sys, vbisnr.dsp\n"
        "vbisnr.dsp.design_lowpass(vbisnr.dsp.FilterSpec(), 13.5e6)\n"
        "print(sorted(m for m in sys.modules if m.startswith('vbisnr')))"
    )
    assert run_child(code) == "['vbisnr', 'vbisnr.dsp', 'vbisnr.errors']"
