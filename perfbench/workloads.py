"""The three workloads: seeded inputs, ground truth and output checks.

Every input is built from the ``--seed`` argument with vbisnr's own
synthetic generator, so the noise in each capture is known exactly and
every output can be checked against it. The geometry of each workload
(frame counts, line counts, bit depths, which plan entries are broken) is
fixed; the seed only moves noise, carrier levels and generator seeds. All
header values are written with a fixed number of characters, so file sizes,
and with them every count the traced run reports, are the same for every
seed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

import numpy as np

import vbisnr.capture
import vbisnr.measure
import vbisnr.synth
from procs import Context
from vbisnr.dsp import FilterSpec
from vbisnr.measure import MeasureConfig

RATE_HZ = 13.5e6
CARRIER_HZ = 5.5e6  # PAL B/G sound carrier, removed by the 2 MHz low-pass
SIGMA_8BIT = 2.19  # 20*log10(219 / 2.19) = 40 dB
BLACK_8BIT = 60.0
FULL_SCALE_8BIT = 219.0
# The measurement window of an 864-sample line is samples [104, 847).
WINDOW = 743
# 60 dB over a 0.5 MHz transition at 13.5 MHz needs a 99-tap filter.
TAPS = 99
SNR_TOLERANCE_DB = 0.5
# monitor-lib checks each v_n to this many reported error margins. The real
# scatter of the filtered v_n is about 1.3 margins, so this is over 6 sigma.
V_N_TOLERANCE_MARGINS = 8.0


def _generator_seed(rng: np.random.Generator) -> int:
    # Nine digits, so the header line that records it has a fixed length.
    return int(rng.integers(10**8, 10**9))


def _truth_snr_db(scale: int, carrier_amp: float, filtered: bool) -> float:
    """Expected SNR of a synthetic capture from its generator parameters.

    The noise is the Gaussian sigma plus the quantization floor of 1/12
    LSB^2. Unfiltered, the carrier adds its variance over the measurement
    window; the low-pass removes it to at least 60 dB.
    """
    sigma = SIGMA_8BIT * scale
    power = sigma**2 + 1.0 / 12.0
    if not filtered:
        n = np.arange(104, 104 + WINDOW)
        power += float(np.var(carrier_amp * np.sin(2 * np.pi * CARRIER_HZ * n / RATE_HZ)))
    return 20.0 * math.log10(FULL_SCALE_8BIT * scale / math.sqrt(power))


def _synth_config(scale, carrier_tenths, seed, frames, lines, sync=False, label=""):
    return vbisnr.synth.SynthConfig(
        black_level=BLACK_8BIT * scale,
        noise_sigma=SIGMA_8BIT * scale,
        interferers=((CARRIER_HZ, carrier_tenths * scale / 10, 0.0),),
        seed=seed,
        bit_depth=8 if scale == 1 else 10,
        frames=frames,
        lines_per_frame=lines,
        sync=sync,
        channel_label=label,
    )


@dataclasses.dataclass
class OpResult:
    """Raw resource use of one timed op, and why its check failed (None: passed)."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    failure: str | None


class CliWorkload:
    """A workload whose op is one ``vbisnr`` command.

    Subclasses give the command's arguments (``argv``) and the check of its
    exit code and output (``check``).
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def run(self, op: int) -> OpResult:
        """The op as a user runs it: a child process."""
        child = self.ctx.run([sys.executable, "-m", "vbisnr.cli", *self.argv(op)])
        return OpResult(child.wall_s, child.cpu_s, child.maxrss_mb,
                        self.check(op, child.returncode, child.stdout))

    def run_in_process(self, op: int) -> str | None:
        """The op's path through ``vbisnr.cli.main`` in this process, for
        the traced run; returns why its check failed."""
        import vbisnr.cli  # only here: the timed run never imports it

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # Looked up at each call, so a traced stand-in is used.
            returncode = vbisnr.cli.main(self.argv(op))
        return self.check(op, returncode, out.getvalue().encode())


class MeasureCli(CliWorkload):
    """``vbisnr measure --json`` on the 30x2x864 acceptance capture.

    The command a technician runs per channel. Interpreter start-up and
    import are most of each call, so import-time work shows here; a faster
    read or accumulate should not.
    """

    name = "measure-cli"
    ops_per_cycle = 2  # --filter off, then --filter on
    setup_reps = 31  # a set-up takes milliseconds

    def __init__(self, seed: int, ctx: Context):
        super().__init__(ctx)
        rng = np.random.default_rng([seed, 1])
        self.path = ctx.work / "acceptance.vbi"
        self.config = _synth_config(1, 100, _generator_seed(rng), frames=30, lines=2)
        self.truth = {False: _truth_snr_db(1, 10.0, False), True: _truth_snr_db(1, 10.0, True)}

    def set_up(self) -> float:
        start = time.perf_counter()
        vbisnr.capture.write_capture(vbisnr.synth.synthesize(self.config), self.path)
        return time.perf_counter() - start

    def argv(self, op: int) -> list[str]:
        mode = "on" if op % 2 else "off"
        return ["measure", "--in", str(self.path), "--json", "--filter", mode]

    def check(self, op: int, returncode: int, stdout: bytes) -> str | None:
        if returncode != 0:
            return f"exit code {returncode}"
        filtered = bool(op % 2)
        try:
            result = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        expected_n = 60 * (WINDOW - TAPS + 1) if filtered else 60 * WINDOW
        if result.get("n_samples") != expected_n:
            return f"n_samples {result.get('n_samples')} != {expected_n}"
        if result.get("filtered") is not filtered:
            return f"filtered flag {result.get('filtered')} != {filtered}"
        snr = result.get("snr_db")
        if not isinstance(snr, float) or abs(snr - self.truth[filtered]) > SNR_TOLERANCE_DB:
            return f"snr_db {snr} not within {SNR_TOLERANCE_DB} dB of {self.truth[filtered]:.3f}"
        return None


# Designations, names and carriers of the 16-channel VHF plan.
PLAN = (
    ("S02", "TVR1", 112.25), ("S03", "TVR2", 119.25), ("S04", "TVR3", 126.25),
    ("S05", "TV5Monde", 133.25), ("S07", "TVR Cluj", 147.25),
    ("S08", "Antena1 loc", 154.25), ("S09", "Un. Carrier", 161.25),
    ("S10", "ETV", 168.25), ("C06", "ProTV", 182.25), ("C07", "Antena1", 189.25),
    ("C08", "KanalD", 196.25), ("C09", "Prima", 203.25), ("C12", "Nat. TV", 224.25),
    ("S11", "Stars", 231.25), ("S12", "Gold", 238.25), ("S13", "Acasa", 245.25),
)
# Fixed roles, so every seed runs the same code paths over the same bytes.
TEN_BIT = {"S03", "S08", "C07", "S11"}
NO_FILE = "S05"  # no capture file: a no-capture row
NO_VBI = "S10"  # empty vbi_line_indices: read, then skipped
TRUNCATED = "C09"  # payload cut in half: read fails, a no-capture row
VBI_LINES = (6, 318)
SCAN_FRAMES = 30
SCAN_LINES = 625


class ScanPlan(CliWorkload):
    """One ``vbisnr scan --format csv`` over a 16-channel plan.

    Captures are 625-line frames of which 2 lines are measured, so reading
    and holding every line shows in time and in memory. A quarter are
    10-bit, so a faster 8-bit read that slows the 2-byte path still shows.
    One channel has no file, one lists no VBI lines and one is truncated,
    so the no-capture and skip paths run too.
    """

    name = "scan-plan"
    ops_per_cycle = 1
    setup_reps = 2  # a set-up takes about 11 s

    def __init__(self, seed: int, ctx: Context):
        super().__init__(ctx)
        rng = np.random.default_rng([seed, 2])
        self.plan_path = ctx.work / "plan.csv"
        self.captures = ctx.work / "captures"
        self.channels = []
        for designation, _, _ in PLAN:
            scale = 4 if designation in TEN_BIT else 1
            tenths = int(rng.integers(100, 200))  # carrier 10.0 .. 19.9 codes at 8 bits
            config = _synth_config(scale, tenths, _generator_seed(rng), frames=SCAN_FRAMES,
                                   lines=SCAN_LINES, sync=True, label=designation)
            truth = (_truth_snr_db(scale, tenths * scale / 10, False),
                     _truth_snr_db(scale, tenths * scale / 10, True))
            self.channels.append((designation, config, truth))
        self.reference_digest = None

    def set_up(self) -> float:
        start = time.perf_counter()
        self.captures.mkdir(exist_ok=True)
        self.plan_path.write_text(
            "designation,name,video_carrier_mhz\n"
            + "".join(f"{d},{n},{f}\n" for d, n, f in PLAN)
        )
        for designation, config, _ in self.channels:
            if designation == NO_FILE:
                continue
            synthetic = vbisnr.synth.synthesize(config)
            vbi = () if designation == NO_VBI else VBI_LINES
            capture = vbisnr.capture.CaptureFile(
                dataclasses.replace(synthetic.header, vbi_line_indices=vbi), synthetic.samples
            )
            del synthetic
            path = self.captures / f"{designation}.vbi"
            vbisnr.capture.write_capture(capture, path)
            if designation == TRUNCATED:
                os.truncate(path, path.stat().st_size - capture.header.payload_bytes // 2)
        return time.perf_counter() - start

    def argv(self, op: int) -> list[str]:
        return ["scan", "--plan", str(self.plan_path), "--captures-dir",
                str(self.captures), "--format", "csv"]

    def check(self, op: int, returncode: int, stdout: bytes) -> str | None:
        if returncode != 0:
            return f"exit code {returncode}"
        digest = hashlib.sha256(stdout).hexdigest()
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            return "CSV differs from the first op of this run"
        rows = list(csv.DictReader(io.StringIO(stdout.decode())))
        if [row["designation"] for row in rows] != [d for d, _, _ in PLAN]:
            return "rows do not match the plan"
        for row, (designation, _, (snr1, snr2)) in zip(rows, self.channels):
            expected = {NO_FILE: "no-capture", TRUNCATED: "no-capture",
                        NO_VBI: "unsynchronized-skipped"}.get(designation, "measured")
            if row["status"] != expected:
                return f"{designation}: status {row['status']} != {expected}"
            if expected != "measured":
                continue
            if row["n_samples"] != str(2 * SCAN_FRAMES * WINDOW):
                return f"{designation}: n_samples {row['n_samples']}"
            for column, truth in (("snr1_db", snr1), ("snr2_db", snr2)):
                if abs(float(row[column]) - truth) > SNR_TOLERANCE_DB:
                    return f"{designation}: {column} {row[column]} not within " \
                           f"{SNR_TOLERANCE_DB} dB of {truth:.3f}"
        return None


class MonitorLib:
    """In-process rolling measurement: one step advances one frame.

    Each step measures the trailing 30-frame window and the newest frame,
    raw and filtered. There is no import or file I/O in a step, so
    accumulate and the filter do the work. The 30-frame calls are dominated
    by per-sample cost, the 1-frame calls by per-call cost such as the
    filter design.
    """

    name = "monitor-lib"
    ops_per_cycle = 1
    setup_reps = 5
    frames = 300
    window_frames = 30

    def __init__(self, seed: int, ctx: Context):
        self.ctx = ctx
        rng = np.random.default_rng([seed, 3])
        self.config = _synth_config(1, 100, _generator_seed(rng), frames=self.frames, lines=2)
        self.raw = MeasureConfig()
        self.filtered = MeasureConfig(filter=FilterSpec())
        self.truth_v_n = {
            f: FULL_SCALE_8BIT / 10 ** (_truth_snr_db(1, 10.0, f) / 20) for f in (False, True)
        }
        self.capture = None
        self.steps = self.frames - self.window_frames + 1

    def set_up(self) -> float:
        """Import vbisnr, timed in a fresh interpreter because this one has
        it already, and build the capture."""
        import_s, _ = self.ctx.time_import("vbisnr")
        start = time.perf_counter()
        self.capture = vbisnr.synth.synthesize(self.config)
        return import_s + time.perf_counter() - start

    def run(self, op: int) -> OpResult:
        wall, cpu = time.perf_counter(), time.process_time()
        results = self.step(op)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return OpResult(wall, cpu, peak_mb, self.check(results))

    def run_in_process(self, op: int) -> str | None:
        return self.check(self.step(op))

    def step(self, op: int) -> list:
        first = op % self.steps
        extract = vbisnr.capture.extract_vbi_lines
        accumulate = vbisnr.measure.accumulate
        window = extract(self.capture, frame_range=(first, first + self.window_frames))
        newest = extract(self.capture, frame_range=(first + self.window_frames - 1,
                                                    first + self.window_frames))
        return [accumulate(window, self.raw), accumulate(window, self.filtered),
                accumulate(newest, self.raw), accumulate(newest, self.filtered)]

    def check(self, results) -> str | None:
        expected_n = (60 * WINDOW, 60 * (WINDOW - TAPS + 1), 2 * WINDOW, 2 * (WINDOW - TAPS + 1))
        for result, n in zip(results, expected_n):
            if result.n_samples != n:
                return f"n_samples {result.n_samples} != {n}"
            truth = self.truth_v_n[result.filtered]
            if abs(result.v_n - truth) > V_N_TOLERANCE_MARGINS * result.error_margin:
                return (f"v_n {result.v_n:.4f} not within {V_N_TOLERANCE_MARGINS} margins "
                        f"of {truth:.4f} (filtered={result.filtered})")
        return None


WORKLOADS = {w.name: w for w in (MeasureCli, ScanPlan, MonitorLib)}
