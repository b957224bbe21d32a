"""Acceptance suite.

Eight criteria, each a test that prints its own PASS line (run with
``pytest tests/test_acceptance.py -v -s`` to see them). Expected values
come from the synthetic generator's ground truth: sigma 2.19 against the
219-code full scale is exactly 40 dB.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from vbisnr import (
    CaptureFile,
    CaptureHeader,
    FilterSpec,
    MeasureConfig,
    Measurement,
    SynthConfig,
    accumulate,
    design_lowpass,
    error_margin,
    extract_vbi_lines,
    noise_rms,
    parse_plan,
    psnr,
    read_capture,
    render_report,
    scan,
    synthesize,
    write_capture,
)
from vbisnr.cli import main
from vbisnr.measure import LineRecord
from vbisnr.scan import ScanReport, ScanRow

from conftest import SIGMA


def report(criterion: int, label: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {criterion} took {elapsed:.1f}s"
    print(f"PASS criterion {criterion}: {label} ({elapsed:.2f}s)")


def test_criterion_1_known_snr_recovery(tmp_path, capsys):
    started = time.perf_counter()
    config = SynthConfig(noise_sigma=SIGMA)  # 30 frames x 2 VBI lines x 864
    window = 847 - 104
    assert window >= 700

    hits = 0
    for seed in range(100):
        cap = synthesize(SynthConfig(noise_sigma=SIGMA, seed=seed))
        m = accumulate(extract_vbi_lines(cap))
        if abs(m.snr_db - 40.0) <= 0.2:
            hits += 1
    assert hits >= 95, f"only {hits}/100 seeds within 40.0 +- 0.2 dB"

    # the same chain through the command line
    path = tmp_path / "c1.vbi"
    assert main(["synth", "--sigma", str(SIGMA), "--seed", "0",
                 "--out", str(path)]) == 0
    assert main(["measure", "--in", str(path), "--json"]) == 0
    cli_result = json.loads(capsys.readouterr().out)
    assert abs(cli_result["snr_db"] - 40.0) <= 0.2

    report(1, f"known-SNR recovery, {hits}/100 seeds within 0.2 dB", started, 10.0)


def test_criterion_2_error_margin_law():
    started = time.perf_counter()
    for v_n in (0.5, 2.19, 7.4, 123.0):
        for n in (1, 10, 743, 44580, 10**9):
            assert error_margin(v_n, 4 * n) == error_margin(v_n, n) / 2.0

    # and on a real measurement result
    cap = synthesize(SynthConfig(noise_sigma=SIGMA, seed=42, frames=8))
    m = accumulate(extract_vbi_lines(cap))
    assert m.error_margin == m.v_n / math.sqrt(m.n_samples)
    assert error_margin(m.v_n, 4 * m.n_samples) == m.error_margin / 2.0

    report(2, "quadrupled N halves the error margin exactly", started, 1.0)


def test_criterion_3_filtered_unfiltered_gap(plan_text):
    started = time.perf_counter()
    plan = parse_plan(plan_text)
    assert len(plan) == 16
    source = {
        entry.designation: synthesize(
            SynthConfig(
                noise_sigma=SIGMA,
                seed=300 + i,
                interferers=((5.5e6, 10.0, 0.0),),
                channel_label=entry.designation,
            )
        )
        for i, entry in enumerate(plan.entries)
    }
    result = scan(plan, source)
    assert len(result.rows) == 16
    for row in result.rows:
        assert row.status == "measured"
        assert row.snr1.snr_db < 31.0, row.channel.designation
        assert abs(row.snr2.snr_db - 40.0) <= 1.0, row.channel.designation

    report(3, "5.5 MHz interferer: snr1 < 31 dB, snr2 within 1 dB of 40 "
              "on all 16 channels", started, 30.0)


def test_criterion_4_noise_rms_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(4242))
    for _ in range(1000):
        n = int(rng.integers(2, 2000))
        values = rng.integers(0, 256, size=n).astype(np.int32)
        line = LineRecord(samples=values, window=(0, n))
        v_ref = math.fsum(values.tolist()) / n
        # independently coded two-pass standard deviation
        acc = 0.0
        for x in values.tolist():
            acc += (x - v_ref) ** 2
        oracle = math.sqrt(acc / (n - 1))
        got = noise_rms(line, v_ref)
        if oracle > 0:
            assert abs(got - oracle) / oracle <= 1e-9
        else:
            assert got == 0.0

    report(4, "noise RMS matches the two-pass oracle on 1000 windows", started, 5.0)


def test_criterion_5_psnr_spot_values():
    started = time.perf_counter()
    plane = (np.arange(256, dtype=np.int32) % 256).reshape(16, 16)
    same = psnr(plane, plane, bits_per_pixel=8)
    assert same.saturated and same.psnr_db == 100.0 and same.mse == 0.0

    zeros = np.zeros((16, 16), dtype=np.int32)
    full = np.full((16, 16), 255, dtype=np.int32)
    worst = psnr(zeros, full, bits_per_pixel=8)
    assert worst.psnr_db == 0.0 and worst.mse == 65025.0

    ones = np.ones((16, 16), dtype=np.int32)
    unit = psnr(zeros, ones, bits_per_pixel=8)
    assert unit.mse == 1.0
    assert abs(unit.psnr_db - 48.1308) <= 1e-3

    report(5, "PSNR cap, 0 dB, and 48.1308 dB spot checks", started, 1.0)


def test_criterion_6_filter_conformance():
    started = time.perf_counter()
    taps = design_lowpass(FilterSpec(), 13.5e6)

    assert abs(float(np.sum(taps)) - 1.0) <= 1e-6

    def response_db(freq_hz):
        k = np.arange(len(taps))
        h = np.sum(taps * np.exp(-2j * np.pi * freq_hz * k / 13.5e6))
        return 20.0 * math.log10(abs(h))

    assert response_db(5.5e6) <= -60.0
    assert response_db(0.5e6) >= -1.0

    report(6, "default filter: unity DC, -60 dB at 5.5 MHz, <1 dB at 0.5 MHz",
           started, 1.0)


def test_criterion_7_format_fidelity(tmp_path, plan_text):
    started = time.perf_counter()

    # bit-exact round trips at both supported widths
    for bit_depth, sigma in ((8, SIGMA), (10, 4.0 * SIGMA)):
        cap = synthesize(
            SynthConfig(noise_sigma=sigma, seed=70 + bit_depth, frames=3,
                        bit_depth=bit_depth,
                        black_level=60.0 * 2 ** (bit_depth - 8))
        )
        a, b = tmp_path / f"a{bit_depth}.vbi", tmp_path / f"b{bit_depth}.vbi"
        write_capture(cap, a)
        write_capture(read_capture(a), b)
        assert a.read_bytes() == b.read_bytes()

    plan = parse_plan(plan_text)
    assert len(plan.entries) == 16
    assert plan.get("S02").video_carrier_mhz == 112.25
    assert plan.get("C09").video_carrier_mhz == 203.25

    hand_built = ScanReport(
        rows=(
            ScanRow(
                channel=plan.get("S02"),
                snr1=Measurement(60.0, 7.4, 29.4, 44580, False, 30),
                snr2=Measurement(60.0, 2.19, 40.1, 38700, True, 30),
                status="measured",
            ),
        ),
        config=MeasureConfig(filter=FilterSpec()),
        timestamp="2026-01-01T00:00:00+00:00",
    )
    table_row = render_report(hand_built, "table").splitlines()[1]
    assert table_row.split()[:3] == ["S02", "29.4", "40.1"]

    report(7, "round trips bit-identical; plan and table match the fixtures",
           started, 1.0)


def test_criterion_8_cli_exit_codes(tmp_path, plan_text, capsys):
    started = time.perf_counter()

    ok_file = tmp_path / "ok.vbi"
    assert main(["synth", "--sigma", "2.19", "--frames", "5",
                 "--out", str(ok_file)]) == 0          # exit 0: success
    assert main(["measure", "--in", str(ok_file)]) == 0

    assert main(["measure", "--in", str(ok_file),
                 "--frames", "31"]) == 1                # exit 1: invalid input

    assert main(["measure", "--in", str(tmp_path / "absent.vbi")]) == 2
    truncated = tmp_path / "short.vbi"
    truncated.write_bytes(ok_file.read_bytes()[:-10])
    assert main(["measure", "--in", str(truncated)]) == 2  # exit 2: I/O failure

    no_vbi = tmp_path / "novbi.vbi"
    header = CaptureHeader(samples_per_line=64, lines_per_frame=2, frames=1,
                           vbi_line_indices=())
    write_capture(
        CaptureFile(header=header, samples=np.zeros((1, 2, 64), dtype=np.int32)),
        no_vbi,
    )
    assert main(["measure", "--in", str(no_vbi)]) == 3  # exit 3: nothing to measure

    plan_path = tmp_path / "plan.csv"
    plan_path.write_text(plan_text)
    empty_dir = tmp_path / "captures"
    empty_dir.mkdir()
    capsys.readouterr()  # drop output of the earlier invocations
    assert main(["scan", "--plan", str(plan_path), "--captures-dir",
                 str(empty_dir), "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 16 and all(r.endswith("no-capture") for r in rows)

    report(8, "exit codes 0/1/2/3 produced by their forced cases; "
              "empty scan exits 0", started, 5.0)
