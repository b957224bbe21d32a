"""Command-line behavior, output formats, and the exit-code contract."""

from __future__ import annotations

import dataclasses
import errno
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vbisnr
from vbisnr import (
    CaptureFile,
    CaptureHeader,
    FilterSpec,
    LineRecord,
    MeasureConfig,
    Measurement,
    SynthConfig,
    accumulate,
    default_window,
    extract_vbi_lines,
    line_spectrum,
    read_capture,
    synthesize,
    write_capture,
)
from vbisnr.cli import main, run

from conftest import DATA_DIR
from impairments import BASE_SIGMA, SEEDS, black_clip


ONE_CHANNEL_PLAN = "designation,name,video_carrier_mhz\nS02,TVR1,112.25\n"


def child_env(**changes: str | None) -> dict[str, str]:
    """This environment for a child on this checkout, with ``changes`` set;
    a change to None removes that variable."""
    src = str(Path(vbisnr.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, **changes}
    return {key: value for key, value in env.items() if value is not None}


def synth_args(out, **extra):
    args = ["synth", "--sigma", "2.19", "--seed", "7", "--out", str(out)]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.vbi"
    assert main(synth_args(path)) == 0
    return path


@pytest.fixture()
def interferer_file(tmp_path):
    path = tmp_path / "noisy.vbi"
    args = synth_args(path) + ["--interferer", "5.5e6,10,0"]
    assert main(args) == 0
    return path


class TestSynth:
    def test_writes_capture_with_frame_count(self, tmp_path, capsys):
        out = tmp_path / "a.vbi"
        assert main(synth_args(out, frames=30)) == 0
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert "clip_count=0" in err
        from vbisnr import read_capture

        assert read_capture(out).header.frames == 30

    def test_interferer_recorded_in_metadata(self, interferer_file):
        from vbisnr import read_capture

        extra = read_capture(interferer_file).header.extra
        assert extra["interferers"] == "5500000.0,10.0,0.0"

    def test_identical_flags_give_bit_identical_files(self, tmp_path):
        a, b = tmp_path / "a.vbi", tmp_path / "b.vbi"
        flags = ["--interferer", "5.5e6,10,0", "--frames", "10"]
        assert main(synth_args(a) + flags) == 0
        assert main(synth_args(b) + flags) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag,message", [
        ("oops", "--interferer expects frequency,amplitude[,phase], got 'oops'"),
        ("5.5e6,x", "bad --interferer value '5.5e6,x'"),
    ], ids=["one-field", "not-a-number"])
    def test_bad_interferer_flag(self, tmp_path, capsys, flag, message):
        assert main(synth_args(tmp_path / "x.vbi") + ["--interferer", flag]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unwritable_output_is_io_failure(self, tmp_path):
        assert main(synth_args(tmp_path / "missing" / "x.vbi")) == 2

    def test_capture_past_memory_is_exit_one(self, tmp_path, capsys):
        # 1.5 PiB lies past the 47-bit address space, so the allocation is
        # refused at once, whatever the machine's overcommit setting.
        out = tmp_path / "big.vbi"
        assert main(["synth", "--frames", "1000000000000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,config",
        [
            ([], SynthConfig()),
            (
                ["--sigma", "1.5", "--black-level", "70", "--interferer", "5.5e6,10,0.5",
                 "--interferer", "4.43e6,3", "--frames", "4", "--seed", "11",
                 "--vbi-lines", "3", "--samples-per-line", "400", "--sample-rate", "27e6",
                 "--bit-depth", "10", "--sync", "--label", "TVR1"],
                SynthConfig(
                    noise_sigma=1.5, black_level=70.0,
                    interferers=((5.5e6, 10.0, 0.5), (4.43e6, 3.0, 0.0)), frames=4,
                    seed=11, lines_per_frame=3, samples_per_line=400, sample_rate_hz=27e6,
                    bit_depth=10, sync=True, channel_label="TVR1",
                ),
            ),
        ],
        ids=["no-flags", "every-flag"],
    )
    def test_each_flag_reaches_its_field(self, tmp_path, flags, config):
        # The full set leaves no field at its default, so a field without a
        # flag, or a flag bound to the wrong field, changes the bytes.
        if flags:
            fields = [f for f in dataclasses.fields(SynthConfig) if f.init]
            assert all(getattr(config, f.name) != f.default for f in fields)
        cli, lib = tmp_path / "cli.vbi", tmp_path / "lib.vbi"
        assert main(["synth", *flags, "--out", str(cli)]) == 0
        write_capture(synthesize(config), lib)
        assert cli.read_bytes() == lib.read_bytes()


class TestMeasure:
    def test_clean_capture_reads_forty_db(self, clean_file, capsys):
        assert main(["measure", "--in", str(clean_file), "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert abs(result["snr_db"] - 40.0) < 0.5
        assert result["frames_used"] == 30
        assert result["filtered"] is False

    def test_text_output_names_fields(self, clean_file, capsys):
        assert main(["measure", "--in", str(clean_file)]) == 0
        out = capsys.readouterr().out
        for key in ("v_ref", "v_n", "snr_db", "error_margin", "n_samples"):
            assert key in out
        assert "snr_db 40.0" in out or "snr_db 39.9" in out

    @pytest.mark.parametrize("mode", ["off", "on"])
    def test_json_keys_follow_the_measurement_fields(self, clean_file, capsys, mode):
        assert main(["measure", "--in", str(clean_file), "--json", "--filter", mode]) == 0
        result = json.loads(capsys.readouterr().out)
        assert list(result) == [f.name for f in dataclasses.fields(Measurement)]

    @pytest.mark.parametrize("mode", ["on", "off"])
    @pytest.mark.parametrize("cutoff", ["nan", "inf"])
    def test_non_finite_cutoff_is_exit_one(self, clean_file, capsys, cutoff, mode):
        argv = ["measure", "--in", str(clean_file), "--json", "--filter", mode,
                "--cutoff-hz", cutoff]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cutoff_hz must be positive" in captured.err

    @pytest.mark.parametrize("mode", ["off", "on"])
    def test_noise_free_capture_saturates(self, tmp_path, capsys, mode):
        # The default sigma is 0: every window code is the black level, and
        # the filter's round-off must not read as noise.
        path = tmp_path / "z.vbi"
        assert main(["synth", "--seed", "5", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["measure", "--in", str(path), "--json", "--filter", mode]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["v_n"] == 0.0 and result["error_margin"] == 0.0
        assert result["snr_db"] == 100.0 and result["saturated"] is True

    def test_non_finite_header_rate_is_io_failure(self, clean_file, capsys):
        blob = clean_file.read_bytes()
        bad = blob.replace(b"sample_rate_hz=13500000.0", b"sample_rate_hz=inf\n\n\n\n\n\n\n")
        assert len(bad) == len(blob)
        clean_file.write_bytes(bad)
        assert main(["measure", "--in", str(clean_file), "--filter", "on"]) == 2
        assert "bad header" in capsys.readouterr().err

    @pytest.mark.parametrize("frames,message", [
        ("31", "--frames may not exceed the 30-frame limit"),
        ("0", "--frames must be positive"),
    ], ids=["31", "0"])
    def test_frame_count_outside_one_to_thirty_is_exit_one(self, clean_file, capsys, frames,
                                                            message):
        assert main(["measure", "--in", str(clean_file), "--frames", frames]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_filter_flag_changes_result_under_interference(self, interferer_file, capsys):
        assert main(["measure", "--in", str(interferer_file), "--json"]) == 0
        unfiltered = json.loads(capsys.readouterr().out)
        assert main(
            ["measure", "--in", str(interferer_file), "--filter", "on", "--json"]
        ) == 0
        filtered = json.loads(capsys.readouterr().out)
        assert filtered["snr_db"] - unfiltered["snr_db"] > 5.0

    def test_missing_input_is_io_failure(self, tmp_path):
        assert main(["measure", "--in", str(tmp_path / "nope.vbi")]) == 2

    @pytest.mark.parametrize("rail,frames", [(0, 30), (0, 5), (255, 30), (1023, 30)])
    @pytest.mark.parametrize("mode", ["off", "on"])
    def test_clipped_capture_warns_on_stderr(self, tmp_path, capsys, mode, rail, frames):
        # Black lowered to code 3: the low tail of the noise sits at code 0,
        # so v_n reads low. Mirrored, the high tail sits at the top code, 255
        # or, at 10 bits, 1023. The result is printed as before, with one warning.
        bits = 10 if rail > 255 else 8
        top = (1 << bits) - 1
        clipped, truth = black_clip(synthesize(SynthConfig(noise_sigma=BASE_SIGMA, seed=SEEDS[0],
                                                           bit_depth=bits)))
        if rail:
            clipped = CaptureFile(clipped.header, rail - clipped.samples.astype(np.int64))
        path = tmp_path / "clipped.vbi"
        write_capture(clipped, path)
        argv = ["measure", "--in", str(path), "--json", "--filter", mode, "--frames", str(frames)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        start, end = default_window(clipped.header.samples_per_line)
        pooled = clipped.samples[:frames, list(clipped.header.vbi_line_indices), start:end]
        rails = int(np.sum(pooled == 0) + np.sum(pooled == top))
        assert rails >= (truth if frames == 30 else 1) > 0
        assert captured.err == (
            f"warning: {rails} of {pooled.size} window samples sit at code 0 or {top}, "
            "where the ADC clips; v_n reads low\n"
        )
        config = MeasureConfig(filter=FilterSpec() if mode == "on" else None)
        result = accumulate(extract_vbi_lines(clipped, frames), config)
        assert json.loads(captured.out) == dataclasses.asdict(result)

    @pytest.mark.parametrize("black", [240.0, 3.0], ids=["unclipped", "clipped"])
    @pytest.mark.parametrize("mode", ["off", "on"])
    def test_all_lines_measure_holds_a_few_row_blocks(self, tmp_path, capsys, mode, black):
        # 10 frames of 625 10-bit lines, all VBI lines: 4.6M window samples,
        # viewed in the mapped capture. accumulate and the rail count read
        # them in row blocks; whole-window rail masks took 2 bytes a sample.
        path = tmp_path / "all-lines.vbi"
        write_capture(synthesize(SynthConfig(noise_sigma=8.76, black_level=black, bit_depth=10,
                                             frames=10, lines_per_frame=625, seed=3)), path)
        tracemalloc.start()
        try:
            assert main(["measure", "--in", str(path), "--filter", mode, "--json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        warned = "window samples sit at code 0 or 1023" in capsys.readouterr().err
        assert warned == (black == 3.0)
        row_block = vbisnr.measure._BLOCK_SAMPLES * np.dtype(np.float64).itemsize
        assert peak < 8 * row_block

    @pytest.mark.parametrize("mode", ["off", "on"])
    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--bit-depth", "10", "--interferer", "5.5e6,10,0"],
            ["--sigma", "0"],
        ],
        ids=["8-bit", "10-bit-carrier", "noise-free"],
    )
    def test_unclipped_capture_leaves_stderr_empty(self, tmp_path, capsys, mode, extra):
        path = tmp_path / "c.vbi"
        assert main(synth_args(path) + extra) == 0
        capsys.readouterr()
        for json_flag in ([], ["--json"]):
            assert main(["measure", "--in", str(path), "--filter", mode, *json_flag]) == 0
            assert capsys.readouterr().err == ""

    def test_capture_without_vbi_lines_is_exit_three(self, tmp_path, capsys):
        header = CaptureHeader(
            samples_per_line=64, lines_per_frame=2, frames=1, vbi_line_indices=()
        )
        cap = CaptureFile(header=header, samples=np.zeros((1, 2, 64), dtype=np.int32))
        path = tmp_path / "dead.vbi"
        write_capture(cap, path)
        assert main(["measure", "--in", str(path)]) == 3
        assert "clean blanked lines" in capsys.readouterr().err


def make_captures(directory: Path, designations, frames=5, spl=400):
    for i, designation in enumerate(designations):
        path = directory / f"{designation}.vbi"
        args = [
            "synth", "--sigma", "2.19", "--seed", str(100 + i),
            "--frames", str(frames), "--samples-per-line", str(spl),
            "--label", designation, "--out", str(path),
        ]
        assert main(args) == 0


class TestScan:
    def test_full_plan_scan_sorted_by_frequency(self, tmp_path, plan_text, capsys):
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(plan_text)
        designations = [line.split(",")[0] for line in plan_text.splitlines()[1:]]
        make_captures(tmp_path, designations)
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(tmp_path),
             "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 17
        rows = [line.split(",") for line in lines[1:]]
        assert all(row[-1] == "measured" for row in rows)
        freqs = [float(row[2]) for row in rows]
        assert freqs == sorted(freqs)

    def test_empty_captures_dir_still_exits_zero(self, tmp_path, plan_text, capsys):
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(plan_text)
        empty = tmp_path / "captures"
        empty.mkdir()
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(empty),
             "--format", "csv"]
        ) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 16
        assert all(row.endswith("no-capture") for row in rows)

    @pytest.mark.parametrize("fault", ["malformed", "unreadable"])
    def test_corrupt_capture_downgrades_to_no_capture(self, tmp_path, capsys, fault):
        # The warning names the file once, then says what is wrong with it.
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(
            "designation,name,video_carrier_mhz\nS02,TVR1,112.25\n"
        )
        bad = tmp_path / "S02.vbi"
        if fault == "malformed":
            bad.write_bytes(b"garbage")
            reason = "not a VBI1 capture file"
        else:
            bad.mkdir()
            reason = os.strerror(errno.EISDIR)
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(tmp_path),
             "--format", "csv"]
        ) == 0
        out, err = capsys.readouterr()
        assert "no-capture" in out
        assert err == f"warning: skipping {bad}: {reason}\n"

    def test_truncated_capture_skipped_among_good_ones(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(
            "designation,name,video_carrier_mhz\n"
            "S02,TVR1,112.25\nS03,TVR2,119.25\nS04,TVR3,126.25\n"
        )
        make_captures(tmp_path, ["S02", "S03", "S04"])
        truncated = tmp_path / "S03.vbi"
        truncated.write_bytes(truncated.read_bytes()[:-400])  # drop one line
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(tmp_path),
             "--format", "csv"]
        ) == 0
        out, err = capsys.readouterr()
        statuses = {row.split(",")[0]: row.split(",")[-1] for row in out.splitlines()[1:]}
        assert statuses == {"S02": "measured", "S03": "no-capture", "S04": "measured"}
        assert f"skipping {truncated}" in err
        assert "expected 4000 bytes, found 3600" in err

    def test_bad_plan_is_exit_one(self, tmp_path):
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text("designation,name,video_carrier_mhz\nS02,TVR1,9.0\n")
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(tmp_path)]
        ) == 1

    def test_cutoff_at_nyquist_is_exit_one(self, tmp_path, capsys):
        # The setting fails as it fails `measure`; no channel is skipped for it.
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text("designation,name,video_carrier_mhz\nS02,TVR1,112.25\n")
        make_captures(tmp_path, ["S02"])
        capsys.readouterr()
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(tmp_path),
             "--filter-cutoff", "7e6"]
        ) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "reaches Nyquist (6750000.0 Hz)" in err

    @pytest.mark.parametrize("absolute", [False, True])
    def test_designation_leading_out_of_the_directory_is_exit_one(
        self, tmp_path, capsys, monkeypatch, absolute
    ):
        # A readable capture outside --captures-dir is never opened.
        captures, other = tmp_path / "captures", tmp_path / "other"
        captures.mkdir()
        other.mkdir()
        make_captures(other, ["S02"])
        designation = str(other / "S02") if absolute else "../other/S02"
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(f"designation,name,video_carrier_mhz\n{designation},TVR1,112.25\n")
        opened = []
        monkeypatch.setattr(vbisnr.cli, "read_capture", opened.append)
        capsys.readouterr()
        assert main(["plan-validate", "--plan", str(plan_path)]) == 1
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(captures),
             "--format", "csv", "--out", str(tmp_path / "scan.csv")]
        ) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count(f"channel designation {designation!r} may not contain /") == 2
        assert opened == []
        assert not (tmp_path / "scan.csv").exists()

    def test_missing_captures_dir_is_io_failure(self, tmp_path, plan_text):
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(plan_text)
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir",
             str(tmp_path / "nowhere")]
        ) == 2

    def test_stand_ins_bound_on_the_cli_module_run(self, tmp_path, monkeypatch, capsys):
        # perfbench/spans.py wraps scan and render_report where vbisnr.cli
        # looks them up, so the command calls whatever is bound there.
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(ONE_CHANNEL_PLAN)
        make_captures(tmp_path, ["S02"])
        calls = []

        def scan_stand_in(plan, source, *args):
            calls.append(("scan", [entry.designation for entry in plan.entries]))
            return vbisnr.scan(plan, source, *args)

        def render_stand_in(report, fmt):
            calls.append(("render_report", fmt))
            return f"{len(report.rows)} rows\n"

        monkeypatch.setattr("vbisnr.cli.scan", scan_stand_in)
        monkeypatch.setattr("vbisnr.cli.render_report", render_stand_in)
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(tmp_path),
             "--format", "csv"]
        ) == 0
        assert calls == [("scan", ["S02"]), ("render_report", "csv")]
        assert capsys.readouterr().out == "1 rows\n"

    def test_uncaptured_channel_is_a_row_of_empty_fields(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(ONE_CHANNEL_PLAN + "C06,ProTV,182.25\n")
        make_captures(tmp_path, ["S02"])
        out = tmp_path / "scan.csv"
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(tmp_path),
             "--format", "csv", "--out", str(out)]
        ) == 0
        _, measured, uncaptured = out.read_text().splitlines()
        assert measured.startswith("S02,TVR1,112.25,") and measured.endswith(",measured")
        assert uncaptured == "C06,ProTV,182.25,,,,,,no-capture"

    @pytest.mark.parametrize("flags,cutoff_hz", [
        ([], "2000000.0"), (["--filter-cutoff", "1.5e6"], "1500000.0"),
    ], ids=["default", "1.5MHz"])
    def test_json_config_is_the_fixed_settings_then_the_filter(self, tmp_path, capsys,
                                                                 flags, cutoff_hz):
        # In that order and those types; the report reads back to the same bytes.
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(ONE_CHANNEL_PLAN)
        make_captures(tmp_path, ["S02"])
        capsys.readouterr()
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(tmp_path),
             "--format", "json", *flags]
        ) == 0
        text = capsys.readouterr().out
        assert json.dumps(json.loads(text)["config"]) == (
            '{"full_scale": null, "max_frames": 30, "snr_cap_db": 100.0, '
            f'"filter": {{"cutoff_hz": {cutoff_hz}, "transition_hz": 500000.0, '
            '"stopband_atten_db": 60.0, "kind": "windowed-sinc-lowpass"}}'
        )
        assert vbisnr.render_report(vbisnr.report_from_json(text), "json") == text

    def test_json_output_round_trips(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(
            "designation,name,video_carrier_mhz\nS02,TVR1,112.25\n"
        )
        make_captures(tmp_path, ["S02"])
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(tmp_path),
             "--format", "json"]
        ) == 0
        from vbisnr import report_from_json

        report = report_from_json(capsys.readouterr().out)
        assert report.rows[0].channel.designation == "S02"
        assert report.rows[0].snr1 is not None

    def test_filter_cutoff_reaches_measure_and_scan_alike(
        self, tmp_path, interferer_file, capsys
    ):
        captures = tmp_path / "captures"
        captures.mkdir()
        (captures / "S02.vbi").write_bytes(interferer_file.read_bytes())
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text("designation,name,video_carrier_mhz\nS02,TVR1,112.25\n")
        capsys.readouterr()
        readings = {}
        for cutoff in ("1.5e6", "2e6"):
            assert main(
                ["measure", "--in", str(interferer_file), "--filter", "on",
                 "--cutoff-hz", cutoff, "--json"]
            ) == 0
            measured = json.loads(capsys.readouterr().out)["snr_db"]
            assert main(
                ["scan", "--plan", str(plan_path), "--captures-dir", str(captures),
                 "--filter-cutoff", cutoff, "--format", "json"]
            ) == 0
            scanned = json.loads(capsys.readouterr().out)["channels"][0]["snr2"]["snr_db"]
            assert measured == scanned, cutoff
            readings[cutoff] = measured
        assert readings["1.5e6"] != readings["2e6"]

    def test_csv_schema_matches_golden_file(self, tmp_path, plan_text):
        golden = (DATA_DIR / "golden_scan.csv").read_text()
        plan_path = tmp_path / "plan.csv"
        plan_path.write_text(plan_text)
        designations = [line.split(",")[0] for line in plan_text.splitlines()[1:]]
        make_captures(tmp_path, designations[:12])  # four stay unoccupied
        out_path = tmp_path / "report.csv"
        assert main(
            ["scan", "--plan", str(plan_path), "--captures-dir", str(tmp_path),
             "--format", "csv", "--out", str(out_path)]
        ) == 0
        got_lines = out_path.read_text().splitlines()
        want_lines = golden.splitlines()
        assert got_lines[0] == want_lines[0]
        assert len(got_lines) == len(want_lines)
        for got, want in zip(got_lines[1:], want_lines[1:]):
            g, w = got.split(","), want.split(",")
            assert g[0] == w[0] and g[1] == w[1] and g[-1] == w[-1]
            for g_field, w_field in zip(g[2:8], w[2:8]):
                if w_field == "":
                    assert g_field == ""
                else:
                    assert float(g_field) == pytest.approx(float(w_field), rel=1e-9)


def write_plane(path: Path, array):
    np.asarray(array, dtype=np.uint8).tofile(path)


class TestPsnr:
    def test_identical_planes_saturate(self, tmp_path, capsys):
        path = tmp_path / "img.raw"
        write_plane(path, np.arange(64).reshape(8, 8) % 256)
        assert main(
            ["psnr", "--original", str(path), "--decoded", str(path),
             "--width", "8", "--height", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "psnr_db 100.0" in out and "saturated true" in out

    def test_peak_error_reads_zero_db(self, tmp_path, capsys):
        a, b = tmp_path / "a.raw", tmp_path / "b.raw"
        write_plane(a, np.zeros((8, 8)))
        write_plane(b, np.full((8, 8), 255))
        assert main(
            ["psnr", "--original", str(a), "--decoded", str(b),
             "--width", "8", "--height", "8", "--bits", "8"]
        ) == 0
        assert "psnr_db 0.0" in capsys.readouterr().out

    def test_unit_mse_displays_one_decimal(self, tmp_path, capsys):
        a, b = tmp_path / "a.raw", tmp_path / "b.raw"
        write_plane(a, np.zeros((10, 10)))
        write_plane(b, np.ones((10, 10)))
        assert main(
            ["psnr", "--original", str(a), "--decoded", str(b),
             "--width", "10", "--height", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "mse 1.000000" in out and "psnr_db 48.1" in out

    def test_planar_three_channel_with_per_channel(self, tmp_path, capsys):
        a, b = tmp_path / "a.raw", tmp_path / "b.raw"
        orig = np.zeros((3, 4, 4))
        dec = orig.copy()
        dec[1] = 2.0
        write_plane(a, orig)
        write_plane(b, dec)
        assert main(
            ["psnr", "--original", str(a), "--decoded", str(b),
             "--width", "4", "--height", "4", "--per-channel"]
        ) == 0
        out = capsys.readouterr().out
        assert "ch0 100.0" in out and "ch1 " in out and "ch2 100.0" in out

    def test_sidecar_header(self, tmp_path, capsys):
        a = tmp_path / "a.raw"
        write_plane(a, np.zeros((6, 5)))
        (tmp_path / "a.raw.hdr").write_text("width=5\n\n  \nheight=6\n\n")
        assert main(["psnr", "--original", str(a), "--decoded", str(a)]) == 0
        assert "saturated true" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text,fault",
        [
            ("width=4\nheight=6\nwidth=5\n", "duplicate header field 'width'"),
            ("width=5\nheight=6\nplanar\n", "malformed header line 'planar'"),
            ("width=five\nheight=6\n",
             "bad sidecar header: invalid literal for int() with base 10: 'five'"),
        ],
        ids=["duplicate", "malformed", "not-an-integer"],
    )
    def test_loose_sidecar_is_exit_one(self, tmp_path, capsys, text, fault):
        a = tmp_path / "a.raw"
        write_plane(a, np.zeros((6, 5)))
        (tmp_path / "a.raw.hdr").write_text(text)
        assert main(["psnr", "--original", str(a), "--decoded", str(a)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {tmp_path / 'a.raw.hdr'}: {fault}\n"

    def test_plane_without_a_size_is_exit_one(self, tmp_path, capsys):
        a = tmp_path / "a.raw"
        write_plane(a, np.zeros((6, 5)))
        assert main(["psnr", "--original", str(a), "--decoded", str(a)]) == 1
        assert capsys.readouterr().err == (
            f"error: {a}: supply --width/--height or a a.raw.hdr sidecar\n"
        )

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_lone_size_flag_is_exit_one(self, tmp_path, capsys, flag):
        # Beside a sidecar too: neither size of the pair is taken from it.
        a = tmp_path / "a.raw"
        write_plane(a, np.zeros((4, 8)))
        (tmp_path / "a.raw.hdr").write_text("width=8\nheight=4\n")
        assert main(["psnr", "--original", str(a), "--decoded", str(a), flag, "16"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --width and --height go together\n"

    def test_per_channel_on_a_single_plane_is_exit_one(self, tmp_path, capsys):
        a = tmp_path / "a.raw"
        write_plane(a, np.zeros((8, 8)))
        assert main(["psnr", "--original", str(a), "--decoded", str(a),
                     "--width", "8", "--height", "8", "--per-channel"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --per-channel needs planes of 3 channels, got a single plane\n"

    def test_sidecar_that_is_not_utf8_is_exit_one(self, tmp_path, capsys):
        a = tmp_path / "a.raw"
        write_plane(a, np.zeros((6, 5)))
        sidecar = tmp_path / "a.raw.hdr"
        sidecar.write_bytes(b"width=5\nheight=6\nsource=TVR\xe3\n")
        assert main(["psnr", "--original", str(a), "--decoded", str(a)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        fault = "'utf-8' codec can't decode byte 0xe3 in position 27: invalid continuation byte"
        assert err == f"error: {sidecar}: {fault}\n"

    def test_shape_mismatch_is_exit_one(self, tmp_path, capsys):
        a, b = tmp_path / "a.raw", tmp_path / "b.raw"
        write_plane(a, np.zeros((8, 8)))
        write_plane(b, np.zeros((4, 4)))
        assert main(
            ["psnr", "--original", str(a), "--decoded", str(b),
             "--width", "8", "--height", "8"]
        ) == 1
        assert "neither" in capsys.readouterr().err

    def test_code_above_the_bit_depth_is_exit_one(self, tmp_path, capsys):
        a, b = tmp_path / "a.raw", tmp_path / "b.raw"
        write_plane(a, np.full((8, 8), 200))
        write_plane(b, np.zeros((8, 8)))
        assert main(
            ["psnr", "--original", str(a), "--decoded", str(b),
             "--width", "8", "--height", "8", "--bits", "4"]
        ) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {a}: sample values exceed the 4-bit code range\n"

    def test_partial_sample_is_exit_one(self, tmp_path, capsys):
        a = tmp_path / "a.raw"
        a.write_bytes(np.full(64, 512, dtype="<u2").tobytes() + b"\x00")
        assert main(
            ["psnr", "--original", str(a), "--decoded", str(a),
             "--width", "8", "--height", "8", "--bits", "10"]
        ) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {a}: 129 bytes are not whole 2-byte samples\n"

    @pytest.mark.parametrize("bits", ["-1", "0", "17"])
    def test_bits_outside_one_to_sixteen_is_exit_one(self, tmp_path, capsys, bits):
        a = tmp_path / "a.raw"
        write_plane(a, np.zeros((8, 8)))
        assert main(
            ["psnr", "--original", str(a), "--decoded", str(a),
             "--width", "8", "--height", "8", "--bits", bits]
        ) == 1
        assert capsys.readouterr().err == f"error: bits_per_pixel must be 1..16, got {bits}\n"

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_non_positive_plane_size_is_exit_one(self, tmp_path, capsys, sidecar):
        a = tmp_path / "a.raw"
        write_plane(a, np.zeros(25))
        argv = ["psnr", "--original", str(a), "--decoded", str(a)]
        if sidecar:
            (tmp_path / "a.raw.hdr").write_text("width=-5\nheight=-5\n")
        else:
            argv += ["--width", "-5", "--height", "-5"]
        assert main(argv) == 1
        assert "error: width must be at least 1" in capsys.readouterr().err


class TestSpectrum:
    def test_dc_line_peaks_at_row_zero(self, tmp_path, capsys):
        path = tmp_path / "flat.vbi"
        assert main(["synth", "--sigma", "0", "--frames", "1", "--out", str(path)]) == 0
        assert main(["spectrum", "--in", str(path)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        # The 864-sample line's default transform is 1024 points: 513 bins.
        assert header == "frequency_hz,magnitude_db"
        assert len(rows) == 513
        values = [float(r.split(",")[1]) for r in rows]
        assert values[0] == max(values)
        assert values[0] - max(values[1:]) >= 60.0

    def test_tone_peaks_at_nearest_bin(self, tmp_path, capsys):
        path = tmp_path / "tone.vbi"
        assert main(
            ["synth", "--sigma", "0", "--frames", "1",
             "--interferer", "2e6,10,0", "--out", str(path)]
        ) == 0
        assert main(["spectrum", "--in", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "frequency_hz,magnitude_db"
        rows = lines[1:]
        assert len(rows) == 1024 // 2 + 1
        values = [float(r.split(",")[1]) for r in rows]
        peak_row = 1 + int(np.argmax(values[1:]))
        assert peak_row == round(2e6 / 13.5e6 * 1024)
        freq = float(rows[peak_row].split(",")[0])
        assert freq == pytest.approx(peak_row * 13.5e6 / 1024)

        capture = read_capture(path)
        record = LineRecord(samples=capture.samples[0, capture.header.vbi_line_indices[0]])
        spectrum = line_spectrum(record)
        assert [float(r.split(",")[0]) for r in rows] == spectrum.frequencies_hz().tolist()
        assert [float(r.split(",")[1]) for r in rows] == spectrum.magnitudes_db.tolist()

    def test_capture_without_vbi_lines_needs_a_line(self, tmp_path, capsys):
        header = CaptureHeader(samples_per_line=64, lines_per_frame=2, frames=1)
        path = tmp_path / "unlisted.vbi"
        write_capture(CaptureFile(header, np.full((1, 2, 64), 60, dtype=np.uint8)), path)
        assert main(["spectrum", "--in", str(path)]) == 1
        assert capsys.readouterr().err == "error: capture lists no VBI lines; pass --line\n"
        assert main(["spectrum", "--in", str(path), "--line", "1"]) == 0

    def test_fft_size_is_no_flag(self, clean_file, capsys):
        # The transform length follows from the line; the flag is gone.
        assert main(["spectrum", "--in", str(clean_file), "--fft-size", "1024"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --fft-size 1024\n"

    def test_bad_indices_are_exit_one(self, clean_file, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--in", str(clean_file), "--frame", "99", "--out", str(out)]) == 1
        assert main(["spectrum", "--in", str(clean_file), "--line", "9"]) == 1
        assert not out.exists()


class TestPlanValidate:
    def test_valid_plan(self, tmp_path, plan_text, capsys):
        path = tmp_path / "plan.csv"
        path.write_text(plan_text)
        assert main(["plan-validate", "--plan", str(path)]) == 0
        assert "plan ok: 16 channels" in capsys.readouterr().out

    def test_invalid_plan(self, tmp_path, capsys):
        path = tmp_path / "plan.csv"
        path.write_text("designation,name,video_carrier_mhz\nS02,TVR1,112.25\nS02,X,119.25\n")
        assert main(["plan-validate", "--plan", str(path)]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_missing_plan_file_is_io_failure(self, tmp_path):
        assert main(["plan-validate", "--plan", str(tmp_path / "nope.csv")]) == 2

    def test_byte_order_mark_plan_validates_and_scans(self, tmp_path, capsys):
        # A spreadsheet's "CSV UTF-8" starts with a byte-order mark.
        plan = tmp_path / "plan.csv"
        plan.write_bytes(b"\xef\xbb\xbf" + ONE_CHANNEL_PLAN.encode())
        make_captures(tmp_path, ["S02"])
        assert main(["plan-validate", "--plan", str(plan)]) == 0
        assert main(
            ["scan", "--plan", str(plan), "--captures-dir", str(tmp_path), "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "plan ok: 1 channels"
        assert out[2].startswith("S02,TVR1,112.25,") and out[2].endswith(",measured")

    @pytest.mark.parametrize("command", ["plan-validate", "scan"])
    def test_plan_that_is_not_utf8_is_exit_one(self, tmp_path, capsys, command):
        # cp1250 writes the Romanian "ă" as the single byte 0xE3.
        plan = tmp_path / "plan.csv"
        plan.write_bytes(ONE_CHANNEL_PLAN.replace("TVR1", "TVRă").encode("cp1250"))
        args = [command, "--plan", str(plan)]
        if command == "scan":
            args += ["--captures-dir", str(tmp_path)]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        fault = "'utf-8' codec can't decode byte 0xe3 in position 42: invalid continuation byte"
        assert err == f"error: {plan}: {fault}\n"


@pytest.mark.parametrize("command", ["csv", "json", "table", "spectrum"])
def test_stdout_and_out_get_the_same_bytes(tmp_path, capsys, command):
    plan = tmp_path / "plan.csv"
    plan.write_text(ONE_CHANNEL_PLAN.replace("TVR1", "TVRă"), encoding="utf-8")
    make_captures(tmp_path, ["S02"])
    if command == "spectrum":
        args = ["spectrum", "--in", str(tmp_path / "S02.vbi")]
    else:
        args = ["scan", "--plan", str(plan), "--captures-dir", str(tmp_path),
                "--format", command]
    capsys.readouterr()
    assert main(args) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "report.txt"
    assert main([*args, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    # Each scan stamps its own time.
    stamp = re.compile(rb'"timestamp": "[^"]*"')
    assert stamp.sub(b"", stdout) == stamp.sub(b"", out.read_bytes())
    assert stdout.count(b"\n") > 1


@pytest.mark.skipif(sys.platform == "win32", reason="the C locale is a POSIX locale")
@pytest.mark.parametrize(
    "fmt, to_file, status",
    [("csv", True, 0), ("csv", False, 2), ("json", False, 0)],
    ids=["csv-out", "csv-stdout", "json-stdout"],
)
def test_non_ascii_report_in_an_ascii_locale(tmp_path, fmt, to_file, status):
    # The C locale without UTF-8 mode gives stdout the ASCII encoding. --out is
    # UTF-8, as plans are read. JSON escapes the name, so it still reaches that
    # stdout; the CSV cannot, and that is an I/O failure with one error line.
    plan = tmp_path / "plan.csv"
    plan.write_text(ONE_CHANNEL_PLAN.replace("TVR1", "TVRă"), encoding="utf-8")
    out = tmp_path / "scan.csv"
    args = ["scan", "--plan", str(plan), "--captures-dir", str(tmp_path), "--format", fmt]
    if to_file:
        args += ["--out", str(out)]
    env = child_env(LC_ALL="C", PYTHONUTF8="0", PYTHONIOENCODING=None)
    done = subprocess.run([sys.executable, "-m", "vbisnr.cli", *args],
                          capture_output=True, env=env)
    assert done.returncode == status, done.stderr
    if to_file:
        assert "TVRă".encode("utf-8") in out.read_bytes()
    if status == 2:
        assert done.stdout == b""
        (line,) = done.stderr.decode("ascii").splitlines()
        assert line.startswith("error: stdout cannot encode the report")
        assert line.endswith("use --out")
    else:
        assert b"Traceback" not in done.stderr


def test_console_script_entry_exits_with_the_status(clean_file, monkeypatch, capsys):
    # run() is what the installed ``vbisnr`` script calls: it reads sys.argv,
    # freezes the heap so that the shutdown collections skip it, and exits
    # with main()'s status. Unfrozen again, so the suite collects as before.
    for extra, status in (([], 0), (["--filter", "on", "--cutoff-hz", "nan"], 1)):
        argv = ["vbisnr", "measure", "--in", str(clean_file), *extra]
        monkeypatch.setattr(sys, "argv", argv)
        try:
            with pytest.raises(SystemExit) as exit_info:
                run()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert exit_info.value.code == status
    assert "cutoff_hz must be positive" in capsys.readouterr().err


def test_run_keeps_the_interpreters_exit_path(clean_file, capsys):
    # After run() the interpreter still runs atexit handlers and flushes
    # stdout: with PYTHONUNBUFFERED unset, the handler's line reaches the
    # pipe only through that flush. os._exit would lose both.
    argv = ["measure", "--in", str(clean_file), "--json"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    code = ("import atexit, sys\n"
            "from vbisnr.cli import run\n"
            "atexit.register(print, 'atexit handler ran')\n"
            f"sys.argv = ['vbisnr', *{argv!r}]\n"
            "run()\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(PYTHONUNBUFFERED=None))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == report + "atexit handler ran\n"


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_is_an_io_failure(clean_file, unbuffered):
    # The reader has gone before the report is written. Buffered, the write
    # succeeds and only a flush can fail: main() flushes, so that is exit 2
    # with one error line, and the interpreter's own flush at exit stays quiet.
    read_end, write_end = os.pipe()
    os.close(read_end)
    args = [sys.executable, "-m", "vbisnr.cli", "measure", "--in", str(clean_file)]
    try:
        done = subprocess.run(args, stdout=write_end, stderr=subprocess.PIPE,
                              env=child_env(PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write_end)
    assert done.returncode == 2, done.stderr
    broken_pipe = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
    assert done.stderr.decode().splitlines() == [f"error: {broken_pipe}"]


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case,status", [("missing", 2), ("clipped", 0)])
def test_closed_stderr_pipe_keeps_the_outcome(tmp_path, capsys, case, status, unbuffered):
    # The reader of stderr has gone before the first warning or error line.
    # That line is lost; the exit code and the report stay the command's own.
    capture = tmp_path / f"{case}.vbi"
    if case == "clipped":
        assert main(synth_args(capture, black_level=3)) == 0
    argv = ["measure", "--in", str(capture)]
    assert main(argv) == status
    report = capsys.readouterr().out
    assert bool(report) == (status == 0)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "vbisnr.cli", *argv],
                              stdout=subprocess.PIPE, stderr=write_end, text=True,
                              env=child_env(PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write_end)
    assert (done.returncode, done.stdout) == (status, report)


def test_unknown_flag_is_exit_one(capsys):
    assert main(["measure", "--in", "x", "--bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only oracle; importing it costs over a second per call.
    src = str(Path(vbisnr.__file__).parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import vbisnr.cli; "
        "print('scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
