"""Channel plans, scan orchestration, and report rendering."""

from __future__ import annotations

import re

import numpy as np
import pytest

from vbisnr import (
    CaptureFile,
    CaptureHeader,
    ChannelEntry,
    ChannelPlan,
    InvalidInputError,
    MeasureConfig,
    Measurement,
    SynthConfig,
    parse_plan,
    render_report,
    report_from_json,
    scan,
    synthesize,
)
from vbisnr.dsp import FilterSpec
from vbisnr.scan import ScanReport, ScanRow

from conftest import SIGMA


def quick_config(**kw):
    return SynthConfig(
        noise_sigma=SIGMA, frames=10, samples_per_line=400, **kw
    )


class TestParsePlan:
    def test_table_fixture_parses(self, plan_text):
        plan = parse_plan(plan_text)
        assert len(plan) == 16
        assert plan.get("S02").video_carrier_mhz == 112.25
        assert plan.get("S02").name == "TVR1"
        assert plan.get("C09").video_carrier_mhz == 203.25
        assert plan.get("C06") == ChannelEntry("C06", "ProTV", 182.25)

    def test_single_row(self):
        plan = parse_plan("designation,name,video_carrier_mhz\nS02,TVR1,112.25\n")
        assert plan.entries == (ChannelEntry("S02", "TVR1", 112.25),)

    def test_duplicate_designation_rejected(self):
        text = (
            "designation,name,video_carrier_mhz\n"
            "S02,TVR1,112.25\nS02,Other,119.25\n"
        )
        with pytest.raises(InvalidInputError, match="duplicate channel designation 'S02'"):
            parse_plan(text)

    def test_a_bad_line_after_a_duplicate_is_reported(self):
        # The plan's designations are checked once its lines are read.
        text = (
            "designation,name,video_carrier_mhz\n"
            "S02,TVR1,112.25\nS02,Other,119.25\nS03,TVR2,oops\n"
        )
        with pytest.raises(InvalidInputError, match="^plan line 4: bad frequency 'oops'$"):
            parse_plan(text)

    def test_malformed_row_names_line(self):
        text = "designation,name,video_carrier_mhz\nS02,TVR1,112.25\nbroken row\n"
        with pytest.raises(InvalidInputError, match="line 3"):
            parse_plan(text)

    def test_bad_frequency_named(self):
        text = "designation,name,video_carrier_mhz\nS02,TVR1,not-a-number\n"
        with pytest.raises(InvalidInputError, match="line 2"):
            parse_plan(text)

    def test_out_of_range_frequency(self):
        text = "designation,name,video_carrier_mhz\nS02,TVR1,39.9\n"
        with pytest.raises(InvalidInputError, match=r"\(40, 1000\)"):
            parse_plan(text)

    @pytest.mark.parametrize("designation", ["../other/S02", "/abs/S02", "..\\other\\S02"])
    def test_designation_with_a_path_separator_rejected(self, designation):
        text = f"designation,name,video_carrier_mhz\n{designation},TVR1,112.25\n"
        with pytest.raises(InvalidInputError, match="line 2: .* may not contain / or"):
            parse_plan(text)

    @pytest.mark.parametrize("text", ["", "\n\n", "designation,name,video_carrier_mhz\n"])
    def test_empty_plan_rejected(self, text):
        with pytest.raises(InvalidInputError, match="^empty channel plan$"):
            parse_plan(text)

    def test_empty_designation_rejected(self):
        text = "designation,name,video_carrier_mhz\n ,TVR1,112.25\n"
        with pytest.raises(InvalidInputError, match="line 2: channel designation may not be empty"):
            parse_plan(text)

    def test_header_required(self):
        with pytest.raises(InvalidInputError, match="header"):
            parse_plan("S02,TVR1,112.25\n")


class TestChannelPlan:
    ENTRY = ChannelEntry("S02", "TVR1", 112.25)

    def test_entries_are_held_as_a_tuple(self):
        other = ChannelEntry("S03", "TVR2", 119.25)
        plan = ChannelPlan(entries=[self.ENTRY, other])
        assert plan.entries == (self.ENTRY, other)
        assert len(plan) == 2 and plan.get("S03") is other

    def test_duplicate_designation_rejected(self):
        twin = ChannelEntry("S02", "Other", 119.25)
        with pytest.raises(InvalidInputError, match="^duplicate channel designation 'S02'$"):
            ChannelPlan(entries=(self.ENTRY, twin))

    @pytest.mark.parametrize("entry", ["S02", ("S02", "TVR1", 112.25), None])
    def test_entry_must_be_a_channel_entry(self, entry):
        with pytest.raises(InvalidInputError, match="a plan entry must be a ChannelEntry"):
            ChannelPlan(entries=(self.ENTRY, entry))


@pytest.fixture(scope="module")
def small_plan():
    return parse_plan(
        "designation,name,video_carrier_mhz\n"
        "S02,TVR1,112.25\nS03,TVR2,119.25\nC06,ProTV,182.25\n"
    )


class TestScan:
    def test_clean_channels_read_forty_db_both_ways(self, small_plan):
        source = {
            e.designation: synthesize(quick_config(seed=i, channel_label=e.designation))
            for i, e in enumerate(small_plan.entries)
        }
        report = scan(small_plan, source)
        assert [r.status for r in report.rows] == ["measured"] * 3
        for row in report.rows:
            assert abs(row.snr1.snr_db - 40.0) < 0.5
            assert abs(row.snr2.snr_db - 40.0) < 0.5
            assert not row.snr1.filtered and row.snr2.filtered

    def test_interference_separates_snr1_from_snr2(self, small_plan):
        amplitudes = {"S02": 10.0, "S03": 3.0, "C06": 20.0}
        source = {
            d: synthesize(quick_config(seed=5, interferers=((5.5e6, a, 0.0),)))
            for d, a in amplitudes.items()
        }
        report = scan(small_plan, source)
        snr1 = {r.channel.designation: r.snr1.snr_db for r in report.rows}
        snr2 = {r.channel.designation: r.snr2.snr_db for r in report.rows}
        for d in amplitudes:
            assert abs(snr2[d] - 40.0) < 1.0
            assert snr2[d] >= snr1[d] - 0.5
        # unfiltered readings vary with the interferer level
        assert snr1["C06"] < snr1["S02"] < snr1["S03"]
        assert snr1["S03"] - snr1["C06"] > 5.0

    def test_missing_captures_become_no_capture_rows(self, plan_text):
        plan = parse_plan(plan_text)
        designations = [e.designation for e in plan.entries][:12]
        source = {d: synthesize(quick_config(seed=1)) for d in designations}
        report = scan(plan, source)
        statuses = [r.status for r in report.rows]
        assert statuses.count("measured") == 12
        assert statuses.count("no-capture") == 4
        freqs = [r.channel.video_carrier_mhz for r in report.rows]
        assert freqs == sorted(freqs)

    def test_unmeasurable_capture_is_skipped(self, small_plan):
        header = CaptureHeader(
            samples_per_line=64, lines_per_frame=2, frames=1, vbi_line_indices=()
        )
        dead = CaptureFile(header=header, samples=np.zeros((1, 2, 64), dtype=np.int32))
        source = {"S02": dead, "S03": synthesize(quick_config(seed=2))}
        report = scan(small_plan, source)
        by_designation = {r.channel.designation: r.status for r in report.rows}
        assert by_designation == {
            "S02": "unsynchronized-skipped",
            "S03": "measured",
            "C06": "no-capture",
        }

    def test_row_order_ignores_source_ordering(self, small_plan):
        source = {
            e.designation: synthesize(quick_config(seed=3)) for e in small_plan.entries
        }
        flipped = dict(reversed(list(source.items())))
        assert scan(small_plan, source, timestamp="t") == scan(
            small_plan, flipped, timestamp="t"
        )

    def test_removing_one_capture_changes_only_that_row(self, small_plan):
        source = {
            e.designation: synthesize(quick_config(seed=4)) for e in small_plan.entries
        }
        full = scan(small_plan, source, timestamp="t")
        del source["S03"]
        partial = scan(small_plan, source, timestamp="t")
        for before, after in zip(full.rows, partial.rows):
            if before.channel.designation == "S03":
                assert after.status == "no-capture"
            else:
                assert before == after

    def test_empty_plan_rejected(self):
        with pytest.raises(InvalidInputError, match="empty"):
            scan(ChannelPlan(entries=()), {})

    def test_cutoff_at_nyquist_ends_the_scan(self, small_plan):
        with pytest.raises(InvalidInputError, match=r"reaches Nyquist \(6750000.0 Hz\)"):
            scan(small_plan, {"S02": synthesize(quick_config(seed=1))}, FilterSpec(cutoff_hz=7e6))

    @pytest.mark.parametrize(
        "filt", [None, MeasureConfig(filter=FilterSpec())], ids=["None", "MeasureConfig"]
    )
    def test_filter_must_be_a_filter_spec(self, small_plan, filt):
        with pytest.raises(InvalidInputError, match="must be a FilterSpec"):
            scan(small_plan, {}, filt)


class TestScanRow:
    @pytest.mark.parametrize(
        "snr1,snr2,status,message",
        [
            (None, "snr2", "measured", "needs an unfiltered snr1 and a filtered snr2"),
            ("snr1", "snr2", "no-capture", "a no-capture row carries no measurements"),
            ("snr2", "snr1", "measured", "needs an unfiltered snr1 and a filtered snr2"),
        ],
        ids=["measured-without-snr1", "no-capture-with-measurements", "swapped"],
    )
    def test_status_must_match_measurements(self, snr1, snr2, status, message):
        report = hand_built_report()
        pair = {"snr1": report.rows[0].snr1, "snr2": report.rows[0].snr2, None: None}
        with pytest.raises(InvalidInputError, match=message):
            ScanRow(report.rows[0].channel, pair[snr1], pair[snr2], status)


def hand_built_report():
    entry = ChannelEntry("S02", "TVR1", 112.25)
    snr1 = Measurement(
        v_ref=60.0, v_n=7.4, snr_db=29.4, n_samples=44580, filtered=False, frames_used=30,
    )
    snr2 = Measurement(
        v_ref=60.0, v_n=2.2, snr_db=40.1, n_samples=38700, filtered=True, frames_used=30,
    )
    return ScanReport(
        rows=(ScanRow(entry, snr1, snr2, "measured"),),
        config=MeasureConfig(filter=FilterSpec()),
        timestamp="2026-01-01T00:00:00+00:00",
    )


PINNED_JSON = """\
{
  "timestamp": "2026-01-01T00:00:00+00:00",
  "config": {
    "full_scale": null,
    "max_frames": 30,
    "snr_cap_db": 100.0,
    "filter": {
      "cutoff_hz": 1750000.0,
      "transition_hz": 500000.0,
      "stopband_atten_db": 60.0,
      "kind": "windowed-sinc-lowpass"
    }
  },
  "channels": [
    {
      "designation": "S02",
      "name": "TVR1",
      "video_carrier_mhz": 112.25,
      "status": "measured",
      "snr1": {
        "v_ref": 60.00493494840736,
        "v_n": 0.30000000000000004,
        "snr_db": 57.266457202409114,
        "error_margin": 0.0014208597855814762,
        "n_samples": 44580,
        "filtered": false,
        "frames_used": 30,
        "saturated": false
      },
      "snr2": {
        "v_ref": 60.00493494840736,
        "v_n": 0.0,
        "snr_db": 100.0,
        "error_margin": 0.0,
        "n_samples": 38700,
        "filtered": true,
        "frames_used": 30,
        "saturated": true
      }
    },
    {
      "designation": "S05",
      "name": "TV5Monde",
      "video_carrier_mhz": 133.25,
      "status": "no-capture",
      "snr1": null,
      "snr2": null
    }
  ]
}
"""

# PINNED_JSON with the measured row's snr1 and snr2 objects swapped.
SWAPPED_JSON = re.sub(r'"snr([12])"', lambda m: f'"snr{3 - int(m[1])}"', PINNED_JSON)
# PINNED_JSON without the filter its measured row's snr2 was taken with.
NULL_FILTER_JSON = re.sub(r'"filter": \{[^}]*\}', '"filter": null', PINNED_JSON)


class TestRender:
    def test_table_row_matches_published_precision(self):
        text = render_report(hand_built_report(), "table")
        row = text.splitlines()[1]
        assert row.split()[:3] == ["S02", "29.4", "40.1"]

    def test_table_marks_missing_measurements(self):
        report = ScanReport(
            rows=(ScanRow(ChannelEntry("S05", "X", 133.25), None, None, "no-capture"),),
            config=MeasureConfig(),
            timestamp="t",
        )
        row = render_report(report, "table").splitlines()[1]
        assert row.split() == ["S05", "-", "-", "no-capture"]

    def test_empty_report_renders_header_only_csv(self):
        report = ScanReport(rows=(), config=MeasureConfig(), timestamp="t")
        text = render_report(report, "csv")
        assert text == (
            "designation,name,freq_mhz,snr1_db,snr2_db,"
            "error1_db,error2_db,n_samples,status\n"
        )

    def test_csv_keeps_full_precision(self, small_plan):
        source = {"S02": synthesize(quick_config(seed=6))}
        report = scan(small_plan, source)
        lines = render_report(report, "csv").splitlines()
        fields = lines[1].split(",")
        assert fields[0] == "S02"
        assert float(fields[3]) == report.rows[0].snr1.snr_db
        assert float(fields[4]) == report.rows[0].snr2.snr_db
        assert int(fields[7]) == report.rows[0].snr1.n_samples

    def test_json_round_trip(self, small_plan):
        source = {
            "S02": synthesize(quick_config(seed=7)),
            "C06": synthesize(quick_config(seed=8)),
        }
        report = scan(small_plan, source, timestamp="2026-02-02T00:00:00+00:00")
        assert report_from_json(render_report(report, "json")) == report

    def test_json_bytes_are_pinned(self):
        # Key order and float repr are part of the format: a round trip
        # alone would not see either change. snr2 is saturated.
        snr1 = Measurement(
            v_ref=60.00493494840736, v_n=0.1 + 0.2, snr_db=57.266457202409114,
            n_samples=44580, filtered=False, frames_used=30,
        )
        snr2 = Measurement(
            v_ref=60.00493494840736, v_n=0.0, snr_db=100.0,
            n_samples=38700, filtered=True, frames_used=30,
        )
        report = ScanReport(
            rows=(
                ScanRow(ChannelEntry("S02", "TVR1", 112.25), snr1, snr2, "measured"),
                ScanRow(ChannelEntry("S05", "TV5Monde", 133.25), None, None, "no-capture"),
            ),
            config=MeasureConfig(filter=FilterSpec(cutoff_hz=1.75e6)),
            timestamp="2026-01-01T00:00:00+00:00",
        )
        text = render_report(report, "json")
        assert text == PINNED_JSON
        assert report_from_json(text) == report

    @pytest.mark.parametrize(
        "good,bad",
        [
            ('"v_n": 0.30000000000000004', '"v_n": "abc"'),
            ('"snr_cap_db": 100.0', '"snr_cap_db": "x"'),
            # Fixed settings: one value, in its type.
            ('"max_frames": 30', '"max_frames": 29'),
            ('"full_scale": null', '"full_scale": 219.0'),
            ('"snr_cap_db": 100.0', '"snr_cap_db": 77.0'),
            ('"snr_cap_db": 100.0', '"snr_cap_db": 100'),
            ('"filtered": false', '"filtered": "false"'),
            ('"saturated": true', '"saturated": 1'),
            # Worked-out fields that disagree with v_n and n_samples.
            ('"saturated": false', '"saturated": true'),
            ('"error_margin": 0.0014208597855814762', '"error_margin": 1e-17'),
            ('"error_margin": 0.0,', '"error_margin": 0,'),
            ('"kind": "windowed-sinc-lowpass"', '"kind": "butterworth"'),
            ('"transition_hz": 500000.0', '"transition_hz": 400000.0'),
            ('"stopband_atten_db": 60.0', '"stopband_atten_db": 60'),
            ('"n_samples": 44580', '"n_samples": 44580.7'),
            ('"frames_used": 30', '"frames_used": "30"'),
            ('"designation": "S02"', '"designation": 5'),
            ('"name": "TVR1"', '"name": null'),
            ('"timestamp": "2026-01-01T00:00:00+00:00"', '"timestamp": 7'),
            ('"status": "measured"', '"status": 3'),
            ('"status": "measured"', '"status": "bogus"'),
            ('"n_samples": 44580', '"n_samples": 0'),
            ('"frames_used": 30', '"frames_used": 0'),
            # A measured row whose snr1 is null: the later duplicate key wins.
            ('"saturated": true\n      }', '"saturated": true\n      },\n      "snr1": null'),
            ('"status": "measured"', '"status": "no-capture"'),
            pytest.param(PINNED_JSON, SWAPPED_JSON, id="snr1-snr2-swapped"),
            pytest.param(PINNED_JSON, NULL_FILTER_JSON, id="measured-without-filter"),
        ],
    )
    def test_malformed_report_numbers_rejected(self, good, bad):
        assert good in PINNED_JSON
        with pytest.raises(InvalidInputError, match="not a valid scan report"):
            report_from_json(PINNED_JSON.replace(good, bad))

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown report format"):
            render_report(hand_built_report(), "xml")
