"""The one rule that admits numbers, at every setting, header, line and report field.

Each site takes a finite number in its range: a bool (numpy's too), numeric text, NaN,
infinity, a value below the range or None is invalid input that names the field, while
numpy scalars and a Python int where a float is expected are numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from vbisnr import (
    CaptureFile,
    CaptureHeader,
    ChannelEntry,
    FilterSpec,
    InvalidInputError,
    LineRecord,
    MeasureConfig,
    Measurement,
    SynthConfig,
    design_lowpass,
    error_margin,
    error_margin_db,
    extract_vbi_lines,
    line_spectrum,
    noise_rms,
    psnr,
    render_report,
    report_from_json,
    snr_db,
    synthesize,
    write_capture,
)
from vbisnr.cli import main
from vbisnr.scan import ScanReport, ScanRow

ROW = np.full(64, 60, dtype=np.uint8)
CAPTURE = synthesize(SynthConfig(frames=1, samples_per_line=64))
BLOCK = extract_vbi_lines(CAPTURE)
MEASUREMENT = Measurement(60.0, 2.0, 40.0, 44580, False, 30)
REPORT = json.loads(render_report(
    ScanReport(
        rows=(ScanRow(ChannelEntry("S02", "TVR1", 112.25), None, None, "no-capture"),),
        config=MeasureConfig(),
        timestamp="2026-01-01T00:00:00+00:00",
    ),
    "json",
))


def _report_with_carrier(value):
    payload = json.loads(json.dumps(REPORT))
    payload["channels"][0]["video_carrier_mhz"] = value
    return report_from_json(json.dumps(payload, default=float))  # np.float32 as a number


def _measurement_with(key):
    return lambda value: Measurement.from_dict({**asdict(MEASUREMENT), key: value})


def _config_with_cutoff(value):
    config = asdict(MeasureConfig(filter=FilterSpec()))
    return MeasureConfig.from_dict({**config, "filter": {**config["filter"], "cutoff_hz": value}})


def _built_with(key):
    given = {f.name: getattr(MEASUREMENT, f.name) for f in fields(Measurement) if f.init}
    return lambda value: Measurement(**{**given, key: value})


# (call with the value, the field its message names, a value below the range
# or None, a valid value). A float site also takes that value as an int and
# as np.float32; an integer site takes it as np.int64.
FLOAT_SITES = {
    "FilterSpec.cutoff_hz": (lambda v: FilterSpec(cutoff_hz=v), "cutoff_hz", 0, 2e6),
    "FilterSpec.from_dict": (
        lambda v: FilterSpec.from_dict({**asdict(FilterSpec()), "cutoff_hz": v}),
        "cutoff_hz", -1, 2e6),
    "design_lowpass": (
        lambda v: design_lowpass(FilterSpec(), v), "sample_rate_hz", 0, 13.5e6),
    "MeasureConfig.from_dict": (_config_with_cutoff, "cutoff_hz", -1, 2e6),
    "Measurement.from_dict.v_ref": (_measurement_with("v_ref"), "v_ref", None, 60),
    "Measurement.from_dict.v_n": (_measurement_with("v_n"), "v_n", -1, 2),
    "Measurement.from_dict.snr_db": (_measurement_with("snr_db"), "snr_db", None, 40),
    "Measurement.v_ref": (_built_with("v_ref"), "v_ref", None, 60),
    "Measurement.v_n": (_built_with("v_n"), "v_n", -1, 2),
    "Measurement.snr_db": (_built_with("snr_db"), "snr_db", None, 40),
    "LineRecord.sample_rate_hz": (
        lambda v: LineRecord(ROW, sample_rate_hz=v), "sample_rate_hz", 0, 13.5e6),
    "LineBlock.sample_rate_hz": (
        lambda v: replace(BLOCK, sample_rate_hz=v), "sample_rate_hz", 0, 13.5e6),
    "CaptureHeader.sample_rate_hz": (
        lambda v: CaptureHeader(64, 2, 1, sample_rate_hz=v), "sample_rate_hz", 0, 13.5e6),
    "SynthConfig.sample_rate_hz": (
        lambda v: SynthConfig(sample_rate_hz=v), "sample_rate_hz", 0, 13.5e6),
    "SynthConfig.black_level": (
        lambda v: SynthConfig(black_level=v), "black_level", -1, 60),
    "SynthConfig.noise_sigma": (
        lambda v: SynthConfig(noise_sigma=v), "noise_sigma", -1, 2),
    "SynthConfig.interferer_frequency": (
        lambda v: SynthConfig(interferers=((v, 1.0, 0.0),)), "frequency_hz", 0, 5.5e6),
    "SynthConfig.interferer_amplitude": (
        lambda v: SynthConfig(interferers=((5.5e6, v, 0.0),)), "amplitude", -1, 10),
    "SynthConfig.interferer_phase": (
        lambda v: SynthConfig(interferers=((5.5e6, 1.0, v),)), "phase", None, 1),
    "ChannelEntry.video_carrier_mhz": (
        lambda v: ChannelEntry("S02", "TVR1", v), "carrier", 40, 112.25),
    "report_from_json.video_carrier_mhz": (
        _report_with_carrier, "carrier", 30, 112.25),
    "noise_rms.v_ref": (lambda v: noise_rms(LineRecord(ROW), v), "v_ref", None, 60),
    "snr_db.v_n": (snr_db, "noise RMS", -1, 2),
    "error_margin.v_n": (lambda v: error_margin(v, 100), "noise RMS", -1, 2),
}
INT_SITES = {
    "LineRecord.line_index": (lambda v: LineRecord(ROW, line_index=v), "line_index", -1, 3),
    "LineRecord.frame_index": (
        lambda v: LineRecord(ROW, frame_index=v), "frame_index", -1, 3),
    "LineRecord.window_start": (lambda v: LineRecord(ROW, window=(v, 60)), "window", -1, 8),
    "LineRecord.window_end": (lambda v: LineRecord(ROW, window=(8, v)), "window", -1, 60),
    "LineBlock.window": (lambda v: replace(BLOCK, window=(v, 60)), "window", -1, 8),
    "LineRecord.bit_depth": (lambda v: LineRecord(ROW, bit_depth=v), "bit_depth", 7, 10),
    "LineBlock.bit_depth": (lambda v: replace(BLOCK, bit_depth=v), "bit_depth", 7, 10),
    "SynthConfig.samples_per_line": (
        lambda v: SynthConfig(samples_per_line=v), "samples_per_line", 15, 64),
    "SynthConfig.lines_per_frame": (
        lambda v: SynthConfig(lines_per_frame=v), "lines_per_frame", 0, 2),
    "SynthConfig.frames": (lambda v: SynthConfig(frames=v), "frames", 0, 1),
    "SynthConfig.bit_depth": (lambda v: SynthConfig(bit_depth=v), "bit_depth", 7, 10),
    "Measurement.n_samples": (_built_with("n_samples"), "n_samples", 1, 44580),
    "Measurement.frames_used": (_built_with("frames_used"), "frames_used", 0, 30),
    "error_margin.n_samples": (lambda v: error_margin(2.0, v), "n_samples", 0, 100),
    "error_margin_db.n_samples": (lambda v: error_margin_db(v), "n_samples", 0, 100),
    "snr_db.bit_depth": (lambda v: snr_db(1.0, v), "bit_depth", 7, 10),
}


def _rejected():
    for name, (call, field, below, _) in {**FLOAT_SITES, **INT_SITES}.items():
        for value in (True, np.True_, "1.5", math.nan, math.inf, below):
            if value is not None:
                yield pytest.param(call, field, value, id=f"{name}-{value!r}")
    # None is no number, and no site takes it as a default.
    for name, (call, field, _, _) in {**FLOAT_SITES, **INT_SITES}.items():
        yield pytest.param(call, field, None, id=f"{name}-None")


def _accepted():
    for sites, kinds in ((FLOAT_SITES, (int, np.float32)), (INT_SITES, (np.int64,))):
        for name, (call, _, _, good) in sites.items():
            for kind in kinds:
                yield pytest.param(call, kind(good), id=f"{name}-{kind.__name__}")


@pytest.mark.parametrize("call,field,value", _rejected())
def test_non_number_or_out_of_range_names_the_field(call, field, value):
    with pytest.raises(InvalidInputError, match=field):
        call(value)


@pytest.mark.parametrize("call,value", _accepted())
def test_numpy_scalars_and_ints_are_numbers(call, value):
    call(value)


PLANE = np.zeros((2, 2), dtype=np.uint8)

# (call with the value, the field its message names, the last values the range
# takes, the first it refuses). An integer range is held at both of its ends; a
# float range at its bound where the end is open, and at the bound and the float
# just past it where the end is closed.
RANGES = {
    "bit_depth": (lambda v: LineRecord(ROW, bit_depth=v), "bit_depth", (8, 10), (7, 11)),
    "bits_per_pixel": (
        lambda v: psnr(PLANE, PLANE, bits_per_pixel=v), "bits_per_pixel", (1, 16), (0, 17)),
    "samples_per_line": (lambda v: CaptureHeader(v, 2, 1), "samples_per_line", (16,), (15,)),
    "lines_per_frame": (lambda v: CaptureHeader(64, v, 1), "lines_per_frame", (1,), (0,)),
    "frames": (lambda v: CaptureHeader(64, 2, v), "frames", (1,), (0,)),
    "vbi_line_indices": (
        lambda v: CaptureHeader(64, 2, 1, vbi_line_indices=(v,)), "(?i)vbi.line.ind",
        (0, 1), (-1, 2)),
    "black_level": (
        lambda v: SynthConfig(black_level=v), "black_level",
        (0.0, 255.0), (np.nextafter(0.0, -1.0), np.nextafter(255.0, 256.0))),
    "black_level_10bit": (
        lambda v: SynthConfig(bit_depth=10, black_level=v), "black_level",
        (0.0, 1023.0), (np.nextafter(0.0, -1.0), np.nextafter(1023.0, 1024.0))),
    "video_carrier_mhz": (
        lambda v: ChannelEntry("S02", "TVR1", v), "carrier",
        (np.nextafter(40.0, 41.0), np.nextafter(1000.0, 999.0)), (40.0, 1000.0)),
}
# The same for a flag checked against its limit or the capture: exit 1 and
# one error line. The capture holds 2 frames of 2 lines.
CLI_RANGES = {
    "measure --frames": ("measure", "--frames", (1, 30), (0, 31)),
    "spectrum --frame": ("spectrum", "--frame", (0, 1), (-1, 2)),
    "spectrum --line": ("spectrum", "--line", (0, 1), (-1, 2)),
}


def _ends(sites, index):
    for name, site in sites.items():
        for value in site[index]:
            yield pytest.param(name, value, id=f"{name}-{value!r}")


@pytest.mark.parametrize("name,value", _ends(RANGES, 2))
def test_range_ends_are_admitted(name, value):
    RANGES[name][0](value)


@pytest.mark.parametrize("name,value", _ends(RANGES, 3))
def test_first_values_past_a_range_name_the_field(name, value):
    call, field, _, _ = RANGES[name]
    with pytest.raises(InvalidInputError, match=field):
        call(value)


@pytest.fixture(scope="module")
def two_frames(tmp_path_factory):
    path = tmp_path_factory.mktemp("capture") / "two.vbi"
    write_capture(synthesize(SynthConfig(frames=2, samples_per_line=64, noise_sigma=2)), path)
    return str(path)


@pytest.mark.parametrize("name,value", _ends(CLI_RANGES, 2))
def test_flag_range_ends_are_admitted(two_frames, capsys, name, value):
    command, flag, _, _ = CLI_RANGES[name]
    assert main([command, "--in", two_frames, f"{flag}={value}"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name,value", _ends(CLI_RANGES, 3))
def test_flag_values_past_a_range_are_invalid_input(two_frames, capsys, name, value):
    command, flag, _, _ = CLI_RANGES[name]
    assert main([command, "--in", two_frames, f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag.lstrip("-") in err


# A field a record works out from the others, or that has one legal value, is
# no argument. A report whose value disagrees with it, in value or in type, is
# invalid: every record reads back by the same rule.
DISAGREEING = [
    (MEASUREMENT, "error_margin", (True, np.True_, "1.5", math.nan, math.inf, -1, 1e-17)),
    (MEASUREMENT, "saturated", (True, 0, "false", None)),
    (MeasureConfig(), "max_frames", (29, 2.5, 2.0, 30.0, True, "30", None)),
    (MeasureConfig(), "full_scale", (219.0, 0, 0.0, math.nan, math.inf, -math.inf, "null", False)),
    (MeasureConfig(), "snr_cap_db", (77.0, 100, "100.0", math.nan, math.inf, -math.inf, None)),
    (FilterSpec(), "transition_hz", (400000.0, 500000, "500000.0", math.nan, None)),
    (FilterSpec(), "stopband_atten_db", (40.0, 60, True, None)),
    (FilterSpec(), "kind", ("butterworth", None, 1)),
]


@pytest.mark.parametrize(
    "record,key,value",
    [
        pytest.param(record, key, value, id=f"{type(record).__name__}.{key}-{value!r}")
        for record, key, values in DISAGREEING
        for value in values
    ],
)
def test_worked_out_field_that_disagrees_is_rejected(record, key, value):
    with pytest.raises(InvalidInputError, match=f"{key} .* disagrees with the computed"):
        type(record).from_dict({**asdict(record), key: value})


def _write_header(tmp_path, **kw):
    header = CaptureHeader(64, 2, 1, **kw)
    write_capture(CaptureFile(header, np.zeros((1, 2, 64), dtype=np.uint8)), tmp_path / "c.vbi")


# Text fields take a str and nothing else, checked when the header is built.
TEXT_CASES = {
    "CaptureHeader.channel_label": (
        lambda _: CaptureHeader(64, 2, 1, channel_label=5), "channel_label must be a string"),
    "SynthConfig.channel_label": (
        lambda _: SynthConfig(channel_label=None), "channel_label must be a string"),
    "write_capture.extra_value": (
        lambda tmp: _write_header(tmp, extra={"k": 5}), "'k'=5 is not a pair of strings"),
    "CaptureHeader.channel_label_newline": (
        lambda _: CaptureHeader(64, 2, 1, channel_label="TVR1\nframes=2"),
        "channel_label may not contain newlines"),
    "CaptureHeader.extra_key": (
        lambda _: CaptureHeader(64, 2, 1, extra={5: "v"}), "5='v' is not a pair of strings"),
    "CaptureHeader.extra_not_a_mapping": (
        lambda _: CaptureHeader(64, 2, 1, extra=5), "extra must map strings to strings"),
    "CaptureHeader.extra_newline": (
        lambda _: CaptureHeader(64, 2, 1, extra={"k": "a\nb"}), "'k' is not encodable"),
    "CaptureHeader.extra_shadows": (
        lambda _: CaptureHeader(64, 2, 1, extra={"frames": "2"}), "shadows a header field"),
}


@pytest.mark.parametrize("call,message", TEXT_CASES.values(), ids=TEXT_CASES)
def test_header_text_fields_must_be_strings(tmp_path, call, message):
    with pytest.raises(InvalidInputError, match=message):
        call(tmp_path)


@pytest.mark.parametrize("sync", ["no", 1, None, np.True_])
def test_sync_must_be_a_bool(sync):
    with pytest.raises(InvalidInputError, match="sync must be true or false"):
        SynthConfig(sync=sync)


@pytest.mark.parametrize("interferers", [(5.5e6, 10.0, 0.0), 5, ((5.5e6, 10.0),), "abc"])
def test_interferers_must_be_triples(interferers):
    with pytest.raises(InvalidInputError, match=r"\(frequency_hz, amplitude, phase\) triples"):
        SynthConfig(interferers=interferers)


def test_interferers_are_held_as_tuples():
    config = SynthConfig(interferers=[[5.5e6, 10.0, 0.0]])
    assert config.interferers == ((5.5e6, 10.0, 0.0),)
    assert config == SynthConfig(interferers=((5.5e6, 10.0, 0.0),))


def test_synth_config_keeps_what_it_admits():
    given = SynthConfig(
        black_level=np.float32(60.5), noise_sigma=np.int64(2),
        interferers=[[np.float32(5.5e6), 10, np.int64(0)]], samples_per_line=np.int64(64),
        sample_rate_hz=13_500_000, bit_depth=np.int64(8), frames=np.int64(1),
        lines_per_frame=np.int64(2),
    )
    plain = SynthConfig(
        black_level=60.5, noise_sigma=2.0, interferers=((5.5e6, 10.0, 0.0),),
        samples_per_line=64, frames=1,
    )
    assert given == plain
    for f in fields(SynthConfig):
        assert type(getattr(given, f.name)) is type(getattr(plain, f.name)), f.name
    assert all(type(v) is float for v in given.interferers[0])
    a, b = synthesize(given), synthesize(plain)
    assert a.header == b.header and np.array_equal(a.samples, b.samples)
