"""Channel plans and paired unfiltered/filtered scan reports.

A plan maps channel designations to video carrier frequencies; a scan
measures every channel that has capture data and reports the unfiltered
(snr1) and low-pass-filtered (snr2) SNR side by side, both derived from
the same capture so RF conditions cannot drift between the two readings.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Mapping

from .capture import CaptureFile, extract_vbi_lines
from .dsp import FilterSpec
from .errors import InvalidInputError, MeasurementImpossibleError, _as_float, _from_dict
from .measure import MeasureConfig, Measurement, accumulate, error_margin_db

STATUS_MEASURED = "measured"
STATUS_NO_CAPTURE = "no-capture"
STATUS_SKIPPED = "unsynchronized-skipped"
_STATUSES = (STATUS_MEASURED, STATUS_NO_CAPTURE, STATUS_SKIPPED)

_CSV_COLUMNS = (
    "designation",
    "name",
    "freq_mhz",
    "snr1_db",
    "snr2_db",
    "error1_db",
    "error2_db",
    "n_samples",
    "status",
)


@dataclass(frozen=True)
class ChannelEntry:
    designation: str
    name: str
    video_carrier_mhz: float

    def __post_init__(self) -> None:
        if not (isinstance(self.designation, str) and isinstance(self.name, str)):
            raise InvalidInputError("channel designation and name must be strings")
        if not self.designation:
            raise InvalidInputError("channel designation may not be empty")
        # A channel's capture is <designation>.vbi inside the captures directory.
        if "/" in self.designation or "\\" in self.designation:
            raise InvalidInputError(
                f"channel designation {self.designation!r} may not contain / or \\"
            )
        carrier = _as_float(self.video_carrier_mhz, "video_carrier_mhz")
        if not 40.0 < carrier < 1000.0:
            raise InvalidInputError(
                f"channel {self.designation}: carrier {carrier} MHz "
                "outside the supported (40, 1000) MHz range"
            )
        object.__setattr__(self, "video_carrier_mhz", carrier)


@dataclass(frozen=True)
class ChannelPlan:
    """One or more :class:`ChannelEntry`, each designation once."""

    entries: tuple[ChannelEntry, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        seen: set[str] = set()
        for entry in entries:
            if not isinstance(entry, ChannelEntry):
                raise InvalidInputError(f"a plan entry must be a ChannelEntry, got {entry!r}")
            if entry.designation in seen:
                raise InvalidInputError(f"duplicate channel designation {entry.designation!r}")
            seen.add(entry.designation)
        if not entries:
            raise InvalidInputError("empty channel plan")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, designation: str) -> ChannelEntry | None:
        for entry in self.entries:
            if entry.designation == designation:
                return entry
        return None


@dataclass(frozen=True)
class ScanRow:
    channel: ChannelEntry
    snr1: Measurement | None
    snr2: Measurement | None
    status: str

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise InvalidInputError(f"unknown scan status {self.status!r}")
        if self.status == STATUS_MEASURED:
            if not (
                isinstance(self.snr1, Measurement) and not self.snr1.filtered
                and isinstance(self.snr2, Measurement) and self.snr2.filtered
            ):
                raise InvalidInputError(
                    "a measured row needs an unfiltered snr1 and a filtered snr2"
                )
        elif self.snr1 is not None or self.snr2 is not None:
            raise InvalidInputError(f"a {self.status} row carries no measurements")


@dataclass(frozen=True)
class ScanReport:
    rows: tuple[ScanRow, ...]
    config: MeasureConfig
    timestamp: str

    def __post_init__(self) -> None:
        if not isinstance(self.timestamp, str):
            raise InvalidInputError(f"timestamp must be a string, got {self.timestamp!r}")
        if self.config.filter is None and any(r.status == STATUS_MEASURED for r in self.rows):
            raise InvalidInputError("a report with measured rows needs the snr2 filter")
        if self.rows:  # its channels form a plan: each designation once
            ChannelPlan(tuple(row.channel for row in self.rows))


def parse_plan(text: str) -> ChannelPlan:
    """Parse channel-plan CSV with header designation,name,video_carrier_mhz."""
    reader = csv.reader(io.StringIO(text))
    rows = [(i + 1, row) for i, row in enumerate(reader) if row]
    if not rows:
        raise InvalidInputError("empty channel plan")
    header = [cell.strip().lower() for cell in rows[0][1]]
    if header != ["designation", "name", "video_carrier_mhz"]:
        raise InvalidInputError(
            "channel plan must start with header designation,name,video_carrier_mhz"
        )

    entries: list[ChannelEntry] = []
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise InvalidInputError(f"plan line {lineno}: expected 3 fields, got {len(row)}")
        designation, name, freq_text = (cell.strip() for cell in row)
        try:
            freq = float(freq_text)
        except ValueError as exc:
            raise InvalidInputError(
                f"plan line {lineno}: bad frequency {freq_text!r}"
            ) from exc
        try:
            entries.append(ChannelEntry(designation, name, freq))
        except InvalidInputError as exc:
            raise InvalidInputError(f"plan line {lineno}: {exc}") from exc
    return ChannelPlan(entries=entries)


def scan(
    plan: ChannelPlan,
    source: Mapping[str, CaptureFile],
    filter: FilterSpec = FilterSpec(),
    *,
    timestamp: str | None = None,
) -> ScanReport:
    """Measure every channel of ``plan`` that has a capture in ``source``.

    Each captured channel gets snr1 (unfiltered) and snr2 (low-passed by
    ``filter``, by default the 2 MHz one) from the same pooled VBI samples.
    Channels without captures become no-capture rows; captures that cannot
    be measured are skipped with their own status.
    A setting that a capture cannot support, such as a cutoff at or above
    its Nyquist frequency, is invalid input and ends the scan, as it ends
    a single measurement.
    """
    if not isinstance(filter, FilterSpec):
        raise InvalidInputError(f"the snr2 filter must be a FilterSpec, got {filter!r}")
    raw, effective = MeasureConfig(), MeasureConfig(filter=filter)

    rows: list[ScanRow] = []
    ordered = sorted(plan.entries, key=lambda e: (e.video_carrier_mhz, e.designation))
    for entry in ordered:
        capture = source.get(entry.designation)
        if capture is None:
            rows.append(ScanRow(entry, None, None, STATUS_NO_CAPTURE))
            continue
        try:
            lines = extract_vbi_lines(capture, frame_range=raw.max_frames)
            snr1 = accumulate(lines, raw)
            snr2 = accumulate(lines, effective)
        except MeasurementImpossibleError:
            rows.append(ScanRow(entry, None, None, STATUS_SKIPPED))
            continue
        rows.append(ScanRow(entry, snr1, snr2, STATUS_MEASURED))

    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return ScanReport(rows=tuple(rows), config=effective, timestamp=timestamp)


def _row_csv_fields(row: ScanRow) -> list[str]:
    channel = [row.channel.designation, row.channel.name, repr(row.channel.video_carrier_mhz)]
    if row.status != STATUS_MEASURED:
        return [*channel, "", "", "", "", "", row.status]
    snr1, snr2 = row.snr1, row.snr2
    return [
        *channel,
        repr(snr1.snr_db),
        repr(snr2.snr_db),
        repr(error_margin_db(snr1.n_samples)),
        repr(error_margin_db(snr2.n_samples)),
        str(snr1.n_samples),
        row.status,
    ]


def render_report(report: ScanReport, format: str = "table") -> str:
    """Render a report as ``csv``, ``json``, or human-readable ``table``.

    CSV and JSON carry full precision; the table rounds dB values to one
    decimal.
    """
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in report.rows:
            writer.writerow(_row_csv_fields(row))
        return out.getvalue()

    if format == "json":
        payload = {
            "timestamp": report.timestamp,
            "config": asdict(report.config),
            "channels": [
                {
                    **asdict(row.channel),
                    "status": row.status,
                    "snr1": None if row.snr1 is None else asdict(row.snr1),
                    "snr2": None if row.snr2 is None else asdict(row.snr2),
                }
                for row in report.rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    if format == "table":
        lines = [f"{'channel':<10}{'snr1_db':>8}{'snr2_db':>8}  status"]
        for row in report.rows:
            snr1 = "-" if row.snr1 is None else f"{row.snr1.snr_db:.1f}"
            snr2 = "-" if row.snr2 is None else f"{row.snr2.snr_db:.1f}"
            lines.append(f"{row.channel.designation:<10}{snr1:>8}{snr2:>8}  {row.status}")
        return "\n".join(lines) + "\n"

    raise InvalidInputError(f"unknown report format {format!r}")


def report_from_json(text: str) -> ScanReport:
    """Inverse of ``render_report(..., 'json')``."""
    try:
        payload = json.loads(text)
        rows = tuple(
            ScanRow(
                channel=_from_dict(ChannelEntry, ch),
                snr1=None if ch["snr1"] is None else Measurement.from_dict(ch["snr1"]),
                snr2=None if ch["snr2"] is None else Measurement.from_dict(ch["snr2"]),
                status=ch["status"],
            )
            for ch in payload["channels"]
        )
        return ScanReport(
            rows=rows,
            config=MeasureConfig.from_dict(payload["config"]),
            timestamp=payload["timestamp"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"not a valid scan report: {exc}") from exc
