"""Hang Bug Report (paper Figure 2(b)).

The developer-facing summary Hang Doctor maintains: one entry per
detected soft hang bug, ordered by how often the bug was observed
across user devices, with the blamed operation, its source location,
the mean hang length, and the share of all bug occurrences it accounts
for.  Only anonymized blocking-operation records ever leave a user
device (paper §3.2's privacy note), which is what the entry fields
reflect.

The report's JSON codecs keep it across app restarts, under the
robustness contract of :mod:`repro.core.persistence`.  What leaves the
device is the crowd upload body, :func:`repro.crowd.store.batch_to_dict`:
no content, no stack, and no identifier beyond an opaque device id.
"""

import json
from dataclasses import dataclass

from repro.core.persistence import SCHEMA_VERSION, _field

#: Number of occurrence-factor buckets used by root-cause signatures.
#: Ten deciles: a bug whose occurrence factor drifts a little between
#: devices (sampling jitter) still lands in the same bucket, while a
#: genuinely different manifestation (60 % vs 95 %) does not.
OCCURRENCE_BUCKETS = 10


def occurrence_bucket(factor):
    """Decile bucket of an occurrence factor (0..OCCURRENCE_BUCKETS-1).

    Factors are clamped into [0, 1] first so a slightly-out-of-range
    value (float noise) cannot create a phantom bucket.
    """
    clamped = min(max(float(factor), 0.0), 1.0)
    return min(int(clamped * OCCURRENCE_BUCKETS), OCCURRENCE_BUCKETS - 1)


@dataclass(frozen=True)
class DegradationRecord:
    """One graceful-degradation event of the monitoring substrate.

    Recorded in the report (rather than crashing) when Hang Doctor
    loses a monitor in the field: counters dying into timeout-only
    mode, an action quarantined after repeated trace failures, state
    recovered from a corrupt file.  Developers reading the report can
    weigh each device's evidence by how degraded its monitors were.
    """

    kind: str
    detail: str = ""
    time_ms: float = 0.0


@dataclass
class ReportEntry:
    """Aggregated record of one detected soft hang bug."""

    operation: str
    file: str
    line: int
    is_self_developed: bool
    occurrences: int = 0
    devices: set = None
    total_hang_ms: float = 0.0
    max_occurrence_factor: float = 0.0
    #: User action whose executions manifested the bug ("" when the
    #: recorder predates action attribution or did not know it).
    action: str = ""

    def __post_init__(self):
        if self.devices is None:
            self.devices = set()

    @property
    def mean_hang_ms(self):
        """Average hang length across the recorded occurrences."""
        return self.total_hang_ms / self.occurrences if self.occurrences else 0.0

    def root_cause_signature(self, app_name):
        """Stable fleet-wide identity of this bug.

        The crowd backend dedupes hang bugs across devices by
        ``app | action | root-cause operation | occurrence bucket``:
        the same blocking API reached from two different user actions
        is two user-facing bugs, while per-device occurrence-factor
        jitter inside one decile is the same bug.  The string is
        deterministic (no set/dict iteration) and survives the report's
        JSON round-trip unchanged, which is what lets every device
        compute it independently and the server merge on it.
        """
        return "|".join((
            app_name, self.action, self.operation,
            f"occ{occurrence_bucket(self.max_occurrence_factor)}",
        ))


class HangBugReport:
    """Accumulates detections into the developer-facing report."""

    def __init__(self, app_name):
        self.app_name = app_name
        self._entries = {}
        #: Graceful-degradation events, in occurrence order.
        self.degradations = []
        #: True when this report was rebuilt fresh because the
        #: persisted copy was corrupt (see :func:`load_report`).
        self.recovered_from_corruption = False

    def note_degradation(self, kind, detail="", time_ms=0.0):
        """Record one monitoring-degradation event."""
        self.degradations.append(
            DegradationRecord(kind=kind, detail=detail, time_ms=time_ms)
        )

    def record(self, *, operation, file, line, is_self_developed,
               response_time_ms, occurrence_factor, device_id=0,
               action=""):
        """Fold one runtime detection into the report.

        Entries are keyed by (action, operation, file, line): the same
        operation blamed under two different user actions is kept as
        two entries, because the crowd backend dedupes bugs fleet-wide
        by action-qualified root-cause signature.
        """
        key = (action, operation, file, line)
        entry = self._entries.get(key)
        if entry is None:
            entry = ReportEntry(
                operation=operation, file=file, line=line,
                is_self_developed=is_self_developed, action=action,
            )
            self._entries[key] = entry
        entry.occurrences += 1
        entry.devices.add(device_id)
        entry.total_hang_ms += response_time_ms
        entry.max_occurrence_factor = max(
            entry.max_occurrence_factor, occurrence_factor
        )

    def entries(self):
        """Entries ordered by share of occurrences (descending), as in
        the paper's example report.  Ties break on the entry key
        (action, operation, file, line), so the order — and therefore
        the serialized report — never depends on recording order."""
        return sorted(
            self._entries.values(),
            key=lambda e: (-e.occurrences, e.action, e.operation,
                           e.file or "", e.line or 0),
        )

    def total_occurrences(self):
        """Sum of occurrences across all entries."""
        return sum(entry.occurrences for entry in self._entries.values())

    def occurrence_share(self, entry):
        """Fraction of all recorded bug occurrences due to *entry*."""
        total = self.total_occurrences()
        return entry.occurrences / total if total else 0.0

    def render(self):
        """Human-readable report table (Figure 2(b) style)."""
        entries = self.entries()
        op_width = max([len("operation")]
                       + [len(e.operation) for e in entries]) + 2
        loc_width = max([len("location")]
                        + [len(f"{e.file}:{e.line}") for e in entries]) + 2
        lines = [
            f"Hang Bug Report - {self.app_name}",
            f"{'operation':<{op_width}}{'location':<{loc_width}}"
            f"{'hang(ms)':>9}{'occurr.':>9}{'share':>8}",
        ]
        for entry in entries:
            share = self.occurrence_share(entry)
            location = f"{entry.file}:{entry.line}"
            lines.append(
                f"{entry.operation:<{op_width}}{location:<{loc_width}}"
                f"{entry.mean_hang_ms:>9.0f}{entry.occurrences:>9}"
                f"{share:>7.0%}"
            )
        if self.recovered_from_corruption:
            lines.append("(state recovered from a corrupt report file)")
        for record in self.degradations:
            detail = f" {record.detail}" if record.detail else ""
            lines.append(
                f"degraded: {record.kind}{detail} "
                f"(t={record.time_ms:.0f} ms)"
            )
        return "\n".join(lines)

    def __len__(self):
        return len(self._entries)


def report_to_json(report):
    """Serialize a Hang Bug Report."""
    entries = []
    for entry in report.entries():
        entries.append({
            "operation": entry.operation,
            "action": entry.action,
            "file": entry.file,
            "line": entry.line,
            "self_developed": entry.is_self_developed,
            "occurrences": entry.occurrences,
            "devices": sorted(entry.devices),
            "total_hang_ms": entry.total_hang_ms,
            "max_occurrence_factor": entry.max_occurrence_factor,
        })
    return json.dumps({
        "schema": SCHEMA_VERSION,
        "app": report.app_name,
        "entries": entries,
        "degradations": [
            {"kind": record.kind, "detail": record.detail,
             "time_ms": record.time_ms}
            for record in report.degradations
        ],
    }, indent=2)


def report_from_json(text):
    """Rebuild a Hang Bug Report from its JSON form.

    Raises ValueError (naming the offending key) on malformed
    payloads: wrong schema, missing fields, or non-object entries.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"malformed report payload: {error}") from error
    if not isinstance(payload, dict):
        raise ValueError("malformed report payload: expected an object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported report schema {payload.get('schema')!r}"
        )
    report = HangBugReport(_field(payload, "app", "report payload"))
    for raw in _field(payload, "entries", "report payload"):
        entry = ReportEntry(
            operation=_field(raw, "operation", "report entry"),
            file=_field(raw, "file", "report entry"),
            line=_field(raw, "line", "report entry"),
            is_self_developed=_field(raw, "self_developed", "report entry"),
            occurrences=_field(raw, "occurrences", "report entry"),
            devices=set(_field(raw, "devices", "report entry")),
            total_hang_ms=_field(raw, "total_hang_ms", "report entry"),
            max_occurrence_factor=_field(
                raw, "max_occurrence_factor", "report entry"
            ),
            # Optional for pre-crowd payloads, which had no action.
            action=raw.get("action", ""),
        )
        key = (entry.action, entry.operation, entry.file, entry.line)
        report._entries[key] = entry
    for raw in payload.get("degradations", []):
        report.degradations.append(DegradationRecord(
            kind=_field(raw, "kind", "degradation record"),
            detail=raw.get("detail", ""),
            time_ms=raw.get("time_ms", 0.0),
        ))
    return report


def load_report(text, app_name, faults=None):
    """Load a persisted report; never raises.

    A :class:`~repro.faults.FaultInjector` may corrupt the payload
    first (modeling a crash mid-write).  A payload that fails to parse
    or validate yields a *fresh* report for *app_name* with
    ``recovered_from_corruption`` set — losing history is recoverable,
    crashing the host app is not.
    """
    if faults is not None:
        text = faults.corrupt_text(text)
    try:
        return report_from_json(text)
    except ValueError:
        report = HangBugReport(app_name)
        report.recovered_from_corruption = True
        return report
