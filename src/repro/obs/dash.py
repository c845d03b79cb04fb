"""``repro dash`` — a terminal dashboard over a telemetry directory.

Reads the deterministic exports of a ``--telemetry-dir`` (or any
directory holding ``trace.jsonl``), rebuilds the rollup/SLO/profile
views in-process, and renders one plain-text page: SLO status, the
busiest rollup windows, and the heaviest spans by self time.  Pure
function of the directory's bytes — rendering the same directory
twice produces identical text.
"""

import pathlib

from repro.obs.profile import (
    records_from_jsonl,
    render_self_time_rows,
    self_time_rows,
)
from repro.obs.rollup import DEFAULT_WINDOW_MS, Rollup
from repro.obs.slo import evaluate_slos, render_slo_table


def load_records(directory):
    """The ``trace.jsonl`` records of *directory* ([] when absent)."""
    path = pathlib.Path(directory) / "trace.jsonl"
    if not path.exists():
        return []
    return records_from_jsonl(path)


def _format_index(index):
    return str(index)


def _window_lines(rollup, limit):
    rows = rollup.rows()
    lines = []
    for row in rows[:limit]:
        cells = [f"{row['domain']}[{_format_index(row['index'])}]"]
        for name, value in row["counters"].items():
            cells.append(f"{name}={value}")
        for name, entry in row["histograms"].items():
            p95 = entry["p95"]
            cells.append(
                f"{name}: n={entry['count']} "
                f"p95={'>' if p95 is None else ''}"
                f"{'inf' if p95 is None else f'{p95:g}'}"
            )
        for name, value in row["derived"].items():
            cells.append(f"{name}={value:g}")
        lines.append("  " + " ".join(cells))
    if len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} more window(s)")
    return lines


def render_dash(directory, window_ms=DEFAULT_WINDOW_MS, limit=8):
    """The full dashboard text for *directory*."""
    records = load_records(directory)
    rollup = Rollup(window_ms=window_ms).add_records(records)
    statuses, alerts = evaluate_slos(rollup)
    lines = [f"== ops dashboard: {directory} =="]
    lines.append("")
    lines.append("-- SLOs --")
    lines.append(render_slo_table(statuses))
    lines.append("")
    lines.append(f"-- alerts ({len(alerts)}) --")
    if not alerts:
        lines.append("  (none)")
    for alert in alerts[:limit]:
        lines.append(
            f"  [{alert['severity']}] {alert['objective']} "
            f"{alert['domain']}[{_format_index(alert['index'])}] "
            f"burn short={alert['burn_short']:g} "
            f"long={alert['burn_long']:g}"
        )
    if len(alerts) > limit:
        lines.append(f"  ... {len(alerts) - limit} more alert(s)")
    lines.append("")
    lines.append(f"-- rollup windows ({len(rollup)}) --")
    if not len(rollup):
        lines.append("  (no windows — was the run traced?)")
    lines.extend(_window_lines(rollup, limit))
    lines.append("")
    lines.append("-- top spans by self time --")
    lines.append(render_self_time_rows(self_time_rows(records, limit=limit)))
    return "\n".join(lines)
