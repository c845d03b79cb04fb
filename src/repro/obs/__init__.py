"""The ops plane: exposition, rollups, SLOs, and profiling views.

``repro.obs`` turns the raw deterministic telemetry of
:mod:`repro.telemetry` into operable signals (see the "Ops plane"
section of ``docs/observability.md``):

* :mod:`repro.obs.prometheus` — Prometheus text exposition of any
  :class:`~repro.telemetry.MetricsRegistry`, served live by
  ``repro.serve`` as ``GET /metrics``;
* :mod:`repro.obs.rollup` — fixed-window rollups of trace records,
  built once from the parent's ordered records and hence
  byte-identical ``rollups.jsonl`` across workers and resume;
* :mod:`repro.obs.slo` — declarative objectives, error budgets, and
  multi-window burn-rate alerts on ``alerts.jsonl``;
* :mod:`repro.obs.profile` — collapsed-stack flamegraph export and
  self-time attribution;
* :mod:`repro.obs.dash` — the ``repro dash`` terminal dashboard.

Like the telemetry package it builds on, ``repro.obs`` imports
nothing from the harness or serve layers — those call *into* it.
"""

from repro.obs.dash import render_dash
from repro.obs.exports import OBS_FILENAMES, write_obs_exports
from repro.obs.profile import (
    collapse_stacks,
    flamegraph_text,
    self_time_rows,
)
from repro.obs.prometheus import (
    CONTENT_TYPE,
    render_prometheus,
    split_labels,
)
from repro.obs.rollup import (
    DEFAULT_WINDOW_MS,
    Rollup,
    bucket_quantile,
    records_from_jsonl,
    rollup_from_session,
)
from repro.obs.slo import (
    DEFAULT_LONG_WINDOWS,
    DEFAULT_OBJECTIVES,
    PAGE_BURN,
    TICKET_BURN,
    alerts_to_jsonl,
    evaluate_slos,
    render_slo_table,
)

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_LONG_WINDOWS",
    "DEFAULT_OBJECTIVES",
    "DEFAULT_WINDOW_MS",
    "OBS_FILENAMES",
    "PAGE_BURN",
    "Rollup",
    "TICKET_BURN",
    "alerts_to_jsonl",
    "bucket_quantile",
    "collapse_stacks",
    "evaluate_slos",
    "flamegraph_text",
    "records_from_jsonl",
    "render_dash",
    "render_prometheus",
    "render_slo_table",
    "rollup_from_session",
    "self_time_rows",
    "split_labels",
    "write_obs_exports",
]
