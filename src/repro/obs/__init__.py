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
* :mod:`repro.obs.profile` — the span forest behind every account of
  time: the collapsed-stack flamegraph and the self-time table;
* :mod:`repro.obs.dash` — the ``repro dash`` terminal dashboard.

Like the telemetry package it builds on, ``repro.obs`` imports
nothing from the harness or serve layers — those call *into* it.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".dash": ("render_dash",),
    ".exports": ("OBS_FILENAMES", "write_obs_exports"),
    ".profile": ("flamegraph_text", "records_from_jsonl",
                 "render_self_time_rows", "self_time_rows"),
    ".prometheus": ("CONTENT_TYPE", "render_prometheus", "split_labels"),
    ".rollup": ("DEFAULT_WINDOW_MS", "Rollup", "bucket_quantile",
                "rollup_from_session"),
    ".slo": ("DEFAULT_LONG_WINDOWS", "DEFAULT_OBJECTIVES", "PAGE_BURN",
             "TICKET_BURN", "alerts_to_jsonl", "evaluate_slos",
             "render_slo_table"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
