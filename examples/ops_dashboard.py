#!/usr/bin/env python
"""The ops plane end to end: rollups, SLOs, alerts, flamegraph.

Runs the continuous fleet (a short `repro stream` sweep) under a
telemetry session, then walks every view `repro.obs` builds on it:

1. folds the trace into fixed windows — sim-clock seconds, stream
   rounds — and prints a few rollup rows with their derived ratios
   (overhead %, ingest availability);
2. evaluates the default SLOs (detection latency, overhead ceiling,
   ingest availability) and prints the error-budget table plus any
   multi-window burn-rate alerts;
3. prints the head of the collapsed-stack flamegraph and the metrics
   registry rendered in Prometheus text format — the same bytes
   `repro serve` answers on `GET /metrics`;
4. writes `rollups.jsonl` / `alerts.jsonl` / `flamegraph.txt` to
   `out/ops_dashboard/` and proves a 2-worker re-run exports
   identical bytes.

`python -m repro dash out/ops_dashboard` renders the same story from
the files alone.

Run:  python examples/ops_dashboard.py
"""

from repro import telemetry
from repro.harness.exp_stream import stream_sweep
from repro.obs import (
    evaluate_slos,
    flamegraph_text,
    render_prometheus,
    render_slo_table,
    rollup_from_session,
    write_obs_exports,
)
from repro.sim.device import LG_V10

SWEEP = dict(seed=7, rounds=4, fleet_size=3, churn_rate=0.2,
             actions_per_round=30)


def observed_run(workers):
    """One telemetry-observed stream sweep; returns its session."""
    with telemetry.session() as tel:
        stream_sweep(LG_V10, workers=workers, **SWEEP)
    return tel


def main():
    tel = observed_run(workers=1)
    rollup = rollup_from_session(tel)

    print("1. Rollup windows (counters + derived ratios)")
    for row in rollup.rows()[:4]:
        derived = ", ".join(f"{k}={v:.3g}"
                            for k, v in sorted(row["derived"].items()))
        print(f"   {row['domain']}[{row['index']}]  "
              f"counters={sum(row['counters'].values())}  {derived}")

    print("\n2. SLO error budgets and burn-rate alerts")
    statuses, alerts = evaluate_slos(rollup)
    print("   " + render_slo_table(statuses).replace("\n", "\n   "))
    for alert in alerts[:3]:
        print(f"   ALERT[{alert['severity']}] {alert['objective']} "
              f"{alert['domain']}[{alert['index']}] "
              f"burn {alert['burn_short']:.1f}/{alert['burn_long']:.1f}")
    if not alerts:
        print("   (no alerts)")

    print("\n3. Flamegraph head + Prometheus exposition head")
    for line in flamegraph_text(tel.records).splitlines()[:4]:
        print(f"   {line}")
    for line in render_prometheus(tel.metrics).splitlines()[:6]:
        print(f"   {line}")

    print("\n4. Exports, byte-identical across worker counts")
    paths = write_obs_exports("out/ops_dashboard", session=tel)
    for path in paths:
        print(f"   wrote {path}")
    again_tel = observed_run(workers=2)
    again = rollup_from_session(again_tel)
    assert again.to_jsonl() == rollup.to_jsonl()
    assert flamegraph_text(again_tel.records) \
        == flamegraph_text(tel.records)
    print("   byte-identical across workers 1 vs 2")
    print("   -> python -m repro dash out/ops_dashboard")


if __name__ == "__main__":
    main()
