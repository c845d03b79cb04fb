#!/usr/bin/env python
"""Trace a fleet-style deployment and read where the time went.

Runs Hang Doctor over K9-mail's simulated fleet sessions (the Table 5
machinery for one app) under a telemetry session, then:

1. prints the top spans by self-time — `core.action.process` and
   `sim.action.execute` tie, since each records the same action
   interval, and `core.diagnoser.collect` appears once per phase-2
   trace collection;
2. prints the metrics registry — actions processed, S-Checker
   verdicts, phase-2 collections, the response-time histogram;
3. writes the exports (`trace.jsonl`, Perfetto-loadable `trace.json`,
   `metrics.txt`, advisory `executor.jsonl`) to `out/trace_run/`;
4. re-runs the same deployment and proves the deterministic exports
   came back byte-identical.

Load `out/trace_run/trace.json` at https://ui.perfetto.dev ("Open
trace file") to see the per-app tracks on a timeline.

Run:  python examples/trace_run.py
"""

from repro import telemetry
from repro.harness.exp_fleet import table5
from repro.obs import render_self_time_rows, self_time_rows
from repro.sim.device import LG_V10

SWEEP = dict(seed=7, users=2, actions_per_user=40, corpus_size=22)


def observed_run(workers):
    """One telemetry-observed Table 5 run; returns (session, render)."""
    with telemetry.session() as tel:
        result = table5(LG_V10, workers=workers, **SWEEP)
    return tel, result.render()


def main():
    tel, rendered = observed_run(workers=2)

    print("1. Top spans by self-time (sim-clock ms within each track)")
    print(render_self_time_rows(self_time_rows(tel.records, limit=5)))

    print("\n2. Metrics")
    print(telemetry.export_metrics_text(tel).rstrip())

    print("\n3. Exports")
    paths = telemetry.write_exports(tel, "out/trace_run")
    for path in paths:
        print(f"   wrote {path}")
    print("   -> load out/trace_run/trace.json in Perfetto")

    print("\n4. Determinism: a serial re-run exports identical bytes")
    again, rendered_again = observed_run(workers=1)
    assert rendered_again == rendered
    assert telemetry.export_jsonl(again) == telemetry.export_jsonl(tel)
    assert telemetry.export_metrics_text(again) \
        == telemetry.export_metrics_text(tel)
    print("   byte-identical across workers 2 vs 1")


if __name__ == "__main__":
    main()
