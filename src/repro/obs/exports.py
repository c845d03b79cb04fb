"""The ops plane's export files: rollups, alerts, flamegraph.

One entry point, :func:`write_obs_exports`, turns a telemetry session
(or raw records read back from ``trace.jsonl``) plus optional harness
results into the three deterministic ops-plane files.  They ride the
same byte-identity guarantee as the PR 5 exports: identical across
``--workers`` counts, repeat runs, and SIGKILL + resume, which the
``sweep-smoke`` CI job byte-diffs for.
"""

import pathlib

from repro.obs.profile import flamegraph_text
from repro.obs.rollup import DEFAULT_WINDOW_MS, Rollup
from repro.obs.slo import DEFAULT_OBJECTIVES, alerts_to_jsonl, evaluate_slos

#: Filenames written by :func:`write_obs_exports`.
OBS_FILENAMES = ("rollups.jsonl", "alerts.jsonl", "flamegraph.txt")


def build_rollup(records=None, stream=None, chaos=None, scenarios=None,
                 window_ms=DEFAULT_WINDOW_MS):
    """Fold every provided input into one :class:`Rollup`."""
    rollup = Rollup(window_ms=window_ms)
    if records is not None:
        rollup.add_records(records)
    if stream is not None:
        rollup.add_stream(stream)
    if chaos is not None:
        rollup.add_chaos(chaos)
    if scenarios is not None:
        rollup.add_scenarios(scenarios)
    return rollup


def write_obs_exports(directory, session=None, records=None, stream=None,
                      chaos=None, scenarios=None,
                      window_ms=DEFAULT_WINDOW_MS,
                      objectives=DEFAULT_OBJECTIVES):
    """Write :data:`OBS_FILENAMES` into *directory*; returns the paths.

    *session* supplies trace records (and the flamegraph); *records*
    may be passed instead when working offline from ``trace.jsonl``.
    Harness results (*stream*, *chaos*, *scenarios*) enrich the rollup
    with their respective window domains.
    """
    if records is None and session is not None:
        # Fold in trace.jsonl's canonical (track, seq) order: float sums
        # then never depend on the order shards were absorbed in (which
        # follows the worker count), and match an offline rebuild.
        records = sorted(session.records, key=lambda r: (r.track, r.seq))
    records = records if records is not None else ()
    rollup = build_rollup(
        records=records, stream=stream, chaos=chaos,
        scenarios=scenarios, window_ms=window_ms,
    )
    _, alerts = evaluate_slos(rollup, objectives=objectives)
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    contents = {
        "rollups.jsonl": rollup.to_jsonl(),
        "alerts.jsonl": alerts_to_jsonl(alerts),
        "flamegraph.txt": flamegraph_text(records),
    }
    paths = []
    for name, text in contents.items():
        path = directory / name
        path.write_text(text)
        paths.append(path)
    return paths
