"""The ops plane's export files: rollups, alerts, flamegraph.

One entry point, :func:`write_obs_exports`, turns a telemetry session
into the three deterministic ops-plane files.  They ride the same
byte-identity guarantee as the telemetry exports: identical across
``--workers`` counts, repeat runs, and SIGKILL + resume, which the
``sweep-smoke`` CI job byte-diffs for.
"""

import pathlib

from repro.obs.profile import flamegraph_text
from repro.obs.rollup import rollup_from_session
from repro.obs.slo import alerts_to_jsonl, evaluate_slos

#: Filenames written by :func:`write_obs_exports`.
OBS_FILENAMES = ("rollups.jsonl", "alerts.jsonl", "flamegraph.txt")


def write_obs_exports(directory, session):
    """Write :data:`OBS_FILENAMES` for *session* into *directory*;
    returns the paths."""
    rollup = rollup_from_session(session)
    _, alerts = evaluate_slos(rollup)
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    contents = {
        "rollups.jsonl": rollup.to_jsonl(),
        "alerts.jsonl": alerts_to_jsonl(alerts),
        "flamegraph.txt": flamegraph_text(session.records),
    }
    paths = []
    for name, text in contents.items():
        path = directory / name
        path.write_text(text)
        paths.append(path)
    return paths
