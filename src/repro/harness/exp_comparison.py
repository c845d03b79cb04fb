"""Head-to-head comparison: Figure 8 (a,b,c).

Runs Hang Doctor and the baselines (TI, UTL, UTH, UTL+TI, UTH+TI) over
*identical* executions of representative apps and counts, per the
paper's methodology, the soft hangs each detector paid stack-trace
collection for: bug-caused traced hangs are true positives, UI-caused
traced hangs are false positives, bug-caused untraced hangs are false
negatives.  Counts are normalized to TI (which traces every hang and
therefore has no false negatives).  Overhead comes from the metered
monitoring costs through the cost model of
:mod:`repro.analysis.overhead`.
"""

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.overhead import OverheadModel
from repro.apps.catalog import get_app
from repro.apps.sessions import SessionGenerator
from repro.core.hang_doctor import HangDoctor
from repro.detectors.runner import run_detectors
from repro.detectors.timeout import TimeoutDetector
from repro.detectors.utilization import (
    UtilizationDetector,
    fit_thresholds,
    window_metrics,
)
from repro.harness.tables import render_table
from repro.harness.training import training_bug_cases, validation_bug_cases
from repro.sched import ElasticScheduler
from repro.sim.engine import ExecutionEngine
from repro.telemetry import current as telemetry

#: The representative apps of the paper's Figure 8.
FIGURE8_APPS = (
    "AndStatus", "CycleStreets", "K9-mail", "Omni-Notes", "UOITDC Booking",
)

DETECTOR_ORDER = ("TI", "UTL", "UTH", "UTL+TI", "UTH+TI", "HD")


def fit_utilization_thresholds(device, seed=0, runs_per_case=6):
    """Fit the UTL/UTH baselines' static thresholds from bug hang
    windows (paper §4.1: low = minimum resource utilization observed
    during soft hang bugs, high = 90 % of the peak).  The baselines
    get the benefit of observing *every* known bug's utilization —
    training and validation alike — mirroring the paper's setup where
    the thresholds are derived from the observed soft hang bugs."""
    engine = ExecutionEngine(device, seed=seed)
    windows = []
    for case in training_bug_cases() + validation_bug_cases():
        action = case.app.action(case.action_name)
        collected = 0
        for _ in range(runs_per_case * 4):
            if collected >= runs_per_case:
                break
            execution = engine.run_action(case.app, action)
            if not (execution.has_soft_hang and execution.bug_caused_hang()):
                continue
            collected += 1
            for event_execution in execution.hang_events():
                cursor = event_execution.dispatch_ms
                while cursor < event_execution.finish_ms:
                    end = min(cursor + 100.0, event_execution.finish_ms)
                    windows.append(window_metrics(execution, cursor, end))
                    cursor = end
    return fit_thresholds(windows, "low"), fit_thresholds(windows, "high")


def build_detectors(app, device, low, high, seed=0):
    """The paper's detector lineup for one app."""
    return [
        TimeoutDetector(app, timeout_ms=100.0),
        UtilizationDetector(app, low, combine_timeout=False, label="UTL"),
        UtilizationDetector(app, high, combine_timeout=False, label="UTH"),
        UtilizationDetector(app, low, combine_timeout=True, label="UTL+TI"),
        UtilizationDetector(app, high, combine_timeout=True, label="UTH+TI"),
        HangDoctor(app, device, seed=seed),
    ]


@dataclass
class Figure8AppResult:
    """One app's detector comparison."""

    app_name: str
    #: detector -> (tp, fp, fn) over traced hangs.
    confusion: Dict[str, tuple]
    #: detector -> overhead percent (mean of CPU and memory %).
    overhead: Dict[str, float]


@dataclass
class Figure8Result:
    """The full Figure 8 comparison."""

    apps: List[Figure8AppResult]

    def detector_names(self):
        """Detectors present, in the canonical order where known."""
        present = list(self.apps[0].confusion)
        ordered = [name for name in DETECTOR_ORDER if name in present]
        ordered += [name for name in present if name not in ordered]
        return ordered

    def normalized(self, metric):
        """Per-app TP or FP normalized to TI; plus the average row."""
        index = 0 if metric == "tp" else 1
        table = {}
        for app_result in self.apps:
            base = max(1, app_result.confusion["TI"][index])
            table[app_result.app_name] = {
                name: counts[index] / base
                for name, counts in app_result.confusion.items()
            }
        averages = {
            name: float(np.mean([
                table[app.app_name][name] for app in self.apps
            ]))
            for name in self.detector_names()
        }
        table["Average"] = averages
        return table

    def overheads(self):
        """Per-app overhead percentages plus the average row."""
        table = {
            app.app_name: dict(app.overhead) for app in self.apps
        }
        table["Average"] = {
            name: float(np.mean([app.overhead[name] for app in self.apps]))
            for name in self.detector_names()
        }
        return table

    def render(self):
        """ASCII rendering of the result."""
        names = self.detector_names()
        blocks = []
        for metric, title in (("tp", "(a) True positives, normalized to TI"),
                              ("fp", "(b) False positives, normalized to TI")):
            data = self.normalized(metric)
            rows = [
                [row] + [round(data[row][det], 3) for det in names]
                for row in data
            ]
            blocks.append(render_table(
                ["App"] + names, rows, title=f"Figure 8{title}",
            ))
        over = self.overheads()
        rows = [
            [row] + [round(over[row][det], 2) for det in names]
            for row in over
        ]
        blocks.append(render_table(
            ["App"] + names, rows, title="Figure 8(c) Overhead (%)",
        ))
        return "\n\n".join(blocks)


def _figure8_shard(payload):
    """Run the whole detector lineup over one app (module-level so the
    process pool can pickle it); returns a :class:`Figure8AppResult`."""
    (device, seed, app_name, users, actions_per_user, low, high,
     overhead_model) = payload
    # Track per app (not per shard): semantic names keep the trace
    # independent of how shards landed on workers.
    with telemetry().track(f"figure8/{app_name}"):
        app = get_app(app_name)
        generator = SessionGenerator(seed=seed)
        engine = ExecutionEngine(device, seed=seed)
        executions = []
        for session in generator.fleet_sessions(app, users,
                                                actions_per_user):
            executions.extend(
                engine.run_session(app, session.action_names, gap_ms=1000.0)
            )
        detectors = build_detectors(app, device, low, high, seed=seed)
        runs = run_detectors(detectors, executions)
        confusion = {}
        overhead = {}
        for name, run in runs.items():
            counts = run.confusion()
            confusion[name] = (counts.tp, counts.fp, counts.fn)
            overhead[name] = run.overhead(overhead_model).average_percent
    return Figure8AppResult(
        app_name=app_name, confusion=confusion, overhead=overhead
    )


def figure8(device, seed=0, users=2, actions_per_user=60, app_names=None,
            overhead_model=None, workers=1, thresholds=None):
    """Reproduce Figure 8's detection-performance and overhead study.

    ``workers`` shards the study at app granularity; every app's
    executions and detector runs depend only on (device, seed, app),
    so any worker count yields identical results.  *thresholds* can
    supply precomputed ``(low, high)`` utilization thresholds to skip
    the fitting pass (useful for sweeps that reuse one fit).
    """
    app_names = app_names or FIGURE8_APPS
    overhead_model = overhead_model or OverheadModel()
    low, high = thresholds or fit_utilization_thresholds(device, seed=seed)
    shards = [
        (device, seed, app_name, users, actions_per_user, low, high,
         overhead_model)
        for app_name in app_names
    ]
    results = ElasticScheduler.for_sweep(workers=workers).map(
        _figure8_shard, shards, [f"figure8|{name}" for name in app_names],
    )
    return Figure8Result(apps=results)
