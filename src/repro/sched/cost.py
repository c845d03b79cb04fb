"""The per-archetype / per-app cost model behind shard weights.

Static sharding splits work by *count*; at fleet scale that is wrong
twice over — archetypes cost different amounts to simulate (a
render-jank app emits far more UI events per action than a clean one;
a blocking-API app pays phase-2 trace collections a clean app never
does), and device rounds scale with how many apps and actions each
device runs.  A :class:`CostModel` turns those structural facts into a
relative *weight* per work item, which the elastic scheduler
(:mod:`repro.sched.scheduler`) packs into balanced shards.

Two calibration sources, both optional:

* **The archetype taxonomy** (PR 8): :data:`ARCHETYPE_WEIGHTS` carries
  one relative weight per archetype, measured from per-archetype
  sweep timings on the reference machine.  Unknown archetypes weigh
  ``1.0`` — an uncalibrated app is an average app.
* **The perf trajectory** (PR 6): :meth:`CostModel.from_trajectory`
  reads the committed ``BENCH_engine.json`` / ``BENCH_scenarios.json``
  baselines to anchor weights to wall seconds
  (:meth:`CostModel.estimate_seconds`), which the scheduler uses to
  pick straggler deadlines.  A missing or unreadable trajectory just
  means no wall-clock anchor — weights still work.

Weights steer *scheduling only*.  Every work item is a pure function
of its payload, so a wrong weight can cost wall time, never
correctness: rendered output is byte-identical for any cost model.
"""

import json
import pathlib

#: Relative simulation cost per archetype, calibrated against the
#: ``clean`` archetype (= 1.0) from per-archetype scenario-sweep
#: timings.  Bug-bearing archetypes pay detection work (phase-2 trace
#: collections, diagnosis) on top of event accrual; render-jank apps
#: pay for dense UI event streams despite carrying no bugs.
ARCHETYPE_WEIGHTS = {
    "clean": 1.0,
    "main_thread_blocking": 1.45,
    "async_task_hang": 1.4,
    "ipc_wait_hang": 1.35,
    "lifecycle_callback_race": 1.15,
    "render_jank_benign": 1.25,
}

#: Reference actions-per-round a weight of 1.0 corresponds to (the
#: crowd sweep's default round length).
REFERENCE_ACTIONS = 40.0


class CostModel:
    """Maps work items to relative shard weights.

    Parameters
    ----------
    archetype_weights: per-archetype relative weights (defaults to
        :data:`ARCHETYPE_WEIGHTS`; unknown names weigh 1.0).
    ms_per_action: wall-clock anchor — simulated milliseconds of
        engine time per user action on the calibration machine, or
        ``None`` when no trajectory is available.
    """

    def __init__(self, archetype_weights=None, ms_per_action=None):
        self.archetype_weights = dict(
            ARCHETYPE_WEIGHTS if archetype_weights is None
            else archetype_weights
        )
        self.ms_per_action = ms_per_action

    # -------------------------------------------------------- weights

    def archetype_weight(self, archetype):
        """Relative cost of one app of *archetype* (1.0 if unknown)."""
        return float(self.archetype_weights.get(archetype, 1.0))

    def device_round_weight(self, app_count, actions):
        """Weight of one device sync round: *app_count* catalog apps,
        *actions* user actions each.  Catalog apps are hand-modelled
        (no archetype label), so they weigh like the average app."""
        return max(1, int(app_count)) * (
            max(1.0, float(actions)) / REFERENCE_ACTIONS
        )

    # ------------------------------------------------------ wall clock

    def estimate_seconds(self, weight, actions=REFERENCE_ACTIONS):
        """Predicted wall seconds for a shard of total *weight*, or
        ``None`` without a trajectory anchor.

        The anchor is deliberately coarse — it sizes straggler
        deadlines (an order-of-magnitude question), not billing.
        """
        if self.ms_per_action is None:
            return None
        return float(weight) * float(actions) * self.ms_per_action / 1000.0

    # ----------------------------------------------------- calibration

    @classmethod
    def from_trajectory(cls, bench_dir=None, archetype_weights=None):
        """Build a model anchored to the committed perf trajectory.

        Reads ``BENCH_engine.json``'s full-mode columnar
        ms-per-action when present; any missing, unreadable, or
        unexpected file degrades to an unanchored model — the
        trajectory is a calibration convenience, never a dependency.
        """
        if bench_dir is None:
            bench_dir = (
                pathlib.Path(__file__).resolve().parents[3] / "benchmarks"
            )
        ms_per_action = None
        try:
            payload = json.loads(
                (pathlib.Path(bench_dir) / "BENCH_engine.json").read_text()
            )
            entry = payload["entries"]["full_mode.columnar_ms_per_action"]
            value = float(entry["value"])
            if value > 0.0:
                ms_per_action = value
        except (OSError, ValueError, KeyError, TypeError):
            ms_per_action = None
        return cls(archetype_weights=archetype_weights,
                   ms_per_action=ms_per_action)

    def describe(self):
        """One-line summary for logs and docs."""
        anchor = (
            "unanchored" if self.ms_per_action is None
            else f"{self.ms_per_action:g} ms/action"
        )
        weights = ", ".join(
            f"{name}={weight:g}"
            for name, weight in sorted(self.archetype_weights.items())
        )
        return f"cost model ({anchor}): {weights}"
