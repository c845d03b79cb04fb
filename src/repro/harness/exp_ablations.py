"""Ablation studies over Hang Doctor's design choices.

Each function isolates one decision the paper argues for and measures
what happens when it is changed:

* ``ablate_monitoring_mode`` — main−render difference vs main-only
  counters (Table 3's claim).
* ``ablate_event_count`` — 1 vs 2 vs 3 filter events (Table 6 shows a
  single counter misses bugs).
* ``ablate_two_phase`` — the two-phase algorithm vs a phase-2-only
  detector (≈ TI): detection quality and overhead.
* ``ablate_prefix_window`` — evaluating the filter on only the first
  part of an action (Figure 5's discussion: early windows of UI work
  look bug-like).
* ``ablate_reset_period`` — the Normal→Uncategorized reset period vs
  how quickly an occasional bug that once looked like UI is caught.
* ``ablate_occurrence_threshold`` — root-cause attribution quality vs
  the occurrence-factor bar.
"""

from dataclasses import dataclass

import numpy as np

from repro.analysis.correlation import correlate, ranked_events
from repro.analysis.metrics import detection_matches_bug
from repro.analysis.overhead import OverheadModel
from repro.analysis.thresholds import fit_filter
from repro.apps.catalog import get_app
from repro.apps.sessions import SessionGenerator
from repro.core.config import HangDoctorConfig
from repro.core.hang_doctor import HangDoctor
from repro.detectors.runner import run_detector
from repro.detectors.timeout import TimeoutDetector
from repro.harness.training import (
    collect_training_samples,
    training_bug_cases,
    training_ui_cases,
    validation_firings,
)
from repro.sim.engine import ExecutionEngine
from repro.sim.pmu import PmuSampler
from repro.sim.timeline import MAIN_THREAD, RENDER_THREAD


def ablate_monitoring_mode(device, seed=0, runs_per_case=8):
    """Compare main−render difference monitoring against main-only.

    Fits a filter on a training batch and evaluates it on a fresh
    held-out batch for each mode.  Returns
    ``{mode: {"top10": avg_corr, "accuracy": ..., "prune": ...}}`` —
    the paper's Table 3 claim is the ~14 % top-10 correlation gap; the
    filter-quality gap follows from it.
    """
    cases = training_bug_cases() + training_ui_cases()
    results = {}
    for mode in ("diff", "main"):
        train_engine = ExecutionEngine(device, seed=seed)
        train = collect_training_samples(
            train_engine, cases, runs_per_case=runs_per_case, mode=mode
        )
        eval_engine = ExecutionEngine(device, seed=seed + 10_000)
        held_out = collect_training_samples(
            eval_engine, cases, runs_per_case=runs_per_case, mode=mode
        )
        ranking = ranked_events(correlate(train))
        fitted = fit_filter(train, [e for e, _ in ranking])
        results[mode] = {
            "top10": float(np.mean([c for _, c in ranking[:10]])),
            "accuracy": fitted.accuracy(held_out),
            "prune": fitted.false_positive_prune_rate(held_out),
        }
    return results


def ablate_event_count(device, seed=0, runs=20, recognize_rate=0.5):
    """Validation-bug recall using only the first k filter events.

    Returns {k: recognized_bugs} for k = 1..3 (paper Table 6: a single
    counter misses several of the 23 unknown bugs).
    """
    config = HangDoctorConfig()
    events = config.filter_events()
    per_case_rates = [
        {event: (fired[event] / hangs if hangs else 0.0)
         for event in events}
        for _case, hangs, fired in validation_firings(device, seed, config,
                                                      runs)
    ]

    results = {}
    for k in range(1, len(events) + 1):
        subset = events[:k]
        recognized = sum(
            1 for rates in per_case_rates
            if any(rates[event] >= recognize_rate for event in subset)
        )
        results[k] = recognized
    return results


@dataclass
class TwoPhaseAblation:
    """Two-phase Hang Doctor vs phase-2-only detection."""

    hd_traced_fp: int
    hd_traced_tp: int
    hd_overhead: float
    phase2_traced_fp: int
    phase2_traced_tp: int
    phase2_overhead: float


def ablate_two_phase(device, seed=0, app_name="K9-mail", users=2,
                     actions_per_user=50):
    """Compare the full two-phase algorithm against phase 2 alone.

    Phase-2-only traces every soft hang (no symptom filter), which is
    the Timeout baseline — the paper omits it for that reason.
    """
    app = get_app(app_name)
    engine = ExecutionEngine(device, seed=seed)
    generator = SessionGenerator(seed=seed)
    executions = []
    for session in generator.fleet_sessions(app, users, actions_per_user):
        executions.extend(
            engine.run_session(app, session.action_names, gap_ms=1000.0)
        )
    model = OverheadModel()
    hd_run = run_detector(HangDoctor(app, device, seed=seed), executions)
    ti_run = run_detector(TimeoutDetector(app, timeout_ms=100.0), executions)
    hd_counts = hd_run.confusion()
    ti_counts = ti_run.confusion()
    return TwoPhaseAblation(
        hd_traced_fp=hd_counts.fp,
        hd_traced_tp=hd_counts.tp,
        hd_overhead=hd_run.overhead(model).average_percent,
        phase2_traced_fp=ti_counts.fp,
        phase2_traced_tp=ti_counts.tp,
        phase2_overhead=ti_run.overhead(model).average_percent,
    )


def ablate_prefix_window(device, seed=0, runs_per_case=8, prefix_share=0.3):
    """False-positive rate of the (scale-free) context-switch symptom
    when evaluated on an action prefix vs the whole action.

    The paper's Figure 5 discussion: at the beginning of an action the
    main thread computes positions and runs handler code before the
    render thread gets any work, so the main−render difference looks
    bug-like.  S-Checker therefore "conservatively counts the
    performance events until the end of the action execution".
    Returns {"full": fp_rate, "prefix": fp_rate} over training UI
    cases, using the positive-context-switch-difference condition
    (thresholds on accumulated counts are not prefix-comparable).
    """
    sampler = PmuSampler(device, ("context-switches",), seed=seed)
    engine = ExecutionEngine(device, seed=seed)

    fired = {"full": 0, "prefix": 0}
    total = 0
    for case in training_ui_cases():
        action = case.app.action(case.action_name)
        collected = 0
        for _ in range(runs_per_case * 4):
            if collected >= runs_per_case:
                break
            execution = engine.run_action(case.app, action)
            if not execution.has_soft_hang:
                continue
            collected += 1
            total += 1
            span = execution.end_ms - execution.start_ms
            for label, end in (
                ("full", execution.end_ms),
                ("prefix", execution.start_ms + prefix_share * span),
            ):
                value = sampler.read_difference(
                    execution.timeline, "context-switches", MAIN_THREAD,
                    RENDER_THREAD, execution.start_ms, end,
                )
                if value > 0:
                    fired[label] += 1
    return {label: count / total for label, count in fired.items()}


def _occasional_bug_app():
    """A probe app whose bug manifests rarely inside a UI-hang action.

    The common case is a UI hang (S-Checker parks the action in
    Normal); the bug manifests on ~15 % of executions — the scenario
    the paper's periodic Normal→Uncategorized reset exists for.
    """
    from repro.apps import android_apis as apis
    from repro.apps.app import AppSpec
    from repro.apps.catalog_helpers import action, op

    from dataclasses import replace as dc

    rare = apis.blocking_api(
        "parseFeed", "org.probe.FeedParser", mean_ms=600.0,
        manifest_prob=0.15, fast_ms=5.0, cpu_share=0.8, pages=1500,
    )
    # UI side hangs only occasionally (~25 %), and when it does the
    # filter correctly sends the action to Normal — where the rare bug
    # then hides until the periodic reset.
    refresh = action(
        "refresh", "onRefresh",
        op(rare, "refreshFeed", "FeedFragment.java"),
        op(dc(apis.INFLATE, mean_ms=60.0, sigma=0.4), "rebuildFeedUi",
           "FeedFragment.java"),
        op(dc(apis.SET_TEXT, mean_ms=30.0), "updateBadge",
           "FeedFragment.java"),
    )
    return AppSpec(
        name="OccasionalProbe", package="org.probe", category="Tools",
        downloads=0, commit="0000000", actions=(refresh,),
    )


def ablate_reset_period(device, seed=0, periods=(5, 20, 60), rounds=400,
                        trials=6):
    """Mean executions needed to catch an occasional bug hidden behind
    an occasionally-UI-hanging action, per reset period.

    Once S-Checker classifies a UI-caused hang as Normal, only the
    periodic reset gives the rare bug another chance; a longer period
    delays detection.  Undetected trials count as *rounds*.  Returns
    {period: mean_executions_to_detect}.
    """
    app = _occasional_bug_app()
    results = {}
    for period in periods:
        latencies = []
        for trial in range(trials):
            config = HangDoctorConfig(normal_reset_period=period)
            engine = ExecutionEngine(device, seed=seed * 1000 + trial)
            doctor = HangDoctor(app, device, config=config, seed=seed)
            detected_at = rounds
            for index in range(1, rounds + 1):
                execution = engine.run_action(app, app.action("refresh"))
                outcome = doctor.process(execution)
                if outcome.detections:
                    detected_at = index
                    break
            latencies.append(detected_at)
        results[period] = float(np.mean(latencies))
    return results


def ablate_occurrence_threshold(device, seed=0,
                                thresholds=(0.3, 0.5, 0.7, 0.9),
                                executions_per_action=10):
    """Root-cause attribution accuracy vs the occurrence-factor bar.

    Runs TI (which traces every hang) over bug-bearing apps and checks
    what fraction of bug-caused traced hangs get attributed to a
    ground-truth bug site under each occurrence threshold.
    """
    apps = [get_app(name) for name in ("K9-mail", "AndStatus", "QKSMS")]
    results = {}
    for threshold in thresholds:
        correct = 0
        total = 0
        for app in apps:
            engine = ExecutionEngine(device, seed=seed)
            names = [
                action.name for action in app.actions
                for _ in range(executions_per_action)
            ]
            executions = engine.run_session(app, names, gap_ms=500.0)
            detector = TimeoutDetector(
                app, timeout_ms=100.0, occurrence_threshold=threshold
            )
            run = run_detector(detector, executions)
            for execution, outcome in zip(run.executions, run.outcomes):
                if not execution.bug_caused_hang():
                    continue
                for detection in outcome.detections:
                    total += 1
                    if detection_matches_bug(app, detection):
                        correct += 1
        results[threshold] = correct / total if total else 0.0
    return results


def ablate_watchdog(device, seed=0, app_names=("K9-mail", "QKSMS"),
                    executions_per_action=12):
    """Compare watchdog-thread tools (BlockCanary / ANR-WatchDog
    style) against Looper-instrumented detection and Hang Doctor.

    Returns {detector: (tp, fp, fn, overhead_percent)} over identical
    sessions.  The watchdog's sampling mechanism misses short hangs
    and its single stack dump cannot build an occurrence factor.
    """
    from repro.analysis.overhead import OverheadModel
    from repro.detectors.runner import run_detectors
    from repro.detectors.watchdog import WatchdogDetector

    model = OverheadModel()
    totals = {}
    for app_name in app_names:
        app = get_app(app_name)
        engine = ExecutionEngine(device, seed=seed)
        names = [
            action.name for action in app.actions
            for _ in range(executions_per_action)
        ]
        executions = engine.run_session(app, names, gap_ms=900.0)
        detectors = [
            TimeoutDetector(app, timeout_ms=100.0),
            WatchdogDetector(app, block_threshold_ms=100.0,
                             interval_ms=500.0),
            HangDoctor(app, device, seed=seed),
        ]
        for name, run in run_detectors(detectors, executions).items():
            counts = run.confusion()
            overhead = run.overhead(model).average_percent
            tp, fp, fn, over = totals.get(name, (0, 0, 0, 0.0))
            totals[name] = (tp + counts.tp, fp + counts.fp,
                            fn + counts.fn, over + overhead)
    return {
        name: (tp, fp, fn, over / len(app_names))
        for name, (tp, fp, fn, over) in totals.items()
    }


def ablate_jank_filter(device, seed=0, runs_per_case=8,
                       jank_threshold=0.75):
    """An alternative phase-1 filter: classify a hang as a bug when
    the dropped-frame (jank) ratio during the hang exceeds a bar.

    Frames freeze during bug hangs and keep flowing during UI hangs,
    so jank is a plausible single signal; this ablation measures how
    it stacks up against the shipped three-counter filter on the
    training cases.  Returns {"jank": (recall, prune),
    "counters": (recall, prune)}.
    """
    from repro.core.schecker import SChecker
    from repro.sim.jank import hang_frame_stats

    config = HangDoctorConfig()
    schecker = SChecker(config, device, seed=seed)
    engine = ExecutionEngine(device, seed=seed)

    outcomes = {"jank": {"tp": 0, "fn": 0, "fp": 0, "tn": 0},
                "counters": {"tp": 0, "fn": 0, "fp": 0, "tn": 0}}
    for case in training_bug_cases() + training_ui_cases():
        action = case.app.action(case.action_name)
        collected = 0
        for _ in range(runs_per_case * 4):
            if collected >= runs_per_case:
                break
            execution = engine.run_action(case.app, action)
            if not execution.has_soft_hang:
                continue
            if case.is_hang_bug and not execution.bug_caused_hang():
                continue
            collected += 1
            verdicts = {
                "jank": hang_frame_stats(execution, device).jank_ratio
                        > jank_threshold,
                "counters": schecker.check(execution).symptomatic,
            }
            for name, fired in verdicts.items():
                bucket = outcomes[name]
                if case.is_hang_bug and fired:
                    bucket["tp"] += 1
                elif case.is_hang_bug:
                    bucket["fn"] += 1
                elif fired:
                    bucket["fp"] += 1
                else:
                    bucket["tn"] += 1

    def digest(bucket):
        recall = bucket["tp"] / max(1, bucket["tp"] + bucket["fn"])
        prune = bucket["tn"] / max(1, bucket["tn"] + bucket["fp"])
        return recall, prune

    return {name: digest(bucket) for name, bucket in outcomes.items()}
