"""Training and validation set construction (paper §3.3.1).

The paper trains S-Checker on 10 well-known soft hang bugs (ones that
offline tools also detect) plus 11 UI-APIs, and validates on the
previously-unknown bugs of Table 5 that offline tools miss.  None of
the training bugs appear in the validation set.

A *case* is (app, action, ground-truth label); running a case's action
and keeping hang executions yields labelled counter samples for the
correlation/threshold analyses.
"""

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.correlation import CounterSample, collect_samples
from repro.apps import android_apis as apis
from repro.apps.app import AppSpec
from repro.apps.catalog import TABLE5_APPS, get_app
from repro.apps.catalog_helpers import op, ui_action
from repro.sim.counters import ALL_EVENTS
from repro.sim.engine import ExecutionEngine
from repro.sim.pmu import PmuSampler
from repro.sim.timeline import MAIN_THREAD, RENDER_THREAD


@dataclass(frozen=True)
class Case:
    """One labelled (app, action) workload."""

    app: AppSpec
    action_name: str
    is_hang_bug: bool
    #: Site id of the targeted bug (None for UI cases).
    site_id: str = None

    @property
    def key(self):
        """Readable case identifier (app/action)."""
        return f"{self.app.name}/{self.action_name}"


#: (app name, action name) of the 10 training bugs: well-known blocking
#: APIs from Table 5 apps that offline tools detect too.
TRAINING_BUG_SITES: Tuple[Tuple[str, str], ...] = (
    ("DashClock", "save_settings"),
    ("AndStatus", "scroll_timeline"),
    ("CycleStreets", "open_itinerary"),
    ("OwnTracks", "load_track"),
    ("StickerCamera", "take_photo"),
    ("StickerCamera", "apply_sticker"),
    ("StickerCamera", "save_photo"),
    ("AntennaPod", "play_episode"),
    ("Sage Math", "cache_cell"),
    ("Lens-Launcher", "load_app_icons"),
)


def build_ui_probe_app(copies=3, sigma=0.55):
    """An app with one action per training UI-API.

    Each action repeats its UI API a few times so that executions
    reliably exceed the 100 ms perceivable delay — the paper samples
    *soft hangs* caused by UI-APIs, not fast paths.  Durations get a
    wide spread (*sigma*): the paper's UI samples come from real apps
    whose layouts/lists vary hugely in size, giving the UI class the
    long tail visible in Figure 4.
    """
    from dataclasses import replace

    actions = []
    for api in apis.TRAINING_UI_APIS:
        label = api.name.strip("<>").replace(".", "_")
        spread = replace(api, sigma=sigma)
        actions.append(
            ui_action(
                f"ui_{label}_{api.clazz.rsplit('.', 1)[-1]}",
                *([spread] * copies),
                caller=f"probe{label.title()}",
            )
        )
    return AppSpec(
        name="UiProbe", package="com.repro.uiprobe", category="Tools",
        downloads=0, commit="0000000", actions=tuple(actions),
    )


def training_bug_cases():
    """The 10 known-bug training cases."""
    cases = []
    for app_name, action_name in TRAINING_BUG_SITES:
        app = get_app(app_name)
        action = app.action(action_name)
        bug_ops = action.hang_bug_operations()
        if not bug_ops:
            raise ValueError(
                f"training case {app_name}/{action_name} has no bug"
            )
        cases.append(
            Case(
                app=app, action_name=action_name, is_hang_bug=True,
                site_id=bug_ops[0].site_id,
            )
        )
    return cases


def training_ui_cases(copies=3):
    """The 11 UI-API training cases (one per training UI API)."""
    probe = build_ui_probe_app(copies=copies)
    return [
        Case(app=probe, action_name=action.name, is_hang_bug=False)
        for action in probe.actions
    ]


def validation_bug_cases():
    """The previously-unknown bugs of Table 5 (missed offline).

    One case per (action, bug site); excludes every training bug.
    """
    training_keys = set(TRAINING_BUG_SITES)
    cases = []
    for app in TABLE5_APPS:
        for action in app.actions:
            for bug_op in action.hang_bug_operations():
                if bug_op.api.known_blocking:
                    continue  # known bugs are training material
                if (app.name, action.name) in training_keys:
                    continue
                cases.append(
                    Case(
                        app=app, action_name=action.name, is_hang_bug=True,
                        site_id=bug_op.site_id,
                    )
                )
    return cases


def validation_firings(device, seed, config, runs):
    """How often each filter event fires on every validation bug.

    Runs each validation case's action *runs* times on one shared
    engine and sampler, keeps the soft hangs at the case's own bug
    site, and counts the hangs on which each of *config*'s filter
    events exceeds its threshold.  Returns ``[(case, hangs, fired)]``
    in case order, *fired* mapping event -> count.
    """
    events = config.filter_events()
    sampler = PmuSampler(device, events, seed=seed)
    engine = ExecutionEngine(device, seed=seed)
    firings = []
    for case in validation_bug_cases():
        action = case.app.action(case.action_name)
        hangs = 0
        fired = {event: 0 for event in events}
        for _ in range(runs):
            execution = engine.run_action(case.app, action)
            if not execution.has_soft_hang:
                continue
            if case.site_id not in execution.hang_bug_sites():
                continue
            hangs += 1
            for event in events:
                value = sampler.read_difference(
                    execution.timeline, event, MAIN_THREAD, RENDER_THREAD,
                    execution.start_ms, execution.end_ms,
                )
                if value > config.filter_thresholds[event]:
                    fired[event] += 1
        firings.append((case, hangs, fired))
    return firings


def collect_training_samples(engine, cases, runs_per_case=10, mode="diff",
                             events=ALL_EVENTS, max_attempts_factor=6):
    """Run each case until *runs_per_case* labelled hang samples exist.

    Bug cases contribute only executions whose soft hang is actually
    caused by the bug (the paper samples "user actions that have soft
    hangs caused by the soft hang bugs ... in the training set"); UI
    cases contribute any hang execution.
    """
    sampler = PmuSampler(engine.device, events, seed=engine.seed)
    samples: List[CounterSample] = []
    for case in cases:
        action = case.app.action(case.action_name)
        collected = 0
        attempts = 0
        while collected < runs_per_case:
            attempts += 1
            if attempts > runs_per_case * max_attempts_factor:
                raise RuntimeError(
                    f"case {case.key} rarely hangs as labelled; "
                    f"collected {collected}/{runs_per_case}"
                )
            execution = engine.run_action(case.app, action)
            if not execution.has_soft_hang:
                continue
            if case.is_hang_bug and not execution.bug_caused_hang():
                continue
            samples.append(
                collect_samples(
                    execution, case.is_hang_bug, mode=mode, events=events,
                    sampler=sampler, source=case.key,
                )
            )
            collected += 1
    return samples
