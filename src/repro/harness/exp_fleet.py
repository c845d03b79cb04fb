"""Fleet experiments: Tables 5 and 6.

Table 5: run Hang Doctor in the wild over the 114-app corpus (16
catalog apps with bugs + generated clean apps), count the new soft
hang bugs it finds per app (BD) and how many of them a
PerfChecker-style offline scanner misses (MO).  Paper: 34 bugs, 23
(68 %) missed offline.

Table 6: for each previously-unknown (validation) bug, which of the
three filter events recognizes it (fires in at least half of its bug
hangs).  Paper: context-switches 18/23, task-clock 12/23, page-faults
12/23, union 23/23.

The fleet study decomposes at *app* granularity: each app's simulated
deployment depends only on (device, root seed, app), thanks to the
per-app seed derivation of
:func:`~repro.harness.deployment.fleet_app_seed`.  ``table5`` hands
:mod:`repro.sched` one item per app, weighted by session count, which
it packs into one shard per worker (``workers=N``); every app comes
back as one cell, and the result is built once from the cells in
corpus order, so the parallel output is bit-identical to the serial
one regardless of worker count.

Each app deploys through :func:`~repro.harness.deployment.deploy`, the
one deployment path every deployment sweep shares.  Table 6's
training harness is imported by :func:`table6` alone, so a Table 5
run never loads it.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import detected_bug_sites
from repro.apps.catalog import TABLE5_APPS
from repro.apps.corpus import FLEET_SIZE, build_corpus
from repro.apps.sessions import SessionGenerator
from repro.core.blocking_db import BlockingApiDatabase
from repro.core.config import HangDoctorConfig
from repro.detectors.offline import OfflineScanner
from repro.harness.deployment import deploy, fleet_app_seed
from repro.harness.tables import render_table
from repro.parallel import ExecutionReport
from repro.sched import ElasticScheduler
from repro.telemetry import current as telemetry


@dataclass
class Table5Row:
    """Per-app outcome of the fleet run."""

    app_name: str
    category: str
    downloads: int
    commit: str
    issue_id: int
    bugs_detected: int
    missed_offline: int
    ground_truth_bugs: int


@dataclass
class Table5Result:
    """Fleet-wide Hang Doctor results."""

    rows: List[Table5Row]
    apps_tested: int
    clean_apps_flagged: int
    #: Unknown blocking APIs added to the database at runtime.
    new_blocking_apis: List[str]
    #: How the fleet run actually executed (supervision events,
    #: checkpoint hits); advisory — never part of the rendered output.
    execution: Optional[ExecutionReport] = field(
        default=None, compare=False, repr=False
    )

    @property
    def total_detected(self):
        """Bugs Hang Doctor found across the fleet."""
        return sum(row.bugs_detected for row in self.rows)

    @property
    def total_missed_offline(self):
        """Detected bugs the offline scanner misses."""
        return sum(row.missed_offline for row in self.rows)

    @property
    def missed_offline_percent(self):
        """Share of detections missed offline (paper: 68 %).

        NaN when nothing was detected: an empty fleet run has no
        offline-scanner performance to report, and ``0.0`` would read
        as "a perfect offline scanner" in the summary line.
        """
        if not self.total_detected:
            return float("nan")
        return 100.0 * self.total_missed_offline / self.total_detected

    def render(self):
        """ASCII rendering of the result."""
        rows = [
            (row.app_name, row.category, row.issue_id,
             f"{row.bugs_detected} ({row.missed_offline})",
             row.ground_truth_bugs)
            for row in self.rows
        ]
        rows.append((
            "TOTAL", "", "",
            f"{self.total_detected} ({self.total_missed_offline})",
            sum(row.ground_truth_bugs for row in self.rows),
        ))
        table = render_table(
            ("App Name", "Category", "Issue", "BD (MO)", "truth"),
            rows, title=f"Table 5 - {self.apps_tested} apps tested",
        )
        percent = self.missed_offline_percent
        share = "n/a" if math.isnan(percent) else f"{percent:.0f}%"
        return (
            f"{table}\n"
            f"{share} of detected bugs are "
            f"missed by the offline scanner; "
            f"{len(self.new_blocking_apis)} new blocking APIs added to "
            f"the database; {self.clean_apps_flagged} clean apps "
            f"wrongly flagged"
        )


def _table5_shape(app, users, actions_per_user):
    """``(users, actions per user)`` of one corpus app's deployment:
    catalog (bug-bearing) apps get the full user base, clean apps half
    the users (at least one) and a third of the actions."""
    if app.hang_bug_operations():
        return users, actions_per_user
    return max(1, users // 2), actions_per_user // 3


def _table5_cell(payload):
    """Deploy Hang Doctor on one corpus app (module-level so the
    process pool can pickle it).

    Returns ``(row, clean_flagged, discoveries)``: a :class:`Table5Row`
    for a catalog (bug-bearing) app or ``None`` for a clean one, 1 if a
    clean app was wrongly flagged, and the blocking APIs the app's own
    database added at runtime.
    """
    device, seed, config, app, (users, actions_per_user) = payload
    tel = telemetry()
    with tel.track(f"fleet/{app.name}"):
        tel.count("fleet.apps.run")
        doctor, run = deploy(
            app, device, fleet_app_seed(seed, app.name),
            SessionGenerator(seed=seed).fleet_sessions(
                app, users, actions_per_user),
            config=config, blocking_db=BlockingApiDatabase.initial(),
        )
        detections = run.detections
        discoveries = doctor.blocking_db.runtime_discoveries()
        if not app.hang_bug_operations():
            return None, 1 if detections else 0, discoveries
        detected = detected_bug_sites(app, detections)
        row = Table5Row(
            app_name=app.name,
            category=app.category,
            downloads=app.downloads,
            commit=app.commit,
            issue_id=app.issue_id or 0,
            bugs_detected=len(detected),
            missed_offline=len(
                detected - OfflineScanner().detected_sites(app)),
            ground_truth_bugs=len(app.hang_bug_operations()),
        )
        return row, 0, discoveries


def table5(device, seed=0, users=4, actions_per_user=60,
           corpus_size=FLEET_SIZE, config=None, workers=1, checkpoint=None,
           resume=False, report=None):
    """Reproduce Table 5's fleet study (scaled-down user base).

    Each corpus app is one item, weighted by its session count (users
    × actions per user), so the scheduler packs the corpus into at
    most one shard per worker; any worker count yields byte-identical
    results (per-app seeds make every app's run independent of corpus
    position and shard assignment, and the cells come back in corpus
    order).  Each app grows its own blocking-API database from the
    shipped one; deduplicating their discoveries first-seen in corpus
    order gives exactly the list one shared database records serially.
    ``checkpoint``/``resume`` journal finished apps so a killed run
    restarts where it left off, at any ``workers``.  ``report``
    collects supervision events (also attached to the result as
    ``execution``).
    """
    scheduler = ElasticScheduler.for_sweep(
        "table5", device.name, seed, users, actions_per_user, corpus_size,
        repr(config), workers=workers, checkpoint=checkpoint,
        resume=resume, report=report,
    )
    apps = build_corpus(seed=seed, size=corpus_size)
    shapes = [_table5_shape(app, users, actions_per_user) for app in apps]
    cells = scheduler.map(
        _table5_cell,
        [(device, seed, config, app, shape)
         for app, shape in zip(apps, shapes)],
        [f"t5|{app.name}" for app in apps],
        weights=[app_users * per_user for app_users, per_user in shapes],
    )
    return Table5Result(
        rows=[row for row, _, _ in cells if row is not None],
        apps_tested=len(cells),
        clean_apps_flagged=sum(flagged for _, flagged, _ in cells),
        new_blocking_apis=list(dict.fromkeys(
            name for _, _, discoveries in cells for name in discoveries
        )),
        execution=scheduler.report,
    )


@dataclass
class Table6Row:
    """Per-app counter attribution for validation bugs."""

    app_name: str
    new_bugs: int
    by_event: Dict[str, int]


@dataclass
class Table6Result:
    """Which filter event recognizes each previously-unknown bug."""

    rows: List[Table6Row]
    events: Tuple[str, ...]
    undetected: List[str]

    def totals(self):
        """Per-event recognition totals across apps."""
        totals = {event: 0 for event in self.events}
        for row in self.rows:
            for event in self.events:
                totals[event] += row.by_event.get(event, 0)
        return totals

    @property
    def total_bugs(self):
        """All validation bugs covered by the table."""
        return sum(row.new_bugs for row in self.rows)

    def render(self):
        """ASCII rendering of the result.

        A genuine count of zero renders as ``0``; ``-`` is reserved
        for events the run never measured (absent from ``by_event``).
        """
        headers = ["App Name", "New Bugs"] + [
            event.replace("context-switches", "ctx-sw") for event in
            self.events
        ]
        rows = []
        for row in self.rows:
            cells = [row.app_name, row.new_bugs]
            cells += [
                row.by_event[event] if event in row.by_event else "-"
                for event in self.events
            ]
            rows.append(cells)
        totals = self.totals()
        rows.append(
            ["TOTAL", self.total_bugs]
            + [totals[event] for event in self.events]
        )
        table = render_table(
            headers, rows,
            title="Table 6 - Validation bugs recognized per filter event",
        )
        undetected = (
            f"\nbugs not recognized by any event: {self.undetected}"
            if self.undetected else "\nall validation bugs recognized"
        )
        return table + undetected


def table6(device, seed=0, runs=25, config=None, recognize_rate=0.5):
    """Reproduce Table 6's per-counter validation-bug attribution."""
    from repro.harness.training import validation_firings

    config = (config or HangDoctorConfig()).validate()
    events = config.filter_events()
    per_app: Dict[str, Table6Row] = {}
    undetected = []
    for case, hangs, fired in validation_firings(device, seed, config, runs):
        row = per_app.setdefault(
            case.app.name,
            Table6Row(app_name=case.app.name, new_bugs=0,
                      by_event={event: 0 for event in events}),
        )
        row.new_bugs += 1
        recognized = False
        for event in events:
            if hangs and fired[event] / hangs >= recognize_rate:
                row.by_event[event] += 1
                recognized = True
        if not recognized:
            undetected.append(f"{case.key}:{case.site_id}")
    ordered = [
        per_app[app.name] for app in TABLE5_APPS if app.name in per_app
    ]
    return Table6Result(rows=ordered, events=events, undetected=undetected)
