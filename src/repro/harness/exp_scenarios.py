"""Scenario sweep: per-archetype detection quality over generated fleets.

Deploys Hang Doctor on a taxonomy-generated fleet
(:mod:`repro.scenarios`) exactly the way the Table 5 study deploys it
on the paper corpus — per-app seeds via
:func:`~repro.harness.deployment.fleet_app_seed`, the same session
generator, the same :func:`~repro.harness.deployment.deploy` — and
scores every app against its archetype's ground truth, producing a
precision/recall/false-positive table per archetype.

Scoring (all at the granularity the paper's Table 5 uses):

* **TP** — distinct ground-truth bug *sites* a detection named
  (:func:`~repro.analysis.metrics.detected_bug_sites`).
* **FN** — ground-truth sites never named.
* **FP** — distinct *actions* blamed without a real bug root
  (:func:`~repro.analysis.metrics.false_positive_actions`).
* **apps flagged** / **FPR** — bug-free apps with at least one
  detection, as a fraction of the archetype's apps; the number the
  ``render_jank_benign`` archetype exists to pressure.

The sweep decomposes at app granularity: every app's run is a pure
function of (device, root seed, app).  The fleet is generated once,
and every app runs the same users × actions shape, so each app is one
item of uniform weight, which the scheduler packs into one shard per
worker.  The result is built once from the cells in fleet order, so
any ``--workers`` count, packing, checkpoint resume, or repeat run
renders byte-identical output.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.analysis.metrics import (
    detected_bug_sites,
    false_positive_actions,
)
from repro.apps.sessions import SessionGenerator
from repro.core.blocking_db import BlockingApiDatabase
from repro.detectors.offline import OfflineScanner
from repro.harness.deployment import deploy, fleet_app_seed
from repro.harness.tables import render_table
from repro.parallel import ExecutionReport
from repro.scenarios import (
    ARCHETYPES,
    DEFAULT_MIX,
    TAXONOMY,
    generate_fleet,
    parse_mix,
    render_mix,
)
from repro.sched import ElasticScheduler
from repro.telemetry import current as telemetry


@dataclass(frozen=True)
class ScenarioCell:
    """One app's deployment outcome."""

    index: int
    archetype: str
    app_name: str
    #: Ground-truth hang-bug sites in the app.
    truth_sites: int
    #: Distinct ground-truth sites detections named (TP).
    detected_sites: int
    #: Of the detected sites, how many an offline scan also finds.
    offline_sites: int
    #: Distinct actions blamed without a real bug root (FP).
    fp_actions: int
    #: Soft hangs observed across the deployment (context column).
    hangs: int
    detections: int


@dataclass
class ScenarioResult:
    """The full fleet sweep, labelled per archetype."""

    cells: List[ScenarioCell]
    size: int
    #: Normalized ``((archetype, fraction), ...)`` mix.
    mix: Tuple[Tuple[str, float], ...]
    users: int
    actions_per_user: int
    #: How the sweep actually executed; advisory — never rendered.
    execution: Optional[ExecutionReport] = field(
        default=None, compare=False, repr=False
    )

    def archetypes(self):
        """Archetype names present, in taxonomy order."""
        present = {cell.archetype for cell in self.cells}
        return [a.name for a in TAXONOMY if a.name in present]

    def row(self, archetype):
        """Aggregate one archetype's cells."""
        cells = [c for c in self.cells if c.archetype == archetype]
        if not cells:
            raise KeyError(f"no cells for archetype {archetype!r}")
        tp = sum(c.detected_sites for c in cells)
        truth = sum(c.truth_sites for c in cells)
        fp = sum(c.fp_actions for c in cells)
        clean_apps = [c for c in cells if c.truth_sites == 0]
        flagged = sum(
            1 for c in clean_apps if c.detections or c.fp_actions
        )
        return {
            "archetype": archetype,
            "apps": len(cells),
            "truth": truth,
            "tp": tp,
            "fn": truth - tp,
            "fp": fp,
            "precision": tp / (tp + fp) if tp + fp else float("nan"),
            "recall": tp / truth if truth else float("nan"),
            "apps_flagged": flagged,
            "fpr": (
                flagged / len(clean_apps) if clean_apps else float("nan")
            ),
            "hangs": sum(c.hangs for c in cells),
            "offline": sum(c.offline_sites for c in cells),
        }

    @staticmethod
    def _ratio(value):
        return "n/a" if math.isnan(value) else f"{value:.3f}"

    def render(self):
        """ASCII rendering: one row per archetype plus a TOTAL row."""
        headers = ("archetype", "apps", "truth", "TP", "FN", "FP",
                   "precision", "recall", "flagged", "FPR", "hangs")
        rows = []
        totals = {"apps": 0, "truth": 0, "tp": 0, "fp": 0, "hangs": 0,
                  "apps_flagged": 0, "offline": 0}
        for archetype in self.archetypes():
            row = self.row(archetype)
            for key in totals:
                totals[key] += row[key]
            rows.append((
                archetype, row["apps"], row["truth"], row["tp"],
                row["fn"], row["fp"], self._ratio(row["precision"]),
                self._ratio(row["recall"]), row["apps_flagged"],
                self._ratio(row["fpr"]), row["hangs"],
            ))
        tp, fp = totals["tp"], totals["fp"]
        truth = totals["truth"]
        rows.append((
            "TOTAL", totals["apps"], truth, tp, truth - tp, fp,
            self._ratio(tp / (tp + fp) if tp + fp else float("nan")),
            self._ratio(tp / truth if truth else float("nan")),
            totals["apps_flagged"], "", totals["hangs"],
        ))
        table = render_table(
            headers, rows,
            title=(
                f"Scenario sweep - {self.size} apps, "
                f"mix {render_mix(self.mix)}"
            ),
        )
        offline = totals["offline"]
        offline_share = (
            "n/a" if not tp else f"{100.0 * (tp - offline) / tp:.0f}%"
        )
        return (
            f"{table}\n"
            f"{offline_share} of detected bug sites are invisible to "
            f"offline scanning; benign-archetype apps wrongly flagged: "
            f"{totals['apps_flagged']}"
        )


def _scenario_cell(payload):
    """Deploy Hang Doctor on one generated app (module-level so the
    process pool can pickle it); returns its :class:`ScenarioCell`.

    Deploys through :func:`repro.harness.deployment.deploy` with the
    fleet study's per-app seeds and session structure, so scenario
    numbers are directly comparable to the Table 5 fleet study's.
    """
    device, seed, users, actions_per_user, config, entry = payload
    app = entry.app
    tel = telemetry()
    with tel.track(f"scenarios/{app.name}"):
        tel.count("scenarios.apps.run")
        _, run = deploy(
            app, device, fleet_app_seed(seed, app.name),
            SessionGenerator(seed=seed).fleet_sessions(
                app, users, actions_per_user),
            config=config, blocking_db=BlockingApiDatabase.initial(),
        )
        detections = run.detections
        detected = detected_bug_sites(app, detections)
        offline = OfflineScanner().detected_sites(app)
        return ScenarioCell(
            index=entry.index,
            archetype=entry.archetype,
            app_name=app.name,
            truth_sites=len(app.hang_bug_operations()),
            detected_sites=len(detected),
            offline_sites=len(detected & offline),
            fp_actions=len(false_positive_actions(app, detections)),
            hangs=sum(
                1 for execution in run.executions
                if execution.has_soft_hang
            ),
            detections=len(detections),
        )


def scenario_sweep(device, seed=0, size=1000, mix=DEFAULT_MIX, users=2,
                   actions_per_user=12, config=None, workers=1,
                   checkpoint=None, resume=False, report=None):
    """Sweep a generated scenario fleet; returns a ScenarioResult.

    ``size`` and ``mix`` parameterize the fleet (see
    :func:`repro.scenarios.parse_mix` for the mix syntax).  The fleet
    is generated once, and each app is one item of uniform weight
    (every app runs the same users × actions shape), so the scheduler
    packs the fleet into at most one shard per worker.  Per-app seeds
    make every cell a pure function of its payload, and the cells come
    back in fleet order, so any worker count yields byte-identical
    output.  ``checkpoint``/``resume`` journal finished apps the
    moment their shard completes, exactly like the other sweeps, and a
    resume at any ``workers`` reuses them.
    """
    mix = parse_mix(mix)
    if size <= 0:
        raise ValueError("size must be positive")
    scheduler = ElasticScheduler.for_sweep(
        "scenarios", device.name, seed, size, repr(mix), users,
        actions_per_user, repr(config),
        workers=workers, checkpoint=checkpoint, resume=resume,
        report=report,
    )
    fleet = generate_fleet(size, mix=mix, seed=seed)
    cells = scheduler.map(
        _scenario_cell,
        [(device, seed, users, actions_per_user, config, entry)
         for entry in fleet],
        [f"sc|{entry.index}" for entry in fleet],
        weights=[1.0] * len(fleet),
    )
    return ScenarioResult(
        cells=cells, size=size, mix=mix, users=users,
        actions_per_user=actions_per_user, execution=scheduler.report,
    )


#: Re-exported for callers that want to label results themselves.
ARCHETYPE_NAMES = tuple(a.name for a in TAXONOMY)

__all__ = [
    "ARCHETYPES",
    "ARCHETYPE_NAMES",
    "ScenarioCell",
    "ScenarioResult",
    "scenario_sweep",
]
