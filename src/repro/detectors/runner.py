"""Detector runner.

Drives one or more runtime detectors over an identical sequence of
action executions (the paper: "we use the same app user traces to test
Hang Doctor and the baselines"), aggregating detections, traced-hang
outcomes, and monitoring costs.
"""

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.metrics import traced_confusion
from repro.detectors.base import MonitoringCost


@dataclass
class DetectorRun:
    """Aggregated result of one detector over one session."""

    detector_name: str
    executions: List = field(default_factory=list)
    outcomes: List = field(default_factory=list)
    cost: MonitoringCost = field(default_factory=MonitoringCost)

    @classmethod
    def merge(cls, parts):
        """Recombine runs of one detector over disjoint session slices.

        Executions and outcomes concatenate in the order given (so
        callers sharding a session keep session order by submitting
        shards in order); costs sum.  All parts must belong to the
        same detector.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one DetectorRun to merge")
        names = {part.detector_name for part in parts}
        if len(names) > 1:
            raise ValueError(
                f"cannot merge runs of different detectors: {sorted(names)}"
            )
        merged = cls(detector_name=parts[0].detector_name)
        for part in parts:
            merged.executions.extend(part.executions)
            merged.outcomes.extend(part.outcomes)
            merged.cost.add(part.cost)
        return merged

    @property
    def detections(self):
        """All detections, in session order."""
        return [d for outcome in self.outcomes for d in outcome.detections]

    def confusion(self):
        """Figure 8-style traced-hang confusion counts."""
        return traced_confusion(self.executions, self.outcomes)

    def overhead(self, model=None):
        """Overhead percentages for this run.

        Only the comparison, ablation and chaos experiments ask for
        it, so the overhead model loads here rather than with the
        runner every deployment uses.
        """
        from repro.analysis.overhead import OverheadModel, app_baseline

        model = model or OverheadModel()
        cpu_ms, mem_kb = app_baseline(self.executions)
        return model.overhead(self.cost, cpu_ms, mem_kb)


def run_detector(detector, executions, device_id=0):
    """Feed *executions* (in order) to one detector."""
    run = DetectorRun(detector_name=detector.name)
    for execution in executions:
        outcome = detector.process(execution, device_id=device_id)
        run.executions.append(execution)
        run.outcomes.append(outcome)
        run.cost.add(outcome.cost)
    return run


def run_detectors(detectors, executions, device_id=0):
    """Run several detectors over the same executions.

    Returns ``{detector.name: DetectorRun}``.
    """
    results: Dict[str, DetectorRun] = {}
    for detector in detectors:
        results[detector.name] = run_detector(
            detector, executions, device_id=device_id
        )
    return results
