"""Seed-stability of the headline results.

A single-seed reproduction can be a lucky draw.  This experiment
repeats the headline measurements across independent seeds and
summarizes their spread, so EXPERIMENTS.md's claims ("Table 5
reproduces exactly") can be read as typical behaviour, not a
cherry-pick:

* Table 5's bugs-detected / missed-offline totals,
* Figure 8's Hang Doctor TP/FP ratios vs TI,
* the S-Checker filter's training recall/prune under refits.

Each seed's measurement is independent of every other seed's, so the
sweeps shard per seed across worker processes (``workers=N``) through
:mod:`repro.sched`; each shard returns its seed's ``{metric: value}``
and :func:`_by_seed` builds the result once in seed order, keeping
the output identical to a serial sweep.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.correlation import correlate, ranked_events
from repro.analysis.thresholds import fit_filter
from repro.apps.corpus import FLEET_SIZE
from repro.harness.exp_comparison import figure8
from repro.harness.exp_fleet import table5
from repro.harness.exp_filter import training_samples
from repro.harness.tables import render_table
from repro.parallel import ExecutionReport
from repro.sched import ElasticScheduler


@dataclass(frozen=True)
class StabilityResult:
    """Per-metric samples across seeds."""

    #: metric name -> list of per-seed values.
    metrics: Dict[str, List[float]]
    seeds: Tuple[int, ...]
    #: How the sweep actually executed (supervision events, checkpoint
    #: hits); advisory — never part of the rendered output.
    execution: Optional[ExecutionReport] = field(
        default=None, compare=False, repr=False
    )

    def mean(self, metric):
        """Across-seed mean of one metric."""
        return float(np.mean(self.metrics[metric]))

    def std(self, metric):
        """Across-seed standard deviation of one metric."""
        return float(np.std(self.metrics[metric]))

    def spread(self, metric):
        """(min, max) across seeds."""
        values = self.metrics[metric]
        return min(values), max(values)

    def render(self):
        """ASCII table: mean / std / min / max per metric."""
        rows = []
        for metric in self.metrics:
            lo, hi = self.spread(metric)
            rows.append((
                metric, round(self.mean(metric), 3),
                round(self.std(metric), 3), round(lo, 3), round(hi, 3),
            ))
        return render_table(
            ("metric", "mean", "std", "min", "max"), rows,
            title=f"Seed stability over seeds {list(self.seeds)}",
        )


def _by_seed(seeds, values, execution=None):
    """The :class:`StabilityResult` of per-seed ``{metric: value}``
    dicts, given in seed order."""
    metrics = {
        name: [value[name] for value in values]
        for name in (values[0] if values else ())
    }
    return StabilityResult(metrics=metrics, seeds=tuple(seeds),
                           execution=execution)


def _fleet_stability_shard(payload):
    """Table 5 totals for one seed (module-level for the process pool)."""
    device, seed, users, actions_per_user, corpus_size = payload
    result = table5(device, seed=seed, users=users,
                    actions_per_user=actions_per_user,
                    corpus_size=corpus_size)
    return {
        "bugs_detected": float(result.total_detected),
        "missed_offline": float(result.total_missed_offline),
        "clean_flagged": float(result.clean_apps_flagged),
    }


def fleet_stability(device, seeds=(3, 7, 13), users=3,
                    actions_per_user=60, corpus_size=FLEET_SIZE,
                    workers=1, checkpoint=None, resume=False,
                    report=None):
    """Table 5's totals across seeds.

    ``checkpoint``/``resume`` journal each seed's completed shard so a
    killed sweep restarts where it left off, byte-identically.
    """
    scheduler = ElasticScheduler.for_sweep(
        "stability", device.name, tuple(seeds), users, actions_per_user,
        corpus_size, workers=workers, checkpoint=checkpoint, resume=resume,
        report=report,
    )
    shards = [
        (device, seed, users, actions_per_user, corpus_size)
        for seed in seeds
    ]
    values = scheduler.map(
        _fleet_stability_shard, shards, [f"seed|{s}" for s in seeds],
    )
    return _by_seed(seeds, values, execution=scheduler.report)


def _comparison_stability_shard(payload):
    """Figure 8 averages for one seed (module-level for the pool)."""
    device, seed, users, actions_per_user = payload
    result = figure8(device, seed=seed, users=users,
                     actions_per_user=actions_per_user)
    tp = result.normalized("tp")["Average"]
    fp = result.normalized("fp")["Average"]
    over = result.overheads()["Average"]
    return {
        "hd_tp_ratio": tp["HD"],
        "hd_fp_ratio": fp["HD"],
        "hd_overhead": over["HD"],
        "ti_overhead": over["TI"],
    }


def comparison_stability(device, seeds=(2, 5, 11), users=2,
                         actions_per_user=50, workers=1):
    """Figure 8's Hang Doctor averages across seeds."""
    shards = [(device, seed, users, actions_per_user) for seed in seeds]
    return _by_seed(seeds, ElasticScheduler.for_sweep(workers=workers).map(
        _comparison_stability_shard, shards,
        [f"figure8|seed{s}" for s in seeds],
    ))


def _filter_stability_shard(payload):
    """One training realization's filter quality (module-level)."""
    device, seed, runs_per_case = payload
    samples = training_samples(device, seed=seed,
                               runs_per_case=runs_per_case)
    ranking = [e for e, _ in ranked_events(correlate(samples))]
    fitted = fit_filter(samples, ranking)
    tp, fp, fn, tn = fitted.confusion(samples)
    return {
        "recall": tp / (tp + fn),
        "prune": tn / (tn + fp) if (tn + fp) else 0.0,
        "events": float(len(fitted.thresholds)),
    }


def filter_stability(device, seeds=(7, 21, 42), runs_per_case=8, workers=1):
    """The refitted filter's quality across training realizations."""
    shards = [(device, seed, runs_per_case) for seed in seeds]
    return _by_seed(seeds, ElasticScheduler.for_sweep(workers=workers).map(
        _filter_stability_shard, shards,
        [f"filter|seed{s}" for s in seeds],
    ))
