"""SLO evaluation and multi-window burn-rate alerting over rollups.

An objective is declarative: a name, a target ratio, a rollup window
domain, and a rule for classifying each window's events as *good* or
*bad*.  Three rule kinds cover the reproduction's health questions:

* ``latency`` — good events are histogram observations at or under a
  threshold (resolved against the fixed bucket bounds, so the split
  is exact and integer);
* ``ratio`` — good/bad are two named counters (e.g. ingested vs
  dropped batches);
* ``window`` — each window is itself one event, good when a derived
  statistic stays under a ceiling (e.g. overhead %).

The error budget is the classic SRE formulation: over the evaluated
range, ``allowed_bad = (1 - target) x total`` events; the budget is
exhausted when observed bad events exceed it.  Burn rate per window
is ``(bad / total) / (1 - target)`` — 1.0 means burning exactly the
budget over the range.  Alerts use the standard multi-window pairing:
a window fires when both its own burn (short) and the trailing
``long_windows``-window burn (long) clear a threshold — >= 14.4 pages,
>= 3.0 tickets.  Everything is integer arithmetic plus fixed-order
float division, so ``alerts.jsonl`` is byte-identical whenever the
rollup is.
"""

import json

from repro.obs.rollup import _index_key

#: Multi-window burn thresholds (Google SRE workbook's fast/slow pair).
PAGE_BURN = 14.4
TICKET_BURN = 3.0

#: Trailing windows of the long burn condition.
DEFAULT_LONG_WINDOWS = 6

#: Cap for rendering an effectively infinite burn (target == 1.0
#: with any bad event) — JSON has no Infinity.
_BURN_CAP = 1e9

#: Default objectives of the reproduction's ops plane.  Targets are
#: deliberately modest: they express "the doctor is behaving like the
#: paper says it should", not aspirational five-nines.
DEFAULT_OBJECTIVES = (
    {
        "name": "detection-latency",
        "kind": "latency",
        "domain": "sim",
        "histogram": "doctor_ms",
        "threshold_ms": 200.0,
        "target": 0.50,
    },
    {
        "name": "overhead-ceiling",
        "kind": "window",
        "domain": "sim",
        "derived": "overhead_pct",
        "ceiling": 50.0,
        "target": 0.75,
    },
    {
        "name": "ingest-availability",
        "kind": "ratio",
        "domain": "round",
        "good": "batches_ingested",
        "bad": "batches_dropped",
        "target": 0.95,
    },
)


def _latency_split(registry, histogram, threshold_ms):
    """``(good, bad)`` observations at/under vs over *threshold_ms*.

    The threshold resolves to the histogram's fixed bucket bounds:
    every bucket whose upper bound is <= threshold counts as good.
    """
    buckets = registry.histogram_buckets(histogram)
    if buckets is None:
        return 0, 0
    bounds, counts = buckets
    good = sum(
        count for bound, count in zip(bounds, counts)
        if bound <= threshold_ms
    )
    return good, sum(counts) - good


def _window_events(objective, index, registry, row):
    """Classify one window's events as ``(good, bad)`` per the rule."""
    kind = objective["kind"]
    if kind == "latency":
        return _latency_split(
            registry, objective["histogram"], objective["threshold_ms"]
        )
    if kind == "ratio":
        return (
            registry.counter_value(objective["good"]),
            registry.counter_value(objective["bad"]),
        )
    if kind == "window":
        value = row["derived"].get(objective["derived"])
        if value is None:
            return 0, 0
        return (1, 0) if value <= objective["ceiling"] else (0, 1)
    raise ValueError(f"unknown objective kind {kind!r}")


def _burn(good, bad, target):
    """Burn rate of (good, bad) against *target*, capped, 6 decimals."""
    total = good + bad
    if total == 0 or bad == 0:
        return 0.0
    error_budget = 1.0 - target
    if error_budget <= 0.0:
        return _BURN_CAP
    return round(min((bad / total) / error_budget, _BURN_CAP), 6)


def evaluate_slos(rollup, objectives=DEFAULT_OBJECTIVES,
                  long_windows=DEFAULT_LONG_WINDOWS):
    """Evaluate *objectives* against *rollup*.

    Returns ``(statuses, alerts)``: one status dict per objective
    (good/bad totals, allowed bad, budget remaining, ``exhausted``)
    and a flat, deterministically ordered alert list ready for
    ``alerts.jsonl``.
    """
    rows = {
        (row["domain"], row["index"]): row for row in rollup.rows()
    }
    statuses = []
    alerts = []
    for objective in objectives:
        domain = objective["domain"]
        target = float(objective["target"])
        windows = [
            (index, registry, rows[(dom, index)])
            for dom, index, registry in rollup.windows(domain)
        ]
        series = []
        total_good = 0
        total_bad = 0
        for index, registry, row in windows:
            good, bad = _window_events(objective, index, registry, row)
            series.append((index, good, bad))
            total_good += good
            total_bad += bad
        total = total_good + total_bad
        allowed_bad = round((1.0 - target) * total, 9)
        for position, (index, good, bad) in enumerate(series):
            tail = series[max(0, position - long_windows + 1):position + 1]
            long_good = sum(entry[1] for entry in tail)
            long_bad = sum(entry[2] for entry in tail)
            burn_short = _burn(good, bad, target)
            burn_long = _burn(long_good, long_bad, target)
            severity = None
            if burn_short >= PAGE_BURN and burn_long >= PAGE_BURN:
                severity = "page"
            elif burn_short >= TICKET_BURN and burn_long >= TICKET_BURN:
                severity = "ticket"
            if severity is not None:
                alerts.append({
                    "objective": objective["name"],
                    "domain": domain,
                    "index": index,
                    "severity": severity,
                    "burn_short": burn_short,
                    "burn_long": burn_long,
                })
        statuses.append({
            "objective": objective["name"],
            "kind": objective["kind"],
            "domain": domain,
            "target": target,
            "good": total_good,
            "bad": total_bad,
            "total": total,
            "allowed_bad": allowed_bad,
            "budget_remaining": round(allowed_bad - total_bad, 9),
            "exhausted": total_bad > allowed_bad,
            "alerts": sum(
                1 for alert in alerts
                if alert["objective"] == objective["name"]
            ),
        })
    alerts.sort(key=lambda alert: (
        alert["objective"], alert["domain"], _index_key(alert["index"]),
    ))
    return statuses, alerts


def alerts_to_jsonl(alerts):
    """``alerts.jsonl`` text: one compact JSON alert per line."""
    return "".join(
        json.dumps(alert, sort_keys=True, separators=(",", ":")) + "\n"
        for alert in alerts
    )


def render_slo_table(statuses):
    """Human-readable SLO summary, one line per objective."""
    lines = ["objective             target   good/bad        budget  state"]
    for status in statuses:
        state = "EXHAUSTED" if status["exhausted"] else "ok"
        if status["total"] == 0:
            state = "no-data"
        lines.append(
            f"{status['objective']:<20} {status['target']:>7.2%} "
            f"{status['good']:>6}/{status['bad']:<6} "
            f"{status['budget_remaining']:>9.2f}  {state}"
        )
    return "\n".join(lines)
