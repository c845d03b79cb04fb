"""The metrics half of :mod:`repro.telemetry`.

A :class:`MetricsRegistry` holds three instrument kinds under one
hierarchical dot-separated namespace (``core.phase2.collections``,
``executor.shard.retries``, ``crowd.batches.deduped``):

* **counters** — monotonically increasing integer sums;
* **gauges** — last-set floats (``merge`` keeps the max, which is the
  right combinator for the 0/1 flags we gauge, e.g. degraded mode);
* **histograms** — fixed-bucket distributions (bucket-wise integer
  sums plus a running total and value sum).

Every instrument merges associatively and commutatively, so per-shard
registries collected in worker processes can be folded into the parent
in *any* order and still produce identical totals — the same algebra
that makes checkpoint/resume byte-identical for experiment results
extends to the telemetry channel.

The registry state is plain picklable builtins (dicts, lists, ints,
floats), so it rides inside checkpoint journal entries unchanged.
"""

#: Default histogram bucket upper bounds in milliseconds.  Chosen to
#: straddle the paper's 100 ms perceivable-delay threshold with roughly
#: logarithmic spacing; the implicit final bucket is +inf.
DEFAULT_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0,
)

#: Characters that may not appear in label keys or values — they are
#: the delimiters of the encoded form.
_LABEL_FORBIDDEN = frozenset('{},="')


def labeled(name, **labels):
    """Encode *labels* into a metric name, canonically.

    The registry itself is label-unaware: a labeled series is just a
    metric whose name carries its labels in a fixed textual form,
    ``name{key=value,...}`` with keys sorted — so the same label set
    always produces the same registry key, and the Prometheus renderer
    (:mod:`repro.obs.prometheus`) can split them back out.  Keys and
    values must avoid the delimiter characters ``{ } , = "``.

    >>> labeled("serve.http.requests", status="2xx", route="/healthz")
    'serve.http.requests{route=/healthz,status=2xx}'
    """
    if not labels:
        return name
    parts = []
    for key in sorted(labels):
        value = str(labels[key])
        for text in (key, value):
            bad = _LABEL_FORBIDDEN.intersection(text)
            if bad:
                raise ValueError(
                    f"label {key}={value!r} contains reserved "
                    f"character(s) {sorted(bad)}"
                )
        parts.append(f"{key}={value}")
    return name + "{" + ",".join(parts) + "}"


class MetricsRegistry:
    """Counters, gauges, and fixed-bucket histograms under one namespace.

    All mutators are cheap dict updates; nothing here allocates per
    call beyond the first touch of each metric name.  ``merge`` /
    ``merge_state`` are associative and commutative so shard-collected
    registries survive any absorption order (including checkpoint
    resume, where restored shards are folded in before fresh ones).
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        # name -> [bounds tuple, per-bucket counts list (+inf last),
        #          total observation count, value sum]
        self._histograms = {}

    # ---------------------------------------------------------- mutators

    def count(self, name, n=1):
        """Increment counter *name* by integer *n* (default 1)."""
        self._counters[name] = self._counters.get(name, 0) + n

    def gauge_set(self, name, value):
        """Set gauge *name* to float *value* (last write wins locally)."""
        self._gauges[name] = float(value)

    def observe(self, name, value, buckets=DEFAULT_BUCKETS_MS):
        """Record one observation into histogram *name*.

        *buckets* fixes the upper bounds on first use; later calls and
        merges must agree on them (fixed buckets are what make the
        merge bucket-wise addition).
        """
        hist = self._histograms.get(name)
        if hist is None:
            bounds = tuple(float(b) for b in buckets)
            hist = [bounds, [0] * (len(bounds) + 1), 0, 0.0]
            self._histograms[name] = hist
        bounds, counts, _, _ = hist
        slot = len(bounds)
        for position, bound in enumerate(bounds):
            if value <= bound:
                slot = position
                break
        counts[slot] += 1
        hist[2] += 1
        hist[3] += float(value)

    # ----------------------------------------------------------- readers

    def counter_value(self, name):
        """Current value of counter *name* (0 when never incremented)."""
        return self._counters.get(name, 0)

    def gauge_value(self, name, default=0.0):
        """Current value of gauge *name* (*default* when never set)."""
        return self._gauges.get(name, default)

    def histogram_summary(self, name):
        """``(total_count, value_sum)`` of histogram *name* (0, 0.0)."""
        hist = self._histograms.get(name)
        if hist is None:
            return 0, 0.0
        return hist[2], hist[3]

    def histogram_buckets(self, name):
        """``(bounds, counts)`` of histogram *name*, or None.

        *bounds* are the finite upper bounds; *counts* has one extra
        trailing slot for the implicit +inf bucket.  Both come back as
        fresh tuples, so callers cannot corrupt the registry.
        """
        hist = self._histograms.get(name)
        if hist is None:
            return None
        return tuple(hist[0]), tuple(hist[1])

    def empty(self):
        """True when nothing has been recorded."""
        return not (self._counters or self._gauges or self._histograms)

    # ------------------------------------------------------------- merge

    def state(self):
        """Picklable snapshot: plain dicts/lists of builtins only."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: [list(hist[0]), list(hist[1]), hist[2], hist[3]]
                for name, hist in self._histograms.items()
            },
        }

    def merge_state(self, state):
        """Fold a :meth:`state` snapshot into this registry.

        Counters and histogram buckets add; gauges keep the maximum
        (our gauges are 0/1 "did it ever happen" flags, for which max
        is the associative/commutative combinator).  Histogram bucket
        bounds must match — mismatched bounds would make the merge
        silently lossy, so they raise instead.
        """
        for name, value in state.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in state.get("gauges", {}).items():
            current = self._gauges.get(name)
            self._gauges[name] = (
                value if current is None else max(current, value)
            )
        for name, other in state.get("histograms", {}).items():
            bounds = tuple(float(b) for b in other[0])
            hist = self._histograms.get(name)
            if hist is None:
                self._histograms[name] = [
                    bounds, list(other[1]), other[2], other[3]
                ]
                continue
            if hist[0] != bounds:
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ: "
                    f"{hist[0]} vs {bounds}"
                )
            for position, count in enumerate(other[1]):
                hist[1][position] += count
            hist[2] += other[2]
            hist[3] += other[3]
        return self

    def merge(self, other):
        """Fold another registry into this one (see :meth:`merge_state`)."""
        return self.merge_state(other.state())

    # ------------------------------------------------------------ render

    def render_lines(self):
        """Deterministic plain-text rendering, one metric per line.

        Lines are sorted by name within each section, so two
        registries with equal contents render byte-identically no
        matter the insertion order.
        """
        lines = []
        if self._counters:
            lines.append("# counters")
            for name in sorted(self._counters):
                lines.append(f"{name} {self._counters[name]}")
        if self._gauges:
            lines.append("# gauges")
            for name in sorted(self._gauges):
                lines.append(f"{name} {self._gauges[name]:g}")
        if self._histograms:
            lines.append("# histograms")
            for name in sorted(self._histograms):
                bounds, counts, total, value_sum = self._histograms[name]
                buckets = " ".join(
                    f"le{bound:g}={count}"
                    for bound, count in zip(bounds, counts)
                )
                lines.append(
                    f"{name} count={total} sum={value_sum:g} "
                    f"{buckets} inf={counts[-1]}"
                )
        return lines
