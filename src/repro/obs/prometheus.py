"""Prometheus text exposition for :class:`~repro.telemetry.MetricsRegistry`.

Renders any registry in the Prometheus text format (version 0.0.4):
one ``# TYPE`` header per metric family, counters and gauges as plain
samples, histograms as cumulative ``_bucket`` series (``le`` labels,
``+Inf`` last) plus ``_sum`` and ``_count``.  The rendering is fully
deterministic — families sort by exposition name, series within a
family sort by their label string — so two registries with equal
contents render byte-identically regardless of insertion order.

Labels ride inside registry metric names via
:func:`repro.telemetry.labeled` (``name{key=value,...}``, keys
sorted); :func:`split_labels` is the inverse.  Dots and dashes in
metric names become underscores on the way out, the only rewriting
Prometheus requires.
"""

#: Content-Type of the exposition format served on ``GET /metrics``.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def split_labels(name):
    """Split an encoded metric name into ``(base, labels_dict)``.

    The inverse of :func:`repro.telemetry.labeled`; names without an
    encoded label block come back with an empty dict.
    """
    if not name.endswith("}") or "{" not in name:
        return name, {}
    base, _, block = name.partition("{")
    labels = {}
    for pair in block[:-1].split(","):
        key, _, value = pair.partition("=")
        labels[key] = value
    return base, labels


def _exposition_name(base):
    """Registry name -> Prometheus metric name (dots/dashes to ``_``)."""
    return base.replace(".", "_").replace("-", "_")


def _escape(value):
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_block(labels, extra=None):
    """Render a label dict (plus optional ``le``) as ``{...}`` or ``""``.

    Ordinary labels sort by key; ``le`` always renders last, matching
    the conventional exposition layout for histogram buckets.
    """
    parts = [
        f'{key}="{_escape(labels[key])}"' for key in sorted(labels)
    ]
    if extra is not None:
        parts.append(f'le="{extra}"')
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _number(value):
    """Render a sample value: integers bare, floats via ``%g``."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return f"{value:g}"


def _families(state):
    """Group a registry state snapshot into exposition families.

    Returns ``{prom_name: (type, [(labels, payload), ...])}`` where
    *payload* is a plain value for counters/gauges and the histogram
    state list for histograms.
    """
    families = {}

    def series(section, kind):
        for name, payload in section.items():
            base, labels = split_labels(name)
            family = families.setdefault(_exposition_name(base), (kind, []))
            if family[0] != kind:
                raise ValueError(
                    f"metric family {base!r} is both {family[0]} and {kind}"
                )
            family[1].append((labels, payload))

    series(state.get("counters", {}), "counter")
    series(state.get("gauges", {}), "gauge")
    series(state.get("histograms", {}), "histogram")
    return families


def render_prometheus(registry):
    """The full exposition text for *registry* (trailing newline).

    Accepts a :class:`~repro.telemetry.MetricsRegistry` or a
    :meth:`~repro.telemetry.MetricsRegistry.state` snapshot dict, so
    the same renderer serves live registries and journaled states.
    """
    state = registry if isinstance(registry, dict) else registry.state()
    lines = []
    families = _families(state)
    for prom_name in sorted(families):
        kind, entries = families[prom_name]
        lines.append(f"# TYPE {prom_name} {kind}")
        entries.sort(key=lambda entry: _label_block(entry[0]))
        for labels, payload in entries:
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{prom_name}{_label_block(labels)} {_number(payload)}"
                )
                continue
            bounds, counts, total, value_sum = payload
            cumulative = 0
            for bound, count in zip(bounds, counts):
                cumulative += count
                lines.append(
                    f"{prom_name}_bucket"
                    f"{_label_block(labels, extra=_number(float(bound)))} "
                    f"{cumulative}"
                )
            lines.append(
                f"{prom_name}_bucket{_label_block(labels, extra='+Inf')} "
                f"{total}"
            )
            lines.append(
                f"{prom_name}_sum{_label_block(labels)} "
                f"{_number(float(value_sum))}"
            )
            lines.append(f"{prom_name}_count{_label_block(labels)} {total}")
    return "".join(line + "\n" for line in lines)
