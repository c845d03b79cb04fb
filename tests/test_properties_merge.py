"""Property-based laws (hypothesis) for the two merges that fold shard
results: :meth:`CrowdAggregator.merge` (the stream folds every sync
round through it) and :meth:`MetricsRegistry.merge_state` (shard
telemetry absorption).  Whatever the split into parts, the overlap
between them and the order they merge in, the merge must equal one
serial fold of the same input.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.crowd import CrowdAggregator
from repro.crowd.store import aggregator_to_json
from repro.serve.loadgen import synthetic_fleet_batches
from repro.telemetry import MetricsRegistry

#: Distinct batches to draw from: equal ids always carry equal content.
POOL = [batch for _, batches in synthetic_fleet_batches(5, 4, 2)
        for batch in batches]


@st.composite
def split_batches(draw):
    """A batch sequence with repeats, its split into parts (a batch may
    land in several parts), and the order the parts merge in."""
    picks = draw(st.lists(st.sampled_from(POOL), max_size=24))
    count = draw(st.integers(min_value=1, max_value=5))
    parts = [[] for _ in range(count)]
    for batch in picks:
        for part in draw(st.sets(st.integers(0, count - 1), min_size=1)):
            parts[part].append(batch)
    return picks, parts, draw(st.permutations(range(count)))


def fold(batches):
    aggregator = CrowdAggregator()
    for batch in batches:
        aggregator.ingest(batch)
    return aggregator


@given(split_batches())
@settings(max_examples=60, deadline=None)
def test_crowd_merge_equals_the_serial_fold_in_any_order(case):
    picks, parts, order = case
    aggregators = [fold(part) for part in parts]
    merged = CrowdAggregator.merge([aggregators[i] for i in order])
    assert aggregator_to_json(merged) == aggregator_to_json(fold(picks))
    assert CrowdAggregator.merge([merged, merged]) == merged
    assert CrowdAggregator.merge(aggregators + aggregators) == merged


NAMES = ("a", "b.c", "d")

operations = st.one_of(
    st.tuples(st.just("count"), st.sampled_from(NAMES),
              st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("gauge"), st.sampled_from(NAMES),
              st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("observe"), st.sampled_from(NAMES),
              st.floats(min_value=0.0, max_value=1e4)),
)


@st.composite
def split_operations(draw):
    """A sequence of registry operations, each assigned to one part,
    the order the parts merge in, and where that order splits into two
    groups merged first (so associativity is exercised too).

    Gauges only rise (the program's gauges are 0/1 did-it-happen
    flags): each write is raised to the running maximum of its name's
    writes, which is where last-write-wins and the merge's max agree.
    """
    ops = draw(st.lists(operations, max_size=40))
    raised = {}
    for position, (kind, name, value) in enumerate(ops):
        if kind == "gauge":
            raised[name] = max(value, raised.get(name, value))
            ops[position] = (kind, name, raised[name])
    count = draw(st.integers(min_value=1, max_value=5))
    owners = draw(st.lists(st.integers(0, count - 1), min_size=len(ops),
                           max_size=len(ops)))
    order = draw(st.permutations(range(count)))
    return ops, owners, order, draw(st.integers(0, count))


def apply(registry, ops):
    for kind, name, value in ops:
        if kind == "count":
            registry.count(name, value)
        elif kind == "gauge":
            registry.gauge_set(name, value)
        else:
            registry.observe(name, value)
    return registry


def merged_states(states):
    registry = MetricsRegistry()
    for state in states:
        registry.merge_state(state)
    return registry.state()


@given(split_operations())
@settings(max_examples=80, deadline=None)
def test_metrics_merge_state_equals_the_serial_registry(case):
    ops, owners, order, split = case
    parts = [
        apply(MetricsRegistry(),
              [op for op, owner in zip(ops, owners) if owner == part])
        for part in range(len(order))
    ]
    states = [parts[i].state() for i in order]
    merged = merged_states([merged_states(states[:split]),
                            merged_states(states[split:])])
    serial = apply(MetricsRegistry(), ops).state()
    assert merged["counters"] == serial["counters"]
    assert merged["gauges"] == serial["gauges"]
    assert merged["histograms"].keys() == serial["histograms"].keys()
    for name, (bounds, counts, total, value_sum) in \
            serial["histograms"].items():
        got_bounds, got_counts, got_total, got_sum = \
            merged["histograms"][name]
        assert (got_bounds, got_counts, got_total) == \
            (bounds, counts, total)
        # Float addition is not associative; the program absorbs shards
        # in item-key order, so its exports stay byte-identical.
        assert math.isclose(got_sum, value_sum, rel_tol=1e-9, abs_tol=1e-9)
