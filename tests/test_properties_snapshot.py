"""Property-based check (hypothesis) that the crowd snapshot writer,
:func:`repro.crowd.store.aggregator_to_json`, writes exactly what
``json.dumps(..., indent=2)`` writes for the snapshot document.

``json.dumps`` stays the reference: the snapshot's bytes are the
service's published state and are pinned by digest, so the writer
must match it for every value a batch can carry.  ``batch_from_dict``
checks that each field is present, not its type, so a field of an
uploaded or replayed batch may hold any JSON value, NaN and the
infinities included.
"""

import json

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.crowd.aggregator import BugObservation, CrowdAggregator, ReportBatch
from repro.crowd.store import (
    CROWD_SCHEMA_VERSION,
    aggregator_from_json,
    aggregator_to_json,
    batch_to_dict,
)

texts = st.one_of(
    st.text(),
    # Control characters, non-ASCII, and lone surrogates, which json
    # escapes as \uXXXX.
    st.text(st.characters(max_codepoint=0x1F)),
    st.text(st.characters(min_codepoint=0x80, max_codepoint=0xFFFF)),
    st.text(st.characters(categories=["Cs"])),
)

floats = st.one_of(
    st.floats(),  # NaN, the infinities, -0.0 and subnormals included
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 2.0 ** 53, 3.0, 1e22]),
    st.floats().map(np.float64),
)

#: Bools next to ints: json writes a bool as true/false, never 1/0.
scalars = st.one_of(texts, st.integers(), st.booleans(), floats,
                    st.none())

values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.dictionaries(st.text(max_size=4), scalars, max_size=3),
    # A dict json writes with its key coercions (ints become strings).
    st.dictionaries(st.integers(), scalars, min_size=1, max_size=2),
)

observations = st.builds(
    BugObservation, signature=values, action=values, operation=values,
    file=values, line=values, is_self_developed=values,
    occurrences=values, total_hang_ms=values,
    max_occurrence_factor=values,
)

batches = st.builds(
    ReportBatch, batch_id=texts, app_name=values, device_id=values,
    time_ms=values, observations=st.lists(observations, max_size=3),
)


def reference(aggregator):
    return json.dumps({
        "schema": CROWD_SCHEMA_VERSION,
        "batches": [batch_to_dict(batch) for batch in aggregator.batches()],
    }, indent=2)


@given(st.lists(batches, max_size=6))
@example([])  # the empty aggregator
@settings(max_examples=120, deadline=None)
def test_snapshot_writer_matches_json_dumps(drawn):
    aggregator = CrowdAggregator()
    for batch in drawn:
        aggregator.ingest(batch)
    assert aggregator_to_json(aggregator) == reference(aggregator)


def test_snapshot_of_typed_batches_round_trips():
    """The wire types a device sends survive a snapshot round trip."""
    aggregator = CrowdAggregator()
    aggregator.ingest(ReportBatch(
        batch_id="app/dev0/t1", app_name="app", device_id=0, time_ms=1.0,
        observations=(BugObservation(
            signature="app|a|x.Y.z|occ9", action="a", operation="x.Y.z",
            file="Y.java", line=7, is_self_developed=True, occurrences=2,
            total_hang_ms=np.float64(812.5), max_occurrence_factor=0.96,
        ),),
    ))
    text = aggregator_to_json(aggregator)
    assert text == reference(aggregator)
    assert aggregator_to_json(aggregator_from_json(text)) == text
