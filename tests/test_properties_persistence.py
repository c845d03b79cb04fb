"""Property-based round-trip tests for the report codecs."""

from hypothesis import given, settings, strategies as st

from repro.core.report import HangBugReport, report_from_json, report_to_json

operation_names = st.sampled_from([
    "a.B.read", "c.D.parse", "e.F.decode", "g.H.toJson",
])

record_strategy = st.tuples(
    operation_names,
    st.floats(min_value=100.0, max_value=5000.0),   # response time
    st.floats(min_value=0.0, max_value=1.0),        # occurrence factor
    st.integers(min_value=0, max_value=5),          # device
)


def build_report(records, app="App"):
    report = HangBugReport(app)
    for operation, rt, occ, device in records:
        report.record(
            operation=operation, file=operation.split(".")[0] + ".java",
            line=10, is_self_developed=False, response_time_ms=rt,
            occurrence_factor=occ, device_id=device,
        )
    return report


@given(st.lists(record_strategy, max_size=20))
@settings(max_examples=50)
def test_report_roundtrip_preserves_everything(records):
    original = build_report(records)
    restored = report_from_json(report_to_json(original))
    assert len(restored) == len(original)
    assert restored.total_occurrences() == original.total_occurrences()
    for before, after in zip(original.entries(), restored.entries()):
        assert before.operation == after.operation
        assert before.occurrences == after.occurrences
        assert before.devices == after.devices
        assert before.total_hang_ms == after.total_hang_ms
