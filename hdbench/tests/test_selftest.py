"""Self-test of the benchmark: tracing must not change the program.

Run from the repository root::

    python3 -m pytest hdbench/tests -q

Each workload runs at reduced size once untraced and twice traced,
each pass in a fresh process.  The output digests, the action and
batch counts and every layer's call count must repeat exactly, and
every layer must record calls on the workload where ``spec.json`` says
it does most work.
"""

import asyncio
import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((BENCH / "spec.json").read_text())


@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_tracing_changes_no_output(workload):
    plain = run.run_pass(workload, 0, trace=False, small=True)
    traced = [run.run_pass(workload, 0, trace=True, small=True)
              for _ in range(2)]
    for result in [plain] + traced:
        assert result["errors"] == []
        assert result["digest"] == plain["digest"]
    if workload == "ingest":
        assert {r["units"] for r in [plain] + traced} == {plain["attempted"]}
    else:
        assert traced[0]["trace"]["units_traced"] > 0
        assert (traced[0]["trace"]["units_traced"]
                == traced[1]["trace"]["units_traced"])
    first, second = (t["trace"] for t in traced)
    for name, layer in first["layers"].items():
        assert layer["calls"] == second["layers"][name]["calls"], name
    errors = run.trace_errors(SPEC, workload, traced,
                              first["units_traced"]
                              if workload != "ingest" else None)
    assert errors == []


def test_self_time_excludes_children():
    spans = tracer.Tracer()
    spans.start()
    outer = spans.open("outer")
    inner = spans.open("inner")
    spans.close(inner)
    spans.close(outer)
    spans.stop()
    self_s = spans.self_times()
    assert self_s["outer"] + self_s["inner"] == pytest.approx(
        spans.spans[outer][3] - spans.spans[outer][2])
    assert self_s["outer"] >= 0.0 and self_s["inner"] >= 0.0


class _Client:
    async def upload(self, delay):
        await asyncio.sleep(delay)
        return delay


def test_coroutine_spans_cover_only_its_own_steps():
    spans = tracer.Tracer()
    tracer.install(f"{__name__}:_Client.upload", "client", spans)

    async def main():
        return await asyncio.gather(_Client().upload(0.05),
                                    _Client().upload(0.05))

    spans.start()
    assert asyncio.run(main()) == [0.05, 0.05]
    spans.stop()
    assert spans.calls["client"] == 2
    # Each upload runs two steps (before and after its sleep); the
    # sleeps are suspensions, so the spans cover far less than 50 ms.
    assert len(spans.spans) == 4
    assert spans.self_times()["client"] < 0.05
