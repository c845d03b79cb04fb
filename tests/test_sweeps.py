"""The determinism contract of the sweep runner, pinned by digest.

Every sweep renders a pure function of its parameters: the same bytes
for any worker count and across a checkpoint -> resume cycle.  Each
config below pins the sha256 of its ``render()``, so a change to how
sweeps shard, dispatch, journal or merge cannot move rendered output
without failing here.  The sizes reuse the ones the per-harness tests
already run.
"""

import hashlib

import pytest

from repro.harness.exp_chaos import chaos_sweep
from repro.harness.exp_crowd import crowd_sweep
from repro.harness.exp_fleet import table5
from repro.harness.exp_scenarios import scenario_sweep
from repro.harness.exp_stream import stream_sweep

CROWD = dict(seed=0, rounds=2, apps=("K9-mail", "AndStatus"),
             actions_per_round=25)

#: name -> (sweep, parameters, sha256 of the rendered result).
SWEEPS = {
    "table5": (
        table5,
        dict(seed=0, users=1, actions_per_user=10, corpus_size=22),
        "5921e2ea26a8501b2ced284913afacfa457b4f0ffe8e9270eb3877ac8f24ed26",
    ),
    "chaos": (
        chaos_sweep,
        dict(seed=0, rates=(0.0, 0.2), apps=("K9-mail",), users=1,
             actions_per_user=10),
        "150aa1557d51035162b91f90c8bbdecfa55d50d5921b5344c9cfceff0375b3b3",
    ),
    "crowd": (
        crowd_sweep,
        dict(CROWD, fleet_sizes=(1, 2, 4)),
        "2accc19f286c26b1a5eb01bbbff4ff022502a652eb228c30d9df5fa5f6dd3fee",
    ),
    "crowd-upload-faults": (
        crowd_sweep,
        dict(CROWD, fleet_sizes=(4,), fault_rate=0.4),
        "c212c86a3dc42555d30815115ef7798d2dbe4e9f4231b9f68fd3e0fa2de10b1a",
    ),
    "scenarios": (
        scenario_sweep,
        dict(seed=0, size=18, users=1, actions_per_user=8),
        "a63dbde28d99c2dbd987b8b25e51837a4f2682913ab4ee5f6c022df57dfbef31",
    ),
    "stream": (
        stream_sweep,
        dict(seed=5, rounds=3, fleet_size=2, apps=("K9-mail",),
             actions_per_round=8, churn_rate=0.25, fault_rate=0.4),
        "c7d7e9a44bf37c105c4945ac1475534bac98f126a78b9e262f9a26cf1cc891a0",
    ),
}


def _digest(result):
    return hashlib.sha256(result.render().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_render_matches_pinned_digest(device, name, workers):
    sweep, params, digest = SWEEPS[name]
    assert _digest(sweep(device, workers=workers, **params)) == digest


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_resume_restores_shards_and_renders_pinned_digest(device, name,
                                                          tmp_path):
    sweep, params, digest = SWEEPS[name]
    checkpoint = str(tmp_path / "ckpt")
    first = sweep(device, workers=2, checkpoint=checkpoint, **params)
    assert _digest(first) == digest
    assert first.execution.checkpoint_hits == 0
    resumed = sweep(device, workers=2, checkpoint=checkpoint, resume=True,
                    **params)
    assert _digest(resumed) == digest
    assert resumed.execution.checkpoint_hits > 0


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_resume_requires_checkpoint(device, name):
    sweep, params, _ = SWEEPS[name]
    with pytest.raises(ValueError, match="resume requires"):
        sweep(device, resume=True, **params)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_resume_at_another_worker_count_restores_every_item(device, name,
                                                            tmp_path):
    """The journal keys items, not packed shards: a journal written at
    workers 2 serves every item to a resume at workers 1 or 3, which
    runs nothing and renders the pinned digest."""
    sweep, params, digest = SWEEPS[name]
    checkpoint = str(tmp_path / "ckpt")
    sweep(device, workers=2, checkpoint=checkpoint, **params)
    for workers in (1, 3):
        resumed = sweep(device, workers=workers, checkpoint=checkpoint,
                        resume=True, **params)
        assert _digest(resumed) == digest
        assert resumed.execution.checkpoint_hits > 0
        assert resumed.execution.shards == 0
