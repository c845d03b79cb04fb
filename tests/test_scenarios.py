"""Generator properties and sweep determinism of repro.scenarios."""

import pytest

from repro.apps import android_apis as apis
from repro.apps.corpus import generate_clean_app
from repro.apps.sessions import SessionGenerator
from repro.base.kinds import ApiKind
from repro.core.hang_doctor import HangDoctor
from repro.detectors.runner import run_detector
from repro.harness.deployment import fleet_app_seed
from repro.harness.exp_scenarios import ScenarioResult, scenario_sweep
from repro.scenarios import (
    ARCHETYPES,
    DEFAULT_MIX,
    TAXONOMY,
    assign_archetypes,
    generate_fleet,
    parse_mix,
    render_mix,
    scenario_app,
)
from repro.sim.device import LG_V10
from repro.sim.engine import ExecutionEngine

BUG_ARCHETYPES = tuple(a.name for a in TAXONOMY if a.has_bugs)
BENIGN_ARCHETYPES = tuple(a.name for a in TAXONOMY if not a.has_bugs)


# ---------------------------------------------------------------------------
# Taxonomy and mix arithmetic
# ---------------------------------------------------------------------------


def test_taxonomy_covers_required_archetypes():
    names = {archetype.name for archetype in TAXONOMY}
    assert names == {
        "clean", "main_thread_blocking", "async_task_hang",
        "ipc_wait_hang", "lifecycle_callback_race", "render_jank_benign",
    }


def test_parse_mix_accepts_aliases_and_normalizes():
    mix = parse_mix("clean=2,async=1,render=1")
    assert mix == (
        ("clean", 0.5),
        ("async_task_hang", 0.25),
        ("render_jank_benign", 0.25),
    )


def test_parse_mix_orders_by_taxonomy_not_spelling():
    assert parse_mix("render=1,clean=1") == parse_mix("clean=1,render=1")


def test_parse_mix_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown archetype"):
        parse_mix("clean=0.5,bogus=0.5")
    with pytest.raises(ValueError, match="positive fraction"):
        parse_mix("clean=0")
    with pytest.raises(ValueError, match="twice"):
        parse_mix("clean=0.5,clean=0.5")
    with pytest.raises(ValueError, match="not name=fraction"):
        parse_mix("clean")
    with pytest.raises(ValueError, match="empty"):
        parse_mix("")


def test_parse_mix_accepts_mapping_and_roundtrips():
    mix = parse_mix({"clean": 0.5, "blocking": 0.5})
    assert parse_mix(mix) == mix
    assert render_mix(mix) == "clean=0.5,blocking=0.5"


def test_assignment_counts_match_largest_remainder():
    mix = parse_mix(DEFAULT_MIX)
    assignment = assign_archetypes(mix, 1000)
    counts = {}
    for name, _ in assignment:
        counts[name] = counts.get(name, 0) + 1
    for name, fraction in mix:
        assert abs(counts[name] - fraction * 1000) < 1.0, name


def test_assignment_prefix_stays_on_mix():
    """Any prefix of the fleet is itself approximately on-mix."""
    assignment = assign_archetypes("clean=0.5,blocking=0.5", 100)
    for cut in (10, 25, 50):
        clean = sum(
            1 for name, _ in assignment[:cut] if name == "clean"
        )
        assert abs(clean - cut / 2) <= 1


def test_assignment_ordinals_count_per_archetype():
    assignment = assign_archetypes(DEFAULT_MIX, 200)
    seen = {}
    for name, ordinal in assignment:
        assert ordinal == seen.get(name, 0)
        seen[name] = ordinal + 1


# ---------------------------------------------------------------------------
# Generator determinism and stream disjointness
# ---------------------------------------------------------------------------


def test_same_seed_gives_identical_fleet():
    first = generate_fleet(120, seed=5)
    second = generate_fleet(120, seed=5)
    assert first == second  # frozen dataclasses: deep equality


def test_different_seeds_give_different_fleets():
    assert generate_fleet(30, seed=0) != generate_fleet(30, seed=1)


def test_slices_recompose_the_full_fleet():
    full = generate_fleet(60, seed=3)
    sliced = (
        generate_fleet(60, seed=3, indices=range(0, 20))
        + generate_fleet(60, seed=3, indices=range(20, 60))
    )
    assert sliced == full


def test_archetype_streams_survive_mix_changes():
    """App k of an archetype is invariant under mix and size changes."""
    narrow = generate_fleet(40, mix="async=1", seed=7)
    mixed = generate_fleet(400, mix=DEFAULT_MIX, seed=7)
    by_ordinal = {}
    for entry in mixed:
        if entry.archetype == "async_task_hang":
            by_ordinal[len(by_ordinal)] = entry.app
    for ordinal, entry in enumerate(narrow):
        assert entry.app == by_ordinal[ordinal]


def test_archetype_streams_are_disjoint():
    """No two archetypes share an RNG stream: same seed and ordinal
    yield different draw sequences, not the same app re-labelled."""
    for ordinal in range(10):
        profiles = set()
        for name in ARCHETYPES:
            app = scenario_app(name, ordinal, seed=0)
            profiles.add((app.category, app.downloads, app.commit))
        # Six archetypes drawing the same profile sequence would
        # collapse to one profile; independent streams essentially
        # never fully collide.
        assert len(profiles) > 1


def test_clean_archetype_is_the_legacy_generator():
    """One generator path: the clean archetype and the legacy corpus
    draw identical app bodies from identical streams."""
    from repro.base.rng import stream
    from repro.scenarios.archetypes import build_clean

    legacy = generate_clean_app(7, seed=0)
    rebuilt = build_clean(
        stream(0, "corpus", 7), legacy.name, legacy.package
    )
    assert rebuilt == legacy


def test_legacy_clean_app_bytes_pinned():
    """Seed-for-seed identical output for the legacy call — pinned to
    the values the corpus has always produced."""
    app = generate_clean_app(0, seed=0)
    assert (app.name, app.package, app.category, app.downloads,
            app.commit, len(app.actions)) == (
        "GenApp-000", "com.generated.app000", "Video Players",
        257141, "6c44a0e", 5,
    )
    ops = [op.api.qualified_name for op in app.actions[0].operations()]
    assert ops == [
        "android.view.OrientationEventListener.enable",
        "android.util.Log.d",
        "android.content.Intent.putExtra",
    ]


# ---------------------------------------------------------------------------
# AppSpec invariants and ground-truth labels
# ---------------------------------------------------------------------------


def test_every_generated_app_validates_appspec_invariants():
    fleet = generate_fleet(90, seed=11)
    names = set()
    for entry in fleet:
        app = entry.app
        assert app.name not in names  # fleet-wide unique names
        names.add(app.name)
        assert app.actions  # AppSpec validated on construction
        for action in app.actions:
            assert action.events
            for event in action.events:
                assert event.operations


def test_ground_truth_matches_archetype_label():
    for entry in generate_fleet(90, seed=2):
        bugs = entry.app.hang_bug_operations()
        if ARCHETYPES[entry.archetype].has_bugs:
            assert bugs, entry.app.name
        else:
            assert not bugs, entry.app.name


def test_async_archetype_bug_is_the_wait_not_the_worker():
    app = scenario_app("async_task_hang", 0, seed=0)
    for bug in app.hang_bug_operations():
        assert bug.api.kind is ApiKind.ASYNC_WAIT
        assert not bug.on_worker


def test_ipc_archetype_bugs_are_ipc_kind():
    app = scenario_app("ipc_wait_hang", 0, seed=0)
    assert app.hang_bug_operations()
    for bug in app.hang_bug_operations():
        assert bug.api.kind is ApiKind.IPC


def test_race_archetype_manifests_rarely_but_counts_as_truth():
    app = scenario_app("lifecycle_callback_race", 0, seed=0)
    bugs = app.hang_bug_operations()
    assert len(bugs) == 1
    assert 0.15 <= bugs[0].api.manifest_prob <= 0.45


def test_new_api_kinds_can_hang():
    for api in apis.ASYNC_WAIT_APIS + apis.IPC_APIS:
        assert api.can_hang, api.qualified_name


# ---------------------------------------------------------------------------
# Detector behaviour per archetype
# ---------------------------------------------------------------------------


def _deploy(app, seed=0, users=2, actions_per_user=12):
    app_seed = fleet_app_seed(seed, app.name)
    engine = ExecutionEngine(LG_V10, seed=app_seed)
    doctor = HangDoctor(app, LG_V10, seed=app_seed)
    detections = []
    hangs = 0
    for session in SessionGenerator(seed=seed).fleet_sessions(
            app, users, actions_per_user):
        executions = engine.run_session(
            app, session.action_names, gap_ms=1000.0
        )
        run = run_detector(doctor, executions, device_id=session.user_id)
        detections.extend(run.detections)
        hangs += sum(1 for e in executions if e.has_soft_hang)
    return doctor, detections, hangs


def test_render_jank_apps_hang_but_never_verdict_hang_bug():
    """The true-negative archetype: visible lag, zero HANG_BUG."""
    from repro.core.states import ActionState

    for ordinal in range(4):
        app = scenario_app("render_jank_benign", ordinal, seed=0)
        doctor, detections, hangs = _deploy(app)
        assert hangs > 0, f"{app.name}: no perceivable lag generated"
        assert not detections, f"{app.name}: detector flagged benign jank"
        for action in app.actions:
            assert doctor.state_of(action.name) is not ActionState.HANG_BUG


def test_async_and_ipc_bugs_are_detectable():
    detected = 0
    for name in ("async_task_hang", "ipc_wait_hang"):
        for ordinal in range(3):
            app = scenario_app(name, ordinal, seed=0)
            _, detections, _ = _deploy(app)
            detected += len(detections)
    assert detected > 0, "no async/IPC bug ever diagnosed"


# ---------------------------------------------------------------------------
# Sweep determinism
# ---------------------------------------------------------------------------

_SWEEP = dict(seed=0, size=18, users=1, actions_per_user=8)


def test_sweep_byte_identical_across_workers():
    serial = scenario_sweep(LG_V10, workers=1, **_SWEEP)
    for workers in (2, 4):
        sharded = scenario_sweep(LG_V10, workers=workers, **_SWEEP)
        assert sharded.render() == serial.render()
        assert sharded.cells == serial.cells


def test_sweep_resume_requires_checkpoint():
    with pytest.raises(ValueError, match="checkpoint"):
        scenario_sweep(LG_V10, resume=True, **_SWEEP)


def test_sweep_rejects_empty_fleet():
    with pytest.raises(ValueError, match="positive"):
        scenario_sweep(LG_V10, size=0)


def test_sweep_result_merge_restores_order():
    result = scenario_sweep(LG_V10, workers=3, **_SWEEP)
    assert [cell.index for cell in result.cells] == list(
        range(_SWEEP["size"])
    )


def test_sweep_render_has_archetype_rows():
    result = scenario_sweep(LG_V10, workers=1, **_SWEEP)
    rendered = result.render()
    for archetype in result.archetypes():
        assert archetype in rendered
    assert "TOTAL" in rendered


def test_sweep_row_unknown_archetype_raises():
    result = ScenarioResult(
        cells=[], size=0, mix=parse_mix(DEFAULT_MIX), users=1,
        actions_per_user=1,
    )
    with pytest.raises(KeyError):
        result.row("clean")
