"""Tests for repro.apps.corpus and repro.apps.sessions."""

import pytest

from repro.apps.corpus import FLEET_SIZE, build_corpus, generate_clean_app
from repro.apps.sessions import SessionGenerator


def test_fleet_size_is_114():
    assert FLEET_SIZE == 114
    assert len(build_corpus(seed=0)) == 114


def test_corpus_contains_all_catalog_apps():
    from repro.apps.catalog import TABLE5_APPS

    names = {app.name for app in build_corpus(seed=0)}
    for app in TABLE5_APPS:
        assert app.name in names


def test_generated_apps_are_clean():
    for app in build_corpus(seed=0)[16:]:
        assert not app.has_hang_bugs(), app.name


def test_corpus_is_deterministic():
    first = build_corpus(seed=3)
    second = build_corpus(seed=3)
    assert [a.name for a in first] == [a.name for a in second]
    assert first[30].actions == second[30].actions


def test_different_seeds_differ():
    # Index 30 is a *generated* app (past the hand-modelled base).
    first = build_corpus(seed=3)[30]
    second = build_corpus(seed=4)[30]
    assert first.actions != second.actions


def test_corpus_size_validation():
    with pytest.raises(ValueError):
        build_corpus(size=10)


def test_generated_app_shape():
    app = generate_clean_app(0, seed=1)
    assert app.name == "GenApp-000"
    assert 3 <= len(app.actions) <= 6
    for action in app.actions:
        assert action.operations()


def test_session_weights_are_a_distribution(k9):
    weights = SessionGenerator(seed=0).action_weights(k9)
    assert weights.sum() == pytest.approx(1.0)
    assert (weights > 0).all()


def test_user_session_draws_valid_actions(k9):
    session = SessionGenerator(seed=0).user_session(k9, 0,
                                                    actions_per_user=40)
    valid = {action.name for action in k9.actions}
    assert len(session) == 40
    assert set(session.action_names) <= valid


def test_sessions_deterministic(k9):
    first = SessionGenerator(seed=5).user_session(k9, 2)
    second = SessionGenerator(seed=5).user_session(k9, 2)
    assert first.action_names == second.action_names


def test_sessions_differ_across_users(k9):
    generator = SessionGenerator(seed=5)
    assert generator.user_session(k9, 0).action_names != (
        generator.user_session(k9, 1).action_names
    )


def test_fleet_sessions_count(k9):
    sessions = SessionGenerator(seed=0).fleet_sessions(
        k9, users=5, actions_per_user=10
    )
    assert len(sessions) == 5
    assert all(len(session) == 10 for session in sessions)


def test_wellknown_clean_apps_have_no_bugs():
    from repro.apps.wellknown import WELLKNOWN_CLEAN_APPS

    assert len(WELLKNOWN_CLEAN_APPS) == 5
    for app in WELLKNOWN_CLEAN_APPS:
        assert not app.has_hang_bugs(), app.name


def test_wellknown_apps_offload_blocking_work():
    from repro.apps.wellknown import WELLKNOWN_CLEAN_APPS

    offloaded = 0
    for app in WELLKNOWN_CLEAN_APPS:
        for action in app.actions:
            for op in action.operations():
                if op.on_worker:
                    offloaded += 1
                    assert op.api.can_hang or op.api.kind.value == "blocking"
    assert offloaded >= 5


def test_wellknown_apps_in_corpus():
    from repro.apps.wellknown import WELLKNOWN_CLEAN_APPS

    names = {app.name for app in build_corpus(seed=0)}
    for app in WELLKNOWN_CLEAN_APPS:
        assert app.name in names


def test_wellknown_apps_never_flagged(device):
    """Offline scanners and Hang Doctor both stay silent: the blocking
    calls are already on worker threads."""
    from repro.apps.wellknown import WELLKNOWN_CLEAN_APPS
    from repro.core.hang_doctor import HangDoctor
    from repro.detectors.offline import OfflineScanner
    from repro.detectors.runner import run_detector
    from repro.sim.engine import ExecutionEngine

    scanner = OfflineScanner()
    for app in WELLKNOWN_CLEAN_APPS:
        assert scanner.scan_app(app) == [], app.name
        engine = ExecutionEngine(device, seed=3)
        doctor = HangDoctor(app, device, seed=3)
        names = [a.name for a in app.actions] * 10
        run = run_detector(doctor, engine.run_session(app, names,
                                                      gap_ms=300.0))
        assert run.detections == [], app.name
