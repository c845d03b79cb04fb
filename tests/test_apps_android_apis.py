"""Invariants of the Android API registry."""

import pytest

from repro.apps import android_apis as apis
from repro.apps.api import ApiKind, is_ui_class
from repro.core.blocking_db import BlockingApiDatabase


def test_training_ui_apis_count():
    assert len(apis.TRAINING_UI_APIS) == 11


def test_training_ui_apis_are_ui():
    for api in apis.TRAINING_UI_APIS:
        assert api.kind is ApiKind.UI
        assert is_ui_class(api.clazz), api.qualified_name


def test_known_blocking_apis_flagged():
    for api in apis.KNOWN_BLOCKING_APIS:
        assert api.known_blocking, api.qualified_name
        assert api.kind is ApiKind.BLOCKING


def test_unknown_apis_fall_in_two_groups():
    """Either a genuinely unknown API, or a known API hidden behind a
    library facade (the paper's nested cases)."""
    for api in apis.UNKNOWN_BLOCKING_APIS:
        if api.known_blocking:
            assert api.entry_name is not None, api.qualified_name
        else:
            assert api.entry_name is None or api.library


def test_initial_blocking_names_cover_known_apis():
    names = apis.initial_blocking_names()
    for api in apis.KNOWN_BLOCKING_APIS:
        assert api.qualified_name in names


def test_initial_blocking_names_exclude_unknown_apis():
    names = apis.initial_blocking_names()
    for api in apis.UNKNOWN_BLOCKING_APIS:
        if not api.known_blocking:
            assert api.qualified_name not in names


def test_initial_blocking_names_is_a_fresh_set_per_call():
    """The shipped names are built once, but each caller owns its
    copy: databases add runtime discoveries to theirs."""
    first = apis.initial_blocking_names()
    second = apis.initial_blocking_names()
    assert isinstance(first, set)
    assert first == second
    assert first is not second
    expected = set(second)
    first.add("com.example.Mutated.call")
    first.discard(next(iter(expected)))
    assert apis.initial_blocking_names() == expected


def test_database_initial_matches_registry():
    db = BlockingApiDatabase.initial()
    assert db.names() == apis.initial_blocking_names()


def test_light_apis_never_hang():
    for api in apis.LIGHT_APIS:
        assert not api.can_hang


def test_heavy_loop_builder():
    loop = apis.heavy_loop("crunch", "com.app.Worker", mean_ms=300.0)
    assert loop.kind is ApiKind.COMPUTE
    assert loop.can_hang
    assert not loop.known_blocking


def test_paper_example_apis_exist():
    """The APIs the paper names are all modelled."""
    names = {
        api.qualified_name
        for api in apis.KNOWN_BLOCKING_APIS + apis.UNKNOWN_BLOCKING_APIS
    }
    for expected in (
        "android.hardware.Camera.open",
        "android.hardware.Camera.setParameters",
        "android.media.MediaPlayer.prepare",
        "android.graphics.BitmapFactory.decodeFile",
        "android.bluetooth.BluetoothServerSocket.accept",
        "org.htmlcleaner.HtmlCleaner.clean",
        "com.google.gson.Gson.toJson",
    ):
        assert expected in names


def test_network_api_carries_bytes():
    assert apis.HTTP_EXECUTE.network_bytes > 0
    assert apis.HTTP_EXECUTE.known_blocking


def test_no_duplicate_qualified_names_within_known():
    names = [api.qualified_name for api in apis.KNOWN_BLOCKING_APIS]
    assert len(names) == len(set(names))


def test_ui_apis_render_shares_span_the_spectrum():
    """Some UI work is render-heavy (draw), some main-heavy
    (measure/layout) — the spread behind the filter's hard cases."""
    shares = [api.render_share for api in apis.TRAINING_UI_APIS]
    assert min(shares) < 0.2
    assert max(shares) > 0.6
