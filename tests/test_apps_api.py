"""Tests for repro.apps.api (API specifications)."""

import pytest

from repro.apps.api import (
    ApiKind,
    ApiSpec,
    blocking_api,
    compute_op,
    is_ui_class,
    light_api,
    ui_api,
)
from repro.base.rng import stream


def test_ui_class_prefixes():
    assert is_ui_class("android.widget.TextView")
    assert is_ui_class("android.view.LayoutInflater")
    assert not is_ui_class("android.hardware.Camera")
    assert not is_ui_class("org.htmlcleaner.HtmlCleaner")


def test_bitmap_factory_is_not_ui():
    # android.graphics.drawable is UI; android.graphics.BitmapFactory
    # is not (the AndStatus bug lives there).
    assert not is_ui_class("android.graphics.BitmapFactory")
    assert is_ui_class("android.graphics.drawable.Drawable")


def test_qualified_name():
    api = blocking_api("open", "android.hardware.Camera")
    assert api.qualified_name == "android.hardware.Camera.open"


def test_ui_api_is_never_a_hang_bug():
    api = ui_api("inflate", "android.view.LayoutInflater", mean_ms=500.0)
    assert api.is_ui
    assert not api.can_hang


def test_blocking_api_can_hang_when_long_enough():
    assert blocking_api("read", "java.io.FileInputStream",
                        mean_ms=300.0).can_hang


def test_short_blocking_api_cannot_hang():
    assert not blocking_api("setParameters", "android.hardware.Camera",
                            mean_ms=85.0).can_hang


def test_compute_op_can_hang():
    assert compute_op("heavyLoop", "com.app.Worker", mean_ms=250.0).can_hang


def test_light_api_cannot_hang():
    assert not light_api("d", "android.util.Log").can_hang


def test_invalid_mean_rejected():
    with pytest.raises(ValueError):
        blocking_api("x", "a.B", mean_ms=0.0)


def test_invalid_manifest_prob_rejected():
    with pytest.raises(ValueError):
        blocking_api("x", "a.B", mean_ms=100.0, manifest_prob=1.5)


def test_invalid_cpu_share_rejected():
    with pytest.raises(ValueError):
        blocking_api("x", "a.B", mean_ms=100.0, cpu_share=0.0)


def test_entry_fields_must_be_paired():
    with pytest.raises(ValueError):
        ApiSpec(name="x", clazz="a.B", kind=ApiKind.BLOCKING, mean_ms=100.0,
                entry_name="facade")


def test_api_frames_without_facade():
    api = blocking_api("read", "java.io.FileInputStream", mean_ms=200.0)
    frames = api.api_frames()
    assert len(frames) == 1
    assert frames[0].method == "read"


def test_api_frames_with_facade():
    api = blocking_api(
        "insertWithOnConflict", "android.database.sqlite.SQLiteDatabase",
        mean_ms=300.0, entry_name="get",
        entry_clazz="nl.qbusict.cupboard.Cupboard",
    )
    frames = api.api_frames()
    assert [f.method for f in frames] == ["get", "insertWithOnConflict"]


def test_uarch_profile_stable_per_api():
    api = blocking_api("read", "java.io.FileInputStream", mean_ms=200.0)
    assert api.uarch_profile() == api.uarch_profile()


def test_uarch_profile_differs_across_apis():
    first = blocking_api("read", "java.io.FileInputStream", mean_ms=200.0)
    second = blocking_api("write", "java.io.FileOutputStream", mean_ms=200.0)
    assert first.uarch_profile() != second.uarch_profile()


def test_sample_duration_always_manifests_at_prob_one():
    api = blocking_api("read", "java.io.FileInputStream", mean_ms=200.0)
    rng = stream("api-test", 1)
    durations = [api.sample_duration_ms(rng) for _ in range(50)]
    assert all(manifested for _, manifested in durations)


def test_sample_duration_respects_manifest_prob():
    api = blocking_api("clean", "org.htmlcleaner.HtmlCleaner",
                       mean_ms=1000.0, manifest_prob=0.3, fast_ms=10.0)
    rng = stream("api-test", 2)
    outcomes = [api.sample_duration_ms(rng) for _ in range(300)]
    manifested = [d for d, m in outcomes if m]
    fast = [d for d, m in outcomes if not m]
    assert 0.15 < len(manifested) / len(outcomes) < 0.45
    assert min(manifested) > max(fast)


def test_sample_duration_mean_close_to_spec():
    import numpy as np

    api = blocking_api("read", "java.io.FileInputStream", mean_ms=400.0)
    rng = stream("api-test", 3)
    durations = [api.sample_duration_ms(rng)[0] for _ in range(500)]
    assert np.mean(durations) == pytest.approx(400.0, rel=0.1)


def test_leaf_frame_line_is_stable():
    api = blocking_api("read", "java.io.FileInputStream", mean_ms=200.0)
    assert api.leaf_frame() == api.leaf_frame()
