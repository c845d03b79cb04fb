"""Tests for repro.sim.looper (the main-thread message queue)."""

import pytest

from repro.sim.looper import DispatchRecord, Looper, Message


def msg(target="ev", enqueue=0.0):
    return Message(target=target, payload=None, enqueue_ms=enqueue)


def test_fifo_order():
    looper = Looper()
    looper.post(msg("first"))
    looper.post(msg("second"))
    seen = []

    def handler(message, dispatch_ms):
        seen.append(message.target)
        return dispatch_ms + 10.0

    looper.dispatch_all(handler, 0.0)
    assert seen == ["first", "second"]


def test_dispatch_next_empty_queue_returns_none():
    assert Looper().dispatch_next(lambda m, t: t, 0.0) is None


def test_response_time_is_dispatch_to_finish():
    record = DispatchRecord(message=msg(enqueue=0.0), dispatch_ms=5.0,
                            finish_ms=45.0)
    assert record.response_time_ms == 40.0


def test_latency_includes_queue_wait():
    record = DispatchRecord(message=msg(enqueue=0.0), dispatch_ms=5.0,
                            finish_ms=45.0)
    assert record.latency_ms == 45.0


def test_dispatch_waits_for_enqueue_time():
    looper = Looper()
    looper.post(msg(enqueue=100.0))
    record = looper.dispatch_next(lambda m, t: t + 1.0, 0.0)
    assert record.dispatch_ms == 100.0


def test_handler_cannot_finish_before_dispatch():
    looper = Looper()
    looper.post(msg())
    with pytest.raises(ValueError):
        looper.dispatch_next(lambda m, t: t - 1.0, 10.0)


def test_dispatch_all_chains_clock():
    looper = Looper()
    looper.post(msg("a"))
    looper.post(msg("b"))
    records = looper.dispatch_all(lambda m, t: t + 30.0, 0.0)
    assert records[1].dispatch_ms == records[0].finish_ms
