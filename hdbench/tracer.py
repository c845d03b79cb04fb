"""Runtime layer tracing for the benchmark's traced passes.

The program under test is never edited: :func:`install` wraps each
layer's public entry points (listed in ``spec.json``) at run time and
records one span per call — layer name, start, end and parent span —
into an in-memory :class:`Tracer`.  Spans are written out once, when
the pass ends (:meth:`Tracer.dump`).

Three call shapes need care:

* module-level functions are imported by name into their callers
  (``exp_scenarios.generate_fleet``, ``exp_fleet.build_corpus``), so a
  function is replaced at every ``repro.*`` module attribute bound to
  it, not only where it is defined;
* ``classmethod`` entries are re-wrapped as classmethods;
* coroutine functions (``ServeClient.upload``) interleave with other
  tasks on the event loop, so a call is recorded as one span per
  *step* the coroutine runs, never across its ``await`` suspensions.
  Self time then counts only time the coroutine's own code held the
  loop, and concurrent uploads never overlap each other's spans.

A layer's self time is its spans' duration minus the time covered by
their direct child spans; its share is self time over the traced
window's wall time.
"""

import collections
import functools
import importlib
import inspect
import json
import sys
import time

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder plus per-layer call and event counters."""

    def __init__(self):
        #: One ``[layer, parent_index, start, end]`` record per span.
        self.spans = []
        self.calls = collections.Counter()
        #: Layer-specific counts fed by result observers.
        self.counts = collections.Counter()
        #: Last value seen per key, for cumulative counters that live on
        #: program objects (e.g. a scheduler's dispatch rounds).
        self.latest = {}
        self.active = False
        self._stack = []
        self.started = 0.0
        self.stopped = 0.0

    def start(self):
        self.active = True
        self.started = _clock()

    def stop(self):
        self.stopped = _clock()
        self.active = False

    @property
    def wall_s(self):
        return self.stopped - self.started

    def open(self, layer):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, parent, _clock(), 0.0])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][3] = _clock()
        self._stack.pop()

    def self_times(self):
        """Per-layer self seconds: span time minus direct-child time."""
        covered = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = collections.Counter()
        for index, (layer, _, start, end) in enumerate(self.spans):
            totals[layer] += (end - start) - covered[index]
        return totals

    def dump(self, path):
        """Write every span as one JSON line (name, parent, start, end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for layer, parent, start, end in self.spans:
                handle.write(json.dumps(
                    [layer, parent, round(start - self.started, 9),
                     round(end - self.started, 9)]
                ) + "\n")


#: Span name for the work a dispatcher runs on a caller's behalf; it is
#: no layer, so its self time counts as unattributed.
WORK = "(work)"


def _work_span(fn, tracer):
    @functools.wraps(fn)
    def work(*args, **kwargs):
        span = tracer.open(WORK)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
    return work


def _sync_wrapper(fn, layer, tracer, observe, work_arg):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.calls[layer] += 1
        if work_arg is not None:
            args = list(args)
            args[work_arg] = _work_span(args[work_arg], tracer)
        span = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if observe is not None:
            observe(tracer, args, result)
        return result
    return wrapper


class _Stepped:
    """Drive a coroutine one step at a time, one span per step."""

    def __init__(self, coro, layer, tracer):
        self.coro = coro
        self.layer = layer
        self.tracer = tracer

    def __await__(self):
        coro, tracer = self.coro, self.tracer
        value, error = None, None
        while True:
            span = tracer.open(self.layer)
            try:
                if error is None:
                    suspended = coro.send(value)
                else:
                    suspended = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.close(span)
            try:
                value, error = (yield suspended), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as thrown:  # forwarded, e.g. cancellation
                value, error = None, thrown


def _async_wrapper(fn, layer, tracer, observe):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not tracer.active:
            return await fn(*args, **kwargs)
        tracer.calls[layer] += 1
        result = await _Stepped(fn(*args, **kwargs), layer, tracer)
        if observe is not None:
            observe(tracer, args, result)
        return result
    return wrapper


def _wrap(fn, layer, tracer, observe, work_arg):
    if inspect.iscoroutinefunction(fn):
        return _async_wrapper(fn, layer, tracer, observe)
    return _sync_wrapper(fn, layer, tracer, observe, work_arg)


def _rebind_everywhere(original, replacement):
    """Point every ``repro.*`` module attribute bound to *original* at
    *replacement*, so callers that imported the function by name see
    the wrapper too.  Returns how many bindings changed."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if module is None or name.partition(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


def install(target, layer, tracer, observe=None, work_arg=None):
    """Wrap one entry point named ``module:qualname`` for *layer*.

    *observe(tracer, args, result)* runs after each traced call.
    *work_arg* names the positional argument of a dispatcher that holds
    the callable it runs: that callable gets a :data:`WORK` span, so
    the dispatcher's own self time is its dispatch overhead alone.
    """
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_path, _, attr = qualname.rpartition(".")
    if not owner_path:
        original = getattr(module, attr)
        if _rebind_everywhere(original, _wrap(original, layer, tracer,
                                              observe, work_arg)) == 0:
            raise LookupError(f"{target} is bound nowhere")
        return
    owner = module
    for part in owner_path.split("."):
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr,
                classmethod(_wrap(raw.__func__, layer, tracer, observe,
                                  work_arg)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr,
                staticmethod(_wrap(raw.__func__, layer, tracer, observe,
                                   work_arg)))
    else:
        setattr(owner, attr, _wrap(raw, layer, tracer, observe, work_arg))
