"""Static per-action execution plans.

Everything about an action that does not depend on the RNG — stack
frame tuples, per-API microarchitectural profiles, duration-
distribution parameters, page footprints — is the same on every
execution, yet the original hot loop recomputed it per segment
(``uarch_profile`` alone was five lognormal draws from a fresh hashed
stream per operation per execution).  A :class:`OpPlan` resolves those
statics once; an :class:`ActionPlan` groups them per input event so the
:class:`~repro.sim.engine.ExecutionEngine` can cache one plan per
(app, action) pair and spend the hot loop on sampling only.

Plans hold values *identical* to what the per-segment code computed
(``uarch_profile`` is deterministic per API name; ``log_mu`` is the
exact ``math.log(mean_ms) - 0.5 * sigma**2`` expression from
:meth:`ApiSpec.sample_duration_ms`), so planning on its own does not
change a single sampled byte — the full-mode byte-identity contract
(see ``docs/perf.md``).
"""

import math

#: Process-wide cache of per-API uarch profiles.  ``uarch_profile`` is
#: a pure function of the API's qualified name, so one entry serves
#: every ApiSpec instance (and every engine) that shares the name.
_UARCH_CACHE = {}


def cached_uarch(api):
    """The API's uarch profile, computed once per qualified name."""
    key = api.qualified_name
    profile = _UARCH_CACHE.get(key)
    if profile is None:
        profile = _UARCH_CACHE.setdefault(key, api.uarch_profile())
    return profile


class OpPlan:
    """RNG-independent statics of one operation within an action."""

    __slots__ = (
        "op", "kind", "on_worker", "frames", "dispatch_frames", "uarch",
        "manifest_prob", "fast_ms", "sigma", "log_mu", "pages",
        "pages_fast", "cpu_share", "render_share", "wait_chunk_ms",
        "network_bytes",
    )

    def __init__(self, op, package, handler_frame, environment):
        api = op.api
        self.op = op
        self.kind = api.kind
        self.on_worker = op.on_worker
        self.frames = op.stack_frames(package, handler_frame)
        self.dispatch_frames = self.frames[:2]
        self.uarch = cached_uarch(api)
        self.manifest_prob = api.effective_manifest_prob(environment)
        self.fast_ms = api.fast_ms
        self.sigma = api.sigma
        self.log_mu = math.log(api.mean_ms) - 0.5 * api.sigma**2
        self.pages = api.pages
        self.pages_fast = api.pages_fast
        self.cpu_share = api.cpu_share
        self.render_share = api.render_share
        self.wait_chunk_ms = api.wait_chunk_ms
        self.network_bytes = api.network_bytes


class ActionPlan:
    """Statics of one (app, action) pair, grouped per input event."""

    __slots__ = (
        "app", "action", "events", "op_count", "has_network",
    )

    def __init__(self, app, action, environment):
        self.app = app
        self.action = action
        handler_frame = action.handler_frame(app.package)
        self.events = tuple(
            tuple(
                OpPlan(op, app.package, handler_frame, environment)
                for op in event_spec.operations
            )
            for event_spec in action.events
        )
        self.op_count = sum(len(ops) for ops in self.events)
        self.has_network = any(
            plan.network_bytes > 0 and not plan.on_worker
            for ops in self.events
            for plan in ops
        )
