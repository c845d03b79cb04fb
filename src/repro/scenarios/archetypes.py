"""Archetype templates: composable app builders over the API pools.

Every builder has the same shape — ``build(rng, name, package) ->
AppSpec`` — and draws everything it needs from the *rng* it is given,
so a generated app is a pure function of ``(archetype, rng stream)``.
All builders share the :func:`~repro.apps.clean.app_profile` prefix
(category, downloads, commit) and, for the bug archetypes, a clean-app
action body (:func:`~repro.apps.clean.clean_actions`) that the bug
actions are appended to: a bug-bearing app is a clean app plus its
bugs, the way real apps are.

Ground truth falls out of the operation model: an operation is a soft
hang bug iff its API ``can_hang`` and it runs on the main thread
(:attr:`repro.apps.app.Operation.is_hang_bug`), so the metrics layer
scores generated apps the same way it scores the hand-modelled
catalog.  The archetypes:

``clean``
    :func:`repro.apps.clean.clean_app` verbatim — UI and light work
    only, zero ground-truth bugs.
``main_thread_blocking``
    The paper's own family: clean body plus 1-2 actions that call a
    hang-capable blocking/compute API on the main thread.
``async_task_hang``
    PersisDroid's anatomy: work correctly offloaded to a worker, then
    re-serialized by a synchronous main-thread wait (``AsyncTask.get``,
    ``Future.get``...).  The *wait* is the ground-truth bug; the worker
    operation is not.
``ipc_wait_hang``
    A synchronous binder round trip (provider query, package-manager
    lookup) on the main thread.
``lifecycle_callback_race``
    A blocking call inside a lifecycle callback (``onResume``/
    ``onCreate``) that only manifests when it loses its race with the
    background warm-up — ``manifest_prob`` drawn low, so the bug site
    is ground truth that rarely hangs (recall pressure).
``render_jank_benign``
    True-negative pressure: genuinely slow, render-heavy UI work.  The
    hangs are real (response > 100 ms) but every root cause is a UI
    class the detector must rule out.  Zero ground-truth bugs; any
    HANG_BUG verdict here is a false positive.
"""

from dataclasses import replace

from repro.apps import android_apis as apis
from repro.apps.app import AppSpec
from repro.apps.catalog_helpers import action, op
from repro.apps.clean import app_profile, clean_actions, clean_app

#: Main-thread blocking/compute APIs long enough to be hang bugs
#: (filters out sub-100 ms movable calls like camera setParameters).
BLOCKING_POOL = tuple(
    api for api in apis.KNOWN_BLOCKING_APIS + apis.UNKNOWN_BLOCKING_APIS
    if api.can_hang
)

#: Render-heavy UI APIs — the work that lights up the render thread,
#: which is exactly what lets the S-Checker rule these hangs out.
RENDER_POOL = tuple(
    api for api in apis.ALL_UI_APIS if api.render_share >= 0.4
)

#: Lifecycle callbacks the race archetype hides its bug inside.
_LIFECYCLE_HANDLERS = ("onResume", "onCreate", "onActivityResult")


def _pick(rng, pool):
    """Draw one API from *pool*."""
    return pool[int(rng.integers(len(pool)))]


def build_clean(rng, name, package):
    """The ``clean`` archetype — the legacy corpus generator itself."""
    return clean_app(rng, name, package)


def build_main_thread_blocking(rng, name, package):
    """Clean body + 1-2 main-thread blocking calls (the paper's bugs)."""
    category, downloads, commit = app_profile(rng)
    actions = list(clean_actions(rng))
    for bug in range(int(rng.integers(1, 3))):
        api = _pick(rng, BLOCKING_POOL)
        actions.append(action(
            f"load_{bug}", f"onLoad{bug}",
            op(api, f"loadContent{bug}"),
            op(_pick(rng, apis.LIGHT_APIS), f"loadContent{bug}"),
        ))
    return AppSpec(
        name=name, package=package, category=category,
        downloads=downloads, commit=commit, actions=tuple(actions),
    )


def build_async_task_hang(rng, name, package):
    """Worker-offloaded I/O re-serialized by a synchronous wait."""
    category, downloads, commit = app_profile(rng)
    actions = list(clean_actions(rng))
    for bug in range(int(rng.integers(1, 3))):
        background = _pick(rng, BLOCKING_POOL)
        wait = _pick(rng, apis.ASYNC_WAIT_APIS)
        actions.append(action(
            f"await_{bug}", f"onRefresh{bug}",
            # The offloaded work is correct (not a bug site) ...
            op(background, f"backgroundWork{bug}", on_worker=True),
            # ... blocking the main thread on its result is the bug.
            op(wait, f"awaitResult{bug}"),
            op(_pick(rng, apis.LIGHT_APIS), f"awaitResult{bug}"),
        ))
    return AppSpec(
        name=name, package=package, category=category,
        downloads=downloads, commit=commit, actions=tuple(actions),
    )


def build_ipc_wait_hang(rng, name, package):
    """Synchronous binder IPC on the main thread."""
    category, downloads, commit = app_profile(rng)
    actions = list(clean_actions(rng))
    for bug in range(int(rng.integers(1, 3))):
        api = _pick(rng, apis.IPC_APIS)
        actions.append(action(
            f"query_{bug}", f"onQuery{bug}",
            op(api, f"queryProvider{bug}"),
            op(_pick(rng, apis.LIGHT_APIS), f"queryProvider{bug}"),
        ))
    return AppSpec(
        name=name, package=package, category=category,
        downloads=downloads, commit=commit, actions=tuple(actions),
    )


def build_lifecycle_callback_race(rng, name, package):
    """A blocking call in a lifecycle callback that rarely manifests.

    The callback races a background warm-up; only when it loses does
    the blocking call run slow.  ``manifest_prob`` is drawn in
    [0.15, 0.45], so the site is a ground-truth bug most deployments
    under-observe.
    """
    category, downloads, commit = app_profile(rng)
    actions = list(clean_actions(rng))
    api = _pick(rng, BLOCKING_POOL)
    probability = round(0.15 + 0.30 * float(rng.random()), 3)
    handler = _LIFECYCLE_HANDLERS[
        int(rng.integers(len(_LIFECYCLE_HANDLERS)))
    ]
    racy = replace(api, manifest_prob=probability)
    actions.append(action(
        "lifecycle_init", handler,
        op(racy, "initOnCallback"),
        op(_pick(rng, apis.LIGHT_APIS), "initOnCallback"),
    ))
    return AppSpec(
        name=name, package=package, category=category,
        downloads=downloads, commit=commit, actions=tuple(actions),
    )


def build_render_jank_benign(rng, name, package):
    """Slow render-heavy UI work — hangs without bugs.

    Each action is built around a *single* heavy render-side UI call
    (plus light bookkeeping), so phase-2 trace analysis — if the
    S-Checker's counter filter ever lets a hang through — attributes a
    UI-class leaf with a dominant occurrence factor and correctly
    rules the hang benign.
    """
    category, downloads, commit = app_profile(rng)
    actions = []
    for index in range(int(rng.integers(3, 6))):
        api = _pick(rng, RENDER_POOL)
        # Always perceivably slow: draw the manifested mean in
        # [140, 400) ms regardless of the base API's default.
        mean_ms = round(140.0 + 260.0 * float(rng.random()), 1)
        heavy = replace(api, mean_ms=mean_ms, sigma=0.3)
        actions.append(action(
            f"render_{index}", "onScroll",
            op(heavy, f"bindRow{index}"),
            op(_pick(rng, apis.LIGHT_APIS), f"bindRow{index}"),
        ))
    return AppSpec(
        name=name, package=package, category=category,
        downloads=downloads, commit=commit, actions=tuple(actions),
    )
