"""Taxonomy-driven scenario generation.

A seeded, property-based generator that procedurally emits fleets of
thousands of :class:`~repro.apps.app.AppSpec`s from a declarative
archetype taxonomy — the paper's main-thread-blocking family plus the
failure modes the related work catalogs (async-wait hangs, IPC waits,
lifecycle races) and the true-negative pressure (render-side jank) a
soft-hang detector must not flag.  See ``docs/scenarios.md``.
"""

from repro import _lazy_exports

#: The acceptance-criteria mix: mostly clean, the paper's family next,
#: the new archetypes as the tail.  It lives here, not in the taxonomy,
#: so the CLI parser can offer it without importing the archetypes.
DEFAULT_MIX = (
    "clean=0.5,blocking=0.2,async=0.15,ipc=0.05,race=0.05,render=0.05"
)

_EXPORTS = {
    ".generator": ("GeneratedApp", "generate_fleet", "scenario_app"),
    ".taxonomy": ("ARCHETYPES", "Archetype", "TAXONOMY",
                  "assign_archetypes", "parse_mix", "render_mix"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
__all__ += ["DEFAULT_MIX"]
