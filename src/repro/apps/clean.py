"""The clean-app generator.

A clean app does UI and light work only: it has no soft hang bug.  The
corpus pads the hand-modelled Table 5 apps with clean apps to reach
the paper's fleet size, and the scenario taxonomy's archetypes build
on the same profile and action body.  This module imports no catalog,
so a generated fleet loads none of the hand-modelled apps.
"""

from repro.apps import android_apis as apis
from repro.apps.app import AppSpec
from repro.apps.catalog_helpers import ui_action

#: Store categories sampled for generated apps (paper's Table 5 mix).
CATEGORIES = (
    "Social", "Personalization", "Travel & Local", "Communication",
    "Productivity", "Photography", "Media & Video", "Business", "Tools",
    "Education", "Music & Audio", "Video Players", "Books", "Weather",
    "Finance", "Health & Fitness",
)

#: UI/light building blocks for generated clean apps.
_UI_POOL = apis.ALL_UI_APIS
_LIGHT_POOL = apis.LIGHT_APIS


def app_profile(rng):
    """Draw the store-listing profile (category, downloads, commit).

    The draw order (category, then downloads, then commit) is part of
    the seed contract: :func:`~repro.apps.corpus.generate_clean_app`
    has emitted the same apps for a given seed since the corpus
    existed, and every scenario archetype
    (:mod:`repro.scenarios.archetypes`) shares this prefix so
    generated apps stay comparable across archetypes.
    """
    category = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
    downloads = int(10 ** rng.uniform(2, 6))
    commit = "".join(
        "0123456789abcdef"[int(d)] for d in rng.integers(0, 16, size=7)
    )
    return category, downloads, commit


def clean_actions(rng):
    """Draw a clean app's action list (UI and light operations only)."""
    action_count = int(rng.integers(3, 7))
    actions = []
    for action_index in range(action_count):
        ui_count = int(rng.integers(1, 4))
        chosen = [
            _UI_POOL[int(rng.integers(len(_UI_POOL)))] for _ in range(ui_count)
        ]
        chosen += [
            _LIGHT_POOL[int(rng.integers(len(_LIGHT_POOL)))]
            for _ in range(int(rng.integers(1, 3)))
        ]
        actions.append(
            ui_action(f"action_{action_index}", *chosen,
                      caller=f"handleAction{action_index}")
        )
    return tuple(actions)


def clean_app(rng, name, package):
    """The ``clean`` archetype: one bug-free app drawn from *rng*.

    This is the single clean-app generator path — the legacy corpus
    (:func:`~repro.apps.corpus.generate_clean_app`) and the scenario
    taxonomy's ``clean`` archetype both call it, so there is exactly
    one place the UI/light pools and draw order live.
    """
    category, downloads, commit = app_profile(rng)
    actions = clean_actions(rng)
    return AppSpec(
        name=name, package=package, category=category,
        downloads=downloads, commit=commit, actions=actions,
    )
