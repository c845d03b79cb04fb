"""The 114-app test fleet.

The paper tested ~114 apps; only the 16 of Table 5 showed soft hang
problems.  The corpus therefore combines the hand-modelled Table 5
apps with generated *clean* apps (UI and light work only, across the
store categories the paper lists) to reach the full fleet size.
"""

from repro.apps import FLEET_SIZE
from repro.apps import android_apis as apis
from repro.apps.app import AppSpec
from repro.apps.catalog import TABLE5_APPS
from repro.apps.wellknown import WELLKNOWN_CLEAN_APPS
from repro.apps.catalog_helpers import op, ui_action
from repro.base.rng import stream

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
    the seed contract: :func:`generate_clean_app` has emitted the same
    apps for a given seed since the corpus existed, and every scenario
    archetype (:mod:`repro.scenarios.archetypes`) shares this prefix so
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
    (:func:`generate_clean_app`) and the scenario taxonomy's ``clean``
    archetype both call it, so there is exactly one place the UI/light
    pools and draw order live.
    """
    category, downloads, commit = app_profile(rng)
    actions = clean_actions(rng)
    return AppSpec(
        name=name, package=package, category=category,
        downloads=downloads, commit=commit, actions=actions,
    )


def generate_clean_app(index, seed=0):
    """Generate one bug-free app (UI and light operations only).

    Seed-for-seed identical to what this function has always emitted:
    the rng keying (``seed, "corpus", index``) and every draw inside
    :func:`clean_app` are unchanged.
    """
    rng = stream(seed, "corpus", index)
    return clean_app(
        rng, f"GenApp-{index:03d}", f"com.generated.app{index:03d}"
    )


def build_corpus(seed=0, size=FLEET_SIZE):
    """The full test fleet: Table 5 apps, hand-modelled clean apps,
    and generated clean apps up to *size*."""
    base = list(TABLE5_APPS) + list(WELLKNOWN_CLEAN_APPS)
    if size < len(base):
        raise ValueError(
            f"corpus size {size} smaller than the {len(base)} "
            "hand-modelled apps"
        )
    fleet = list(base)
    for index in range(size - len(base)):
        fleet.append(generate_clean_app(index, seed=seed))
    return fleet
