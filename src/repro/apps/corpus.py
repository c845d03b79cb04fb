"""The 114-app test fleet.

The paper tested ~114 apps; only the 16 of Table 5 showed soft hang
problems.  The corpus therefore combines the hand-modelled Table 5
apps with generated *clean* apps (UI and light work only, across the
store categories the paper lists; see :mod:`repro.apps.clean`) to
reach the full fleet size.
"""

from repro.apps import FLEET_SIZE
from repro.apps.catalog import TABLE5_APPS
from repro.apps.clean import clean_app
from repro.apps.wellknown import WELLKNOWN_CLEAN_APPS
from repro.base.rng import stream


def generate_clean_app(index, seed=0):
    """Generate one bug-free app (UI and light operations only).

    Seed-for-seed identical to what this function has always emitted:
    the rng keying (``seed, "corpus", index``) and every draw inside
    :func:`~repro.apps.clean.clean_app` are unchanged.
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
