"""Seeded, index-addressable scenario-fleet generation.

The generator turns ``(size, mix, seed)`` into a fleet of labelled
:class:`GeneratedApp` records.  Determinism contract:

* App *k* of an archetype is drawn from the stream keyed
  ``(seed, "scenario", archetype, k)`` — a pure function of those
  three values, independent of mix, fleet size, shard assignment, and
  generation order.
* :func:`generate_fleet` with ``indices`` materializes only the
  requested slice, byte-identical to the same positions of the full
  fleet — this is what lets the sweep harness shard generation across
  worker processes.
"""

from dataclasses import dataclass

from repro.apps.app import AppSpec
from repro.base.rng import stream
from repro.scenarios import DEFAULT_MIX
from repro.scenarios.taxonomy import ARCHETYPES, assign_archetypes


@dataclass(frozen=True)
class GeneratedApp:
    """One labelled app of a scenario fleet."""

    #: Position in the fleet.
    index: int
    #: Ground-truth archetype label (canonical name).
    archetype: str
    app: AppSpec


def scenario_app(archetype_name, ordinal, seed=0):
    """Generate app *ordinal* of one archetype (a pure function)."""
    archetype = ARCHETYPES[archetype_name]
    rng = stream(seed, "scenario", archetype.name, ordinal)
    return archetype.build(
        rng,
        f"{archetype.prefix}-{ordinal:04d}",
        f"com.scenario.{archetype.alias}{ordinal:04d}",
    )


def generate_fleet(size, mix=DEFAULT_MIX, seed=0, indices=None):
    """Generate a scenario fleet (or, with *indices*, a slice of one).

    Returns :class:`GeneratedApp` records in the order of *indices*
    (the whole fleet in position order by default).  Generating a
    slice draws exactly the apps at those positions — nothing else —
    so shards of any size recompose into the full fleet.
    """
    assignment = assign_archetypes(mix, size)
    positions = range(size) if indices is None else indices
    fleet = []
    for position in positions:
        name, ordinal = assignment[position]
        fleet.append(GeneratedApp(
            index=position,
            archetype=name,
            app=scenario_app(name, ordinal, seed=seed),
        ))
    return fleet
