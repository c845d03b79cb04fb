"""The declarative archetype taxonomy and mix arithmetic.

An :class:`Archetype` names one failure mode (or non-failure mode) the
generator can emit, with its builder template and whether its apps
carry ground-truth bugs.  A *mix* assigns each archetype a fraction of
the fleet; :func:`parse_mix` accepts the CLI's compact
``clean=0.5,blocking=0.2,...`` syntax (full names or short aliases)
and :func:`assign_archetypes` turns a mix into a deterministic
per-index assignment.

Two properties the assignment guarantees:

* **Index-addressable** — the archetype (and its per-archetype
  ordinal) at fleet index *i* depends only on (mix, i), so a shard can
  generate exactly its slice of a fleet without materializing the
  rest.
* **Mix-stable streams** — app *k* of an archetype is always drawn
  from the stream keyed ``(seed, "scenario", archetype, k)``: changing
  the mix or fleet size changes *which* apps appear, never what app
  ``(archetype, k)`` looks like, and no two archetypes ever share a
  stream.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.scenarios import archetypes


@dataclass(frozen=True)
class Archetype:
    """One entry of the taxonomy."""

    #: Canonical name (used in tables, ground-truth labels, run keys).
    name: str
    #: Short CLI alias (``--mix clean=0.5,async=0.2``).
    alias: str
    #: App-name prefix (``AsyncApp-0042``).
    prefix: str
    #: Whether generated apps carry ground-truth hang-bug sites.
    has_bugs: bool
    #: One-line description for docs and ``render()`` footers.
    description: str
    #: ``build(rng, name, package) -> AppSpec`` template.
    build: Callable

    def __repr__(self):  # stable across runs, safe inside run keys
        return f"Archetype({self.name})"


#: The taxonomy, in canonical (rendering and tie-break) order.
TAXONOMY: Tuple[Archetype, ...] = (
    Archetype(
        "clean", "clean", "CleanApp", False,
        "UI and light work only; zero ground-truth bugs",
        archetypes.build_clean,
    ),
    Archetype(
        "main_thread_blocking", "blocking", "BlockApp", True,
        "blocking/compute API on the main thread (the paper's family)",
        archetypes.build_main_thread_blocking,
    ),
    Archetype(
        "async_task_hang", "async", "AsyncApp", True,
        "worker-offloaded work re-serialized by a synchronous wait",
        archetypes.build_async_task_hang,
    ),
    Archetype(
        "ipc_wait_hang", "ipc", "IpcApp", True,
        "synchronous binder IPC round trip on the main thread",
        archetypes.build_ipc_wait_hang,
    ),
    Archetype(
        "lifecycle_callback_race", "race", "RaceApp", True,
        "blocking lifecycle callback that rarely loses its race",
        archetypes.build_lifecycle_callback_race,
    ),
    Archetype(
        "render_jank_benign", "render", "RenderApp", False,
        "slow render-heavy UI work the detector must not flag",
        archetypes.build_render_jank_benign,
    ),
)

#: Lookup by canonical name.
ARCHETYPES = {archetype.name: archetype for archetype in TAXONOMY}

#: Lookup by canonical name *or* CLI alias.
_BY_ANY_NAME = {
    **{archetype.alias: archetype for archetype in TAXONOMY},
    **ARCHETYPES,
}


def parse_mix(spec):
    """Normalize a mix spec into ``((name, fraction), ...)``.

    *spec* is either the compact string syntax
    (``"clean=0.5,async=0.5"``, names or aliases), a mapping, or an
    already-parsed tuple (returned re-normalized).  Fractions must be
    positive and are normalized to sum to 1; entries come back in
    taxonomy order regardless of spelling order.
    """
    if isinstance(spec, str):
        pairs = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, separator, value = chunk.partition("=")
            if not separator:
                raise ValueError(
                    f"mix entry {chunk!r} is not name=fraction"
                )
            pairs.append((key.strip(), float(value)))
    else:
        pairs = [(key, float(value)) for key, value in dict(spec).items()]
    weights = {}
    for key, value in pairs:
        archetype = _BY_ANY_NAME.get(key)
        if archetype is None:
            raise ValueError(
                f"unknown archetype {key!r}; known: "
                f"{[a.name for a in TAXONOMY]} "
                f"(aliases {[a.alias for a in TAXONOMY]})"
            )
        if value <= 0:
            raise ValueError(
                f"archetype {key!r} needs a positive fraction, "
                f"got {value!r}"
            )
        if archetype.name in weights:
            raise ValueError(f"archetype {archetype.name!r} given twice")
        weights[archetype.name] = value
    if not weights:
        raise ValueError("empty mix")
    total = sum(weights.values())
    return tuple(
        (archetype.name, weights[archetype.name] / total)
        for archetype in TAXONOMY
        if archetype.name in weights
    )


def assign_archetypes(mix, size):
    """Deterministic largest-remainder interleave of *mix* over *size*.

    Returns a list of ``(archetype_name, ordinal)`` pairs, one per
    fleet index: position *i* goes to the archetype with the largest
    quota deficit ``fraction * (i + 1) - emitted`` (ties break in
    taxonomy order), and *ordinal* counts that archetype's apps so
    far.  The result interleaves archetypes evenly — any prefix of the
    fleet is itself approximately on-mix, which keeps small smoke
    fleets representative and checkpoint shards balanced.
    """
    mix = parse_mix(mix)
    if size < 0:
        raise ValueError("size must be >= 0")
    emitted = {name: 0 for name, _ in mix}
    assignment = []
    for position in range(size):
        best_name = None
        best_deficit = None
        for name, fraction in mix:
            deficit = fraction * (position + 1) - emitted[name]
            if best_deficit is None or deficit > best_deficit:
                best_name, best_deficit = name, deficit
        assignment.append((best_name, emitted[best_name]))
        emitted[best_name] += 1
    return assignment


def render_mix(mix):
    """Compact human rendering of a parsed mix (alias=fraction)."""
    return ",".join(
        f"{ARCHETYPES[name].alias}={fraction:g}"
        for name, fraction in parse_mix(mix)
    )
