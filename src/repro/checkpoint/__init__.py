"""Checkpointed experiment execution.

Long sweeps (`repro chaos`, `repro crowd`, the fleet/Table 5 study,
seed stability) journal every finished item to disk, one entry per
completed shard, so a crash or kill mid-run is restartable:
``--checkpoint DIR --resume`` skips the journaled items and re-runs
only the rest, at any ``--workers``, producing byte-identical output
to an uninterrupted run.  See :mod:`repro.checkpoint.journal`
for the mechanics and safety properties.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".journal": ("JOURNAL_SCHEMA", "ShardJournal", "checkpointed_map",
                 "run_key"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
