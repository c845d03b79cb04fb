"""Dependency-free primitives shared by the simulator and app model.

This package sits at the bottom of the import graph: seeded RNG
streams, stack-frame records, and the operation-kind enum.  Both
:mod:`repro.sim` and :mod:`repro.apps` import from here, never from
each other's internals, which keeps the package import-order safe.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".frames": ("Frame", "StackTrace", "occurrence_factor"),
    ".kinds": ("ApiKind",),
    ".rng": ("stream", "substream_seed"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
