"""Experiment harness.

One module per experiment family, each exposing functions that
regenerate a paper table or figure as structured data plus an ASCII
rendering.  The benchmark suite under ``benchmarks/`` is a thin shell
around these functions; ``EXPERIMENTS.md`` records paper-vs-measured
for each.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".tables": ("render_table",),
    ".training": ("TRAINING_BUG_SITES", "build_ui_probe_app",
                  "collect_training_samples", "training_bug_cases",
                  "training_ui_cases", "validation_bug_cases"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
