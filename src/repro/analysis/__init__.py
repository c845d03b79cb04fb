"""Analysis layer: correlation, threshold fitting, metrics, overhead.

Everything the paper's Section 3.3.1 does offline to *design*
S-Checker (Pearson correlation of 46 events against labelled soft
hangs, threshold fitting, training-set sensitivity) plus the
evaluation machinery of Section 4 (TP/FP/FN accounting against ground
truth, and the monitoring-overhead model behind Figure 8(c)).
"""

from repro import _lazy_exports

_EXPORTS = {
    ".correlation": ("CounterSample", "collect_samples", "correlate",
                     "pearson", "ranked_events", "spearman"),
    ".metrics": ("ConfusionCounts", "detection_matches_bug", "match_detection",
                 "traced_confusion"),
    ".overhead": ("OverheadModel", "OverheadResult"),
    ".sensitivity": ("sensitivity_analysis", "subsample"),
    ".thresholds": ("FilterFit", "fit_filter", "fit_threshold"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
