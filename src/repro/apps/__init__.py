"""App/workload model.

Synthetic Android-like apps stand in for the 114 real apps the paper
tested.  An :class:`~repro.apps.app.AppSpec` is a set of user actions;
each action posts input events to the main thread; each input event
executes a sequence of operations (API calls) with ground-truth labels
(UI work vs. blocking/compute soft hang bugs).  The catalog module
hand-models the named apps of the paper's Tables 1 and 5; the corpus
module pads them with generated clean apps to reach the 114-app fleet.
"""

from repro import _lazy_exports

#: The paper's fleet size.  It lives here, not in the corpus, so the CLI
#: parser can offer it without importing the catalog.
FLEET_SIZE = 114

_EXPORTS = {
    ".api": ("ApiKind", "ApiSpec", "UI_CLASS_PREFIXES", "blocking_api",
             "compute_op", "is_ui_class", "light_api", "ui_api"),
    ".app": ("ActionSpec", "AppSpec", "BugReport", "InputEventSpec",
             "Operation"),
    ".catalog": ("MOTIVATION_APPS", "NAMED_APPS", "TABLE5_APPS", "get_app"),
    ".corpus": ("build_corpus",),
    ".sessions": ("SessionGenerator", "UserSession"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
__all__ += ["FLEET_SIZE"]
