"""In-lab testing (the paper's §4.6 alternative approach).

Instead of shipping Hang Doctor to users, a developer can run the app
on a test bed of phones where inputs come from automated tools
(Android's Monkey / MonkeyRunner).  Advantages: bugs are caught before
release, and overhead doesn't matter (phones on external power) — so
the cheap first phase can be skipped and every soft hang traced.

The catch, and the paper's reason to still run in the wild: a lab
"often cannot completely recreate the real environment of apps",
so content-dependent bugs (the 1.3 s HtmlCleaner hang needs a *heavy*
email) may never manifest on synthetic inputs.  The app model encodes
this as :attr:`~repro.apps.api.ApiSpec.lab_manifest_scale`, and
:func:`~repro.testbed.lab.lab_vs_wild` measures the coverage gap.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".lab": ("LabReport", "TestBedRunner", "lab_vs_wild"),
    ".monkey": ("MonkeyInputGenerator",),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
