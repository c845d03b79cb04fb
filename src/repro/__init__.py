"""Hang Doctor (EuroSys 2018) reproduction.

Runtime detection and diagnosis of soft hangs for smartphone apps,
rebuilt on a simulated Android substrate.  Start here:

>>> from repro import LG_V10, ExecutionEngine, HangDoctor, get_app
>>> app = get_app("K9-mail")
>>> engine = ExecutionEngine(LG_V10, seed=1)
>>> doctor = HangDoctor(app, LG_V10)
>>> for execution in engine.run_session(app, ["open_email"] * 3):
...     outcome = doctor.process(execution)

See ``examples/quickstart.py`` for the guided version, DESIGN.md for
the system inventory, and EXPERIMENTS.md for the paper-vs-measured
record of every table and figure.

Every package namespace under ``repro`` is lazy: its ``__init__``
imports no submodule, and each exported name is imported from its home
module the first time it is read, so a process loads only the code it
uses (see "Cold start" in ``docs/perf.md``).
"""

import sys as _sys


def _load(module):
    """Import *module* by its absolute name and return it.

    Through ``__import__`` rather than ``importlib.import_module``, so
    that ``python -X importtime`` lists the modules loaded on access.
    """
    __import__(module)
    return _sys.modules[module]


def _lazy_exports(package, table):
    """PEP 562 hooks for a package that imports its names on first use.

    *table* maps each home module (relative to *package* when it starts
    with a dot) to the names the package exports from it.  Returns the
    package's ``__getattr__``, ``__dir__`` and ``__all__``.  A name is
    imported from its home module the first time it is read and then
    bound on the package, so later reads are plain attribute lookups.
    Any other name imports the submodule or subpackage of that name.
    """
    homes = {name: package + home if home.startswith(".") else home
             for home, names in table.items() for name in names}

    def __getattr__(name):
        home = homes.get(name)
        if home is not None:
            value = getattr(_load(home), name)
            setattr(_sys.modules[package], name, value)
            return value
        try:
            return _load(f"{package}.{name}")
        except ModuleNotFoundError as error:
            if error.name != f"{package}.{name}":
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted({*vars(_sys.modules[package]), *homes})

    return __getattr__, __dir__, sorted(homes)


_EXPORTS = {
    ".apps.api": ("ApiKind", "ApiSpec"),
    ".apps.app": ("ActionSpec", "AppSpec", "InputEventSpec", "Operation"),
    ".apps.catalog": ("MOTIVATION_APPS", "TABLE5_APPS", "get_app"),
    ".apps.corpus": ("build_corpus",),
    ".apps.sessions": ("SessionGenerator", "UserSession"),
    ".core.blocking_db": ("BlockingApiDatabase",),
    ".core.config": ("HangDoctorConfig",),
    ".core.hang_doctor": ("HangDoctor",),
    ".core.report": ("HangBugReport",),
    ".core.states": ("ActionState",),
    ".detectors.offline": ("OfflineScanner",),
    ".detectors.runner": ("run_detector", "run_detectors"),
    ".detectors.timeout": ("TimeoutDetector",),
    ".detectors.utilization": ("UtilizationDetector",),
    ".scenarios.generator": ("generate_fleet", "scenario_app"),
    ".scenarios.taxonomy": ("parse_mix",),
    ".sim.device": ("GALAXY_S3", "LG_V10", "NEXUS_5"),
    ".sim.engine": ("ExecutionEngine", "PERCEIVABLE_DELAY_MS"),
    ".testbed.lab": ("TestBedRunner", "lab_vs_wild"),
    ".testbed.monkey": ("MonkeyInputGenerator",),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"
__all__ += ["__version__"]
