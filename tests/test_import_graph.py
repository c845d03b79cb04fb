"""The import graph: each entry point loads only the code it runs.

Every check runs in a fresh interpreter, because the test process has
long since imported most of ``repro``.  Package namespaces are lazy
(see ``_lazy_exports`` in ``repro/__init__.py``), so what a process
loads is decided by the modules it imports, not by package
``__init__`` files.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

_SOURCE_ROOT = pathlib.Path(repro.__file__).resolve().parents[1]


def _run(code):
    """Run *code* in a fresh interpreter; return its last stdout line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_SOURCE_ROOT), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def _loaded_after(statement):
    """The ``repro`` modules a fresh interpreter holds after *statement*."""
    return set(json.loads(_run(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.split('.')[0] == 'repro')))"
    )))


def _under(modules, *packages):
    return sorted(name for name in modules
                  for package in packages
                  if name == package or name.startswith(package + "."))


def test_import_repro_loads_nothing_else():
    assert _loaded_after("import repro") == {"repro"}


def test_ingest_service_loads_no_simulator_or_detector():
    loaded = _loaded_after(
        "import repro.serve.service, repro.serve.client, repro.serve.loadgen"
    )
    assert "repro.serve.service" in loaded
    assert _under(loaded, "repro.sim", "repro.harness", "repro.analysis",
                  "repro.detectors", "repro.scenarios",
                  "repro.testbed") == []
    assert "repro.core.hang_doctor" not in loaded


def test_fleet_study_loads_no_serve_or_crowd_code():
    loaded = _loaded_after("from repro.harness.exp_fleet import table5")
    assert "repro.sim.engine" in loaded
    assert _under(loaded, "repro.serve", "repro.obs", "repro.crowd",
                  "repro.scenarios", "repro.testbed", "repro.osint") == []


def test_cli_parser_loads_no_study_code():
    loaded = _loaded_after("import repro.cli; repro.cli.build_parser()")
    assert "repro.cli" in loaded
    assert _under(loaded, "repro.apps.catalog", "repro.scenarios.archetypes",
                  "repro.core.hang_doctor", "repro.detectors",
                  "repro.sim.engine") == []


_GUARD = """
import importlib, json, pathlib, sys
import repro

problems = []
packages = ["repro"] + sorted(
    "repro." + path.parent.name
    for path in pathlib.Path(repro.__file__).parent.glob("*/__init__.py"))
for name in packages:
    package = importlib.import_module(name)
    directory = pathlib.Path(package.__file__).parent
    submodules = {path.stem for path in directory.glob("*.py")}
    submodules |= {path.parent.name
                   for path in directory.glob("*/__init__.py")}
    # The import system binds a submodule on its package when it first
    # loads, so an export of the same name would depend on import order.
    problems += [f"{name}.{export} is also a submodule"
                 for export in sorted(submodules & set(package.__all__))]
    if name != "repro" and getattr(repro, name[6:]) is not package:
        problems.append(f"repro.{name[6:]} is not the subpackage")
    for home, exports in package._EXPORTS.items():
        module = importlib.import_module(home, name)
        for export in exports:
            if getattr(package, export) is not getattr(module, export):
                problems.append(f"{name}.{export} is not {home}.{export}")
    listed = set(dir(package))
    problems += [f"{name}.{export} missing from dir()"
                 for export in package.__all__ if export not in listed]
    namespace = {}
    exec(f"from {name} import *", namespace)
    problems += [f"import * from {name} misses {export}"
                 for export in package.__all__ if export not in namespace]
    try:
        package.no_such_export
    except AttributeError as error:
        if repr(name) not in str(error):
            problems.append(f"{name}: unhelpful error {error}")
    else:
        problems.append(f"{name}.no_such_export resolved")
print(json.dumps({"packages": packages, "problems": problems}))
"""


def test_every_package_namespace_resolves_its_exports():
    """For every package: no ``__all__`` name is also a submodule; each
    is its home module's object, is listed by ``dir()`` and bound by
    ``import *``; and an unknown name raises AttributeError naming the
    package."""
    result = json.loads(_run(_GUARD))
    expected = ["repro"] + sorted(
        "repro." + path.parent.name
        for path in pathlib.Path(repro.__file__).parent.glob("*/__init__.py")
    )
    assert result["packages"] == expected
    assert result["problems"] == []
