"""The import graph: each entry point loads only the code it runs, and
every module is run by some entry point.

The load checks run in a fresh interpreter, because the test process
has long since imported most of ``repro``.  Package namespaces are lazy
(see ``_lazy_exports`` in ``repro/__init__.py``), so what a process
loads is decided by the modules it imports, not by package
``__init__`` files.  The reachability check reads source only: a
module that no entry point reaches is code that only its tests run.
"""

import ast
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
    """The ``repro`` and ``numpy`` modules a fresh interpreter holds
    after *statement*."""
    return set(json.loads(_run(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.split('.')[0] in ('repro',\n"
        "                                                  'numpy'))))"
    )))


def _under(modules, *packages):
    return sorted(name for name in modules
                  for package in packages
                  if name == package or name.startswith(package + "."))


def test_import_repro_loads_nothing_else():
    assert _loaded_after("import repro") == {"repro"}


#: What the ingestion service never runs: numpy, the blocking-API
#: catalog (``repro.apps``, and the database built from it), the seeded
#: generators, the report codecs, and the fault injector.
_OFF_THE_SERVICE_PATH = ("numpy", "repro.apps", "repro.base.rng",
                         "repro.core.blocking_db", "repro.core.report",
                         "repro.faults.injector")


def test_ingest_service_loads_no_simulator_or_detector():
    loaded = _loaded_after(
        "import repro.serve.service, repro.serve.client, repro.serve.loadgen"
    )
    assert "repro.serve.service" in loaded
    assert _under(loaded, "repro.sim", "repro.harness", "repro.analysis",
                  "repro.detectors", "repro.scenarios",
                  "repro.testbed") == []
    assert "repro.core.hang_doctor" not in loaded
    # The load generator and the client may load numpy: the synthetic
    # fleet and the client's seeded backoff draw from numpy generators
    # by design.  The service itself loads none of it ...
    service = _loaded_after("import repro.serve.service")
    assert "repro.serve.service" in service
    assert _under(service, *_OFF_THE_SERVICE_PATH) == []
    # ... and neither does ``repro serve`` without --torn-write-rate, up
    # to the point where it would start serving.
    serve = _loaded_after(
        "import asyncio\n"
        "asyncio.run = lambda main: main.close()\n"
        "import repro.cli\n"
        "repro.cli.main(['serve', 'unused-state-dir'])"
    )
    assert "repro.serve.service" in serve
    # The CLI parser reads FLEET_SIZE from the lazy ``repro.apps``
    # namespace, which loads none of the package's modules.
    assert _under(serve - {"repro.apps"}, *_OFF_THE_SERVICE_PATH) == []


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


_REPO = pathlib.Path(__file__).resolve().parents[1]

#: Where the program is entered: the CLI, and every script a user or CI
#: runs.  Test suites of their own (``benchmarks/``, ``hdbench/tests``)
#: count, because they check the paper's claims on the shipped code.
_ENTRY_MODULES = ("repro.cli", "repro.__main__")
_ENTRY_DIRECTORIES = ("examples", "benchmarks", "hdbench", "tools")


def _source_modules():
    """Dotted name -> source path of every module under ``src/repro``."""
    root = _REPO / "src"
    modules = {}
    for path in sorted((root / "repro").rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _exports(tree, package):
    """Name -> home module, from a package's lazy ``_EXPORTS`` table."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "_EXPORTS"
                        for target in node.targets)):
            return {name: package + home if home.startswith(".") else home
                    for home, names in ast.literal_eval(node.value).items()
                    for name in names}
    return {}


class _ImportGraph:
    """Which ``repro`` modules a file's code loads, read from its AST.

    A module is reached by importing it, by ``from package import
    name`` where *name* is a submodule or one of the package's
    ``_EXPORTS``, and by ``alias.name`` where *alias* is bound to a
    package by an import anywhere in the same file (``from repro import
    telemetry`` then ``telemetry.write_exports``).  Importing a module
    reaches its parent packages too.  Imports are absolute, as
    everywhere in this repository.
    """

    def __init__(self):
        self.modules = _source_modules()
        self.trees = {name: ast.parse(path.read_text(), str(path))
                      for name, path in self.modules.items()}
        self.exports = {name: _exports(tree, name)
                        for name, tree in self.trees.items()
                        if self.modules[name].name == "__init__.py"}

    def _lookup(self, module, name):
        """The module that reading *name* on *module* loads, if any."""
        child = f"{module}.{name}"
        if child in self.modules:
            return child
        return self.exports.get(module, {}).get(name)

    def reached_by(self, tree):
        """The modules *tree*'s code loads."""
        reached, aliases = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    reached.add(alias.name)
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.partition(".")[0]
                        aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = node.module
                reached.add(base)
                for alias in node.names:
                    target = self._lookup(base, alias.name)
                    reached.add(target)
                    if target == f"{base}.{alias.name}":
                        aliases[alias.asname or alias.name] = target
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            module = (aliases.get(node.id)
                      if isinstance(node, ast.Name) else None)
            for attr in reversed(chain):
                if module is None:
                    break
                target = self._lookup(module, attr)
                reached.add(target)
                module = target if target == f"{module}.{attr}" else None
        with_parents = set()
        for name in reached:
            while name in self.modules:
                with_parents.add(name)
                name = name.rpartition(".")[0]
        return with_parents

    def unreached(self, entry_trees):
        """Modules no entry point reaches, directly or through others."""
        reached = set()
        pending = list(_ENTRY_MODULES)
        for tree in entry_trees:
            pending.extend(self.reached_by(tree))
        while pending:
            name = pending.pop()
            if name in reached:
                continue
            reached.add(name)
            pending.extend(self.reached_by(self.trees[name]))
        return sorted(set(self.modules) - reached)


def _entry_trees():
    return [ast.parse(path.read_text(), str(path))
            for directory in _ENTRY_DIRECTORIES
            for path in sorted((_REPO / directory).rglob("*.py"))]


def test_every_module_is_reached_from_an_entry_point():
    """Code that only tests run is deleted, not kept: every module
    under ``src/repro`` must be loaded by the CLI, an example, a
    benchmark, hdbench or a tool."""
    assert _ImportGraph().unreached(_entry_trees()) == []


def test_reachability_follows_package_aliases():
    """``from repro import telemetry`` then ``telemetry.write_exports``
    reaches ``repro.telemetry.exporters`` through the package's
    ``_EXPORTS``; a plain function import reaches only its home."""
    graph = _ImportGraph()
    reached = graph.reached_by(ast.parse(
        "from repro import telemetry\n"
        "from repro.core import HangDoctor\n"
        "telemetry.write_exports\n"
    ))
    assert "repro.telemetry.exporters" in reached
    assert "repro.core.hang_doctor" in reached
    assert "repro.core.schecker" not in reached
