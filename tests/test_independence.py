"""gentree, series and oracle are the three independent counters: none of
them may import another, directly or through another module of the
package, or their agreement stops being evidence.  Nor may the test-only
reference that the oracle's walks are checked against import any of them,
nor `diagrams`, whose walk is checked against the DP.
And the package keeps zero runtime dependencies: each of its modules
imports only the package and the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nonnesting"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
COUNTERS = ("gentree", "series", "oracle")
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _imported_paths(source):
    """Dotted paths an import statement may bind, with relative imports
    resolved against the package (its modules all sit at the top level)."""
    paths = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "nonnesting" if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            paths.add(module)
            paths.update(f"{module}.{alias.name}" for alias in node.names)
    return paths


def _imported_counters(source):
    return {
        counter
        for counter in COUNTERS
        for path in _imported_paths(source)
        if (path + ".").startswith(f"nonnesting.{counter}.")
    }


@pytest.mark.parametrize("module", COUNTERS)
def test_counters_do_not_import_each_other(module):
    imported = _imported_counters((PACKAGE / f"{module}.py").read_text())
    assert imported <= {module}, f"{module} imports {sorted(imported - {module})}"


def test_reference_imports_no_counter():
    # the walks are tested against tests/reference.py, which must not be
    # able to reuse them or either counter they are checked against
    imported = _imported_counters(REFERENCE.read_text())
    assert not imported, f"reference.py imports {sorted(imported)}"


@pytest.mark.parametrize("source", [
    "from . import series",
    "from .series import solve_equation",
    "from .series.sub import x",
    "import nonnesting.series",
    "import nonnesting.series as s",
    "from nonnesting import series",
    "from nonnesting.series import solve_equation",
])
def test_every_import_form_is_seen(source):
    assert _imported_counters(source) == {"series"}


def test_other_imports_are_ignored():
    source = "from collections import Counter\nimport series\nfrom . import diagrams\n"
    assert _imported_counters(source) == set()


def _loaded_modules(module):
    """The package's modules that a fresh interpreter has loaded once it
    has imported `module`."""
    code = (
        f"import sys, nonnesting.{module}; "
        f"print(sorted(m for m in sys.modules if m.startswith('nonnesting.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return {name.split(".", 1)[1] for name in ast.literal_eval(out)}


@pytest.mark.parametrize("module", COUNTERS)
def test_counters_do_not_load_each_other(module):
    # imports through other modules count too: a counter that loads another
    # one via a helper module could reuse its code without importing it
    loaded = _loaded_modules(module)
    assert loaded.isdisjoint(set(COUNTERS) - {module}), f"{module} loads {loaded}"


def test_diagrams_neither_imports_nor_loads_a_counter():
    # the diagram walk is checked against the DP's counts and labels, so it
    # must not be able to reuse the succession rule's code
    imported = _imported_counters((PACKAGE / "diagrams.py").read_text())
    assert not imported, f"diagrams imports {sorted(imported)}"
    loaded = _loaded_modules("diagrams")
    assert loaded.isdisjoint(COUNTERS), f"diagrams loads {sorted(loaded)}"


def _outside_imports(source):
    """The top-level modules an import statement names that are neither
    the package nor in the standard library."""
    tops = {path.split(".")[0] for path in _imported_paths(source)}
    return tops - {"nonnesting"} - set(sys.stdlib_module_names)


@pytest.mark.parametrize("module", MODULES)
def test_package_imports_only_the_standard_library(module):
    imported = _outside_imports((PACKAGE / f"{module}.py").read_text())
    assert not imported, f"{module} imports {sorted(imported)}"


def test_an_outside_import_is_seen():
    source = (
        "import json\nfrom . import gentree\nimport numpy.linalg\n"
        "from yaml import load\n"
    )
    assert _outside_imports(source) == {"numpy", "yaml"}
