"""gentree, series and oracle are the three independent counters: none of
them may import another, directly or through another module of the
package, or their agreement stops being evidence."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nonnesting"
COUNTERS = ("gentree", "series", "oracle")


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


@pytest.mark.parametrize("module", COUNTERS)
def test_counters_do_not_load_each_other(module):
    # imports through other modules count too: a counter that loads another
    # one via a helper module could reuse its code without importing it
    code = (
        f"import sys, nonnesting.{module}; "
        f"print(sorted(m for m in sys.modules if m.startswith('nonnesting.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    loaded = {name.split(".", 1)[1] for name in ast.literal_eval(out)}
    assert loaded.isdisjoint(set(COUNTERS) - {module}), f"{module} loads {loaded}"
