"""gentree, series and oracle are the three independent counters: none of
them may import another, or their agreement stops being evidence."""

import ast
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
