"""The README's library example runs and prints what its comments say."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example():
    section = README.read_text().split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_results():
    # every expression statement is followed by a "# <repr>" comment line
    code = _library_example()
    lines = code.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            comment = lines[node.end_lineno].strip()
            assert comment == f"# {value!r}", ast.get_source_segment(code, node)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert checked == sum(line.startswith("# [") for line in lines) > 0
