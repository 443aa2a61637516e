"""The README's library example and command-line examples run and print
what their comments say."""

import ast
import contextlib
import io
from pathlib import Path

from nonnesting.cli import run

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


OUTPUT = "# => "  # marks the line right after a command as its stdout


def _command_block():
    """The lines of the "Command line" block."""
    section = README.read_text().split("## Command line", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def _command_lines(lines):
    """(argv, expected stdout or None) for each `nonnesting ...` line of
    `lines`; only a `# => ` line right after a command is its stdout, and
    every other comment is prose."""
    following = lines[1:] + [""]
    return [
        (line.split()[1:], after[len(OUTPUT):] if after.startswith(OUTPUT) else None)
        for line, after in zip(lines, following)
        if line.startswith("nonnesting ")
    ]


def test_command_line_examples_run():
    lines = _command_block()
    examples = _command_lines(lines)
    assert any(argv[0] == "generate" and "--stats" in argv for argv, _ in examples)
    # every output marker sits right after a command, so none goes unchecked
    markers = sum(line.startswith(OUTPUT) for line in lines)
    assert sum(expected is not None for _, expected in examples) == markers == 3
    for argv, expected in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert run(argv) == 0, argv
        if expected is not None:
            assert out.getvalue() == expected + "\n", argv
