"""Checks on the package source itself."""

import ast
import pathlib

import hypermatch

SOURCE = pathlib.Path(hypermatch.__file__).parent


def test_no_assert_statements():
    # invariants must survive ``python -O``, so they raise InvariantError
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert len(list(SOURCE.glob("*.py"))) >= 10
