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


def test_every_export_is_used_by_the_package():
    # a public name that only its own tests call belongs in the tests
    init = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    loaded = set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(exported - loaded) == []


def test_no_unused_imports():
    # a module-level import that its module never loads is dead weight
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in loaded]
    assert unused == []
