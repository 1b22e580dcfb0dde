"""Checks on the package source itself."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hypermatch

SOURCE = pathlib.Path(hypermatch.__file__).parent
REPO = pathlib.Path(__file__).resolve().parents[1]


def loaded_names(tree):
    """Every name and attribute that the tree reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_no_assert_statements():
    # invariants must survive ``python -O``, so they raise InvariantError
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert len(list(SOURCE.glob("*.py"))) >= 10


def test_every_public_name_is_read_by_the_package():
    # a public function, class or method that only its own tests call belongs
    # in the tests
    public, loaded = {}, set()  # {where: name}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        loaded |= loaded_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                public |= {f"{path.name} {node.name}.{item.name}": item.name for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public[f"{path.name} {node.name}"] = node.name
    assert len(public) >= 120
    assert [where for where, name in public.items() if name not in loaded] == []


# The package modules each module loads, itself included: the import graph
# has no cycle, and only ``cli`` and ``acceptance`` load every layer.
BASE = {"errors", "seeds", "hypergraph"}
LOADS = {
    "errors": {"errors"},
    "seeds": {"errors", "seeds"},
    "hypergraph": BASE,
    "entropy": BASE | {"entropy"},
    "counting": BASE | {"entropy", "counting"},
    "greedy": BASE | {"entropy", "greedy"},
    "shifting": BASE | {"entropy", "counting", "shifting"},
    "bipartite": BASE | {"entropy", "counting", "bipartite"},
    "acceptance": BASE | {"entropy", "counting", "greedy", "shifting", "bipartite", "acceptance"},
    "cli": BASE | {"entropy", "counting", "greedy", "shifting", "bipartite", "acceptance", "cli"},
}

IMPORT_CHILD = """
import importlib, json, sys
loaded = {}
for name in sys.argv[1:]:
    for key in [key for key in sys.modules if key.split(".")[0] == "hypermatch"]:
        del sys.modules[key]
    importlib.import_module("hypermatch." + name)
    loaded[name] = sorted(key.split(".")[1] for key in sys.modules if key.startswith("hypermatch."))
print(json.dumps(loaded))
"""


def test_each_module_loads_only_its_layers():
    # a module imported alone, in a fresh interpreter, loads the modules it
    # needs and no others: the package ``__init__`` imports none
    assert set(LOADS) == {path.stem for path in SOURCE.glob("*.py")} - {"__init__"}
    path = os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-c", IMPORT_CHILD, *LOADS], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert {name: set(loaded) for name, loaded in json.loads(child.stdout).items()} == LOADS


def test_console_script_resolves_to_the_cli():
    # ``pip install`` makes the ``hypermatch`` command from ``[project.scripts]``
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"hypermatch": "hypermatch.cli:main"}
    module, _, attr = scripts["hypermatch"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


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


def test_every_constant_is_read_by_the_package():
    # a module-level constant that no package code reads is a knob nobody turns
    constants, loaded = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants += [
                    (path.name, name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name) and name.id.isupper()
                ]
        loaded |= loaded_names(tree)
    assert len(constants) >= 29
    assert [f"{module} {name}" for module, name in constants if name not in loaded] == []


def test_run_all_calls_every_criterion_in_order():
    # a criterion that run_all does not call would go missing from ``verify``
    tree = ast.parse((SOURCE / "acceptance.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    defined = [name for name in functions if name.startswith("criterion_")]
    called = [
        node.func.id
        for node in ast.walk(functions["run_all"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id.startswith("criterion_")
    ]
    assert len(called) >= 10
    assert called == sorted(defined, key=lambda name: int(name.split("_")[1]))


def test_package_reads_no_edge_tuples():
    # the package works on a graph's edge rows and incidence arrays; the
    # tuple views ``Hypergraph.edges`` and ``Hypergraph.incident`` serve only
    # callers outside it
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in ("edges", "incident"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []


BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}


def test_no_blas_in_the_package():
    # every sum is a numpy reduction, so no float bit depends on the BLAS
    # kernel that OpenBLAS picks for the CPU
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Call) and loaded_names(ast.Expression(node.func)) & (BLAS_CALLS | {"linalg"}):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}")
            elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                found.append(f"{path.name}:{node.lineno} import")
    assert found == []


def test_graph_indices_are_built_in_hypergraph():
    # ids are grouped by ``hypergraph.group`` and edges split by
    # ``Hypergraph.split_codes``: only hypergraph.py sorts ids or reads the
    # column-split layout of ``_subset_codes``
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and loaded_names(ast.Expression(node.func)) & {"argsort", "lexsort"}:
                found.append((path.name, f"{path.name}:{node.lineno} {ast.unparse(node.func)}"))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr == "_subset_codes":
                found.append((path.name, f"{path.name}:{node.lineno} ._subset_codes"))
    assert [where for module, where in found if module != "hypergraph.py"] == []
    assert {module for module, _ in found} == {"hypergraph.py"}


def test_one_writer_of_the_graph_cache():
    # every cached graph index goes through ``Hypergraph._kept``: no other
    # function stores into ``_cache[...]`` or calls a method of it but ``get``
    writers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                stored = isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
                called = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr != "get"
                target = node.value if stored else node.func.value if called else None
                if isinstance(target, ast.Attribute) and target.attr == "_cache":
                    writers.add(f"{path.name}:{func.name}")
    assert writers == {"hypergraph.py:_kept"}


def dataclass_fields():
    """{class name: its field names} for every dataclass of the package."""
    fields = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            decorated = isinstance(node, ast.ClassDef) and any(
                "dataclass" in loaded_names(ast.Expression(dec)) for dec in node.decorator_list
            )
            if decorated:
                fields[node.name] = {
                    item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                }
    return fields


def test_no_two_dataclasses_share_three_fields():
    # two dataclasses with three or more field names in common are two
    # result types for one computation
    fields = dataclass_fields()
    assert len(fields) >= 10
    names = sorted(fields)
    shared = {
        (a, b): sorted(fields[a] & fields[b])
        for i, a in enumerate(names)
        for b in names[i + 1:]
        if len(fields[a] & fields[b]) >= 3
    }
    assert shared == {}


# Fields that no package or benchmark code reads, kept with a reason.
UNREAD_FIELDS_KEPT = {
    "GreedyTrajectory.step_logprob",  # the input of the Knuth count estimator
    "ShiftingStructure.U_sets",  # the gadget itself, compared with the reference search
}


def test_every_dataclass_field_is_read():
    # a field that nothing loads restates another value or serves only tests;
    # a store such as ``log.count += 1`` is not a read
    read = set()
    for path in sorted(SOURCE.glob("*.py")) + sorted((REPO / "perfbench").glob("*.py")):
        read |= {
            node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    unread = {
        f"{cls}.{name}" for cls, names in dataclass_fields().items() for name in names if name not in read
    }
    assert sorted(unread - UNREAD_FIELDS_KEPT) == []
    assert UNREAD_FIELDS_KEPT <= unread


def test_only_a_vertex_sum_check_marks_weights_verified():
    # ``verified-fpm`` is set in entropy.py alone, by the functions that check
    # vertex sums first, and read by the ``verified`` test
    readers = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        scopes = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                scopes += [
                    (f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef) else node.name, item)
                    for item in node.body
                ]
            else:
                scopes.append((getattr(node, "name", "<module>"), node))
        readers |= {f"{path.name} {name}" for name, scope in scopes if "STATUS_VERIFIED" in loaded_names(scope)}
        readers |= {
            f"{path.name} import"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name == "STATUS_VERIFIED"
        }
    assert readers == {
        f"entropy.py {name}"
        for name in ("as_verified", "max_entropy_fpm", "EdgeWeights.verified", "read_weights")
    }
