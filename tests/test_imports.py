"""Static checks: every module of the package uses every name it imports,
and every public module-level function and class is referred to somewhere
in the package or the benchmark outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "modal_distill"
BENCH = SRC.parents[1] / "bench"

# (module, name) pairs imported on purpose without a use: the benchmark's
# tracer wraps ``cli.predict_scores``, so the name must stay bound there
KEPT = {("cli", "predict_scores")}

# (module, name) public definitions that nothing in src/ or bench/ refers to
# on purpose; empty while every one of them has a caller
UNREFERENCED = set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    """Names ``node`` refers to: every name and attribute, and with
    ``strings`` every string constant (the benchmark's tracer patches
    attributes it names by string)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def unreferenced(modules: dict[str, str], bench: list[str]) -> set[tuple[str, str]]:
    """(module, name) of each public top-level function or class in
    ``modules`` (module name -> source) that no other top-level statement
    of any module, and no ``bench`` source, refers to."""
    bodies = {name: ast.parse(source).body for name, source in modules.items()}
    refs = {name: [_names(stmt) for stmt in body] for name, body in bodies.items()}
    counts = Counter(n for per_stmt in refs.values() for names in per_stmt for n in names)
    from_bench = set().union(*(_names(ast.parse(source), strings=True) for source in bench))
    found = set()
    for module, body in bodies.items():
        for stmt, names in zip(body, refs[module]):
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
                    and stmt.name not in from_bench
                    and counts[stmt.name] == (stmt.name in names)):
                found.add((module, stmt.name))
    return found


def test_unused_import_is_found():
    source = "import os\nfrom dataclasses import dataclass, field\nx = field\n"
    assert unused_imports(source) == ["dataclass", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    found = {(path.stem, name) for name in unused_imports(path.read_text())}
    assert found - KEPT == set()
    # an exception whose import is gone, or now used, is stale
    assert {k for k in KEPT if k[0] == path.stem} <= found


def test_unreferenced_definition_is_found():
    modules = {
        "a": "def used():\n    pass\n\ndef dead():\n    pass\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\nclass _Private:\n    pass\n",
        "b": "from a import used\nused()\n\nclass Patched:\n    pass\n",
    }
    bench = ["wrap(b, 'Patched')\n"]
    assert unreferenced(modules, bench) == {("a", "dead"), ("a", "recursive")}


def test_every_public_definition_is_referenced():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = unreferenced(modules, [p.read_text() for p in sorted(BENCH.glob("*.py"))])
    assert found - UNREFERENCED == set()
    # an exception that something now refers to is stale
    assert UNREFERENCED <= found
