"""Static check: every module of the package uses every name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "modal_distill"

# (module, name) pairs imported on purpose without a use: the benchmark's
# tracer wraps ``cli.predict_scores``, so the name must stay bound there
KEPT = {("cli", "predict_scores")}


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


def test_unused_import_is_found():
    source = "import os\nfrom dataclasses import dataclass, field\nx = field\n"
    assert unused_imports(source) == ["dataclass", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    found = {(path.stem, name) for name in unused_imports(path.read_text())}
    assert found - KEPT == set()
    # an exception whose import is gone, or now used, is stale
    assert {k for k in KEPT if k[0] == path.stem} <= found
