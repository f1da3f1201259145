"""Static checks: every module of the package uses every name it imports,
every public module-level function and class is referred to somewhere
in the package or the benchmark outside its own definition, every
attribute the package sets on ``self`` and every dataclass field is read
somewhere by name, only ``Model`` lists parameters, only the command
line writes to stderr, only the command line and the trap in ``train``
handle numpy's floating-point errors, and only the engine and the
read-only walk in ``train`` set ``requires_grad``."""

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

# (class, field) dataclass fields that only tests read: criterion 8 compares
# two runs' histories bit for bit
TEST_ONLY_FIELDS = {("TrainResult", "history")}


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


def _reads(trees: list[ast.AST], bench: list[str]) -> set[str]:
    """Every attribute name read in ``trees``, and every name in a ``bench``
    source."""
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return read | set().union(*(_names(ast.parse(source), strings=True) for source in bench))


def unread_attributes(modules: dict[str, str], bench: list[str]) -> set[tuple[str, str]]:
    """(module, attribute) of each ``self.<attribute>`` assigned in
    ``modules`` (module name -> source) whose name no attribute read in
    ``modules``, and no name in a ``bench`` source, refers to."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = _reads(list(trees.values()), bench)
    return {(module, n.attr) for module, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"
            and n.attr not in read}


def test_unread_attribute_is_found():
    modules = {
        "a": "class A:\n    def __init__(self):\n        self.kept = 1\n"
             "        self.dead = 2\n        self.patched = 3\n        self.dead += 1\n",
        "b": "def f(a):\n    return a.kept\n",
    }
    assert unread_attributes(modules, ["wrap(a, 'patched')\n"]) == {("a", "dead")}


def test_every_assigned_attribute_is_read():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_attributes(modules, [p.read_text() for p in sorted(BENCH.glob("*.py"))]) == set()


def unread_fields(modules: dict[str, str], bench: list[str]) -> set[tuple[str, str]]:
    """(class, field) of each annotated field of a ``@dataclass`` class in
    ``modules`` (module name -> source) whose name no attribute read in
    ``modules``, and no name in a ``bench`` source, refers to."""
    trees = [ast.parse(source) for source in modules.values()]
    read = _reads(trees, bench)
    return {(cls.name, stmt.target.id) for tree in trees for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            and any("dataclass" in _names(d) for d in cls.decorator_list)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read}


def test_unread_dataclass_field_is_found():
    modules = {
        "a": "from dataclasses import dataclass\n\n@dataclass\nclass A:\n    kept: int\n"
             "    dead: int\n    patched: int = 0\n\n@dataclass(frozen=True)\nclass B:\n"
             "    gone: int\n\nclass Plain:\n    note: int\n",
        "b": "def f(a):\n    a.dead = 1\n    return a.kept\n",
    }
    assert unread_fields(modules, ["wrap(a, 'patched')\n"]) == {("A", "dead"), ("B", "gone")}


def test_every_dataclass_field_is_read():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = unread_fields(modules, [p.read_text() for p in sorted(BENCH.glob("*.py"))])
    assert found - TEST_ONLY_FIELDS == set()
    # a field that something in src/ or bench/ now reads is a stale exception
    assert TEST_ONLY_FIELDS <= found


def parameter_listings(modules: dict[str, str]) -> set[tuple[str, str]]:
    """(module, class) of each class in ``modules`` (module name -> source)
    that defines a ``parameters`` method."""
    return {(module, cls.name) for module, source in modules.items()
            for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
            and any(isinstance(stmt, ast.FunctionDef) and stmt.name == "parameters"
                    for stmt in cls.body)}


def test_parameter_listing_is_found():
    modules = {
        "a": "class Model:\n    def parameters(self):\n        pass\n\n"
             "class Head:\n    def parameters(self, prefix):\n        pass\n\n"
             "class Plain:\n    parameters = None\n\n    def params(self):\n        pass\n",
    }
    assert parameter_listings(modules) == {("a", "Model"), ("a", "Head")}


def test_only_model_lists_parameters():
    """Components register each parameter where they draw it; a listing
    that mirrors the registrations is how the table's order and the names
    drift apart."""
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert parameter_listings(modules) == {("model", "Model")}


def test_only_cli_writes_to_stderr():
    """``cli.main``'s one error line is all the package writes to stderr:
    no module imports ``logging``, and only ``cli.py`` names ``stderr``."""
    writers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                    for alias in n.names}
        imported |= {n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert "logging" not in {m.split(".")[0] for m in imported}, path.name
        if "stderr" in _names(tree):
            writers.add(path.name)
    assert writers == {"cli.py"}


# (module, function) that may set how numpy handles floating-point errors:
# the command line raises on them for the whole command, and the trap
# around each train step and scored batch names where one arose
FLOAT_ERROR_HANDLERS = {("cli", "main"), ("train", "_trapped")}
_FLOAT_ERROR_NAMES = {"errstate", "seterr", "FloatingPointError"}


def owners(modules: dict[str, str], hit) -> set[tuple[str, str]]:
    """(module, qualified function) of each function in ``modules`` (module
    name -> source), or ``<module>`` for top-level code, holding a node for
    which ``hit`` is true."""
    found = set()

    def visit(module: str, node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner != "<module>" else node.name
        if hit(node):
            found.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(module, child, owner)

    for module, source in modules.items():
        visit(module, ast.parse(source), "<module>")
    return found


def handles_float_errors(node: ast.AST) -> bool:
    """Whether ``node`` names ``errstate``, ``seterr`` or
    ``FloatingPointError``, or passes the string ``"ignore"`` to a call (a
    warnings filter hides numpy's warnings as surely as ``errstate``
    does)."""
    named = (isinstance(node, ast.Name) and node.id in _FLOAT_ERROR_NAMES
             or isinstance(node, ast.Attribute) and node.attr in _FLOAT_ERROR_NAMES)
    ignores = isinstance(node, ast.Call) and any(
        isinstance(n, ast.Constant) and n.value == "ignore"
        for arg in [*node.args, *(k.value for k in node.keywords)] for n in ast.walk(arg))
    return named or ignores


def test_float_error_handling_is_found():
    modules = {
        "a": "import numpy as np\nnp.seterr(all='ignore')\n\n"
             "def quiet():\n    with np.errstate(**{'over': 'ignore'}):\n        pass\n\n"
             "class Step:\n    def run(self):\n        try:\n            pass\n"
             "        except FloatingPointError:\n            pass\n\n"
             "def hide():\n    import warnings\n    warnings.simplefilter('ignore')\n\n"
             "def plain():\n    mode = 'ignore'\n    return warnings.simplefilter('error')\n",
    }
    assert owners(modules, handles_float_errors) == {("a", "<module>"), ("a", "quiet"),
                                             ("a", "Step.run"), ("a", "hide")}


def test_only_the_cli_and_the_trap_handle_float_errors():
    """Overflow, invalid values and division by zero raise in every command
    (``cli.main``) and are named where they arise (``train._trapped``); a
    second place that sets or catches them is how silent overflow regrows."""
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert owners(modules, handles_float_errors) == FLOAT_ERROR_HANDLERS


# (module, function) that may set ``requires_grad``: a tensor takes its flag
# when it is made, an op's result when an input requires grad, and the
# read-only walk turns the parameters' flags off for its length and back on
REQUIRES_GRAD_SETTERS = {("tensor", "Tensor.__init__"), ("tensor", "Tensor._result"),
                         ("train", "_walk")}


def sets_requires_grad(node: ast.AST) -> bool:
    """Whether ``node`` assigns ``.requires_grad`` or sets it through
    ``setattr``."""
    return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and node.attr == "requires_grad"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "setattr" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "requires_grad")


def test_requires_grad_setter_is_found():
    modules = {
        "a": "class T:\n    def __init__(self, flag):\n        self.requires_grad = flag\n\n"
             "def freeze(ts):\n    for t in ts:\n        t.requires_grad = False\n\n"
             "def thaw(t):\n    setattr(t, 'requires_grad', True)\n\n"
             "def pair(a, b):\n    a.requires_grad, b.data = True, None\n\n"
             "def reads(t):\n    return t.requires_grad and T(requires_grad=True)\n",
    }
    assert owners(modules, sets_requires_grad) == {("a", "T.__init__"), ("a", "freeze"),
                                              ("a", "thaw"), ("a", "pair")}


def test_only_the_engine_and_the_walk_set_requires_grad():
    """The flag is toggled in one place, the read-only walk; a second
    setter is how a global no-grad switch grows into the engine."""
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert owners(modules, sets_requires_grad) == REQUIRES_GRAD_SETTERS
