"""Structure of the package itself."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ergolab"


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_no_module_imports_private_names_by_absolute_path():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("ergolab"):
                found += [f"{path.name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def private_attributes_from_elsewhere(path: Path) -> list:
    """`obj._name` reads in one module whose name that module does not define.

    Defined means a function or class of the module, or an attribute it
    assigns on `self`.  Reads on `self` and `cls` and dunders are allowed.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    defined = {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    defined |= {
        n.attr
        for n in nodes
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name) and n.value.id == "self"
    }
    return [
        f"{path.name}:{n.lineno}: .{n.attr}"
        for n in nodes
        if isinstance(n, ast.Attribute)
        and n.attr.startswith("_")
        and not (n.attr.startswith("__") and n.attr.endswith("__"))
        and not (isinstance(n.value, ast.Name) and n.value.id in ("self", "cls"))
        and n.attr not in defined
    ]


def test_no_module_uses_another_modules_private_attributes():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in private_attributes_from_elsewhere(path)]
    assert found == []


def test_every_name_the_benchmark_wraps_is_defined_where_it_looks():
    # perfbench/spans.py patches each method through its own class's __dict__; read, not imported
    spans = ast.parse((SRC.parents[1] / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in spans.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTIONS", "METHODS")
    }
    assert tables["FUNCTIONS"] and tables["METHODS"]
    missing = [f"{module}.{name}" for module, name, _ in tables["FUNCTIONS"]
               if not hasattr(importlib.import_module(module), name)]
    missing += [f"{module}.{cls}.{name}" for module, cls, name, _ in tables["METHODS"]
                if name not in vars(getattr(importlib.import_module(module), cls))]
    assert missing == []
