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


def test_only_fluctuation_names_branch():
    # the branch/eta arithmetic has one home; the package root only re-exports it
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("fluctuation.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
            if field and getattr(node, field) == "Branch":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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


def test_ratio_and_box_overlap_have_one_body_each():
    from ergolab.folner import ExplicitFamily, FolnerFamily, RefinedFamily, StandardBoxFamily
    from ergolab.groups import Group, HeisenbergGroup

    assert vars(StandardBoxFamily)["ratio"] is vars(ExplicitFamily)["ratio"] is FolnerFamily.ratio
    assert "ratio" not in vars(RefinedFamily)
    assert vars(HeisenbergGroup)["box_overlap"] is Group.box_overlap
    # the analytic box threshold is searched in one place: only its helper reads the corner floor
    tree = ast.parse((SRC / "folner.py").read_text(encoding="utf-8"))
    [helper] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_box_threshold"]

    def reads(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "corner_floor"]

    assert reads(helper) and len(reads(tree)) == len(reads(helper))


def test_one_lattice_geometry():
    from ergolab import groups
    from ergolab.groups import Group, IntegerGroup, LatticeGroup

    # Z is Z^1 with int elements: the block law and the box geometry are the lattice's, not copies
    assert issubclass(IntegerGroup, LatticeGroup)
    inherited = {"translate_block", "box_card", "box_reaches", "box_overlaps", "corner_floor"}
    assert inherited.isdisjoint(vars(IntegerGroup))
    classes = {c for c in vars(groups).values() if isinstance(c, type) and issubclass(c, Group)}
    assert {c for c in classes if "check_element" in vars(c)} == {Group, IntegerGroup}
    # the other modules read geometry through the Group interface and name no concrete group
    concrete = {c.__name__ for c in classes} - {"Group"}
    found = []
    for name in ("folner.py", "fluctuation.py", "cli.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"))):
            field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
            if field and getattr(node, field) in concrete:
                found.append(f"{name}:{node.lineno}")
    assert found == []
