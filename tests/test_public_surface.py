"""Every name the package exports has a caller outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vkit"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names(path):
    """Names a file uses as a variable or an attribute, each top-level
    statement without the name it defines itself.  The benchmark's span
    recorder binds functions by name, so there identifier strings count too."""
    by_name = path.name == "spans.py"
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif by_name and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(part for part in node.value.split(".") if part.isidentifier())
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            used.discard(stmt.name)
        names |= used
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(referenced_names(f) for f in files))
    assert sorted(exported_names() - used) == []
