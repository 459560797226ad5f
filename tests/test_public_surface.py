"""Every name the package exports, and every public function, class and
method it defines, has a caller outside the tests."""

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
    """The names a file uses as a variable or an attribute, and the names
    it reads as an attribute, each top-level statement without the name it
    defines itself.  The benchmark's span recorder binds functions by name,
    so there identifier strings count as both."""
    by_name = path.name == "spans.py"
    names, attributes = set(), set()
    for stmt in ast.parse(path.read_text()).body:
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
            elif by_name and isinstance(node, ast.Constant) and isinstance(node.value, str):
                spanned = {part for part in node.value.split(".") if part.isidentifier()}
                used |= spanned
                attributes |= spanned
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            used.discard(stmt.name)
        names |= used
    return names, attributes


def public_definitions():
    """The (qualified name, name, whether it is a method) of every public
    top-level function and class of the package, and of every public method
    of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            yield f"{path.stem}.{stmt.name}", stmt.name, False
            if isinstance(stmt, ast.ClassDef):
                yield from ((f"{path.stem}.{stmt.name}.{node.name}", node.name, True)
                            for node in stmt.body
                            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))


def names_used_outside_the_tests():
    """The names used, and the names read as an attribute, by the package,
    the scripts and the benchmark."""
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used, attributes = zip(*(referenced_names(f) for f in files))
    return set().union(*used), set().union(*attributes)


def test_every_exported_name_has_a_caller_outside_the_tests():
    used, _ = names_used_outside_the_tests()
    assert sorted(exported_names() - used) == []


def test_every_public_function_and_method_has_a_caller_outside_the_tests():
    # a method counts as used only where it is read as an attribute: a local
    # variable of the same name is no call of it
    used, attributes = names_used_outside_the_tests()
    assert [qualified for qualified, name, method in public_definitions()
            if name not in (attributes if method else used)] == []
