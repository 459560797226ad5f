"""Every name the package exports, and every public function, class and
method it defines, has a caller outside the tests; every private one has
a reader elsewhere in the package."""

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


def definitions():
    """The (qualified name, name, whether it is a method, whether it is
    private) of every top-level function and class of the package, and of
    every method of those classes but the dunder ones, which Python calls
    itself.  Every method of a private class is private."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            private = stmt.name.startswith("_")
            yield f"{path.stem}.{stmt.name}", stmt.name, False, private
            if isinstance(stmt, ast.ClassDef):
                yield from ((f"{path.stem}.{stmt.name}.{node.name}", node.name, True,
                             private or node.name.startswith("_"))
                            for node in stmt.body
                            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"))


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
    assert [qualified for qualified, name, method, private in definitions()
            if not private and name not in (attributes if method else used)] == []


def test_every_private_function_and_method_is_read_elsewhere_in_the_package():
    # the same rules: a definition's own statement does not count, and a
    # method counts only where it is read as an attribute
    used, attributes = zip(*(referenced_names(f) for f in PACKAGE.glob("*.py")))
    used, attributes = set().union(*used), set().union(*attributes)
    assert [qualified for qualified, name, method, private in definitions()
            if private and name not in (attributes if method else used)] == []
