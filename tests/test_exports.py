"""The public names, and every definition of the package: each is either
read inside the package or listed as an entry point in the README."""

import ast
import re
from pathlib import Path

import kleintwist

PACKAGE = Path(kleintwist.__file__).parent


def names_read_in_package() -> set:
    """Every name and attribute read in a package module other than
    __init__, the module that only re-exports."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def definitions() -> list:
    """(qualified name, name) of every module-level function and class, and
    of every public method, defined in a package module other than
    __init__."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def readme_entry_points() -> set:
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("\n## Entry points\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+)\(", section, re.M))


def test_every_exported_name_resolves_and_is_called_or_documented():
    assert len(set(kleintwist.__all__)) == len(kleintwist.__all__)
    unresolved = [name for name in kleintwist.__all__ if not hasattr(kleintwist, name)]
    assert not unresolved
    read, documented = names_read_in_package(), readme_entry_points()
    assert not [name for name in kleintwist.__all__
                if name not in read and name not in documented]
    # an entry point is exported, and has no caller that would make it redundant
    assert documented <= set(kleintwist.__all__) - read


def test_every_definition_is_read_or_documented():
    """No helper outlives its last caller: a function, class or public
    method that nothing in the package reads must be a documented entry
    point, or go."""
    read, documented = names_read_in_package(), readme_entry_points()
    assert not [qual for qual, name in definitions()
                if name not in read and name not in documented]
