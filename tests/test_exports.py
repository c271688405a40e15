"""The public names: each resolves, and each is either called inside the
package or listed as an entry point in the README."""

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
