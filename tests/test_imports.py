"""Every name a simdiff module imports is used in that module.

No linter runs on the package, so this AST scan stands in for the
unused-import rule.  A name counts as used when the module reads it
anywhere, annotations included, when the module lists it in __all__, or
when its import line carries ``# noqa`` (a name that another package
resolves here).  Names inside string annotations are not read, and no
module needs one: the modules import annotations from __future__.
"""

import ast
from pathlib import Path

import simdiff

MODULES = sorted(Path(simdiff.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name bound by an import, with the line it is bound on, unless
    that line carries ``# noqa``."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa" not in lines[alias.lineno - 1]:
                names[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads, and the entries of its __all__."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return read


def test_every_imported_name_is_used():
    unused = {}
    for path in MODULES:
        source = path.read_text()
        tree = ast.parse(source)
        read = _read(tree)
        for name, line in _imported(tree, source.splitlines()).items():
            if name not in read:
                unused[f"{path.name}:{line}"] = name
    assert unused == {}


def test_the_scan_finds_an_unused_import():
    source = ("from itertools import combinations, chain\n"
              "import os.path\n"
              "from typing import Callable, Hashable  # noqa: F401\n"
              "x: list[Callable] = chain()\n")
    tree = ast.parse(source)
    assert set(_imported(tree, source.splitlines())) - _read(tree) == {"combinations", "os"}
