"""Every name a simdiff module imports is used in that module, and every
top-level function or class of the package is named somewhere.

No linter runs on the package, so these AST scans stand in for the
unused-import and dead-code rules.  An imported name counts as used when
the module reads it anywhere, annotations included, when the module lists
it in __all__, or when its import line carries ``# noqa`` (a name that
another package resolves here).  Names inside string annotations are not
read, and no module needs one: the modules import annotations from
__future__.

A top-level definition counts as named when its own module reads it, when
a file of the package, the tests or the benchmark (bench/) imports it
from that module, or when any of them names it as an attribute or spells
it in a string that is a dotted name, as the benchmark's tracer names
what it wraps.  Its own definition, a docstring, a comment, or a name
that another file reads but defines or imports from elsewhere (a
reference copy in the tests) does not count.  A helper whose last reader
is gone, left behind by a change, fails the scan.

A method of a package class that is not a dunder counts as read when any
of those files, its own module included, reads it as an attribute or
spells it after a dot in a dotted-name string, as the tracer spells
MappingGroupoid.compose; a plain word string (a report key) does not
count.  The scan goes by the method's name alone, so a dead method that
shares its name with a live attribute elsewhere passes.
"""

import ast
import re
from pathlib import Path

import simdiff

MODULES = sorted(Path(simdiff.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
READERS = sorted(p for part in ("src", "tests", "bench") for p in (ROOT / part).rglob("*.py"))


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


def _names(tree: ast.AST) -> tuple[set[str], set[tuple[str, str]], set[str], set[str]]:
    """What a file names: (the names it reads, the (module, name) pairs it
    imports, by the module's last component, the attributes it reads, and
    its strings that are dotted names)."""
    reads, imports, attrs, dotted = set(), set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imports |= {(node.module.split(".")[-1], alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            dotted.add(node.value)
    return reads, imports, attrs, dotted


def _defined(tree: ast.Module) -> dict[str, int]:
    """Each top-level function or class, with the line it is defined on."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _unnamed(module: str, tree: ast.Module, others: list[tuple]) -> set[str]:
    """The top-level definitions of module (tree) that it does not read
    and that no other file (each given by its _names) imports from it or
    names as an attribute or a dotted-name string."""
    own = _names(tree)
    imported, anywhere = set(), set()
    for _, imports, attrs, dotted in [own, *others]:
        imported |= {name for source, name in imports if source == module}
        anywhere |= attrs | {part for name in dotted for part in name.split(".")}
    return set(_defined(tree)) - own[0] - imported - anywhere


def test_every_top_level_definition_is_named():
    trees = {p: ast.parse(p.read_text()) for p in READERS}
    names = {p: _names(tree) for p, tree in trees.items()}
    unnamed = {}
    for path in MODULES:
        tree = trees[path]
        others = [n for p, n in names.items() if p != path]
        for name in _unnamed(path.stem, tree, others):
            unnamed[f"{path.name}:{_defined(tree)[name]}"] = name
    assert unnamed == {}


def test_the_scan_finds_an_unnamed_definition():
    module = ast.parse('"""Mentions _ghost only in prose."""\n'
                       "def _ghost(): pass\n"
                       "def _twin(): pass\n"
                       "def helper(): return _kept()\n"
                       "def _kept(): pass\n"
                       "def shared(): pass\n"
                       "class Wrapped: pass\n")
    # another file that defines and reads its own _twin, imports shared
    # from the module and names Wrapped in a tracer-style string
    other = ast.parse("from simdiff.mod import shared\n"
                      "def _twin(): pass\n"
                      "_twin(); shared()\n"
                      "TARGET = ('simdiff.mod', 'Wrapped.method')\n")
    assert _unnamed("mod", module, [_names(other)]) == {"_ghost", "_twin", "helper"}


def _methods(tree: ast.Module) -> dict[str, int]:
    """Each method of a class of the module that is not a dunder, as
    Class.method, with the line it is defined on."""
    return {f"{cls.name}.{node.name}": node.lineno
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _unread_methods(tree: ast.Module, names: list[tuple]) -> set[str]:
    """The methods of tree whose name no file (each given by its _names)
    reads as an attribute or spells after a dot in a dotted-name string."""
    read = set()
    for _, _, attrs, dotted in names:
        read |= attrs | {name.rsplit(".", 1)[1] for name in dotted if "." in name}
    return {m for m in _methods(tree) if m.split(".")[1] not in read}


def test_every_method_is_read():
    trees = {p: ast.parse(p.read_text()) for p in READERS}
    names = [_names(tree) for tree in trees.values()]
    unread = {}
    for path in MODULES:
        methods = _methods(trees[path])
        for name in _unread_methods(trees[path], names):
            unread[f"{path.name}:{methods[name]}"] = name
    assert unread == {}


def test_the_scan_finds_an_unread_method():
    module = ast.parse("class Box:\n"
                       "    def __len__(self): return 0\n"
                       "    def _dead(self): pass\n"
                       "    def used(self): return self._helper()\n"
                       "    def _helper(self): pass\n"
                       "    def traced(self): pass\n"
                       "    @property\n"
                       "    def size(self): return 1\n")
    # another file that reads a function named _dead, not the method, and
    # spells it in a string without a dot; it reads used and size as
    # attributes and names traced in a tracer-style string
    other = ast.parse("def _dead(): pass\n"
                      "_dead(); Box().used(); Box().size\n"
                      "TARGET = ('simdiff.mod', 'Box.traced', '_dead')\n")
    assert _unread_methods(module, [_names(module), _names(other)]) == {"Box._dead"}
