"""Each module of the package uses every name it imports and binds every
name its ``__all__`` lists, and the package reads every private name its
modules define.

A stdlib-only stand-in for a linter's unused-import, undefined-export and
dead-code checks: each ``src/sglink/*.py`` is parsed with ``ast``, so a
name left behind when the code that used it goes fails here.  An imported
name counts as used when it is read anywhere in the module (annotations
included) or listed in ``__all__``.  ``__init__`` imports the package's
public names to re-export them, so only its ``__all__``, if any, is
checked.  A private name (``_x``, not ``__x__``) bound at module level or
in a class body, a method included, counts as used when some module of
the package reads it, as a name, an attribute or an imported name;
comments and docstrings do not count.  A private instance attribute a
class assigns (``self._x = ...``) counts as used when some module reads
it as an attribute, so a cache or set whose readers went does not leave
its store behind.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sglink"
MODULES = sorted(SRC.glob("*.py"))
IMPORTING = [p for p in MODULES if p.name != "__init__.py"]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, anywhere in the module, with its line;
    ``from __future__`` imports bind nothing."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def bound(body: list[ast.stmt]) -> set[str]:
    """The names statements at module level bind, inside ``if`` blocks too."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, ast.If):
            names |= bound(node.body) | bound(node.orelse)
    return names


def exported(tree: ast.Module) -> list[str]:
    """The names ``__all__`` lists; none when the module has no ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def unused_imports(tree: ast.Module) -> dict[str, int]:
    """Imported names the module never reads nor lists in ``__all__``."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported(tree))
    return {name: line for name, line in imported(tree).items() if name not in read}


def unbound_exports(tree: ast.Module) -> list[str]:
    """Names ``__all__`` lists that the module does not bind."""
    names = bound(tree.body)
    return [name for name in exported(tree) if name not in names]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name bound at module level or in a class body of the
    module (functions, classes, methods and constants), with its line."""
    names = {}
    for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            for name in targets:
                if name.startswith("_") and not name.endswith("__"):
                    names[name] = node.lineno
    return names


def reads(tree: ast.Module) -> set[str]:
    """The names the module reads: as a name, as an attribute, or in an
    import from another module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unread_private_names(trees: dict[str, ast.Module]) -> dict[str, int]:
    """Private names a module defines that no module reads, as
    ``module:name`` -> line."""
    read = set().union(*map(reads, trees.values()))
    return {f"{module}:{name}": line for module, tree in trees.items()
            for name, line in private_definitions(tree).items() if name not in read}


def instance_attributes(tree: ast.Module) -> dict[str, int]:
    """Each private attribute a method of a class in the module assigns on
    ``self``, as ``Class._x`` -> line."""
    names = {}
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for t in targets:
                for a in ast.walk(t):
                    if (isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name)
                            and a.value.id == "self" and a.attr.startswith("_")
                            and not a.attr.endswith("__")):
                        names.setdefault(f"{cls.name}.{a.attr}", node.lineno)
    return names


def unread_instance_attributes(trees: dict[str, ast.Module]) -> dict[str, int]:
    """Private instance attributes a class assigns that no module reads as
    an attribute, as ``module:Class._x`` -> line."""
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return {f"{module}:{name}": line for module, tree in trees.items()
            for name, line in instance_attributes(tree).items()
            if name.split(".", 1)[1] not in read}


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "homology.py", "linking.py",
                                         "moves.py", "sgd.py", "smith.py"}


@pytest.mark.parametrize("path", IMPORTING, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(parse(path)) == {}, f"{path.name}: imported, never used (name: line)"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    assert unbound_exports(parse(path)) == [], f"{path.name}: in __all__ but not bound"


def test_every_private_name_is_read():
    trees = {p.name: parse(p) for p in MODULES}
    assert unread_private_names(trees) == {}, "defined, never read (module:name: line)"


def test_every_instance_attribute_is_read():
    trees = {p.name: parse(p) for p in MODULES}
    assert unread_instance_attributes(trees) == {}, "assigned, never read (module:attribute: line)"


def test_the_checks_find_what_they_look_for():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom operator import itemgetter, le as _le\n"
                     "__all__ = ['f', 'gone']\n"
                     "if True:\n    X = 1\n"
                     "def f(a: _le) -> None:\n    return X\n")
    assert imported(tree) == {"os": 2, "itemgetter": 3, "_le": 3}
    assert bound(tree.body) == {"annotations", "os", "itemgetter", "_le", "__all__", "X", "f"}
    assert unused_imports(tree) == {"os": 2, "itemgetter": 3}
    assert unbound_exports(tree) == ["gone"]
    other = ast.parse('_KEPT = _DEAD = 1\n_X: int = 2\n'
                      'class _C:\n    _flag = False\n    def _used(self):\n'
                      '        self._dead = 0\n        return self._used\n'
                      '    def _unused(self):\n        pass\n    def __len__(self):\n'
                      '        return 0\n'
                      'def _f():\n    "_DEAD, _unused"  # _X\n    return _KEPT\n')
    assert private_definitions(other) == {"_KEPT": 1, "_DEAD": 1, "_X": 2, "_C": 3, "_flag": 4,
                                          "_used": 5, "_unused": 8, "_f": 12}
    assert unread_private_names({"a.py": other, "b.py": ast.parse("from a import _C, _f\n")}) == {
        "a.py:_DEAD": 1, "a.py:_X": 2, "a.py:_flag": 4, "a.py:_unused": 8}
    state = ast.parse("class S:\n    def __init__(self):\n"
                      "        self._kept, self._gone = [], 0\n        self.public = 1\n"
                      "        self._bumped: int = 0\n        self._bumped += 1\n"
                      "    def read(self):\n        return self._kept\n")
    assert instance_attributes(state) == {"S._kept": 3, "S._gone": 3, "S._bumped": 5}
    assert unread_instance_attributes({"s.py": state}) == {"s.py:S._gone": 3, "s.py:S._bumped": 5}
    assert unread_instance_attributes({"a.py": other}) == {"a.py:_C._dead": 6}
