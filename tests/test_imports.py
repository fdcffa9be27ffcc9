"""Every module-level import in the package and the tests is used, the
package __init__ re-exports exactly each module's __all__, each name it
re-exports, and each public attribute its classes define, has a caller,
each name a package module defines is read in the package, and each
exception class it defines is caught by name (or, if re-exported, shown
in the README or the acceptance gate).

No linter ships with the project, so these checks read each file's syntax
tree (stdlib ast only): a name bound by a top-level import must appear as a
name somewhere in the file.  The package __init__ only re-exports, so the
first check skips it and the others read it.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import spdcsim

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in (ROOT / "src" / "spdcsim").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))
INIT = ROOT / "src" / "spdcsim" / "__init__.py"


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


def test_package_reexports_each_module_all():
    relative = [node for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert relative
    for node in relative:
        module = importlib.import_module(f"spdcsim.{node.module}")
        assert sorted(a.name for a in node.names) == sorted(module.__all__), node.module


def names_read(tree: ast.Module) -> set[str]:
    """Names the module's code reads, as a bare name or an attribute; a
    top-level definition reading its own name does not count."""
    read = set()
    for stmt in tree.body:
        nodes = list(ast.walk(stmt))
        names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        read |= names - {getattr(stmt, "name", None)}
    return read


# what the package re-exports, its modules' syntax trees, and the text of
# the README and the acceptance gate, where a public name may be shown
EXPORTED = {a.name for node in ast.parse(INIT.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}
PACKAGE_TREES = [ast.parse(p.read_text()) for p in FILES if p.parent.name == "spdcsim"]
SHOWN = (ROOT / "README.md").read_text() + (ROOT / "tests" / "test_acceptance.py").read_text()


def test_every_public_name_has_a_caller():
    # API that only its own tests call is dead weight: each re-exported
    # name must be read by the package, or be shown by the README or graded
    # by the acceptance gate
    read = set().union(*map(names_read, PACKAGE_TREES))
    uncalled = [name for name in sorted(EXPORTED - read)
                if not re.search(rf"\b{name}\b", SHOWN)]
    assert not uncalled, f"public names nothing calls: {', '.join(uncalled)}"


def module_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by def, class or assignment,
    dunders aside."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def test_every_module_level_name_is_read_in_the_package():
    # a constant or helper whose last reader is gone is dead weight, even a
    # private one: each name a module defines must be read in src/, as a
    # name, an attribute or an import (the package __init__'s re-exports)
    trees = PACKAGE_TREES + [ast.parse(INIT.read_text())]
    read = set().union(*map(names_read, trees))
    read |= {a.name for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names}
    unread = set().union(*map(module_level_names, PACKAGE_TREES)) - read
    assert not unread, f"module-level names nothing in src/ reads: {', '.join(sorted(unread))}"


def class_attributes(cls: ast.ClassDef) -> set[str]:
    """Public names a class body defines: methods, properties, annotated
    fields and enum members."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            names.add(stmt.name)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def test_every_public_class_attribute_has_a_caller():
    # the same rule one level down: a method, property, field or enum member
    # of an exported class must be read as an attribute by the package, or be
    # shown as .name by the README or the acceptance gate
    read = {n.attr for tree in PACKAGE_TREES for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)}
    uncalled = [f"{cls.name}.{name}" for tree in PACKAGE_TREES for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name in EXPORTED
                and not issubclass(getattr(spdcsim, cls.name), BaseException)
                for name in sorted(class_attributes(cls) - read)
                if not re.search(rf"\.{name}\b", SHOWN)]
    assert not uncalled, f"public attributes nothing reads: {', '.join(uncalled)}"


# names an except clause in the package catches
CAUGHT = {n.id for tree in PACKAGE_TREES for handler in ast.walk(tree)
          if isinstance(handler, ast.ExceptHandler) and handler.type is not None
          for n in ast.walk(handler.type) if isinstance(n, ast.Name)}


def test_every_public_exception_is_caught():
    # an exception subclass earns its name only where a caller must tell it
    # from other errors: each exported one is named by an except clause in
    # the package, or shown by the README or the acceptance gate; elsewhere
    # a plain ValueError carries the same message
    uncaught = [name for name in sorted(EXPORTED - CAUGHT)
                if isinstance(getattr(spdcsim, name), type)
                and issubclass(getattr(spdcsim, name), BaseException)
                and not re.search(rf"\b{name}\b", SHOWN)]
    assert not uncaught, f"exceptions no caller catches: {', '.join(uncaught)}"


def test_every_unexported_exception_is_caught():
    # the same rule for an exception class a module keeps to itself: nothing
    # outside the package can name it, so an except clause in the package must
    defined = {(p.stem, stmt.name) for p in FILES if p.parent.name == "spdcsim"
               for stmt in ast.parse(p.read_text()).body if isinstance(stmt, ast.ClassDef)}
    uncaught = [f"{module}.{name}" for module, name in sorted(defined)
                if name not in EXPORTED | CAUGHT
                and issubclass(getattr(importlib.import_module(f"spdcsim.{module}"), name),
                               BaseException)]
    assert not uncaught, f"unexported exceptions no caller catches: {', '.join(uncaught)}"
