"""Every module-level import in the package and the tests is used, the
package __init__ re-exports exactly each module's __all__, and each name it
re-exports has a caller.

No linter ships with the project, so these checks read each file's syntax
tree (stdlib ast only): a name bound by a top-level import must appear as a
name somewhere in the file.  The package __init__ only re-exports, so the
first check skips it and the other two read it.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in (ROOT / "src" / "spdcsim").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))


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
    init = ROOT / "src" / "spdcsim" / "__init__.py"
    relative = [node for node in ast.parse(init.read_text()).body
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


def test_every_public_name_has_a_caller():
    # API that only its own tests call is dead weight: each re-exported
    # name must be read by the package, or be shown by the README or graded
    # by the acceptance gate
    init = ROOT / "src" / "spdcsim" / "__init__.py"
    exported = {a.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}
    read = set().union(*(names_read(ast.parse(p.read_text())) for p in FILES
                         if p.parent.name == "spdcsim"))
    shown = (ROOT / "README.md").read_text() + (ROOT / "tests" / "test_acceptance.py").read_text()
    uncalled = [name for name in sorted(exported - read)
                if not re.search(rf"\b{name}\b", shown)]
    assert not uncalled, f"public names nothing calls: {', '.join(uncalled)}"
