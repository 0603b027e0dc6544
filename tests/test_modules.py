"""Module hygiene: every name a module exports exists, and every name its
top-level imports bind is read somewhere in the module."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import vefrac

PACKAGE = Path(vefrac.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _exports(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import, with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("name", MODULES)
def test_exports_exist_and_imports_are_read(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    exports = _exports(tree)
    if exports is not None:
        module = importlib.import_module(f"vefrac.{name}")
        assert [n for n in exports if not hasattr(module, n)] == []
    # a re-export in __all__ counts as a use
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(exports or ())
    unused = {n: line for n, line in _imported_names(tree).items() if n not in read}
    assert unused == {}
