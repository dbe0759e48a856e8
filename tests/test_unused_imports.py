"""No module under ``src/repro`` imports a name it never uses.

A stdlib ``ast`` pass: every name an ``import`` binds must be read
somewhere in its module.  A name listed in ``__all__`` counts as used,
as does every import of an ``__init__.py`` (the package's re-exports),
and a name that appears only inside a string annotation
(``-> "RunRecord"``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names an annotation reads, string annotations parsed."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed.body)
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            }
    return used


def unused_imports(path: Path) -> list[str]:
    """``name (line N)`` for each import of ``path`` never used."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return [
        f"{name} (line {line})"
        for name, line in sorted(_imported(tree).items(), key=lambda i: i[1])
        if name not in used
    ]


def test_no_unused_imports():
    offenders = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if (unused := unused_imports(path))
    }
    assert offenders == {}


def test_guard_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import Iterable\n"
        "import os.path\n"
        "def f(x: 'Iterable[int]'):\n"
        "    return os.sep\n"
        "@dataclass\n"
        "class C:\n"
        "    pass\n"
    )
    assert unused_imports(module) == ["field (line 1)"]
