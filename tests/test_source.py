"""Checks on the package source itself."""

import ast
from pathlib import Path

import gfmredux

SRC = Path(gfmredux.__file__).parent


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads."""
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_unused_imports_scan_finds_them():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom re import A, B as C\nprint(B, C)\n")
    assert unused_imports(tree) == ["os (line 2)", "A (line 3)"]


def test_no_unused_imports_in_package():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"  # its imports are the re-exports
        if (unused := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
