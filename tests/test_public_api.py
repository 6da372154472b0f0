"""The package's export list matches what its __init__ imports."""

from __future__ import annotations

import ast
from pathlib import Path

import torslat


def imported_public_names() -> list[str]:
    tree = ast.parse(Path(torslat.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_every_exported_name_resolves():
    missing = [name for name in torslat.__all__ if not hasattr(torslat, name)]
    assert missing == []


def test_all_lists_exactly_the_imported_public_names():
    assert len(set(torslat.__all__)) == len(torslat.__all__)
    imported = imported_public_names()
    assert len(set(imported)) == len(imported)
    assert sorted(torslat.__all__) == sorted(imported)
