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


# The one-pair-at-a-time references no command runs, with the exception
# only they raise; the fast paths check every pair at once.
PER_PAIR_REFERENCES = (
    "NotComparable",
    "fiber_check",
    "gap_nonempty_check",
    "interval_covers",
    "interval_ji_check",
    "interval_label_set",
    "interval_sublattice",
)


def test_per_pair_references_live_in_oracle():
    for name in PER_PAIR_REFERENCES:
        obj = getattr(torslat.oracle, name)
        assert obj.__module__ == "torslat.oracle", name
        assert getattr(torslat, name) is obj, name


def test_fast_path_modules_define_no_per_pair_reference():
    for mod in (torslat.lattice, torslat.galois, torslat.bridge):
        assert [n for n in (*PER_PAIR_REFERENCES, "_interval_endpoints") if hasattr(mod, n)] == []
