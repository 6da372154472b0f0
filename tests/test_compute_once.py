"""Each derived quantity is computed once per object, and the cross-checks
behind it still run.

Counts, not timings: the by-definition irreducible scan runs once per
lattice during the invariant suite, the exact Hom solver runs a bounded
number of times during `torslat check`, and tampered tables still trip
the "two characterizations must agree" checks.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import pytest

import torslat.lattice as lattice_mod
import torslat.quiver as quiver_mod
from torslat.bridge import tors_of_algebra
from torslat.cli import main
from torslat.galois import verify_tors_lattice
from torslat.lattice import (
    FiniteLattice,
    InternalInconsistency,
    join_irreducibles,
    meet_semidistributivity_violation,
    poset_from_pairs,
    try_lattice,
)
from torslat.quiver import QuiverPresentation

LINEAR_A4 = QuiverPresentation(4, ("left",) * 3)


def test_irreducible_scan_runs_once_per_lattice(monkeypatch):
    scanned = []  # holds the lattices themselves, so no id is reused
    real_scan = lattice_mod._irreducibles_by_definition

    def counting_scan(L, dual):
        scanned.append((L, dual))
        return real_scan(L, dual)

    monkeypatch.setattr(lattice_mod, "_irreducibles_by_definition", counting_scan)
    TL = tors_of_algebra(LINEAR_A4).tors
    assert verify_tors_lattice(TL) == []
    for dual in (False, True):
        seen = [L for L, d in scanned if d == dual]
        assert len({id(L) for L in seen}) == len(seen)
        assert sum(L is TL.lattice for L in seen) == 1
    # one more full suite on the same lattice scans it no more
    before = len(scanned)
    verify_tors_lattice(TL)
    assert sum(L is TL.lattice for L, _ in scanned[before:]) == 0


def test_check_solves_few_hom_spaces(monkeypatch, tmp_path):
    """`check` on linear A4 solves 10 endomorphism spaces, the 90 ordered
    brick pairs of the hom relation and the dichotomy sweep's pairs: 130.
    Solving them again per subset of the closure-axiom scan took 10,540."""
    solves = [0]
    real_nullspace = quiver_mod._nullspace

    def counting_nullspace(rows, ncols):
        solves[0] += 1
        return real_nullspace(rows, ncols)

    monkeypatch.setattr(quiver_mod, "_nullspace", counting_nullspace)
    path = tmp_path / "a4.json"
    path.write_text('{"vertices": 4, "orientation": ["left", "left", "left"]}')
    with redirect_stdout(io.StringIO()):
        assert main(["check", str(path)]) == 0
    assert 0 < solves[0] <= 200


def test_tampered_join_table_trips_cross_checks():
    L = try_lattice(poset_from_pairs(3, [(0, 1), (1, 2)]))
    join = L.join.copy()
    join[0, 0] = 2  # the bottom's self-join rewritten to the top
    bad = FiniteLattice(L.poset, join, L.meet, L.bottom, L.top)
    with pytest.raises(InternalInconsistency, match="join-irreducible"):
        join_irreducibles(bad)
    with pytest.raises(InternalInconsistency, match="meet-semidistributivity"):
        meet_semidistributivity_violation(bad)
