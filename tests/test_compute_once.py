"""Each derived quantity is computed once per object, and the cross-checks
behind it still run.

Counts, not timings: the by-definition irreducible scan runs once per
lattice during the invariant suite, the exact Hom solver runs a bounded
number of times during `torslat check`, the closure-axiom scan derives
each module's submodules once, the cover-to-brick table is built once per
torsion lattice and read by the interval and quotient checks, the
invariant suite builds no lattice besides the one it checks, and tampered
tables still trip the "two characterizations must agree" checks.
"""

from __future__ import annotations

import io
import itertools
from collections import Counter
from contextlib import redirect_stdout

import pytest

import torslat.bridge as bridge_mod
import torslat.galois as galois_mod
import torslat.lattice as lattice_mod
import torslat.oracle as oracle_mod
import torslat.quiver as quiver_mod
from torslat.bridge import quotient_map, tors_of_algebra
from torslat.cli import main
from torslat.galois import all_torsion_pairs, relation_from_arrows, verify_tors_lattice
from torslat.lattice import (
    FiniteLattice,
    InternalInconsistency,
    join_irreducibles,
    meet_semidistributivity_violation,
    poset_from_pairs,
    try_lattice,
)
from torslat.oracle import closure_axiom_check, subset_is_torsion_closed
from torslat.quiver import (
    QuiverPresentation,
    indecomposables,
    quotients,
    submodules,
    summands,
)

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


def write_a4(tmp_path):
    path = tmp_path / "a4.json"
    path.write_text('{"vertices": 4, "orientation": ["left", "left", "left"]}')
    return str(path)


def test_check_derives_submodules_once_per_module(monkeypatch, tmp_path):
    calls = Counter()
    real_submodules = quiver_mod.submodules

    def counting_submodules(Q, M):
        calls[M] += 1
        return real_submodules(Q, M)

    monkeypatch.setattr(quiver_mod, "submodules", counting_submodules)
    monkeypatch.setattr(oracle_mod, "submodules", counting_submodules)
    with redirect_stdout(io.StringIO()):
        assert main(["check", write_a4(tmp_path)]) == 0
    assert len(calls) == 10  # the indecomposables of linear A4
    assert max(calls.values()) == 1


def axioms_by_module(Q):
    """The closure axioms read off module lists, one subset at a time."""
    ind = indecomposables(Q)
    index = {M: i for i, M in enumerate(ind)}
    quots = [[summands(q) for q in quotients(Q, M)] for M in ind]
    exts = [
        [summands(sub) + summands(set(E.vertices) - set(sub)) for sub in submodules(Q, E)]
        for E in ind
    ]

    def holds(mask):
        inside = [bool(mask >> i & 1) for i in range(len(ind))]
        for i in range(len(ind)):
            if inside[i] and any(not inside[index[S]] for q in quots[i] for S in q):
                return False
            if not inside[i] and any(all(inside[index[S]] for S in p) for p in exts[i]):
                return False
        return True

    return holds


QUIVERS = [
    QuiverPresentation(n, orientation)
    for n in (3, 4)
    for orientation in itertools.product(("left", "right"), repeat=n - 1)
] + [
    QuiverPresentation(3, ("right", "right"), ((0, 1),)),
    QuiverPresentation(4, ("left",) * 3, ((1, 0),)),
    QuiverPresentation(4, ("right",) * 3, ((0, 1), (1, 2))),
]


@pytest.mark.parametrize("q", QUIVERS, ids=repr)
def test_closure_tables_keep_the_module_wise_answers(q):
    assert closure_axiom_check(q, tors_of_algebra(q).tors)
    reference = axioms_by_module(q)
    tables = oracle_mod._closure_tables(q)  # what subset_is_torsion_closed reads
    for mask in range(1 << len(indecomposables(q))):
        assert oracle_mod._axioms_hold(tables, mask) == reference(mask)
    full = (1 << len(indecomposables(q))) - 1
    for mask in (0, full, full >> 1, 0b101):
        assert subset_is_torsion_closed(q, mask) == reference(mask)


def test_cover_labels_are_computed_once_per_lattice(monkeypatch):
    calls = [0]
    real_label = galois_mod.cover_brick_label

    def counting_label(TL, c):
        calls[0] += 1
        return real_label(TL, c)

    monkeypatch.setattr(galois_mod, "cover_brick_label", counting_label)
    TL = tors_of_algebra(QuiverPresentation(4, ("left",) * 3)).tors
    assert verify_tors_lattice(TL) == []
    assert len(TL.lattice.poset.covers) == 84
    assert calls[0] == 84


def test_unlabellable_cover_is_reported_once_and_raises_directly():
    # bricks a and b hit each other, so one cover carries both as labels
    R = relation_from_arrows(list("abc"), [(0, 1), (1, 0)])
    TL = all_torsion_pairs(R)
    problems = verify_tors_lattice(TL)
    assert sum("expected one" in p for p in problems) == 1
    assert not any("label set mismatch" in p for p in problems)
    with pytest.raises(galois_mod.LabelNotUnique):
        galois_mod.all_cover_labels(TL)
    with pytest.raises(galois_mod.LabelNotUnique):
        galois_mod.interval_label_set(TL, 0, TL.n - 1)


def test_invariant_suite_builds_no_lattice(monkeypatch):
    """Rebuilding every interval as a lattice took 399 builds on A4."""
    TL = tors_of_algebra(LINEAR_A4).tors
    builds = [0]
    real_build = lattice_mod.try_lattice

    def counting_build(poset):
        builds[0] += 1
        return real_build(poset)

    monkeypatch.setattr(lattice_mod, "try_lattice", counting_build)
    monkeypatch.setattr(galois_mod, "try_lattice", counting_build)
    assert verify_tors_lattice(TL) == []
    assert builds[0] == 0


def test_quotient_labels_each_cover_once(monkeypatch, tmp_path):
    """`quotient --ideal 2,1,0` on linear A4 reads both label tables;
    relabelling covers per interval took 551 calls."""
    qm = quotient_map(LINEAR_A4, ((2, 1, 0),))
    expected = len(qm.source.tors.lattice.poset.covers) + len(
        qm.target.tors.lattice.poset.covers
    )
    calls = []  # holds the torsion lattices themselves, so no id is reused
    real_label = galois_mod.cover_brick_label

    def counting_label(TL, c):
        calls.append((TL, c))
        return real_label(TL, c)

    monkeypatch.setattr(galois_mod, "cover_brick_label", counting_label)
    # a direct import of the labeller into bridge is counted too
    monkeypatch.setattr(bridge_mod, "cover_brick_label", counting_label, raising=False)
    with redirect_stdout(io.StringIO()):
        assert main(["quotient", write_a4(tmp_path), "--ideal", "2,1,0"]) == 0
    assert len(calls) == expected
    assert len({(id(TL), c) for TL, c in calls}) == expected


def test_invariant_suite_reads_each_interval_once(monkeypatch):
    """The join-irreducible and label checks of an interval share one read
    of its covers: 399 comparable pairs on linear A4, 798 reads before."""
    TL = tors_of_algebra(LINEAR_A4).tors
    reads = [0]
    real_covers = lattice_mod.interval_covers

    def counting_covers(L, u, v):
        reads[0] += 1
        return real_covers(L, u, v)

    monkeypatch.setattr(lattice_mod, "interval_covers", counting_covers)
    monkeypatch.setattr(galois_mod, "interval_covers", counting_covers)
    assert verify_tors_lattice(TL) == []
    assert int(TL.lattice.leq.sum()) == 399
    assert reads[0] == 399
