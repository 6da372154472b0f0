"""Each derived quantity is computed once per object, and the cross-checks
behind it still run.

Counts, not timings: the by-definition irreducible scan runs once per
lattice during the invariant suite, the exact Hom solver runs a bounded
number of times during `torslat check`, the closure-axiom check derives
each module's submodules once and closes O(classes x modules) sets, the
cover-to-brick table and the gamma/mu label table are built once per
lattice and read by the interval and quotient checks, the invariant
suite builds no lattice besides the one it checks and checks no interval
one pair at a time, `quotient` checks no fiber one pair at a time,
semidistributivity is read off the label table with no triple search
unless the lattice fails it, a non-semidistributive build holds no
n x n state, each lattice's element invariants are computed once, and
tampered cover sets still trip the "two characterizations must agree"
checks.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import operator
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import torslat.bridge as bridge_mod
import torslat.galois as galois_mod
import torslat.lattice as lattice_mod
import torslat.oracle as oracle_mod
import torslat.quiver as quiver_mod
from torslat.bridge import tors_of_algebra
from torslat.cli import main
from torslat.galois import all_torsion_pairs, relation_from_arrows, verify_tors_lattice
from torslat.lattice import (
    FiniteLattice,
    are_isomorphic,
    InternalInconsistency,
    is_semidistributive,
    join_irreducibles,
    join_semidistributivity_violation,
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
DATA = Path(__file__).parent / "data"


def test_irreducible_scan_runs_once_per_lattice(monkeypatch):
    scanned = []  # holds the lattices themselves, so no id is reused
    real_scan = lattice_mod._irreducibles_by_definition

    def counting_scan(L, dual):
        scanned.append((L, dual))
        return real_scan(L, dual)

    monkeypatch.setattr(lattice_mod, "_irreducibles_by_definition", counting_scan)
    TL = tors_of_algebra(LINEAR_A4)
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


def test_tampered_cover_sets_trip_cross_checks():
    """The chain 0 < 1 < 2 told that 2 covers 0 as well as 1: by cover
    count 2 is not join-irreducible, by definition it still is."""
    poset = poset_from_pairs(3, [(0, 1), (1, 2)])
    poset.lower_cover_sets = (0b000, 0b001, 0b011)
    bad = FiniteLattice(poset)
    with pytest.raises(InternalInconsistency, match="join-irreducible"):
        join_irreducibles(bad)
    with pytest.raises(InternalInconsistency, match="join-irreducible"):
        join_semidistributivity_violation(bad)


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
    assert closure_axiom_check(q, tors_of_algebra(q))
    reference = axioms_by_module(q)
    tables = oracle_mod._closure_tables(q)  # what subset_is_torsion_closed reads
    masks = range(1 << len(indecomposables(q)))
    closed = [s for s in masks if reference(s)]
    for mask in masks:
        closure = oracle_mod._axiom_closure(tables, mask)
        assert (closure == mask) == reference(mask)
        # the least closed superset: the intersection of all of them
        assert closure == functools.reduce(operator.and_, (s for s in closed if s | mask == s))
    full = (1 << len(indecomposables(q))) - 1
    for mask in (0, full, full >> 1, 0b101):
        assert subset_is_torsion_closed(q, mask) == reference(mask)


def test_check_takes_few_closure_steps(monkeypatch, tmp_path):
    """`check` on linear A5 (n = 132 classes, k = 15 indecomposables)
    closes at most n (k + 1) + 1 sets under the axioms; testing every
    subset against them took 2^15 = 32,768 calls."""
    calls = [0]
    real_closure = oracle_mod._axiom_closure

    def counting_closure(tables, mask):
        calls[0] += 1
        return real_closure(tables, mask)

    monkeypatch.setattr(oracle_mod, "_axiom_closure", counting_closure)
    path = tmp_path / "a5.json"
    path.write_text('{"vertices": 5, "orientation": ["left", "left", "left", "left"]}')
    with redirect_stdout(io.StringIO()):
        assert main(["check", str(path)]) == 0
    assert 0 < calls[0] <= 132 * (15 + 1) + 1


def test_check_closes_each_step_set_once(monkeypatch, tmp_path):
    """`check` on linear A5 closes its 132 classes, then each distinct
    class-plus-one-indecomposable set that is not itself a class, once:
    1,052 closures, where closing every step, repeats and classes
    included, took 1,319."""
    closed = []
    real_closure = oracle_mod._axiom_closure

    def recording_closure(tables, mask):
        closed.append(mask)
        return real_closure(tables, mask)

    monkeypatch.setattr(oracle_mod, "_axiom_closure", recording_closure)
    path = tmp_path / "a5.json"
    path.write_text('{"vertices": 5, "orientation": ["left", "left", "left", "left"]}')
    with redirect_stdout(io.StringIO()):
        assert main(["check", str(path)]) == 0
    classes, steps = closed[:132], closed[132:]
    assert len(set(classes)) == 132
    assert len(set(steps)) == len(steps) and not set(steps) & set(classes)
    assert len(closed) == 1_052


def test_cover_labels_are_computed_once_per_lattice(monkeypatch):
    """The cover-to-brick table is one pass per lattice; labelling
    the 84 covers of linear A4 one call at a time took 84 calls."""
    tables, singles = [], [0]
    real_table = galois_mod._cover_label_table
    real_label = galois_mod.cover_brick_label

    def counting_table(TL):
        tables.append(TL)
        return real_table(TL)

    def counting_label(TL, c):
        singles[0] += 1
        return real_label(TL, c)

    monkeypatch.setattr(galois_mod, "_cover_label_table", counting_table)
    monkeypatch.setattr(galois_mod, "cover_brick_label", counting_label)
    TL = tors_of_algebra(QuiverPresentation(4, ("left",) * 3))
    assert verify_tors_lattice(TL) == []
    assert verify_tors_lattice(TL) == []
    assert len(TL.lattice.poset.covers) == 84
    assert tables == [TL]
    assert singles[0] == 0


def test_unlabellable_cover_is_reported_once_and_raises_directly():
    # bricks a and b hit each other, so one cover carries both as labels
    R = relation_from_arrows(list("abc"), [(0, 1), (1, 0)])
    TL = all_torsion_pairs(R)
    problems = verify_tors_lattice(TL)
    assert sum("expected one" in p for p in problems) == 1
    assert not any("label set mismatch" in p for p in problems)
    with pytest.raises(galois_mod.LabelNotUnique):
        TL.cover_labels
    with pytest.raises(galois_mod.LabelNotUnique):
        oracle_mod.interval_label_set(TL, 0, TL.n - 1)


@pytest.mark.parametrize(
    "argv, lattices",
    [
        (["check", str(Path(__file__).parent / "data" / "a2_rel.json")], 1),
        (["quotient", None, "--ideal", "1,0"], 2),  # the source and the target
    ],
)
def test_gamma_mu_table_is_built_once_per_lattice(monkeypatch, tmp_path, argv, lattices):
    """One pass labels every cover with its gamma and mu candidates;
    separate gamma and mu passes took 2 (check) and 4 (quotient)."""
    built = []  # holds the lattices themselves, so no id is reused
    real_table = lattice_mod._label_table

    def counting_table(L):
        built.append(L)
        return real_table(L)

    monkeypatch.setattr(lattice_mod, "_label_table", counting_table)
    argv = [write_a4(tmp_path) if a is None else a for a in argv]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len(built) == lattices
    assert len({id(L) for L in built}) == lattices


@pytest.mark.parametrize(
    "name",
    # every tests/data quiver and relation whose lattice is semidistributive
    ["A5", "A6", "a2.json", "a3.json", "a4_mixed_rel.json", "a2_rel.json", "mask228_rel.json"],
)
def test_semidistributive_torsion_lattices_build_no_tables(monkeypatch, tmp_path, name):
    """Each command builds its semidistributive torsion lattice once."""
    built = []
    real_build = galois_mod._tors_from_closed

    def recording_build(R, closed):
        built.append(real_build(R, closed))
        return built[-1]

    monkeypatch.setattr(galois_mod, "_tors_from_closed", recording_build)
    path = DATA / name
    if name.startswith("A"):
        n = int(name[1:])
        path = tmp_path / "linear.json"
        path.write_text(json.dumps({"vertices": n, "orientation": ["left"] * (n - 1)}))
    quiver = "vertices" in json.loads(path.read_text())
    for command in ("build-tors" if quiver else "build-rel", "labels", "kappa", "check"):
        with redirect_stdout(io.StringIO()):
            main([command, str(path)])
    assert len(built) == 4
    for TL in built:
        assert is_semidistributive(TL.lattice)


def test_torsion_order_is_folded_from_the_class_certificate(monkeypatch, tmp_path):
    """`build-tors`, `labels` and `kappa` on linear A6 take the order from
    the closure lookups that certify the 429 classes.  Only `check` builds
    superset-class tables: two for the derived epi and mono relations of
    the bricks and two for its independent check that the order is
    inclusion."""
    calls = [0]
    real_table = galois_mod._superset_classes

    def counting_table(sets, m):
        calls[0] += 1
        return real_table(sets, m)

    monkeypatch.setattr(galois_mod, "_superset_classes", counting_table)
    path = tmp_path / "a6.json"
    path.write_text(json.dumps({"vertices": 6, "orientation": ["left"] * 5}))
    for command in ("build-tors", "labels", "kappa"):
        with redirect_stdout(io.StringIO()):
            assert main([command, str(path)]) == 0
    assert calls[0] == 0
    with redirect_stdout(io.StringIO()):
        assert main(["check", str(path)]) == 0
    assert calls[0] == 4


def test_invariant_suite_builds_no_lattice(monkeypatch):
    """Rebuilding every interval as a lattice took 399 builds on A4."""
    TL = tors_of_algebra(LINEAR_A4)
    builds = [0]
    real_build = lattice_mod.try_lattice

    def counting_build(poset):
        builds[0] += 1
        return real_build(poset)

    monkeypatch.setattr(lattice_mod, "try_lattice", counting_build)
    # a direct import of the builder into galois is counted too
    monkeypatch.setattr(galois_mod, "try_lattice", counting_build, raising=False)
    assert verify_tors_lattice(TL) == []
    assert builds[0] == 0


def test_quotient_labels_each_cover_once(monkeypatch, tmp_path):
    """`quotient --ideal 2,1,0` on linear A4 reads both label tables, each
    built once; relabelling covers per interval took 551 calls."""
    tables = []  # holds the torsion lattices themselves, so no id is reused
    singles = [0]
    real_table = galois_mod._cover_label_table
    real_label = galois_mod.cover_brick_label

    def counting_table(TL):
        tables.append(TL)
        return real_table(TL)

    def counting_label(TL, c):
        singles[0] += 1
        return real_label(TL, c)

    monkeypatch.setattr(galois_mod, "_cover_label_table", counting_table)
    monkeypatch.setattr(galois_mod, "cover_brick_label", counting_label)
    # a direct import of the labeller into bridge is counted too
    monkeypatch.setattr(bridge_mod, "cover_brick_label", counting_label, raising=False)
    with redirect_stdout(io.StringIO()):
        assert main(["quotient", write_a4(tmp_path), "--ideal", "2,1,0"]) == 0
    assert len(tables) == 2  # the source and the target lattice
    assert tables[0] is not tables[1]
    assert singles[0] == 0


def test_invariant_suite_checks_no_interval_one_at_a_time(monkeypatch):
    """The interval identities of all 399 comparable pairs of linear A4 are
    row-at-a-time bitset passes: no per-pair reference function runs (399
    interval_covers reads before, 798 before that)."""
    TL = tors_of_algebra(LINEAR_A4)

    def per_pair(*args):
        raise AssertionError("an interval was checked one at a time")

    for name in (
        "interval_covers",
        "interval_ji_check",
        "interval_label_set",
        "gap_nonempty_check",
    ):
        monkeypatch.setattr(oracle_mod, name, per_pair)
    assert verify_tors_lattice(TL) == []
    assert sum(up.bit_count() for up in TL.lattice.poset.up) == 399


def test_quotient_checks_no_fiber_one_pair_at_a_time(monkeypatch, tmp_path):
    """`quotient` on linear A4 reads its fibers off one bitset per class:
    no per-pair fiber_check runs (399 before, each rebuilding
    interval_covers)."""

    def per_pair(*args):
        raise AssertionError("a fiber was checked one pair at a time")

    for name in ("interval_covers", "fiber_check"):
        monkeypatch.setattr(oracle_mod, name, per_pair)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["quotient", write_a4(tmp_path), "--ideal", "1,0"]) == 0
    assert '"fiber_checks": true' in out.getvalue()


def test_triple_search_runs_only_on_failing_lattices(monkeypatch, tmp_path):
    """Semidistributivity is read off the gamma and mu tables: `check` on
    linear A4 and `sweep --max-size 3` search no triples, and M3, which
    fails both sides, is searched once per side for its witness."""
    searches = []
    real_search = lattice_mod._semidistributivity_violation

    def counting_search(lattice, side):
        searches.append((lattice, side))
        return real_search(lattice, side)

    monkeypatch.setattr(lattice_mod, "_semidistributivity_violation", counting_search)
    with redirect_stdout(io.StringIO()):
        assert main(["check", write_a4(tmp_path)]) == 0
        assert main(["sweep", "--max-size", "3"]) == 0
    assert searches == []
    m3 = try_lattice(
        poset_from_pairs(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    )
    assert join_semidistributivity_violation(m3) == (1, 2, 3)
    assert meet_semidistributivity_violation(m3) == (1, 2, 3)
    assert searches == [(m3, False), (m3, True)]


def test_non_semidistributive_build_holds_no_square_state(tmp_path):
    """build-rel on the 3-cycle plus 7 free bricks: 640 classes whose
    lattice, M3 times a cube of dimension 7, is searched for its witness by
    lookups, one row at a time.  Join and meet tables took 9 MB here."""
    labels = [f"b{i}" for i in range(10)]
    path = tmp_path / "m3_free7.json"
    path.write_text(json.dumps({"labels": labels, "arrows": [[0, 1], [1, 2], [2, 0]]}))
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()) as out:
            assert main(["build-rel", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(out.getvalue())
    assert report["pairs"] == 640 and report["semidistributive"] is False
    assert peak < 5 * 2**20


def test_element_invariants_are_computed_once_per_lattice(monkeypatch):
    """are_isomorphic reads each lattice's cached per-element invariants:
    five calls among three lattices compute them three times."""
    calls = Counter()
    real_invariants = lattice_mod._element_invariants

    def counting_invariants(L):
        calls[id(L)] += 1
        return real_invariants(L)

    monkeypatch.setattr(lattice_mod, "_element_invariants", counting_invariants)
    pentagon = try_lattice(poset_from_pairs(5, [(0, 1), (0, 2), (2, 3), (3, 4), (1, 4)]))
    relabeled = try_lattice(poset_from_pairs(5, [(0, 2), (0, 1), (1, 4), (4, 3), (2, 3)]))
    m3 = try_lattice(poset_from_pairs(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))
    for L1, L2 in ((pentagon, relabeled), (relabeled, pentagon), (pentagon, pentagon)):
        assert are_isomorphic(L1, L2)
    assert not are_isomorphic(pentagon, m3) and not are_isomorphic(m3, relabeled)
    assert sorted(calls.values()) == [1, 1, 1]
