"""Brute-force verifiers against the closure-system implementations.

The subset scan, the module-category closure axioms, the relation sweeps,
the small-lattice census, and the realization search all cross-check the
primary code paths.  Counts below (25 factorizable relations on 3 bricks,
census sizes 1,1,1,2,5,15, and so on) are frozen from exhaustive runs and
double-checked against hand arguments where small enough.
"""

from __future__ import annotations

import itertools

import pytest

import torslat.oracle as oracle_mod
from torslat.bridge import tors_of_algebra
from torslat.galois import (
    TorsionPair,
    TorsLattice,
    all_torsion_pairs,
    factorizability_violation,
    is_factorizable,
    perp_right,
    relation_from_arrows,
)
from torslat.lattice import (
    are_isomorphic,
    is_semidistributive,
    join_irreducibles,
    poset_from_pairs,
    try_lattice,
)
from torslat.oracle import (
    BudgetExceeded,
    brute_torsion_pairs,
    closure_axiom_check,
    lattice_census,
    realize_sd_lattice,
    same_tors,
    subset_is_torsion_closed,
    surjection_dichotomy_sweep,
    sweep_factorizable,
)
from torslat.quiver import QuiverPresentation

A2L = QuiverPresentation(2, ("left",))
A3R = QuiverPresentation(3, ("right", "right"))


def lattice_from_covers(n, pairs):
    return try_lattice(poset_from_pairs(n, pairs))


def corpus_relations():
    yield relation_from_arrows(["b0", "b1", "b2"], [(0, 1), (1, 2)])
    yield relation_from_arrows(["x", "y"], [])
    yield relation_from_arrows(["x", "y"], [(0, 1), (1, 0)])
    yield relation_from_arrows(list("abcd"), [(0, 1), (1, 2), (2, 3)])
    from torslat.quiver import hom_relation

    yield hom_relation(A3R)
    yield hom_relation(QuiverPresentation(3, ("right", "left")))
    yield hom_relation(QuiverPresentation(3, ("right", "right"), ((0, 1),)))
    yield hom_relation(QuiverPresentation(4, ("right", "right", "right")))


def test_size_zero_is_refused_by_every_search():
    with pytest.raises(ValueError):
        sweep_factorizable(0)
    with pytest.raises(ValueError):
        lattice_census(0)
    with pytest.raises(ValueError):
        realize_sd_lattice(lattice_from_covers(1, []), 0)


def test_brute_matches_closure_method():
    for R in corpus_relations():
        assert same_tors(brute_torsion_pairs(R), all_torsion_pairs(R))


def test_brute_diagonal_is_boolean():
    R = relation_from_arrows(["a", "b", "c"], [])
    TL = brute_torsion_pairs(R)
    assert TL.n == 8
    assert sorted(p.tset for p in TL.pairs) == list(range(8))


def test_brute_budget():
    R = relation_from_arrows([f"b{i}" for i in range(21)], [])
    with pytest.raises(BudgetExceeded):
        brute_torsion_pairs(R)


def test_subset_closure_axioms_two_vertex_cases():
    # bricks of 1 <- 2 in order [10], [11], [01]
    assert subset_is_torsion_closed(A2L, 0b110)
    assert not subset_is_torsion_closed(A2L, 0b010)  # missing quotient [01]
    assert not subset_is_torsion_closed(A2L, 0b101)  # missing extension [11]
    assert subset_is_torsion_closed(A2L, 0b000)
    assert subset_is_torsion_closed(A2L, 0b111)


A5_QUOTIENTS = [((1, 0),), ((1, 0), (2, 1)), ((2, 1, 0),), ((1, 0), (3, 2))]


@pytest.mark.parametrize(
    "q",
    [
        A2L,
        A3R,
        QuiverPresentation(3, ("right", "right"), ((0, 1),)),
    ]
    + [QuiverPresentation(5, o) for o in itertools.product(("left", "right"), repeat=4)]
    + [QuiverPresentation(5, ("left",) * 4, rels) for rels in A5_QUOTIENTS],
)
def test_closure_axioms_match_perp_enumeration(q):
    assert closure_axiom_check(q, tors_of_algebra(q))


def tampered_a4_lattices(q):
    """The torsion lattice of the A4 algebra ``q`` with one class dropped,
    and with one subset added that is not axiom-closed, for every class and
    subset, and with a set holding a brick that is not an indecomposable."""
    TL = tors_of_algebra(q)
    R, pairs = TL.relation, TL.pairs
    for i in range(TL.n):
        yield TorsLattice(R, pairs[:i] + pairs[i + 1 :], TL.lattice)
    classes = {p.tset for p in pairs}
    for s in [*range(1 << R.m), 1 << R.m | R.full_mask]:
        if s not in classes:
            extra = TorsionPair(s, perp_right(R, s & R.full_mask))
            yield TorsLattice(R, pairs + (extra,), TL.lattice)


@pytest.mark.parametrize(
    "q, count",
    [
        (QuiverPresentation(4, ("left",) * 3), 42 + 982 + 1),
        # tests/data/a4_mixed_rel.json
        (QuiverPresentation(4, ("right", "right", "left"), ((0, 1),)), 33 + 223 + 1),
    ],
    ids=["linear", "mixed_rel"],
)
def test_closure_steps_reject_every_tampered_a4_lattice(q, count):
    tampered = list(tampered_a4_lattices(q))
    assert len(tampered) == count  # dropped classes, added subsets
    assert not any(closure_axiom_check(q, TL) for TL in tampered)


def test_sweep_counts_small():
    rep = sweep_factorizable(3)
    assert rep["per_m"] == {
        "1": {"relations": 1, "factorizable": 1},
        "2": {"relations": 4, "factorizable": 3},
        "3": {"relations": 64, "factorizable": 25},
    }
    assert rep["violations"] == []
    assert rep["abstract_dichotomy_failures"] == 0
    assert not rep["literal_mono"]


def test_sweep_literal_reading_counts():
    rep = sweep_factorizable(2, literal_mono=True)
    assert rep["per_m"]["2"] == {"relations": 4, "factorizable": 1}


def test_sweep_budget_caps(monkeypatch):
    with pytest.raises(BudgetExceeded):
        sweep_factorizable(6)
    monkeypatch.setattr(oracle_mod, "TIME_LIMIT", 1e-9)
    with pytest.raises(BudgetExceeded, match="time limit before m=1"):
        sweep_factorizable(3)


def test_census_counts():
    census = lattice_census(6)
    by_size: dict[int, int] = {}
    for L in census:
        by_size[L.n] = by_size.get(L.n, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
    sd = [L for L in census if is_semidistributive(L)]
    assert len(sd) == 18
    assert max(len(join_irreducibles(L)) for L in sd) == 5


def test_census_contains_classics():
    census = [L for L in lattice_census(5) if L.n == 5]
    n5 = lattice_from_covers(5, [(0, 1), (0, 2), (2, 3), (3, 4), (1, 4)])
    m3 = lattice_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    assert any(are_isomorphic(L, n5) for L in census)
    assert any(are_isomorphic(L, m3) for L in census)
    assert sum(not is_semidistributive(L) for L in census) == 1  # only M3


def test_census_compares_only_lattices_with_equal_invariants(monkeypatch):
    """Each candidate is tested for isomorphism against the kept lattices
    sharing its sorted element invariants, not against every kept lattice
    of its size: 293 tests to 7 elements, where the latter took 6,731."""
    pairs = []
    real_test = oracle_mod.are_isomorphic

    def counting_test(L1, L2):
        pairs.append((L1, L2))
        return real_test(L1, L2)

    monkeypatch.setattr(oracle_mod, "are_isomorphic", counting_test)
    assert len(lattice_census(7)) == 78
    assert len(pairs) == 293
    assert all(L1._invariant_key == L2._invariant_key for L1, L2 in pairs)


def test_census_budget_cap():
    with pytest.raises(BudgetExceeded):
        lattice_census(8)


def test_realize_trivial_lattices():
    point = lattice_from_covers(1, [])
    chain2 = lattice_from_covers(2, [(0, 1)])
    assert realize_sd_lattice(point, 5).row_masks == ()
    assert realize_sd_lattice(chain2, 5).row_masks == (1,)


def test_realize_pentagon():
    n5 = lattice_from_covers(5, [(0, 1), (0, 2), (2, 3), (3, 4), (1, 4)])
    R = realize_sd_lattice(n5, 5)
    assert R is not None
    assert R.row_masks == (1, 3, 6)
    assert is_factorizable(R)
    assert are_isomorphic(all_torsion_pairs(R).lattice, n5)


def test_realize_m3_needs_unfiltered():
    m3 = lattice_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    assert realize_sd_lattice(m3, 3) is None
    R = realize_sd_lattice(m3, 3, factorizable_only=False)
    assert R is not None
    assert R.row_masks == (3, 6, 5)
    assert factorizability_violation(R) == ("unfactorized-arrow", 0, 1)
    assert are_isomorphic(all_torsion_pairs(R).lattice, m3)


def test_realize_seven_element_example():
    seven = lattice_from_covers(
        7, [(0, 1), (0, 2), (1, 3), (1, 4), (3, 5), (4, 5), (5, 6), (2, 6)]
    )
    assert is_semidistributive(seven)
    R = realize_sd_lattice(seven, 5)
    assert R is not None
    assert R.m == 4
    assert R.row_masks == (1, 3, 5, 14)
    assert is_factorizable(R)
    assert are_isomorphic(all_torsion_pairs(R).lattice, seven)


def test_realize_budget():
    chain6 = lattice_from_covers(6, [(i, i + 1) for i in range(5)])
    with pytest.raises(BudgetExceeded):
        realize_sd_lattice(chain6, 4)
    R = realize_sd_lattice(chain6, 5)
    assert R is not None and R.row_masks == (1, 3, 7, 15, 31)


@pytest.mark.parametrize(
    "q,pairs",
    [
        (A2L, 4),
        (A3R, 10),
        (QuiverPresentation(3, ("right", "left")), 10),
        (QuiverPresentation(3, ("right", "right"), ((0, 1),)), 7),
    ],
)
def test_surjection_dichotomy(q, pairs):
    rep = surjection_dichotomy_sweep(q)
    assert rep["pairs_checked"] == pairs
    assert rep["violations"] == []
