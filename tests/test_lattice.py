"""Core lattice tests on small hand-checked fixtures.

The pentagon N5, the diamond M3, the Boolean square, chains, and a
7-element semidistributive lattice with four join-irreducibles.  All
expected values below were computed by hand from the definitions.
"""

from __future__ import annotations

import pytest

import torslat.lattice as lattice_mod
from torslat.lattice import (
    AntisymmetryViolation,
    CoverEdge,
    FiniteLattice,
    FinitePoset,
    InternalInconsistency,
    NotALattice,
    NotIrreducible,
    NotSemidistributive,
    are_isomorphic,
    check_kappa_bijection,
    check_mu_eq_kappa_gamma,
    gamma_label,
    is_join_semidistributive,
    is_lattice_quotient,
    is_meet_semidistributive,
    is_semidistributive,
    j_star,
    join,
    join_irreducibles,
    join_semidistributivity_violation,
    kappa,
    kappa_dual,
    m_star,
    meet,
    meet_irreducibles,
    meet_semidistributivity_violation,
    mu_label,
    poset_from_pairs,
    to_dot,
    try_lattice,
)
from torslat.oracle import NotComparable, interval_covers, interval_sublattice


def lattice_from_covers(n, pairs):
    return try_lattice(poset_from_pairs(n, pairs))


@pytest.fixture
def pentagon():
    # 0 bottom, 4 top, chain 0 < 2 < 3 < 4 beside the short side 0 < 1 < 4
    return lattice_from_covers(5, [(0, 1), (0, 2), (2, 3), (3, 4), (1, 4)])


@pytest.fixture
def diamond_m3():
    return lattice_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


@pytest.fixture
def square_b2():
    return lattice_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def chain3():
    return lattice_from_covers(3, [(0, 1), (1, 2)])


@pytest.fixture
def seven():
    # semidistributive, 4 join-irreducibles, 4 meet-irreducibles
    return lattice_from_covers(
        7, [(0, 1), (0, 2), (1, 3), (1, 4), (3, 5), (4, 5), (5, 6), (2, 6)]
    )


def test_poset_rejects_cycles():
    with pytest.raises(AntisymmetryViolation):
        poset_from_pairs(3, [(0, 1), (1, 2), (2, 0)])


@pytest.mark.parametrize(
    "clashes, first",
    [([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (0, 1)), ([(1, 3), (1, 2)], (1, 2))],
)
def test_antisymmetry_names_the_first_clash_in_row_major_order(clashes, first):
    pairs = [p for x, y in clashes for p in ((x, y), (y, x))]
    with pytest.raises(AntisymmetryViolation) as exc:
        poset_from_pairs(4, pairs)
    assert exc.value.pair == first


def test_poset_rejects_up_sets_past_its_elements():
    # bit 2 of a two-element poset made the constructor raise IndexError
    with pytest.raises(ValueError, match="a bitset of elements above reaches past the 2 elements"):
        FinitePoset([0b101, 0b10])


def test_poset_transitive_closure():
    p = poset_from_pairs(3, [(0, 1), (1, 2)])
    assert p.leq(0, 2)


def test_poset_folds_exactly_the_acyclic_relations_on_four_elements():
    """Every relation on 4 elements, handed over as the bitsets of elements
    above, against the definitions: the 543 acyclic ones give the order a
    triple loop closes them to, with its covers, and the 219 partial
    orders among them come back unchanged; the 3,553 cyclic ones raise."""
    E = range(4)
    off = [(x, y) for x in E for y in E if x != y]
    counts = {"acyclic": 0, "orders": 0, "cyclic": 0}
    for mask in range(1 << len(off)):
        rel = {(x, x) for x in E} | {p for i, p in enumerate(off) if mask >> i & 1}
        gen = [sum(1 << y for y in E if (x, y) in rel) for x in E]
        closed = set(rel)
        for z in E:
            closed |= {(x, y) for x in E for y in E if (x, z) in closed and (z, y) in closed}
        if any((y, x) in closed for x, y in closed if x != y):
            counts["cyclic"] += 1
            with pytest.raises(ValueError, match="order relation must be acyclic"):
                FinitePoset(gen)
            continue
        counts["acyclic"] += 1
        below = {(x, y) for x, y in closed if x != y}
        covers = [
            sum(
                1 << y for y in E
                if (x, y) in below and not any((x, z) in below and (z, y) in below for z in E)
            )
            for x in E
        ]
        p = FinitePoset(gen)
        assert p.up == tuple(sum(1 << y for y in E if (x, y) in closed) for x in E)
        assert p.down == tuple(sum(1 << x for x in E if (x, y) in closed) for y in E)
        assert p.upper_cover_sets == tuple(covers)
        if closed == rel:
            counts["orders"] += 1
            assert p.up == tuple(gen)
    assert counts == {"acyclic": 543, "orders": 219, "cyclic": 3553}


def test_poset_raises_value_error_on_a_cycle_and_ignores_the_diagonal():
    # 0 <= 1 <= 0: FinitePoset names no clash; poset_from_pairs does
    with pytest.raises(ValueError, match="order relation must be acyclic"):
        FinitePoset([0b011, 0b111, 0b100])
    assert FinitePoset([0b10, 0b00]).up == FinitePoset([0b11, 0b10]).up == (0b11, 0b10)


def test_join_and_meet_reject_elements_out_of_range(pentagon):
    """A negative element would otherwise be read from the end, and
    join(L, -1, 0) would be the top."""
    for op in (join, meet):
        for pair in ((-1, 0), (0, 99), (5, 0)):
            with pytest.raises(ValueError, match="out of range for 5 elements"):
                op(pentagon, *pair)


def test_try_lattice_rejects_two_maximal():
    p = poset_from_pairs(3, [(0, 1), (0, 2)])
    with pytest.raises(NotALattice) as exc:
        try_lattice(p)
    assert exc.value.kind == "join"
    assert exc.value.pair == (1, 2)


def test_try_lattice_rejects_no_unique_bound():
    # bowtie: 0,1 below both 2,3; pair (0,1) has minimal upper bounds 2 and 3
    p = poset_from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(NotALattice):
        try_lattice(p)


def test_join_and_meet_name_a_missing_bound():
    """On a hand-built lattice over the bowtie, join and meet raise what
    try_lattice raises for the pair."""
    bowtie = FiniteLattice(poset_from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))
    assert join(bowtie, 0, 2) == 2 and meet(bowtie, 0, 2) == 0
    for op, pair, kind in ((join, (0, 1), "join"), (meet, (2, 3), "meet")):
        with pytest.raises(NotALattice) as exc:
            op(bowtie, *pair)
        assert (exc.value.pair, exc.value.kind) == (pair, kind)


def test_singleton_lattice():
    L = lattice_from_covers(1, [])
    assert join(L, 0, 0) == meet(L, 0, 0) == 0
    assert join_irreducibles(L) == ()
    assert meet_irreducibles(L) == ()
    assert check_kappa_bijection(L)


def test_pentagon_tables(pentagon):
    L = pentagon
    assert L.poset.up[0] == L.poset.down[4] == 0b11111  # bottom 0, top 4
    assert sorted(L.poset.covers) == [(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)]
    assert join(L, 1, 2) == 4
    assert join(L, 1, 3) == 4
    assert meet(L, 1, 3) == 0
    assert meet(L, 2, 3) == 2


def test_pentagon_irreducibles(pentagon):
    L = pentagon
    assert join_irreducibles(L) == (1, 2, 3)
    assert meet_irreducibles(L) == (1, 2, 3)
    assert j_star(L, 3) == 2
    assert m_star(L, 2) == 3
    with pytest.raises(NotIrreducible):
        j_star(L, 4)
    with pytest.raises(NotIrreducible):
        m_star(L, 0)


def test_pentagon_is_semidistributive(pentagon):
    assert is_join_semidistributive(pentagon)
    assert is_meet_semidistributive(pentagon)
    assert is_semidistributive(pentagon)


def test_m3_fails_semidistributivity(diamond_m3):
    assert join_semidistributivity_violation(diamond_m3) == (1, 2, 3)
    assert not is_join_semidistributive(diamond_m3)
    assert not is_meet_semidistributive(diamond_m3)


def test_m3_rejects_labelling_ops(diamond_m3):
    with pytest.raises(NotSemidistributive):
        gamma_label(diamond_m3, CoverEdge(0, 1))
    with pytest.raises(NotSemidistributive):
        kappa(diamond_m3, 1)


@pytest.mark.parametrize(
    "edge,expected",
    [
        (CoverEdge(0, 1), 1),
        (CoverEdge(0, 2), 2),
        (CoverEdge(2, 3), 3),
        (CoverEdge(3, 4), 1),
        (CoverEdge(1, 4), 2),
    ],
)
def test_pentagon_gamma_labels(pentagon, edge, expected):
    assert gamma_label(pentagon, edge) == expected


@pytest.mark.parametrize(
    "edge,expected",
    [
        (CoverEdge(0, 1), 3),
        (CoverEdge(0, 2), 1),
        (CoverEdge(2, 3), 2),
        (CoverEdge(3, 4), 3),
        (CoverEdge(1, 4), 1),
    ],
)
def test_pentagon_mu_labels(pentagon, edge, expected):
    assert mu_label(pentagon, edge) == expected


@pytest.mark.parametrize("label", [gamma_label, mu_label])
def test_labels_reject_non_covers(pentagon, chain3, label):
    with pytest.raises(ValueError):
        label(pentagon, CoverEdge(0, 4))
    # out-of-range ends are not covers either, not an index error
    for edge in [(5, 0), (0, 5), (-1, 2), (1, -1)]:
        with pytest.raises(ValueError, match=r"is not a cover$"):
            label(chain3, CoverEdge(*edge))


@pytest.mark.parametrize(
    "label, kind, violation, irreducibles",
    [
        (gamma_label, "join", join_semidistributivity_violation, "_join_irreducibles"),
        (mu_label, "meet", meet_semidistributivity_violation, "_meet_irreducibles"),
    ],
)
def test_label_search_checks_in_order(diamond_m3, label, kind, violation, irreducibles):
    """Not a cover first, then not semidistributive, then no unique label."""
    with pytest.raises(ValueError, match=r"^\(0, 4\) is not a cover$"):
        label(diamond_m3, CoverEdge(0, 4))
    with pytest.raises(NotSemidistributive) as exc:
        label(diamond_m3, CoverEdge(0, 1))
    w = violation(diamond_m3)
    assert exc.value.witness == w
    assert str(exc.value) == f"lattice is not {kind}-semidistributive, witness {w}"
    chain = lattice_from_covers(3, [(0, 1), (1, 2)])
    chain.__dict__[irreducibles] = ()  # leaves no candidate label
    name = "gamma" if kind == "join" else "mu"
    with pytest.raises(InternalInconsistency) as exc:
        label(chain, CoverEdge(0, 1))
    assert str(exc.value) == f"cover (0, 1) has 0 {name} labels; expected exactly 1"


def test_pentagon_kappa(pentagon):
    L = pentagon
    assert kappa(L, 1) == 3
    assert kappa(L, 2) == 1
    assert kappa(L, 3) == 2
    assert kappa_dual(L, 3) == 1
    assert kappa_dual(L, 1) == 2
    assert kappa_dual(L, 2) == 3


@pytest.mark.parametrize(
    "fixture", ["pentagon", "square_b2", "chain3", "seven"]
)
def test_kappa_bijection_and_mu_factorization(fixture, request):
    L = request.getfixturevalue(fixture)
    assert is_semidistributive(L)
    assert check_kappa_bijection(L)
    assert check_mu_eq_kappa_gamma(L)


def test_seven_irreducible_counts(seven):
    assert join_irreducibles(seven) == (1, 2, 3, 4)
    assert meet_irreducibles(seven) == (2, 3, 4, 5)


def test_chain_kappa(chain3):
    assert kappa(chain3, 1) == 0
    assert kappa(chain3, 2) == 1


def test_interval_sublattice(pentagon):
    sub, members = interval_sublattice(pentagon, 2, 4)
    assert members == (2, 3, 4)
    assert sub.n == 3
    assert sorted(sub.poset.covers) == [(0, 1), (1, 2)]
    with pytest.raises(NotComparable):
        interval_sublattice(pentagon, 1, 2)
    # a negative end is not counted from the end, and the range test comes
    # before the comparability test
    for u, v in [(0, -1), (-5, 4), (0, 5), (5, 5), (4, -1)]:
        for interval in (interval_sublattice, interval_covers):
            with pytest.raises(ValueError, match=r"^interval endpoint -?\d+ out of"):
                interval(pentagon, u, v)


def test_interval_full_and_point(pentagon):
    sub, members = interval_sublattice(pentagon, 0, 4)
    assert members == (0, 1, 2, 3, 4)
    assert sub.n == 5
    point, members = interval_sublattice(pentagon, 3, 3)
    assert members == (3,)
    assert point.n == 1


def test_isomorphism(pentagon, diamond_m3):
    relabeled = lattice_from_covers(5, [(0, 2), (0, 1), (1, 4), (4, 3), (2, 3)])
    assert are_isomorphic(pentagon, relabeled)
    assert not are_isomorphic(pentagon, diamond_m3)
    assert are_isomorphic(diamond_m3, diamond_m3)


def test_isomorphism_reads_the_cached_invariant_key_first(
    monkeypatch, pentagon, diamond_m3, chain3
):
    """Different sizes or invariants are told apart by the sorted
    invariants cached on each lattice, before any per-element work."""
    relabeled = lattice_from_covers(5, [(0, 2), (0, 1), (1, 4), (4, 3), (2, 3)])
    for L in (pentagon, diamond_m3, chain3, relabeled):
        L._invariant_key  # cached before the per-element invariants are shut off

    def per_element(L):
        raise AssertionError("per-element invariants read")

    monkeypatch.setattr(lattice_mod, "_element_invariants", per_element)
    assert not are_isomorphic(pentagon, chain3)  # 5 elements against 3
    assert not are_isomorphic(pentagon, diamond_m3)  # 5 against 5, other invariants
    monkeypatch.undo()
    assert are_isomorphic(pentagon, relabeled)
    assert are_isomorphic(relabeled, pentagon)


def test_isomorphism_past_the_recursion_limit():
    """One backtracking step per element: a 1,100-element chain raised
    RecursionError when each step was a Python call."""
    n = 1100
    chain = lattice_from_covers(n, [(i, i + 1) for i in range(n - 1)])
    p = [i * 7 % n for i in range(n)]  # element i of the copy is named p[i]
    q = sorted(range(n), key=p.__getitem__)  # and copy element a is q[a]
    moved = FiniteLattice(
        FinitePoset([sum(1 << p[y] for y in range(n) if chain.leq(x, y)) for x in q])
    )
    assert are_isomorphic(chain, chain)
    assert are_isomorphic(chain, moved)


def test_lattice_quotient(pentagon, square_b2, chain3):
    # collapse the doubled edge 2 <| 3 of the pentagon onto the square
    assert is_lattice_quotient([0, 1, 2, 2, 3], pentagon, square_b2)
    # not surjective
    assert not is_lattice_quotient([0, 0, 0, 0, 3], pentagon, square_b2)
    # surjective but breaks joins
    assert not is_lattice_quotient([0, 1, 1, 1, 2], pentagon, chain3)
    # surjective and monotone, but breaks only joins: 1 v 2 = 3 goes to 2,
    # not to 0 v 1 = 1
    assert not is_lattice_quotient([0, 0, 1, 2], square_b2, chain3)
    # and only meets: 1 ^ 2 = 0 goes to 0, not to 1 ^ 2 = 1
    assert not is_lattice_quotient([0, 1, 2, 2], square_b2, chain3)
    with pytest.raises(ValueError):
        is_lattice_quotient([0, 1], pentagon, square_b2)


def test_to_dot_deterministic(pentagon):
    got = to_dot(pentagon)
    expected = (
        "digraph lattice {\n"
        "  rankdir=BT;\n"
        '  n0 [label="0"];\n'
        '  n1 [label="1"];\n'
        '  n2 [label="2"];\n'
        '  n3 [label="3"];\n'
        '  n4 [label="4"];\n'
        "  n0 -> n1;\n"
        "  n0 -> n2;\n"
        "  n1 -> n4;\n"
        "  n2 -> n3;\n"
        "  n3 -> n4;\n"
        "}\n"
    )
    assert got == expected


def test_to_dot_labels_and_escaping(chain3):
    got = to_dot(
        chain3,
        node_labels=['a"b', "c", "d"],
        edge_labels={CoverEdge(0, 1): "x"},
    )
    assert '  n0 [label="a\\"b"];' in got
    assert '  n0 -> n1 [label="x"];' in got
    assert "  n1 -> n2;" in got
