"""Interval-module arithmetic over small type-A presentations.

Hom dimensions are checked against hand-solved morphism equations for
the two-vertex quiver 1 <- 2, whose three intervals give the pentagon
relation, and spot values for linear three-vertex quivers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

import torslat.quiver as quiver_mod
from torslat.lattice import InternalInconsistency
from torslat.quiver import (
    IntervalModule,
    QuiverPresentation,
    annihilated_by,
    arrow_ends,
    bricks,
    exists_surjection,
    hom_dim,
    hom_relation,
    indecomposables,
    path_vertices,
    quotients,
    submodules,
    summands,
)

from test_monomial_algebras import ALGEBRAS

A2L = QuiverPresentation(2, ("left",))
A2R = QuiverPresentation(2, ("right",))
A3R = QuiverPresentation(3, ("right", "right"))
A3_RAD2 = QuiverPresentation(3, ("right", "right"), ((0, 1),))

S1 = IntervalModule(1, 1)
S2 = IntervalModule(2, 2)
P12 = IntervalModule(1, 2)


def test_interval_validation():
    with pytest.raises(ValueError):
        IntervalModule(2, 1)
    with pytest.raises(ValueError):
        IntervalModule(0, 1)
    assert IntervalModule(1, 3).label(4) == "[1110]"
    assert S2.label(2) == "[01]"


def test_presentation_validation():
    with pytest.raises(ValueError, match="orientations"):
        QuiverPresentation(3, ("left",))
    with pytest.raises(ValueError, match="'left' or 'right'"):
        QuiverPresentation(2, ("up",))
    with pytest.raises(ValueError, match="composable"):
        QuiverPresentation(3, ("right", "right"), ((1, 0),))
    with pytest.raises(ValueError, match="out of range"):
        QuiverPresentation(3, ("right", "right"), ((2,),))
    with pytest.raises(ValueError, match="duplicate"):
        QuiverPresentation(3, ("right", "right"), ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="contain an arrow"):
        QuiverPresentation(3, ("right", "right"), ((),))
    # relations are legal on every orientation
    mixed = QuiverPresentation(3, ("right", "left"), ((0,),))
    assert indecomposables(mixed) == (
        IntervalModule(1, 1), IntervalModule(2, 2),
        IntervalModule(2, 3), IntervalModule(3, 3),
    )


def test_arrow_ends():
    assert arrow_ends(A2L, 0) == (2, 1)
    assert arrow_ends(A2R, 0) == (1, 2)
    assert A3R.arrows == ((1, 2), (2, 3))
    assert path_vertices(A3R, (0, 1)) == frozenset({1, 2, 3})


@pytest.mark.parametrize(
    "q,count",
    [
        (A2L, 3),
        (A2R, 3),
        (A3R, 6),
        (QuiverPresentation(3, ("right", "left")), 6),
        (A3_RAD2, 5),
        (QuiverPresentation(4, ("right",) * 3), 10),
        (QuiverPresentation(4, ("right",) * 3, ((0, 1), (1, 2))), 7),
    ],
)
def test_indecomposable_counts(q, count):
    ind = indecomposables(q)
    assert len(ind) == count
    assert list(ind) == sorted(ind)


def test_relations_remove_intervals():
    assert IntervalModule(1, 3) not in indecomposables(A3_RAD2)
    assert IntervalModule(1, 2) in indecomposables(A3_RAD2)


@pytest.mark.parametrize(
    "src,dst,dim",
    [
        (S1, S1, 1),
        (P12, P12, 1),
        (S2, S2, 1),
        (S1, P12, 1),
        (P12, S2, 1),
        (P12, S1, 0),
        (S2, P12, 0),
        (S1, S2, 0),
        (S2, S1, 0),
    ],
)
def test_hom_dims_two_vertices(src, dst, dim):
    assert hom_dim(A2L, src, dst).dim == dim


def test_hom_basis_values():
    end = hom_dim(A2L, P12, P12)
    assert end.basis == ((Fraction(1), Fraction(1)),)
    inc = hom_dim(A2L, S1, P12)
    assert inc.basis == ((Fraction(1), Fraction(0)),)


def fraction_nullspace(rows, ncols):
    """Gauss-Jordan elimination over the rationals: the reference the
    integer solver in torslat.quiver is pinned to."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    for c in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][c]
        basis.append(vec)
    return basis


# Every orientation of A2-A6, the linear monomial quotients the tests use,
# and every algebra of test_monomial_algebras.
HOM_QUIVERS = [
    QuiverPresentation(n, o)
    for n in range(2, 7)
    for o in itertools.product(("left", "right"), repeat=n - 1)
] + [
    A3_RAD2,
    QuiverPresentation(3, ("left", "left"), ((1, 0),)),
    QuiverPresentation(4, ("left",) * 3, ((1, 0),)),
    QuiverPresentation(4, ("right",) * 3, ((0, 1), (1, 2))),
] + [
    QuiverPresentation(5, ("left",) * 4, rels)
    for rels in [((1, 0),), ((1, 0), (2, 1)), ((2, 1, 0),), ((1, 0), (3, 2))]
] + [QuiverPresentation(*spec) for spec in ALGEBRAS]


def test_integer_hom_solver_matches_the_rational_one(monkeypatch):
    """Same dimension and the same basis, entry for entry, on every pair of
    intervals of every algebra in HOM_QUIVERS; every entry is 0, 1 or -1."""

    def all_hom_spaces():
        return [
            hom_dim(Q, M, N)
            for Q in HOM_QUIVERS
            for M in indecomposables(Q)
            for N in indecomposables(Q)
        ]

    exact = all_hom_spaces()
    monkeypatch.setattr(quiver_mod, "_nullspace", fraction_nullspace)
    assert exact == all_hom_spaces()
    entries = [x for hom in exact for vec in hom.basis for x in vec]
    assert all(type(x) is int and x in (0, 1, -1) for x in entries)


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 1]],  # a non-unit entry
        [[1, 1], [1, -1]],  # unit entries; elimination leaves the pivot -2
    ],
)
def test_integer_hom_solver_refuses_a_non_unit_pivot(rows):
    with pytest.raises(InternalInconsistency, match="pivot"):
        quiver_mod._nullspace(rows, 2)


def test_hom_dims_three_vertices():
    # 1 -> 2 -> 3: the overlap [1,2] vs [2,3] maps one way only
    assert hom_dim(A3R, IntervalModule(2, 3), IntervalModule(1, 2)).dim == 1
    assert hom_dim(A3R, IntervalModule(1, 2), IntervalModule(2, 3)).dim == 0
    assert hom_dim(A3R, IntervalModule(1, 3), IntervalModule(2, 2)).dim == 0
    assert hom_dim(A3R, IntervalModule(2, 2), IntervalModule(1, 3)).dim == 0


def test_hom_dim_at_most_one():
    q = QuiverPresentation(4, ("right", "left", "right"))
    ind = indecomposables(q)
    for m in ind:
        for n in ind:
            assert hom_dim(q, m, n).dim <= 1


def test_bricks_equal_indecomposables_here():
    for q in (A2L, A3R, A3_RAD2):
        assert bricks(q) == indecomposables(q)


def test_hom_relation_pentagon():
    R = hom_relation(A2L)
    assert R.labels == ("[10]", "[11]", "[01]")
    assert R.row_masks == (0b011, 0b110, 0b100)


def test_submodules_follow_arrows():
    assert submodules(A2L, P12) == ((), (1,), (1, 2))
    assert submodules(A2R, P12) == ((), (2,), (1, 2))
    assert quotients(A2L, P12) == ((1, 2), (2,), ())
    assert submodules(A3R, IntervalModule(1, 3)) == ((), (3,), (2, 3), (1, 2, 3))


def test_summands():
    assert summands(()) == ()
    assert summands((2, 1)) == (IntervalModule(1, 2),)
    assert summands((1, 3, 4)) == (IntervalModule(1, 1), IntervalModule(3, 4))


def test_surjections():
    assert exists_surjection(A2L, P12, S2)
    assert not exists_surjection(A2L, P12, S1)
    assert not exists_surjection(A2L, S1, P12)
    assert not exists_surjection(A2L, S1, S2)
    assert exists_surjection(A2L, P12, P12)


def test_annihilated_by():
    assert annihilated_by(A3R, IntervalModule(1, 2), [(0, 1)])
    assert not annihilated_by(A3R, IntervalModule(1, 3), [(0, 1)])
    assert annihilated_by(A3R, IntervalModule(1, 3), [])
