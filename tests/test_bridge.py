"""Algebra-to-lattice bridge: torsion lattices of quivers and their quotients.

The two-vertex quotient (kill the only arrow) sends the pentagon onto the
Boolean square, collapsing exactly one pair of classes.  The three-vertex
linear quotient by the composite path sends the 14-class lattice onto a
12-class one, collapsing two pairs.  Fiber and label checks are theorems
for these maps, so they must pass on every comparable pair.
"""

from __future__ import annotations

import itertools

import pytest
from test_monomial_algebras import QUOTIENTS

from torslat.bridge import (
    InvalidIdeal,
    _fibers_agree,
    label_preservation_check,
    quotient_map,
    tors_of_algebra,
)
from torslat.lattice import _bits, join_irreducibles, meet_irreducibles
from torslat.oracle import NotComparable, fiber_check
from torslat.quiver import QuiverPresentation, annihilated_by, bricks

A2L = QuiverPresentation(2, ("left",))
A3R = QuiverPresentation(3, ("right", "right"))


def test_tors_of_algebra_pentagon():
    TL = tors_of_algebra(A2L)
    assert [m.label(2) for m in bricks(A2L)] == ["[10]", "[11]", "[01]"]
    assert TL.n == 5
    assert [p.tset for p in TL.pairs] == [0b000, 0b001, 0b100, 0b110, 0b111]


@pytest.mark.parametrize(
    "q,size",
    [
        (A2L, 5),
        (A3R, 14),
        (QuiverPresentation(3, ("right", "left")), 14),
        (QuiverPresentation(3, ("left", "right")), 14),
        (QuiverPresentation(4, ("right",) * 3), 42),
    ],
)
def test_tors_sizes(q, size):
    assert tors_of_algebra(q).n == size


def test_quotient_two_vertices():
    qm = quotient_map(A2L, ((0,),))
    assert qm.element_map == (0, 1, 2, 2, 3)
    assert qm.brick_map == (0, None, 1)
    assert list(qm.target.relation.labels) == ["[10]", "[01]"]
    assert qm.target.n == 4
    fibers: dict[int, list[int]] = {}
    for i, t in enumerate(qm.element_map):
        fibers.setdefault(t, []).append(i)
    assert sorted(len(v) for v in fibers.values()) == [1, 1, 1, 2]
    assert fibers[qm.element_map[2]] == [2, 3]
    assert label_preservation_check(qm)


def test_quotient_two_vertices_fibers():
    qm = quotient_map(A2L, ((0,),))
    L = qm.source.lattice
    for u in range(L.n):
        for v in range(L.n):
            if L.leq(u, v):
                assert fiber_check(qm, u, v)
    with pytest.raises(NotComparable):
        fiber_check(qm, 1, 2)
    with pytest.raises(ValueError, match="out of range"):
        fiber_check(qm, 0, -1)


def failing_fibers(qm):
    L = qm.source.lattice
    pairs = [(u, v) for u in range(L.n) for v in range(L.n) if L.leq(u, v)]
    return [(u, v) for u, v in pairs if not fiber_check(qm, u, v)]


@pytest.mark.parametrize(
    "field, value, failing",
    [
        # the killed brick [11] and the surviving [01] both dropped
        ("brick_map", (0, None, None), [(0, 2), (0, 3), (1, 4)]),
        # classes 3 and 4 merged instead of the fiber {2, 3}
        ("element_map", (0, 1, 2, 3, 3), [(2, 3), (3, 4)]),
    ],
)
def test_tampered_quotient_maps_fail_the_checks(field, value, failing):
    qm = quotient_map(A2L, ((0,),))
    assert failing_fibers(qm) == []
    setattr(qm, field, value)
    assert failing_fibers(qm) == failing
    assert not label_preservation_check(qm)


def test_cover_sent_onto_a_non_cover_fails_label_preservation():
    qm = quotient_map(A2L, ((0,),))
    qm.element_map = (0, 3, 2, 2, 3)  # the cover 0 <| 1 onto 0 < 3, not a cover
    assert (0, 3) not in qm.target.lattice.poset.covers
    assert not label_preservation_check(qm)


def test_quotient_three_vertices():
    qm = quotient_map(A3R, ((0, 1),))
    assert qm.source.n == 14
    assert qm.target.n == 12
    assert qm.brick_map == (0, 1, None, 2, 3, 4)
    assert [m.label(3) for m in bricks(A3R)] == [
        "[100]", "[110]", "[111]", "[010]", "[011]", "[001]",
    ]
    fibers: dict[int, list[int]] = {}
    for i, t in enumerate(qm.element_map):
        fibers.setdefault(t, []).append(i)
    assert sorted(len(v) for v in fibers.values()) == [1] * 10 + [2, 2]
    assert label_preservation_check(qm)
    L = qm.source.lattice
    assert all(
        fiber_check(qm, u, v)
        for u in range(L.n)
        for v in range(L.n)
        if L.leq(u, v)
    )


def test_quotient_target_irreducibles():
    qm = quotient_map(A3R, ((0, 1),))
    L = qm.target.lattice
    assert len(join_irreducibles(L)) == 5
    assert len(meet_irreducibles(L)) == 5


def test_identity_quotient():
    qm = quotient_map(A2L, ())
    assert qm.element_map == (0, 1, 2, 3, 4)
    assert qm.brick_map == (0, 1, 2)
    assert label_preservation_check(qm)


def test_iterated_quotient():
    base = QuiverPresentation(3, ("right", "right"), ((0, 1),))
    qm = quotient_map(base, ((1,),))
    assert qm.target.relation.m == 4
    assert label_preservation_check(qm)


def test_invalid_ideals():
    with pytest.raises(InvalidIdeal):
        quotient_map(A3R, ((1, 0),))
    with pytest.raises(InvalidIdeal):
        quotient_map(A3R, ((5,),))
    with pytest.raises(InvalidIdeal):
        quotient_map(
            QuiverPresentation(3, ("right", "right"), ((0, 1),)), ((0, 1),)
        )
    # a relation on a mixed orientation is a legal ideal
    qm = quotient_map(QuiverPresentation(3, ("right", "left")), ((0,),))
    assert failing_fibers(qm) == []
    assert label_preservation_check(qm)


def single_arrow_quotients():
    """(quiver, path) for every arrow of every A2-A5 orientation: 98 maps."""
    return [
        (QuiverPresentation(n, o), (k,))
        for n in range(2, 6)
        for o in itertools.product(("left", "right"), repeat=n - 1)
        for k in range(n - 1)
    ]


def tampered_brick_maps(brick_map):
    """Five wrong brick maps: all killed, none killed, the first and the
    last brick's survival flipped, and every survivor sent to target brick
    0, which the fiber criteria cannot see (only survival enters them)."""
    def flip(b):
        return tuple(
            (0 if t is None else None) if i == b else t for i, t in enumerate(brick_map)
        )

    return [
        (None,) * len(brick_map),
        tuple(0 if t is None else t for t in brick_map),
        flip(0),
        flip(len(brick_map) - 1),
        tuple(None if t is None else 0 for t in brick_map),
    ]


def test_single_arrow_quotient_count():
    assert len(single_arrow_quotients()) == 98


@pytest.mark.parametrize(
    "q, path",
    single_arrow_quotients() + [(QuiverPresentation(*s), p) for s, p in QUOTIENTS],
    ids=[f"{q!r}/{p}" for q, p in single_arrow_quotients()]
    + [f"{s}/{p}" for s, p in QUOTIENTS],
)
def test_fibers_agree_is_fiber_check_on_every_pair(q, path):
    """The brick map keeps exactly the bricks the path annihilates, each
    sent to itself among the quotient's bricks; and the one-bitset-per-class
    reading gives fiber_check's verdict on all comparable pairs, for the
    real map and for tampered brick maps."""
    qm = quotient_map(q, (path,))
    target_bricks = bricks(QuiverPresentation(q.n, q.orientation, (*q.relations, path)))
    for b, M in enumerate(bricks(q)):
        assert (qm.brick_map[b] is None) == (not annihilated_by(q, M, (path,)))
        if qm.brick_map[b] is not None:
            assert target_bricks[qm.brick_map[b]] == M
    up = qm.source.lattice.poset.up

    def every_pair_passes():
        return all(fiber_check(qm, u, v) for u in range(len(up)) for v in _bits(up[u]))

    assert _fibers_agree(qm) and every_pair_passes()
    for brick_map in tampered_brick_maps(qm.brick_map):
        qm.brick_map = brick_map
        assert _fibers_agree(qm) == every_pair_passes()
