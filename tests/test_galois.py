"""Torsion pairs over brick relations, on hand-checked small relations.

The running example is the three-brick relation with arrows 0 -> 1 -> 2
(diagonal implied), whose torsion classes form a pentagon:

    {} < {0} < full  and  {} < {2} < {1,2} < full

All masks below use bit b for brick b.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from torslat.galois import (
    BrickRelation,
    LabelMissing,
    LabelNotUnique,
    all_torsion_pairs,
    cover_brick_label,
    derived_epi,
    derived_mono,
    factorizability_violation,
    four_class_diagram,
    is_factorizable,
    ji_of_brick,
    mi_of_brick,
    perp_left,
    perp_right,
    relation_from_arrows,
    tf_dual_check,
    tors_closure,
    verify_tors_lattice,
)
from torslat import galois
from torslat.bridge import tors_of_algebra
from torslat.cli import _read_tors
from torslat.lattice import (
    CoverEdge,
    InternalInconsistency,
    are_isomorphic,
    is_semidistributive,
    join,
    meet,
)
from torslat.oracle import (
    NotComparable,
    gap_nonempty_check,
    interval_ji_check,
    interval_label_set,
)
from torslat.quiver import QuiverPresentation


@pytest.fixture
def r_pentagon():
    return relation_from_arrows(["b0", "b1", "b2"], [(0, 1), (1, 2)])


@pytest.fixture
def r_antichain():
    return relation_from_arrows(["x", "y"], [])


@pytest.fixture
def r_full2():
    return relation_from_arrows(["x", "y"], [(0, 1), (1, 0)])


@pytest.fixture
def r_shift4():
    # arrows i -> i+1 only; not factorizable, and one cover has no label
    return relation_from_arrows(list("abcd"), [(0, 1), (1, 2), (2, 3)])


def test_relation_validation():
    with pytest.raises(ValueError, match="distinct"):
        relation_from_arrows(["a", "a"], [])
    with pytest.raises(ValueError, match="range"):
        relation_from_arrows(["a", "b"], [(0, 2)])
    with pytest.raises(ValueError, match="reflexive"):
        BrickRelation(("a", "b"), [0b00, 0b00])
    # a row bit past the bricks made all_torsion_pairs raise IndexError
    with pytest.raises(ValueError, match="row 0 holds arrows past the 2 bricks"):
        BrickRelation(("a", "b"), [0b111, 0b110])
    with pytest.raises(ValueError, match="3 rows for 2 brick labels"):
        BrickRelation(("a", "b"), [0b001, 0b010, 0b100])
    with pytest.raises(ValueError, match="1 rows for 2 brick labels"):
        BrickRelation(("a", "b"), [0b01])


def test_masks(r_pentagon):
    assert r_pentagon.row_masks == (0b011, 0b110, 0b100)
    assert r_pentagon.col_masks == (0b001, 0b011, 0b110)
    assert r_pentagon.full_mask == 0b111


def test_perps(r_pentagon):
    R = r_pentagon
    assert perp_right(R, 0b010) == 0b001
    assert perp_left(R, 0b001) == 0b110
    assert perp_right(R, 0) == 0b111
    assert perp_left(R, 0) == 0b111
    # a set never meets its own right perp (diagonal arrows)
    for s in range(8):
        assert s & perp_right(R, s) == 0


def test_closure(r_pentagon):
    R = r_pentagon
    assert tors_closure(R, 0b010) == 0b110
    assert tors_closure(R, 0b001) == 0b001
    assert tors_closure(R, 0b100) == 0b100
    assert tors_closure(R, 0b011) == 0b111


def test_pentagon_torsion_pairs(r_pentagon):
    TL = all_torsion_pairs(r_pentagon)
    assert [p.tset for p in TL.pairs] == [0b000, 0b001, 0b100, 0b110, 0b111]
    assert [p.fset for p in TL.pairs] == [0b111, 0b100, 0b011, 0b001, 0b000]
    assert sorted(TL.lattice.poset.covers) == [(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)]
    assert TL.index_of_tset[0b110] == 3


def test_derived_relations(r_pentagon):
    epi = derived_epi(r_pentagon)
    mono = derived_mono(r_pentagon)
    off_epi = {(x, y) for x in range(3) for y in range(3) if x != y and epi[x] >> y & 1}
    off_mono = {(x, y) for x in range(3) for y in range(3) if x != y and mono[x] >> y & 1}
    assert off_epi == {(1, 2)}
    assert off_mono == {(0, 1)}


def test_factorizability(r_pentagon, r_antichain, r_full2, r_shift4):
    assert is_factorizable(r_pentagon)
    assert is_factorizable(r_antichain)
    assert factorizability_violation(r_full2) == ("epi-cycle", 0, 1)
    assert factorizability_violation(r_shift4) == ("unfactorized-arrow", 1, 2)


def test_literal_mono_reading_fails(r_pentagon):
    # the reversed-row reading of mono cannot factor the arrow 0 -> 1
    assert factorizability_violation(r_pentagon, literal_mono=True) == (
        "unfactorized-arrow",
        0,
        1,
    )
    assert not is_factorizable(r_pentagon, literal_mono=True)


def test_pentagon_cover_labels(r_pentagon):
    TL = all_torsion_pairs(r_pentagon)
    got = TL.cover_labels
    assert got == {
        CoverEdge(0, 1): 0,
        CoverEdge(0, 2): 2,
        CoverEdge(2, 3): 1,
        CoverEdge(3, 4): 0,
        CoverEdge(1, 4): 2,
    }
    with pytest.raises(ValueError):
        cover_brick_label(TL, CoverEdge(0, 4))
    with pytest.raises(ValueError):
        cover_brick_label(TL, CoverEdge(5, 0))


def test_antichain_is_boolean(r_antichain):
    TL = all_torsion_pairs(r_antichain)
    assert [p.tset for p in TL.pairs] == [0b00, 0b01, 0b10, 0b11]
    labels = TL.cover_labels
    assert labels[CoverEdge(0, 1)] == 0
    assert labels[CoverEdge(0, 2)] == 1
    assert labels[CoverEdge(1, 3)] == 1
    assert labels[CoverEdge(2, 3)] == 0


def test_label_not_unique(r_full2):
    TL = all_torsion_pairs(r_full2)
    assert [p.tset for p in TL.pairs] == [0b00, 0b11]
    with pytest.raises(LabelNotUnique) as exc:
        cover_brick_label(TL, CoverEdge(0, 1))
    assert exc.value.bricks == (0, 1)


def test_label_missing(r_shift4):
    TL = all_torsion_pairs(r_shift4)
    tsets = [p.tset for p in TL.pairs]
    assert tsets == [0b0000, 0b0001, 0b0010, 0b1000, 0b0011, 0b1001, 0b1100, 0b1110, 0b1111]
    lo = TL.index_of_tset[0b0001]
    hi = TL.index_of_tset[0b0011]
    with pytest.raises(LabelMissing):
        cover_brick_label(TL, CoverEdge(lo, hi))


def test_ji_of_brick(r_pentagon):
    TL = all_torsion_pairs(r_pentagon)
    assert [ji_of_brick(TL, b) for b in range(3)] == [1, 3, 2]
    with pytest.raises(ValueError):
        ji_of_brick(TL, 3)


def test_mi_of_brick(r_pentagon):
    from torslat.lattice import meet_irreducibles

    TL = all_torsion_pairs(r_pentagon)
    image = [mi_of_brick(TL, b) for b in range(3)]
    assert image == [3, 2, 1]
    assert sorted(image) == sorted(meet_irreducibles(TL.lattice))
    with pytest.raises(ValueError):
        mi_of_brick(TL, -1)


def test_four_class_diagram(r_pentagon):
    TL = all_torsion_pairs(r_pentagon)
    assert four_class_diagram(TL, 0) == (4, 1, 3, 0)
    assert four_class_diagram(TL, 1) == (3, 3, 2, 2)
    assert four_class_diagram(TL, 2) == (4, 2, 1, 0)


def test_interval_label_set(r_pentagon):
    TL = all_torsion_pairs(r_pentagon)
    assert interval_label_set(TL, 0, 4) == 0b111
    assert interval_label_set(TL, 2, 4) == 0b011
    assert interval_label_set(TL, 1, 4) == 0b100
    assert interval_label_set(TL, 3, 3) == 0
    with pytest.raises(NotComparable):
        interval_label_set(TL, 1, 2)
    assert_endpoints_range_checked(interval_label_set, TL)


def assert_endpoints_range_checked(check, TL):
    # (0, -1) is not read as (0, n - 1), nor is (0, 5) an IndexError
    for u, v in [(0, -1), (-5, 4), (0, 5), (4, -1)]:
        with pytest.raises(ValueError, match=r"^interval endpoint -?\d+ out of"):
            check(TL, u, v)


def test_interval_ji_and_lemma(r_pentagon):
    TL = all_torsion_pairs(r_pentagon)
    for u in range(5):
        for v in range(5):
            if not TL.lattice.leq(u, v):
                continue
            assert gap_nonempty_check(TL, u, v)
            assert interval_ji_check(TL, u, v)
    with pytest.raises(NotComparable):
        gap_nonempty_check(TL, 2, 1)
    assert_endpoints_range_checked(gap_nonempty_check, TL)
    assert_endpoints_range_checked(interval_ji_check, TL)


def test_tf_dual_always(r_pentagon, r_shift4):
    # inclusion of torsion classes reverses torsion-free classes for any
    # relation, factorizable or not: it is the Galois adjunction
    assert tf_dual_check(all_torsion_pairs(r_pentagon))
    assert tf_dual_check(all_torsion_pairs(r_shift4))


def test_verify_suite(r_pentagon, r_antichain, r_shift4):
    assert verify_tors_lattice(all_torsion_pairs(r_pentagon)) == []
    assert verify_tors_lattice(all_torsion_pairs(r_antichain)) == []
    assert verify_tors_lattice(all_torsion_pairs(r_shift4)) != []


def test_pentagon_shape(r_pentagon):
    from torslat.lattice import poset_from_pairs, try_lattice

    TL = all_torsion_pairs(r_pentagon)
    n5 = try_lattice(
        poset_from_pairs(5, [(0, 1), (0, 2), (2, 3), (3, 4), (1, 4)])
    )
    assert are_isomorphic(TL.lattice, n5)


def test_class_budget_boundary(monkeypatch):
    """At most MAX_TORS_CLASSES classes are built; one more raises."""
    monkeypatch.setattr(galois, "MAX_TORS_CLASSES", 8)
    assert all_torsion_pairs(relation_from_arrows(list("abc"), [])).n == 8
    with pytest.raises(galois.TooManyClasses, match="4 bricks have more than 8"):
        all_torsion_pairs(relation_from_arrows(list("abcd"), []))


def test_a_wrong_torsion_free_side_fails_the_class_certificate(monkeypatch):
    """The join comes from the torsion-free sets; with class 1 ({x}) given
    the wrong torsion-free set {} for {y}, the perp {y} of the empty class
    plus brick x is no class's, and the build fails there."""
    real_perp = galois.perp_right

    def wrong_perp(R, tset):
        return 0 if tset == 0b01 else real_perp(R, tset)

    monkeypatch.setattr(galois, "perp_right", wrong_perp)
    with pytest.raises(
        InternalInconsistency,
        match=r"^torsion class 0 and brick 0 close outside the classes$",
    ):
        all_torsion_pairs(relation_from_arrows(["x", "y"], []))


def torsion_classes(R):
    return {s for s in range(1 << R.m) if tors_closure(R, s) == s}


def first_uncertified(R, family):
    """The message the class certificate must give for a family of brick
    sets, found set by set and brick by brick through tors_closure."""
    if 0 not in family:
        return "the empty set is not among the torsion classes"
    for i, t in enumerate(sorted(family, key=lambda s: (s.bit_count(), s))):
        if tors_closure(R, t) != t:
            return f"torsion class {i} is not the left perp of its own perp"
        for b in range(R.m):
            if not t >> b & 1 and tors_closure(R, t | 1 << b) not in family:
                return f"torsion class {i} and brick {b} close outside the classes"
    return None


CERTIFIED_RELATIONS = [
    [(0, 1), (1, 2)],
    [(0, 1), (1, 2), (2, 0)],
    [],
    [(0, 1), (0, 2), (2, 1)],
]


@pytest.mark.parametrize("arrows", CERTIFIED_RELATIONS)
def test_class_certificate_names_a_set_that_is_not_closed(arrows):
    """Each subset that is not a torsion class, added to the classes, is
    named by its place among them."""
    R = relation_from_arrows(list("abc"), arrows)
    classes = torsion_classes(R)
    assert first_uncertified(R, classes) is None
    assert galois._tors_from_closed(R, classes).n == len(classes)
    for s in sorted(set(range(1 << R.m)) - classes):
        family = classes | {s}
        i = sorted(family, key=lambda x: (x.bit_count(), x)).index(s)
        message = f"torsion class {i} is not the left perp of its own perp"
        assert first_uncertified(R, family) == message
        with pytest.raises(InternalInconsistency, match=f"^{message}$"):
            galois._tors_from_closed(R, family)


@pytest.mark.parametrize("arrows", CERTIFIED_RELATIONS)
def test_class_certificate_names_the_class_before_a_dropped_one(arrows):
    """Each torsion class dropped from the family is missed at the first
    class that, with one brick, closes to it; the empty one is missed at
    once."""
    R = relation_from_arrows(list("abc"), arrows)
    classes = torsion_classes(R)
    for dropped in sorted(classes):
        family = classes - {dropped}
        message = first_uncertified(R, family)
        assert message is not None
        with pytest.raises(InternalInconsistency, match=f"^{message}$"):
            galois._tors_from_closed(R, family)


def intersection_table(sets):
    """table[i][j]: the index of sets[i] & sets[j] among the sets."""
    index = {s: i for i, s in enumerate(sets)}
    return tuple(tuple(index[s & t] for t in sets) for s in sets)


DATA = Path(__file__).parent / "data"
TORSION_FILES = ["a2.json", "a3.json", "a2_rel.json", "a4_mixed_rel.json", "mask228_rel.json", "shift4_rel.json"]
TYPE_A_UP_TO_4 = [
    QuiverPresentation(n, o)
    for n in (2, 3, 4)
    for o in itertools.product(("left", "right"), repeat=n - 1)
]


@pytest.mark.parametrize("source", TORSION_FILES + TYPE_A_UP_TO_4, ids=repr)
def test_join_intersects_torsion_free_sets_and_meet_torsion_sets(source):
    """The join of two classes is the class whose torsion-free set is the
    intersection of theirs, and the meet likewise of torsion sets."""
    if isinstance(source, str):
        TL = _read_tors(str(DATA / source))[1]
    else:
        TL = tors_of_algebra(source)
    L = TL.lattice
    for op, sets in ((join, [p.fset for p in TL.pairs]), (meet, [p.tset for p in TL.pairs])):
        assert tuple(tuple(op(L, x, y) for y in range(L.n)) for x in range(L.n)) == (
            intersection_table(sets)
        )


def test_order_is_inclusion_on_random_relations():
    """The order folded from the class certificate's closure lookups is
    inclusion of torsion classes, with its down-sets and covers, as a
    plain loop over pairs of classes finds it, on 3,000 seeded random
    relations of 1-9 bricks of random arrow density."""
    rng = random.Random(0)
    not_sd = 0
    for _ in range(3000):
        m = rng.randint(1, 9)
        density = rng.random()
        arrows = [(x, y) for x in range(m) for y in range(m) if x != y and rng.random() < density]
        TL = all_torsion_pairs(relation_from_arrows([f"b{i}" for i in range(m)], arrows))
        tsets = [p.tset for p in TL.pairs]
        E = range(TL.n)
        up = [sum(1 << j for j in E if s & ~tsets[j] == 0) for s in tsets]
        strict = [[j for j in E if up[i] >> j & 1 and j != i] for i in E]
        covers = [
            sum(1 << j for j in above if not any(k != j and up[k] >> j & 1 for k in above))
            for above in strict
        ]
        poset = TL.lattice.poset
        assert poset.up == tuple(up)
        assert poset.down == tuple(sum(1 << i for i in E if up[i] >> j & 1) for j in E)
        assert poset.upper_cover_sets == tuple(covers)
        not_sd += not is_semidistributive(TL.lattice)
    assert not_sd > 1000  # the fold is not only tried on semidistributive lattices
