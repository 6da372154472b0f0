"""From an algebra to its lattice of torsion classes, and down quotients.

``tors_of_algebra`` composes the quiver layer (bricks and exact Hom) with
the Galois layer (torsion pairs of the hom-nonzero relation).  Killing
extra monomial paths gives a quotient algebra; restricting each torsion
class to the surviving bricks induces a surjective lattice map onto the
quotient's torsion lattice, checked on the pairs (class, irreducible
class) so that no join or meet table is built.  ``_fibers_agree`` (its
per-pair reference is ``oracle.fiber_check``) and
``label_preservation_check`` test the structure theory of that map:
collapsing is detected by the killed bricks between two classes, and
surviving covers keep their brick labels.
"""

from __future__ import annotations

from .galois import TorsLattice, all_torsion_pairs
from .lattice import (
    CoverEdge,
    InternalInconsistency,
    _bits,
    _is_cover,
    is_lattice_quotient,
)
from .quiver import QuiverPresentation, bricks, hom_relation


class InvalidIdeal(Exception):
    """The extra relation paths do not define a usable quotient ideal."""


def tors_of_algebra(Q: QuiverPresentation) -> TorsLattice:
    """tors A: the torsion lattice of the hom-nonzero relation on Q's bricks."""
    return all_torsion_pairs(hom_relation(Q))


class QuotientMap:
    """The induced map from tors of an algebra onto tors of its quotient.

    ``element_map[i]`` is the target index of source torsion class i;
    ``brick_map[b]`` is the target brick index of source brick b, or None
    when the extra relations kill it.
    """

    def __init__(
        self,
        source: TorsLattice,
        target: TorsLattice,
        element_map: tuple[int, ...],
        brick_map: tuple[int | None, ...],
    ):
        self.source = source
        self.target = target
        self.element_map = element_map
        self.brick_map = brick_map


def quotient_map(
    Q: QuiverPresentation, extra_paths: tuple[tuple[int, ...], ...]
) -> QuotientMap:
    """Quotient by the monomial ideal the paths generate; map tors onto tors.

    A source brick survives exactly when it is a brick of the quotient, so
    the brick map reads the quotient's own brick list.  The element map
    restricts a torsion class to the bricks that survive; the result is
    checked to be a surjective lattice homomorphism.
    """
    try:
        target_q = QuiverPresentation(Q.n, Q.orientation, (*Q.relations, *extra_paths))
    except ValueError as exc:
        raise InvalidIdeal(str(exc)) from exc
    source = tors_of_algebra(Q)
    target = tors_of_algebra(target_q)
    target_index = {M: i for i, M in enumerate(bricks(target_q))}
    brick_map = tuple(target_index.get(M) for M in bricks(Q))
    element_map = []
    for pair in source.pairs:
        mask = 0
        for b, tb in enumerate(brick_map):
            if tb is not None and pair.tset >> b & 1:
                mask |= 1 << tb
        idx = target.index_of_tset.get(mask)
        if idx is None:
            raise InternalInconsistency(
                f"restricted class {mask:b} is not a torsion class of the quotient"
            )
        element_map.append(idx)
    if not is_lattice_quotient(element_map, source.lattice, target.lattice):
        raise InternalInconsistency(
            "restriction map is not a surjective lattice homomorphism"
        )
    return QuotientMap(source, target, tuple(element_map), brick_map)


def _fibers_agree(qm: QuotientMap) -> bool:
    """oracle.fiber_check on every comparable pair, one bitset per lower end u.

    With f the element map, each u needs, for all v >= u, f(u) == f(v) iff
    no surviving brick of fset(u) lies in tset(v): (i) == (ii).  On a cover
    that brick set is the label, so a cover is contracted iff its label is
    killed.  ``quotient_map`` returns only lattice homomorphisms, so f(u) ==
    f(v) iff f is constant on [u, v] iff a maximal chain from u to v is
    contracted iff every cover inside [u, v] is: (iii).  The labels are read
    first, so a labelling failure raises as in oracle.fiber_check.
    """
    TL = qm.source
    TL.cover_labels  # raises on a cover without exactly one label
    f, up, holding = qm.element_map, TL.lattice.poset.up, TL._tclasses
    alive = sum(1 << b for b, t in enumerate(qm.brick_map) if t is not None)
    fiber = dict.fromkeys(f, 0)
    for i, t in enumerate(f):
        fiber[t] |= 1 << i
    for u in range(TL.n):
        hit = 0
        for b in _bits(TL.fset(u) & alive):
            hit |= holding[b]
        if fiber[f[u]] & up[u] != up[u] & ~hit:
            return False
    return True


def label_preservation_check(qm: QuotientMap) -> bool:
    """Covers that survive stay covers and keep their brick labels."""
    src, dst = qm.source, qm.target
    for c in src.lattice.poset.covers:
        image = CoverEdge(qm.element_map[c.lower], qm.element_map[c.upper])
        if image.lower == image.upper:
            continue
        if not _is_cover(dst.lattice, image):
            return False
        if qm.brick_map[src.cover_labels[c]] != dst.cover_labels[image]:
            return False
    return True
