"""Torsion pairs over a finite reflexive relation on a set of bricks.

For a reflexive relation ``arrow`` on bricks ``0..m-1`` (read ``arrow[x, y]``
as "there is a nonzero map from x to y"), the right perp of a subset C is
``{y : no x in C has arrow[x, y]}`` and the left perp is defined dually.
A torsion pair is a pair (T, F) with ``F = perp_right(T)`` and
``T = perp_left(F)``.  The torsion classes, ordered by inclusion, always
form a lattice: they are the closed sets of a Galois connection, i.e. the
intersections of the principal left perps together with the full set.

Brick subsets are plain Python ints used as bitmasks, so there is no cap
on the number of bricks beyond what exhaustive search can afford.

Derived relations: ``x epi y`` iff every brick hit by y is hit by x
(row containment), and ``x mono y`` iff every brick hitting x hits y
(column containment).  The relation is factorizable when every arrow
factors as an epi followed by a mono and the derived relations have no
nontrivial cycles.  ``literal_mono=True`` switches mono to the same row
containment as epi (reversed); it exists only to demonstrate that this
reading breaks factorizability on relations that should satisfy it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .lattice import (
    CoverEdge,
    FiniteLattice,
    FinitePoset,
    InternalInconsistency,
    NotComparable,
    NotIrreducible,
    check_kappa_bijection,
    check_mu_eq_kappa_gamma,
    gamma_label,
    interval_covers,
    is_semidistributive,
    j_star,
    join_irreducibles,
    m_star,
    meet_irreducibles,
    try_lattice,
)


class LabelNotUnique(Exception):
    """A cover admits more than one brick label."""

    def __init__(self, edge: CoverEdge, bricks: tuple[int, ...]):
        self.edge = edge
        self.bricks = bricks
        super().__init__(f"cover {tuple(edge)} has labels {bricks}; expected one")


class LabelMissing(Exception):
    """A cover admits no brick label."""

    def __init__(self, edge: CoverEdge):
        self.edge = edge
        super().__init__(f"cover {tuple(edge)} has no brick label")


@dataclass(frozen=True)
class BrickRelation:
    """A reflexive relation on a finite labelled set of bricks."""

    labels: tuple[str, ...]
    arrow: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        arrow = np.ascontiguousarray(np.asarray(self.arrow, dtype=bool))
        m = len(self.labels)
        if arrow.shape != (m, m):
            raise ValueError(f"arrow must be {m}x{m}, got {arrow.shape}")
        if not arrow.diagonal().all():
            raise ValueError("relation must be reflexive")
        if len(set(self.labels)) != m:
            raise ValueError("brick labels must be distinct")
        arrow.setflags(write=False)
        object.__setattr__(self, "arrow", arrow)

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """row_masks[x] = bitmask of {y : arrow[x, y]}."""
        return tuple(_mask_of(np.flatnonzero(self.arrow[x])) for x in range(self.m))

    @cached_property
    def col_masks(self) -> tuple[int, ...]:
        """col_masks[y] = bitmask of {x : arrow[x, y]}."""
        return tuple(_mask_of(np.flatnonzero(self.arrow[:, y])) for y in range(self.m))


def _mask_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def relation_from_arrows(
    labels: Iterable[str], arrows: Iterable[tuple[int, int]]
) -> BrickRelation:
    """Build a relation from off-diagonal arrow pairs; diagonal is implied."""
    labels = tuple(labels)
    m = len(labels)
    arrow = np.eye(m, dtype=bool)
    for x, y in arrows:
        if not (0 <= x < m and 0 <= y < m):
            raise ValueError(f"arrow ({x}, {y}) out of range for {m} bricks")
        arrow[x, y] = True
    return BrickRelation(labels, arrow)


def perp_right(R: BrickRelation, tset: int) -> int:
    """Bricks receiving no arrow from the given set."""
    hit = 0
    for x in _bits(tset):
        hit |= R.row_masks[x]
    return R.full_mask & ~hit


def perp_left(R: BrickRelation, fset: int) -> int:
    """Bricks sending no arrow into the given set."""
    hit = 0
    for y in _bits(fset):
        hit |= R.col_masks[y]
    return R.full_mask & ~hit


def tors_closure(R: BrickRelation, subset: int) -> int:
    """Smallest torsion class containing the subset."""
    return perp_left(R, perp_right(R, subset))


class TorsionPair(NamedTuple):
    tset: int
    fset: int


@dataclass(frozen=True)
class TorsLattice:
    """The lattice of torsion pairs of a brick relation.

    ``pairs`` is sorted by (popcount, value) of the torsion class mask, so
    index 0 is the empty class and the last index is the full class.  The
    lattice order is inclusion of torsion classes.
    """

    relation: BrickRelation
    pairs: tuple[TorsionPair, ...]
    lattice: FiniteLattice

    @cached_property
    def index_of_tset(self) -> dict[int, int]:
        return {p.tset: i for i, p in enumerate(self.pairs)}

    @cached_property
    def cover_labels(self) -> dict[CoverEdge, int]:
        """Cover-to-brick table; a labelling failure propagates, uncached."""
        return {c: cover_brick_label(self, c) for c in self.lattice.poset.covers}

    def tset(self, i: int) -> int:
        return self.pairs[i].tset

    def fset(self, i: int) -> int:
        return self.pairs[i].fset

    @property
    def n(self) -> int:
        return len(self.pairs)


def all_torsion_pairs(R: BrickRelation) -> TorsLattice:
    """Every torsion pair, assembled into the inclusion lattice.

    The torsion classes are generated as intersections of the principal
    left perps (plus the full class), not by scanning all subsets.
    """
    principals = [perp_left(R, 1 << y) for y in range(R.m)]
    return _tors_from_closed(R, _closed_sets(principals, R.full_mask))


def _closed_sets(
    principals: list[int], full: int, cap: float = math.inf
) -> set[int] | None:
    """The full set and all intersections of the principal left perps.

    Returns None as soon as there are more than ``cap`` of them.
    """
    closed = {full}
    frontier = [full]
    while frontier:
        s = frontier.pop()
        for p in principals:
            t = s & p
            if t not in closed:
                closed.add(t)
                if len(closed) > cap:
                    return None
                frontier.append(t)
    return closed


def _tors_from_closed(R: BrickRelation, closed: Iterable[int]) -> TorsLattice:
    masks = sorted(set(closed), key=lambda s: (bin(s).count("1"), s))
    n = len(masks)
    leq = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            leq[i, j] = (a & ~b) == 0
    lattice = try_lattice(FinitePoset(n, leq))
    pairs = tuple(TorsionPair(t, perp_right(R, t)) for t in masks)
    for t, f in pairs:
        if t & f:
            raise InternalInconsistency(
                f"torsion class {t:b} meets its own perp {f:b}"
            )
    return TorsLattice(R, pairs, lattice)


def derived_epi(R: BrickRelation) -> np.ndarray:
    """epi[x, y]: every brick receiving an arrow from y also receives one from x."""
    rows = R.row_masks
    m = R.m
    epi = np.zeros((m, m), dtype=bool)
    for x in range(m):
        for y in range(m):
            epi[x, y] = (rows[y] & ~rows[x]) == 0
    return epi


def derived_mono(R: BrickRelation, literal: bool = False) -> np.ndarray:
    """mono[x, y]: every brick with an arrow into x has one into y.

    With ``literal=True`` the containment is read on rows reversed instead
    (y's targets inside x's), which is not the intended dual and fails on
    standard examples; kept for regression tests only.
    """
    m = R.m
    mono = np.zeros((m, m), dtype=bool)
    if literal:
        rows = R.row_masks
        for x in range(m):
            for y in range(m):
                mono[x, y] = (rows[x] & ~rows[y]) == 0
    else:
        cols = R.col_masks
        for x in range(m):
            for y in range(m):
                mono[x, y] = (cols[x] & ~cols[y]) == 0
    return mono


def factorizability_violation(
    R: BrickRelation, literal_mono: bool = False
) -> tuple | None:
    """First witness against factorizability, or None.

    Witness forms, scanned in lexicographic order:
      ("unfactorized-arrow", x, z): arrow x -> z with no y giving
          x epi y and y mono z;
      ("epi-cycle", x, y), ("mono-epi-cycle", x, y), ("mono-cycle", x, y):
          a nontrivial derived cycle forcing x = y.
    """
    epi = derived_epi(R)
    mono = derived_mono(R, literal=literal_mono)
    m = R.m
    for x in range(m):
        for z in range(m):
            if not R.arrow[x, z]:
                continue
            if not any(epi[x, y] and mono[y, z] for y in range(m)):
                return ("unfactorized-arrow", x, z)
    for x in range(m):
        for y in range(m):
            if x == y:
                continue
            if epi[x, y] and epi[y, x]:
                return ("epi-cycle", x, y)
            if mono[x, y] and epi[y, x]:
                return ("mono-epi-cycle", x, y)
            if mono[x, y] and mono[y, x]:
                return ("mono-cycle", x, y)
    return None


def is_factorizable(R: BrickRelation, literal_mono: bool = False) -> bool:
    return factorizability_violation(R, literal_mono=literal_mono) is None


def cover_brick_label(TL: TorsLattice, c: CoverEdge) -> int:
    """The unique brick in tset(upper) & fset(lower).

    When the lattice is semidistributive this agrees with the gamma label
    under the brick-to-join-irreducible correspondence; a disagreement
    would be a bug, not bad input.
    """
    if c not in TL.lattice.poset.covers:
        raise ValueError(f"({c.lower}, {c.upper}) is not a cover")
    mask = TL.tset(c.upper) & TL.fset(c.lower)
    found = tuple(_bits(mask))
    if not found:
        raise LabelMissing(c)
    if len(found) > 1:
        raise LabelNotUnique(c, found)
    brick = found[0]
    if is_semidistributive(TL.lattice):
        expected = ji_of_brick(TL, brick)
        if gamma_label(TL.lattice, c) != expected:
            raise InternalInconsistency(
                f"cover {tuple(c)}: brick label {brick} disagrees with gamma label"
            )
    return brick


def all_cover_labels(TL: TorsLattice) -> dict[CoverEdge, int]:
    return dict(TL.cover_labels)


def ji_of_brick(TL: TorsLattice, b: int) -> int:
    """Index of the smallest torsion class containing brick b."""
    if not (0 <= b < TL.relation.m):
        raise ValueError(f"brick {b} out of range")
    return TL.index_of_tset[tors_closure(TL.relation, 1 << b)]


def mi_of_brick(TL: TorsLattice, b: int) -> int:
    """Index of the largest torsion class whose torsion-free side has b.

    That class is the left perp of {b}, which is closed by construction.
    For factorizable relations it is meet-irreducible and b -> mi_of_brick
    is a bijection onto the meet-irreducibles, dual to ji_of_brick.
    """
    if not (0 <= b < TL.relation.m):
        raise ValueError(f"brick {b} out of range")
    return TL.index_of_tset[perp_left(TL.relation, 1 << b)]


def four_class_diagram(TL: TorsLattice, b: int) -> tuple[int, int, int, int]:
    """The four torsion classes attached to a brick.

    Returns (top, jiSide, miSide, bottom) where jiSide is the closure of
    {b}, miSide is the left perp of {b}, bottom is the unique lower cover
    of jiSide, and top is the unique upper cover of miSide.  The defining
    equalities jiSide v miSide = top and jiSide ^ miSide = bottom are
    verified.
    """
    L = TL.lattice
    ji_side = ji_of_brick(TL, b)
    mi_side = mi_of_brick(TL, b)
    bottom = j_star(L, ji_side)
    top = m_star(L, mi_side)
    if int(L.join[ji_side, mi_side]) != top:
        raise InternalInconsistency(
            f"brick {b}: jiSide v miSide is not the upper cover of miSide"
        )
    if int(L.meet[ji_side, mi_side]) != bottom:
        raise InternalInconsistency(
            f"brick {b}: jiSide ^ miSide is not the lower cover of jiSide"
        )
    return (top, ji_side, mi_side, bottom)


def interval_label_set(TL: TorsLattice, u: int, v: int) -> int:
    """Bitmask of bricks labelling covers inside the interval [u, v].

    Raises if any cover of the lattice, inside [u, v] or not, has no label.
    """
    covers = interval_covers(TL.lattice, u, v)
    labels = TL.cover_labels
    return _mask_of(labels[c] for c in covers)


def interval_ji_check(TL: TorsLattice, u: int, v: int) -> bool:
    """Bricks in fset(u) & tset(v) enumerate the interval's join-irreducibles.

    Each such brick b maps to closure(tset(u) | {b}); the map must be a
    bijection onto the join-irreducibles of the interval [u, v], the
    elements with exactly one lower cover inside it.
    """
    return _ji_check(TL, u, v, interval_covers(TL.lattice, u, v))


def _ji_check(TL: TorsLattice, u: int, v: int, covers: tuple[CoverEdge, ...]) -> bool:
    """interval_ji_check, given the covers of [u, v]."""
    lower_count = Counter(c.upper for c in covers)
    sub_ji = {y for y, k in lower_count.items() if k == 1}
    domain = TL.fset(u) & TL.tset(v)
    image = []
    for b in _bits(domain):
        t = tors_closure(TL.relation, TL.tset(u) | (1 << b))
        image.append(TL.index_of_tset[t])
    return len(set(image)) == len(image) and set(image) == sub_ji


def gap_nonempty_check(TL: TorsLattice, u: int, v: int) -> bool:
    """For u <= v: the interval is proper iff some brick lies in fset(u) & tset(v)."""
    if not TL.lattice.leq[u, v]:
        raise NotComparable(f"{u} is not below {v}")
    return (u != v) == bool(TL.fset(u) & TL.tset(v))


def tf_dual_check(TL: TorsLattice) -> bool:
    """Ordering by torsion class inclusion reverses torsion-free inclusion."""
    n = TL.n
    for i in range(n):
        for j in range(n):
            t_incl = (TL.tset(i) & ~TL.tset(j)) == 0
            f_incl = (TL.fset(j) & ~TL.fset(i)) == 0
            if t_incl != f_incl:
                return False
    return True


def verify_tors_lattice(TL: TorsLattice) -> list[str]:
    """Run the whole invariant suite; return human-readable violations.

    Intended for factorizable relations, where the lattice must be
    semidistributive, every cover must carry a unique brick label, the
    brick-to-irreducible maps must be bijections, mu must factor as kappa
    after gamma, and the interval identities must hold on all comparable
    pairs.
    """
    problems: list[str] = []
    L = TL.lattice
    if not is_semidistributive(L):
        problems.append("lattice is not semidistributive")
        return problems
    jis = join_irreducibles(L)
    mis = meet_irreducibles(L)
    m = TL.relation.m
    if not (len(jis) == len(mis) == m):
        problems.append(
            f"counts differ: {m} bricks, {len(jis)} join-irr, {len(mis)} meet-irr"
        )
    ji_map = [ji_of_brick(TL, b) for b in range(m)]
    if sorted(ji_map) != sorted(jis):
        problems.append("brick closures do not enumerate the join-irreducibles")
    mi_map = [mi_of_brick(TL, b) for b in range(m)]
    if sorted(mi_map) != sorted(mis):
        problems.append("brick left perps do not enumerate the meet-irreducibles")
    labelled = True
    try:
        all_cover_labels(TL)
    except (LabelMissing, LabelNotUnique, InternalInconsistency) as exc:
        # brick label vs gamma label is a theorem only for factorizable relations
        problems.append(str(exc))
        labelled = False
    if not check_kappa_bijection(L):
        problems.append("kappa is not a bijection with inverse kappa_dual")
    if not check_mu_eq_kappa_gamma(L):
        problems.append("mu != kappa o gamma on some cover")
    if not tf_dual_check(TL):
        problems.append("torsion-free order is not the reverse of torsion order")
    for b in range(m):
        try:
            four_class_diagram(TL, b)
        except InternalInconsistency as exc:
            problems.append(str(exc))
        except NotIrreducible as exc:
            problems.append(f"brick {b}: {exc}")
    for u, v in np.argwhere(L.leq).tolist():
        covers = interval_covers(L, u, v)
        if not gap_nonempty_check(TL, u, v):
            problems.append(f"interval ({u}, {v}): gap/strictness equivalence fails")
        if not _ji_check(TL, u, v, covers):
            problems.append(f"interval ({u}, {v}): join-irreducible map fails")
        expected = TL.fset(u) & TL.tset(v)
        # a cover that failed labelling is reported once, above
        if labelled and _mask_of(TL.cover_labels[c] for c in covers) != expected:
            problems.append(f"interval ({u}, {v}): label set mismatch")
    return problems
