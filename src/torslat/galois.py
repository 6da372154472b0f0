"""Torsion pairs over a finite reflexive relation on a set of bricks.

For a reflexive relation on bricks ``0..m-1``, given by the bitset
``rows[x]`` of each brick's targets (bit y read as "there is a nonzero
map from x to y"), the right perp of a subset C is the set of bricks no
row of C holds, and the left perp is defined dually.
A torsion pair is a pair (T, F) with ``F = perp_right(T)`` and
``T = perp_left(F)``.  The torsion classes, ordered by inclusion, always
form a lattice: they are the closed sets of a Galois connection, i.e. the
intersections of the principal left perps together with the full set.

Brick subsets, a relation's rows and columns, and sets of torsion classes
are plain Python ints used as bitsets, so there is no cap on the number
of bricks beyond what exhaustive search can afford.  The order,
inclusion of torsion classes, is folded by ``FinitePoset`` from the
closures of a class and one brick that ``_tors_from_closed`` looks up to
certify the classes; ``lattice.join`` and ``lattice.meet`` look a join or
meet up by the up-sets or down-sets of classes, and no table is built.
As the classes are certified, the meet of two classes is also the class
whose torsion set is the intersection of theirs, and the join the class
whose torsion-free set is the intersection of theirs.

Derived relations: ``x epi y`` iff every brick hit by y is hit by x
(row containment), and ``x mono y`` iff every brick hitting x hits y
(column containment).  The relation is factorizable when every arrow
factors as an epi followed by a mono and the derived relations have no
nontrivial cycles.  ``literal_mono=True`` switches mono to the same row
containment as epi (reversed); it exists only to demonstrate that this
reading breaks factorizability on relations that should satisfy it.
``factorizability_violation``, ``derived_epi`` and ``derived_mono`` are
loops over row and column bitsets; the exhaustive searches decide many
relations at once with ``kernels.factorizable_lanes`` instead.

The invariant suite ``verify_tors_lattice`` checks the interval identities
of every comparable pair one lower end u at a time, as bitsets over the
upper ends v (see ``_interval_failures``); ``oracle`` states them one pair
at a time.  A relation may have at most MAX_TORS_CLASSES torsion classes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from .lattice import (
    CoverEdge,
    FiniteLattice,
    FinitePoset,
    InternalInconsistency,
    NotIrreducible,
    _bits,
    _is_cover,
    _transpose,
    check_kappa_bijection,
    check_mu_eq_kappa_gamma,
    gamma_label,
    is_semidistributive,
    j_star,
    join_irreducibles,
    m_star,
    meet_irreducibles,
)

# Torsion classes a lattice may have.  The invariant suite's passes grow
# with the comparable pairs.  Measured on a 2-core machine (Python 3.11),
# building the 2,048 classes of 11 bricks without arrows, covers
# included, takes about 0.06 s (peak RSS 19 MB), linear A7 (1,430
# classes) 0.06 s (17 MB), and over the cap, linear A8 (4,862) 0.3 s
# (31 MB) and A9 (16,796) 3.3 s (170 MB).
MAX_TORS_CLASSES = 1 << 11


class TooManyClasses(Exception):
    """A relation has more torsion classes than MAX_TORS_CLASSES."""


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


class BrickRelation:
    """A reflexive relation on a finite labelled set of bricks, held as the
    bitset of each brick's targets.

    ``BrickRelation(labels, rows)`` takes one row bitset per label, bit y
    of ``rows[x]`` meaning an arrow x -> y, and checks that each row lies
    inside the m bricks and holds its own brick.
    """

    def __init__(self, labels: Iterable[str], rows: Iterable[int]):
        labels = tuple(str(s) for s in labels)
        rows = tuple(rows)
        m = len(labels)
        if len(rows) != m:
            raise ValueError(f"{len(rows)} rows for {m} brick labels")
        for x, r in enumerate(rows):
            if r >> m:
                raise ValueError(f"row {x} holds arrows past the {m} bricks")
            if not r >> x & 1:
                raise ValueError("relation must be reflexive")
        if len(set(labels)) != len(labels):
            raise ValueError("brick labels must be distinct")
        self.labels = labels
        self.row_masks = rows

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @cached_property
    def col_masks(self) -> tuple[int, ...]:
        """col_masks[y] = bitmask of {x : arrow[x, y]}."""
        return _transpose(self.row_masks, self.m)


def relation_from_arrows(
    labels: Iterable[str], arrows: Iterable[tuple[int, int]]
) -> BrickRelation:
    """Build a relation from off-diagonal arrow pairs; diagonal is implied."""
    labels = tuple(labels)
    m = len(labels)
    rows = [1 << x for x in range(m)]
    for x, y in arrows:
        if not (0 <= x < m and 0 <= y < m):
            raise ValueError(f"arrow ({x}, {y}) out of range for {m} bricks")
        rows[x] |= 1 << y
    return BrickRelation(labels, rows)


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


class TorsLattice:
    """The lattice of torsion pairs of a brick relation.

    ``pairs`` is sorted by (popcount, value) of the torsion class mask, so
    index 0 is the empty class and the last index is the full class.  The
    lattice order is inclusion of torsion classes.
    """

    def __init__(
        self,
        relation: BrickRelation,
        pairs: tuple[TorsionPair, ...],
        lattice: FiniteLattice,
    ):
        self.relation = relation
        self.pairs = pairs
        self.lattice = lattice

    @cached_property
    def index_of_tset(self) -> dict[int, int]:
        return {p.tset: i for i, p in enumerate(self.pairs)}

    @cached_property
    def cover_labels(self) -> dict[CoverEdge, int]:
        """Cover-to-brick table; a labelling failure propagates, uncached."""
        return _cover_label_table(self)

    @cached_property
    def _ji_of_bricks(self) -> tuple[int, ...]:
        R = self.relation
        return tuple(self.index_of_tset[tors_closure(R, 1 << b)] for b in range(R.m))

    @cached_property
    def _mi_of_bricks(self) -> tuple[int, ...]:
        R = self.relation
        return tuple(self.index_of_tset[perp_left(R, 1 << b)] for b in range(R.m))

    @cached_property
    def _tclasses(self) -> tuple[int, ...]:
        """Per brick b, the bitset of the classes whose torsion class holds b."""
        return _transpose([p.tset for p in self.pairs], self.relation.m)

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
    left perps (plus the full class), not by scanning all subsets.  More
    than MAX_TORS_CLASSES of them raise TooManyClasses before the lattice
    is built.
    """
    principals = [perp_left(R, 1 << y) for y in range(R.m)]
    closed = _closed_sets(principals, R.full_mask, cap=MAX_TORS_CLASSES)
    if closed is None:
        raise TooManyClasses(
            f"{R.m} bricks have more than {MAX_TORS_CLASSES} torsion classes,"
            f" the most supported (MAX_TORS_CLASSES)"
        )
    return _tors_from_closed(R, closed)


def _closed_sets(principals: list[int], full: int, cap: int) -> set[int] | None:
    """The full set and all intersections of the principal left perps, or
    None if there are more than ``cap``.  The family only grows, and each
    principal at most doubles it, so no call builds more than 2 cap sets."""
    closed = {full}
    for p in principals:
        closed |= {s & p for s in closed}
        if len(closed) > cap:
            return None
    return closed


def _tors_from_closed(R: BrickRelation, closed: Iterable[int]) -> TorsLattice:
    """The lattice of the torsion classes, ordered by inclusion, from a
    family of brick sets certified to be exactly the torsion classes:
    (a) each member t is perp_left(perp_right(t)); (b) the empty set is a
    member; (c) for each member t and brick b outside it, perp_right(t) &
    ~row[b], which is perp_right(t + b), is perp_right of a member, so by
    (a) the closure cl(t + b) is a member.  By (a) the members are torsion
    classes.  If a member t lies strictly inside a torsion class S, then
    for b in S - t, cl(t + b) is a member inside S and larger than t, so
    induction on |S - t| reaches S from t.  From the empty member, every
    torsion class is a member: the members are all the closed sets of the
    Galois connection, and the intersection of two torsion (torsion-free)
    sets is a member's, their meet (join).  From any member t, inclusion
    is the order that the cl(t + b), each strictly above t, generate, and
    ``FinitePoset`` folds it from them.  InternalInconsistency names the
    first member failing (a) or (c).
    """
    masks = sorted(set(closed), key=lambda s: (s.bit_count(), s))
    pairs = tuple(TorsionPair(t, perp_right(R, t)) for t in masks)
    if 0 not in masks:
        raise InternalInconsistency("the empty set is not among the torsion classes")
    index = {f: i for i, (_, f) in enumerate(pairs)}
    gen = [0] * len(pairs)
    for i, (t, f) in enumerate(pairs):
        if perp_left(R, f) != t:
            raise InternalInconsistency(f"torsion class {i} is not the left perp of its own perp")
        for b in _bits(R.full_mask & ~t):
            j = index.get(f & ~R.row_masks[b])
            if j is None:
                raise InternalInconsistency(
                    f"torsion class {i} and brick {b} close outside the classes"
                )
            gen[i] |= 1 << j
    return TorsLattice(R, pairs, FiniteLattice(FinitePoset(gen)))


def _superset_classes(sets: list[int] | tuple[int, ...], m: int) -> tuple[int, ...]:
    """Per member i of a family of brick sets, the bitset of the members j
    holding it: the AND, over the bricks of member i, of the members
    holding that brick."""
    holding = _transpose(sets, m)
    every = (1 << len(sets)) - 1
    out = []
    for s in sets:
        acc = every
        for b in _bits(s):
            acc &= holding[b]
        out.append(acc)
    return tuple(out)


def _derived(R: BrickRelation, literal: bool):
    """(epi, mono, into) as per-brick bitsets: epi[x] the y with x epi y,
    mono[x] the y with x mono y, into[z] the y with y mono z."""
    m = R.m
    # y epi x, per x: the bricks whose rows hold row x
    epi_t = _superset_classes(R.row_masks, m)
    epi = _transpose(epi_t, m)
    # x mono y: every brick hitting x hits y (literal: y's targets inside
    # x's, i.e. y epi x)
    mono = epi_t if literal else _superset_classes(R.col_masks, m)
    return epi, mono, _transpose(mono, m)


def derived_epi(R: BrickRelation) -> tuple[int, ...]:
    """Per brick x, the bitset of the y with x epi y: every brick receiving
    an arrow from y also receives one from x."""
    return _derived(R, False)[0]


def derived_mono(R: BrickRelation, literal: bool = False) -> tuple[int, ...]:
    """Per brick x, the bitset of the y with x mono y: every brick with an
    arrow into x has one into y.

    With ``literal=True`` the containment is read on rows reversed instead
    (y's targets inside x's), which is not the intended dual and fails on
    standard examples; kept for regression tests only.
    """
    return _derived(R, literal)[1]


def factorizability_violation(
    R: BrickRelation, literal_mono: bool = False
) -> tuple | None:
    """First witness against factorizability, or None.

    Witness forms, scanned in lexicographic order:
      ("unfactorized-arrow", x, z): arrow x -> z with no y giving
          x epi y and y mono z;
      ("epi-cycle", x, y), ("mono-epi-cycle", x, y), ("mono-cycle", x, y):
          a nontrivial derived cycle forcing x = y.
    Every unfactored arrow comes before every cycle; at the first cycle
    pair the forms are tried in the order listed.
    """
    epi, mono, into = _derived(R, literal_mono)
    for x, row in enumerate(R.row_masks):
        for z in _bits(row):
            if not epi[x] & into[z]:
                return ("unfactorized-arrow", x, z)
    # y epi x, per x
    epi_t = _transpose(epi, R.m)
    for x in range(R.m):
        cycle = (epi[x] & epi_t[x] | mono[x] & (into[x] | epi_t[x])) & ~(1 << x)
        if cycle:
            y = (cycle & -cycle).bit_length() - 1
            if (epi[x] & epi_t[x]) >> y & 1:
                return ("epi-cycle", x, y)
            if (mono[x] & epi_t[x]) >> y & 1:
                return ("mono-epi-cycle", x, y)
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
    if not _is_cover(TL.lattice, c):
        raise ValueError(f"({c.lower}, {c.upper}) is not a cover")
    return _brick_label(TL, c, is_semidistributive(TL.lattice))


def _brick_label(TL: TorsLattice, c: CoverEdge, sd: bool) -> int:
    """cover_brick_label of a known cover; ``sd``: the lattice is
    semidistributive."""
    found = tuple(_bits(TL.tset(c.upper) & TL.fset(c.lower)))
    if not found:
        raise LabelMissing(c)
    if len(found) > 1:
        raise LabelNotUnique(c, found)
    brick = found[0]
    if sd and gamma_label(TL.lattice, c) != ji_of_brick(TL, brick):
        raise InternalInconsistency(
            f"cover {tuple(c)}: brick label {brick} disagrees with gamma label"
        )
    return brick


def _cover_label_table(TL: TorsLattice) -> dict[CoverEdge, int]:
    """cover_brick_label of every cover, in cover order, so the first
    failing cover raises just as cover_brick_label does."""
    sd = is_semidistributive(TL.lattice)
    return {c: _brick_label(TL, c, sd) for c in TL.lattice.poset.covers}


def ji_of_brick(TL: TorsLattice, b: int) -> int:
    """Index of the smallest torsion class containing brick b."""
    if not (0 <= b < TL.relation.m):
        raise ValueError(f"brick {b} out of range")
    return TL._ji_of_bricks[b]


def mi_of_brick(TL: TorsLattice, b: int) -> int:
    """Index of the largest torsion class whose torsion-free side has b.

    That class is the left perp of {b}, which is closed by construction.
    For factorizable relations it is meet-irreducible and b -> mi_of_brick
    is a bijection onto the meet-irreducibles, dual to ji_of_brick.
    """
    if not (0 <= b < TL.relation.m):
        raise ValueError(f"brick {b} out of range")
    return TL._mi_of_bricks[b]


def four_class_diagram(TL: TorsLattice, b: int) -> tuple[int, int, int, int]:
    """The four torsion classes attached to a brick.

    Returns (top, jiSide, miSide, bottom) where jiSide is the closure of
    {b}, miSide is the left perp of {b}, bottom is the unique lower cover
    of jiSide, and top is the unique upper cover of miSide.  The defining
    equalities jiSide v miSide = top and jiSide ^ miSide = bottom are
    verified on the torsion-free (torsion) sets' intersection.
    """
    L, index = TL.lattice, TL.index_of_tset
    ji_side = ji_of_brick(TL, b)
    mi_side = mi_of_brick(TL, b)
    bottom = j_star(L, ji_side)
    top = m_star(L, mi_side)
    if index[perp_left(TL.relation, TL.fset(ji_side) & TL.fset(mi_side))] != top:
        raise InternalInconsistency(
            f"brick {b}: jiSide v miSide is not the upper cover of miSide"
        )
    if index[TL.tset(ji_side) & TL.tset(mi_side)] != bottom:
        raise InternalInconsistency(
            f"brick {b}: jiSide ^ miSide is not the lower cover of jiSide"
        )
    return (top, ji_side, mi_side, bottom)


def tf_dual_check(TL: TorsLattice) -> bool:
    """The lattice order, folded from closure lookups, is torsion class
    inclusion, which reverses torsion-free inclusion: fset(j) lies in
    fset(i) iff the complement of fset(i) lies in that of fset(j), so
    both inclusions are superset-class tables of the class masks.
    """
    m, full = TL.relation.m, TL.relation.full_mask
    t_incl = _superset_classes([p.tset for p in TL.pairs], m)
    f_incl = _superset_classes([full & ~p.fset for p in TL.pairs], m)
    return t_incl == f_incl == TL.lattice.poset.up


def verify_tors_lattice(TL: TorsLattice) -> list[str]:
    """Run the whole invariant suite; return human-readable violations.

    Intended for factorizable relations, where the lattice must be
    semidistributive, every cover must carry a unique brick label, the
    brick-to-irreducible maps must be bijections, mu must factor as kappa
    after gamma, and the interval identities must hold on all comparable
    pairs.  The interval identities are checked one lower end at a time
    (see _interval_failures); problems come out pair by pair in row-major
    order, as the per-pair references in ``oracle`` would report them.
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
        TL.cover_labels  # labels every cover once, or raises
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
    for u, (gap, ji, label) in enumerate(_interval_failures(TL, labelled)):
        for v in _bits(gap | ji | label):
            if gap >> v & 1:
                problems.append(f"interval ({u}, {v}): gap/strictness equivalence fails")
            if ji >> v & 1:
                problems.append(f"interval ({u}, {v}): join-irreducible map fails")
            # a cover that failed labelling is reported once, above
            if label >> v & 1:
                problems.append(f"interval ({u}, {v}): label set mismatch")
    return problems


def _interval_failures(TL: TorsLattice, labelled: bool):
    """Per lower end u, the bitsets of the v >= u at which (u, v) fails
    oracle.gap_nonempty_check, oracle.interval_ji_check and (when
    labelled) the label-set identity, as a (gap, ji, label) triple.

    With D(u, v) the bricks of fset(u) & tset(v), so that b is in D(u, v)
    iff v holds b in its torsion class, and c(u, b) the index of
    closure(tset(u) | {b}):
      - the gap check compares u != v with D(u, v) being nonempty;
      - the interval join-irreducibles are the y <= v with exactly one
        lower cover above u, a set J(u) cut at v;
      - the map b -> c(u, b) on D(u, v) is a bijection onto them iff every
        image lies in J(u) and below v, no two bricks of D(u, v) share an
        image, and there are as many of them as bricks;
      - brick b labels a cover inside [u, v] iff v lies above the upper
        end of a cover labelled b whose lower end is above u (see
        ``_label_reach``); the label set must be D(u, v).
    Each row is O(comparable pairs of u + m) bitset operations.
    """
    L = TL.lattice
    up, down, upper = L.poset.up, L.poset.down, L.poset.upper_cover_sets
    R, index, holding = TL.relation, TL.index_of_tset, TL._tclasses
    reach = _label_reach(TL) if labelled else None
    closure_of: dict[int, int] = {}  # perp_right(tset(u) | {b}) -> c(u, b)
    for u in range(TL.n):
        uu, fu = up[u], TL.fset(u)
        hit = 0
        for b in _bits(fu):
            hit |= holding[b]
        gap = (~hit ^ (1 << u)) & uu
        once = twice = 0
        for x in _bits(uu):
            twice |= once & upper[x]
            once |= upper[x]
        single = once & ~twice
        right = perp_right(R, TL.tset(u))
        ji = 0
        shared: dict[int, int] = {}  # image -> v holding an earlier brick with it
        for b in _bits(fu):
            on = holding[b] & uu
            if not on:
                continue
            outside = right & ~R.row_masks[b]
            c = closure_of.get(outside)
            if c is None:
                c = closure_of[outside] = index[perp_left(R, outside)]
            ji |= on & ~up[c] if single >> c & 1 else on
            ji |= shared.get(c, 0) & on
            shared[c] = shared.get(c, 0) | on
        for v in _bits(uu & ~ji):
            if (single & down[v]).bit_count() != (fu & TL.tset(v)).bit_count():
                ji |= 1 << v
        label = 0
        if reach is not None:
            expected = {b: holding[b] for b in _bits(fu)}
            for b in expected.keys() | reach[u].keys():
                label |= reach[u].get(b, 0) ^ expected.get(b, 0)
        yield gap, ji, label & uu


def _label_reach(TL: TorsLattice) -> list[dict[int, int]]:
    """Per u, brick b -> the bitset of the v such that some cover x <| y
    labelled b has u <= x and y <= v.

    Those covers either start at u (v above an upper cover y of u) or lie
    above an upper cover of u, so each row is the union over u's upper
    covers, filled in order of up-set size, the top first.
    """
    L, labels = TL.lattice, TL.cover_labels
    up = L.poset.up
    reach: list[dict[int, int]] = [{} for _ in range(TL.n)]
    for u in sorted(range(TL.n), key=lambda x: up[x].bit_count()):
        acc = reach[u]
        for y in _bits(L.poset.upper_cover_sets[u]):
            for b, s in reach[y].items():
                acc[b] = acc.get(b, 0) | s
            b = labels[CoverEdge(u, y)]
            acc[b] = acc.get(b, 0) | up[y]
    return reach
