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
One table function, ``_factorization_table``, computes epi, mono, the
unfactored arrows and the cycle pairs of N relations at once from their
(N, m) row masks; ``factorizable_batch`` (the sweep and the realization
search) and the single-relation ``factorizability_violation``,
``derived_epi`` and ``derived_mono`` all read it.  A single relation goes
in as object-dtype masks, so it may have any number of bricks.

The invariant suite ``verify_tors_lattice`` checks a whole lattice with a
few numpy passes over the class x brick membership matrices of the
torsion and torsion-free classes: the cover-to-brick table, the reversal
of torsion-free inclusion, and the interval identities of every
comparable pair at once, as n x n products (see ``_interval_failures``).
The per-pair functions ``gap_nonempty_check``, ``interval_ji_check`` and
``interval_label_set`` and the per-cover ``cover_brick_label`` state the
same identities one item at a time and are the reference the array suite
is tested against.  A relation may have at most MAX_TORS_CLASSES torsion
classes.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .lattice import (
    CoverEdge,
    FiniteLattice,
    FinitePoset,
    InternalInconsistency,
    NotIrreducible,
    _composes,
    _interval_endpoints,
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

# Torsion classes a lattice may have.  Join, meet and the invariant suite's
# scratch are n x n arrays, and try_lattice tests every row's up-sets for a
# least element, O(n^3) work: measured on a 2-core machine, building the
# 2,048 classes of 11 bricks without arrows takes about 17 s (16 s of it in
# try_lattice) and 170 MB, linear A7 (1,430 classes) about 6.5 s and
# 100 MB.  Linear A8 has 4,862.
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
    """A reflexive relation on a finite labelled set of bricks."""

    def __init__(self, labels: Iterable[str], arrow: np.ndarray):
        labels = tuple(str(s) for s in labels)
        arrow = np.ascontiguousarray(np.asarray(arrow, dtype=bool))
        m = len(labels)
        if arrow.shape != (m, m):
            raise ValueError(f"arrow must be {m}x{m}, got {arrow.shape}")
        if not arrow.diagonal().all():
            raise ValueError("relation must be reflexive")
        if len(set(labels)) != m:
            raise ValueError("brick labels must be distinct")
        arrow.setflags(write=False)
        self.labels = labels
        self.arrow = arrow

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """row_masks[x] = bitmask of {y : arrow[x, y]}."""
        return tuple(_masks(self.arrow))

    @cached_property
    def col_masks(self) -> tuple[int, ...]:
        """col_masks[y] = bitmask of {x : arrow[x, y]}."""
        return tuple(_masks(self.arrow.T))


def _membership(masks: list[int], m: int) -> np.ndarray:
    """(len(masks), m) bool matrix holding the bits of each mask, for any m."""
    width = max(1, -(-m // 8))
    raw = b"".join(s.to_bytes(width, "little") for s in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=m, bitorder="little").view(bool)


def _masks(rows: np.ndarray) -> list[int]:
    """The inverse of _membership: each row of a 2-d bool array as the int
    with bit j set iff the row is True in column j (0 if there are no
    columns).  One packed buffer is sliced; per-row tobytes is slower."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    raw, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[w * i : w * i + w], "little") for i in range(len(rows))]


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
    def _tsets(self) -> np.ndarray:
        """(classes, bricks) membership matrix of the torsion classes."""
        return _membership([p.tset for p in self.pairs], self.relation.m)

    @cached_property
    def _fsets(self) -> np.ndarray:
        """(classes, bricks) membership matrix of the torsion-free classes."""
        return _membership([p.fset for p in self.pairs], self.relation.m)

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
    than MAX_TORS_CLASSES of them raise TooManyClasses before any table
    is allocated.
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
    masks = sorted(set(closed), key=lambda s: (bin(s).count("1"), s))
    inside = _membership(masks, R.m)
    # class i lies in class j iff no brick of i is missing from j
    leq = ~_composes(inside, ~inside.T)
    lattice = try_lattice(FinitePoset(len(masks), leq))
    pairs = tuple(TorsionPair(t, perp_right(R, t)) for t in masks)
    for t, f in pairs:
        if t & f:
            raise InternalInconsistency(
                f"torsion class {t:b} meets its own perp {f:b}"
            )
    return TorsLattice(R, pairs, lattice)


def factorizable_batch(rows, literal_mono: bool = False) -> np.ndarray:
    """Factorizability of N relations at once, from their row masks.

    ``rows`` is an (N, m) integer array: in relation n, brick x has arrows
    to the bricks in ``rows[n, x]`` (diagonal included), so m is at most
    63.  Returns an (N,) bool array, entry n being
    ``factorizability_violation(...) is None`` for relation n.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n, m = rows.shape
    _, _, unfactored, cycle = _factorization_table(rows, literal_mono)
    return ~(cycle | unfactored).reshape(n, m * m).any(axis=1)


def _factorization_table(rows: np.ndarray, literal_mono: bool):
    """(N, m, m) bool arrays epi, mono, unfactored and cycle of N relations.

    ``rows`` holds the row masks, int64 or object.  unfactored[n, x, z] is
    an arrow x -> z with no y giving x epi y and y mono z; cycle[n, x, y]
    (x != y) is a nontrivial derived cycle: x epi y epi x, x mono y epi x
    or x mono y mono x.
    """
    m = rows.shape[1]
    bit = np.left_shift(1, np.arange(m, dtype=rows.dtype))
    arrow = (rows[:, :, None] & bit) != 0
    # epi[n, x, y]: every brick hit by y is hit by x
    epi = (rows[:, None, :] & ~rows[:, :, None]) == 0
    epi_t = epi.transpose(0, 2, 1)
    # mono[n, x, y]: every brick hitting x hits y; cols[n, y] are the
    # bricks hitting y.  The literal reading is row containment reversed.
    cols = bit @ arrow
    mono = epi_t if literal_mono else (cols[:, :, None] & ~cols[:, None, :]) == 0
    cycle = (epi & epi_t) | (mono & (mono.transpose(0, 2, 1) | epi_t))
    cycle &= ~np.eye(m, dtype=bool)
    # an arrow x -> z factors iff epi[x, y] and mono[y, z] for some y; the
    # boolean product is counted in float32, exact up to 2^24 bricks
    unfactored = arrow & (np.matmul(epi, mono, dtype=np.float32) == 0)
    return epi, mono, unfactored, cycle


def _relation_table(R: BrickRelation, literal_mono: bool):
    """_factorization_table of one relation, on object-dtype masks so that
    any number of bricks fits."""
    rows = np.array([R.row_masks], dtype=object)
    return [a[0] for a in _factorization_table(rows, literal_mono)]


def derived_epi(R: BrickRelation) -> np.ndarray:
    """epi[x, y]: every brick receiving an arrow from y also receives one from x."""
    return _relation_table(R, False)[0]


def derived_mono(R: BrickRelation, literal: bool = False) -> np.ndarray:
    """mono[x, y]: every brick with an arrow into x has one into y.

    With ``literal=True`` the containment is read on rows reversed instead
    (y's targets inside x's), which is not the intended dual and fails on
    standard examples; kept for regression tests only.
    """
    return _relation_table(R, literal)[1]


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
    epi, mono, unfactored, cycle = _relation_table(R, literal_mono)
    if unfactored.any():
        return ("unfactorized-arrow", *divmod(int(unfactored.argmax()), R.m))
    if not cycle.any():
        return None
    x, y = divmod(int(cycle.argmax()), R.m)
    if epi[x, y] and epi[y, x]:
        return ("epi-cycle", x, y)
    if mono[x, y] and epi[y, x]:
        return ("mono-epi-cycle", x, y)
    return ("mono-cycle", x, y)


def is_factorizable(R: BrickRelation, literal_mono: bool = False) -> bool:
    return factorizability_violation(R, literal_mono=literal_mono) is None


def cover_brick_label(TL: TorsLattice, c: CoverEdge) -> int:
    """The unique brick in tset(upper) & fset(lower).

    When the lattice is semidistributive this agrees with the gamma label
    under the brick-to-join-irreducible correspondence; a disagreement
    would be a bug, not bad input.
    """
    if c not in TL.lattice.poset.cover_index:
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


def _cover_label_table(TL: TorsLattice) -> dict[CoverEdge, int]:
    """cover_brick_label of every cover at once.

    Each cover x <| y reads its bricks off the membership rows tset(y) and
    fset(x); on a semidistributive lattice the brick's join-irreducible is
    compared with the cover's gamma label, from the lattice's table.  If
    any cover fails, the covers are labelled one by one, so the first
    failing cover raises just as cover_brick_label does.
    """
    L = TL.lattice
    covers = L.poset.covers
    lower, upper = L.poset.cover_array.T
    found = TL._tsets[upper] & TL._fsets[lower]
    ok = found.sum(axis=1) == 1
    bricks = found.argmax(axis=1) if found.size else np.zeros(len(covers), np.intp)
    if ok.all() and is_semidistributive(L):
        ji = np.array(TL._ji_of_bricks, dtype=np.intp)
        gamma, hits = L._gamma_table
        ok = (hits == 1) & (gamma == ji[bricks])
    if not ok.all():
        return {c: cover_brick_label(TL, c) for c in covers}
    return dict(zip(covers, bricks.tolist()))


def all_cover_labels(TL: TorsLattice) -> dict[CoverEdge, int]:
    return dict(TL.cover_labels)


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
    labels = TL.cover_labels
    return sum({1 << labels[c] for c in interval_covers(TL.lattice, u, v)})


def interval_ji_check(TL: TorsLattice, u: int, v: int) -> bool:
    """Bricks in fset(u) & tset(v) enumerate the interval's join-irreducibles.

    Each such brick b maps to closure(tset(u) | {b}); the map must be a
    bijection onto the join-irreducibles of the interval [u, v], the
    elements with exactly one lower cover inside it.
    """
    lower_count = Counter(c.upper for c in interval_covers(TL.lattice, u, v))
    sub_ji = {y for y, k in lower_count.items() if k == 1}
    domain = TL.fset(u) & TL.tset(v)
    image = []
    for b in _bits(domain):
        t = tors_closure(TL.relation, TL.tset(u) | (1 << b))
        image.append(TL.index_of_tset[t])
    return len(set(image)) == len(image) and set(image) == sub_ji


def gap_nonempty_check(TL: TorsLattice, u: int, v: int) -> bool:
    """For u <= v: the interval is proper iff some brick lies in fset(u) & tset(v)."""
    _interval_endpoints(TL.lattice, u, v)
    return (u != v) == bool(TL.fset(u) & TL.tset(v))


def tf_dual_check(TL: TorsLattice) -> bool:
    """Ordering by torsion class inclusion reverses torsion-free inclusion."""
    T, F = TL._tsets, TL._fsets
    t_incl = ~_composes(T, ~T.T)  # tset(i) within tset(j)
    f_incl = ~_composes(~F, F.T)  # fset(j) within fset(i)
    return bool((t_incl == f_incl).all())


def verify_tors_lattice(TL: TorsLattice) -> list[str]:
    """Run the whole invariant suite; return human-readable violations.

    Intended for factorizable relations, where the lattice must be
    semidistributive, every cover must carry a unique brick label, the
    brick-to-irreducible maps must be bijections, mu must factor as kappa
    after gamma, and the interval identities must hold on all comparable
    pairs.  The interval identities are checked for all pairs at once
    (see _interval_failures); problems come out pair by pair in row-major
    order, as gap_nonempty_check, interval_ji_check and interval_label_set
    would report them one pair at a time.
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
    gap, ji, label = _interval_failures(TL, labelled)
    for u, v in np.argwhere(L.leq & (gap | ji | label)).tolist():
        if gap[u, v]:
            problems.append(f"interval ({u}, {v}): gap/strictness equivalence fails")
        if ji[u, v]:
            problems.append(f"interval ({u}, {v}): join-irreducible map fails")
        # a cover that failed labelling is reported once, above
        if label[u, v]:
            problems.append(f"interval ({u}, {v}): label set mismatch")
    return problems


def _interval_failures(
    TL: TorsLattice, labelled: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n x n masks of the pairs (u, v) failing gap_nonempty_check,
    interval_ji_check and (when labelled) the label-set identity.

    Entries with u not below v are meaningless.  With D(u, v) the bricks of
    fset(u) & tset(v) and c(u, b) the index of closure(tset(u) | {b}):
      - the gap check compares u != v with |D(u, v)| > 0;
      - the interval join-irreducibles are the y <= v with exactly one
        lower cover above u; that count does not depend on v, so their
        number is one product;
      - the map b -> c(u, b) on D(u, v) is a bijection onto them iff no two
        bricks of D(u, v) share an image, every image is one of them, and
        there are as many as bricks;
      - brick b labels a cover inside [u, v] iff u lies below the lower
        end and v above the upper end of a cover labelled b, one product
        per brick; the label set must be D(u, v).
    Scratch is O(n^2 + n m^2) for n classes and m bricks.
    """
    L = TL.lattice
    leq, T, F = L.leq, TL._tsets, TL._fsets
    n, m = T.shape
    n_gap = np.matmul(F, T.T, dtype=np.float32)
    gap = (n_gap > 0) == np.eye(n, dtype=bool)
    above = np.matmul(leq, L.poset.cover_matrix, dtype=np.float32) == 1
    n_ji = np.matmul(above, leq, dtype=np.float32)
    image = _closure_table(TL)
    lands = F & above[np.arange(n)[:, None], image]
    n_landed = np.zeros((n, n), dtype=np.float32)
    for b in range(m):
        n_landed += lands[:, b, None] & T[:, b] & leq[image[:, b]]
    ji = (n_landed != n_gap) | (n_ji != n_gap)
    # bricks b < c of fset(u) with the same image, then the v holding both
    same = (image[:, :, None] == image[:, None, :]) & F[:, :, None] & F[:, None, :]
    same &= np.triu(np.ones((m, m), dtype=bool), 1)
    pairs = np.flatnonzero(same.any(axis=0))
    if pairs.size:
        b, c = np.unravel_index(pairs, (m, m))
        ji |= _composes(same.reshape(n, m * m)[:, pairs], (T[:, b] & T[:, c]).T)
    label = np.zeros((n, n), dtype=bool)
    if labelled:
        labels = TL.cover_labels
        lower, upper = L.poset.cover_array.T
        brick = np.array([labels[c] for c in L.poset.covers], dtype=np.intp)
        for b in set(range(m)) | set(brick.tolist()):
            on = brick == b
            inside = _composes(leq[:, lower[on]], leq[upper[on], :])
            expected = F[:, b, None] & T[:, b] if 0 <= b < m else False
            label |= inside != expected
    return gap, ji, label


def _closure_table(TL: TorsLattice) -> np.ndarray:
    """(n, m) table: the index of closure(tset(u) | {b}), by one O(n m^2)
    pass through the arrow matrix.  A closure missing from TL's classes
    raises KeyError, as TL.index_of_tset does."""
    arrow, T = TL.relation.arrow, TL._tsets
    n, m = T.shape
    # perp_right(tset(u) | {b}): hit neither from tset(u) nor from b
    right = ~_composes(T, arrow)[:, None, :] & ~arrow
    # its perp_left: the bricks with no arrow into it
    closure = ~_composes(right.reshape(n * m, m), arrow.T)
    index = TL.index_of_tset
    return np.array([index[s] for s in _masks(closure)], dtype=np.intp).reshape(n, m)
