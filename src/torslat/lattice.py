"""Finite posets and lattices.

Elements are integers ``0..n-1``, and a set of elements is a Python int
used as a bitset: bit y is set iff y is in the set, so there is no width
limit.  A poset holds the up-set and the down-set of every element
(``up[x]`` has bit y iff x <= y), and a lattice is a poset in which
every pair has a join and a meet.  There is one join rule: a join is the
element whose up-set is the intersection of two up-sets, one lookup in
the poset's ``element_at`` index (a meet, of down-sets), and no join or
meet table is built here; only ``oracle.brute_try_lattice`` builds them.
Everything here is sized for exhaustive small-case work (up to a few
thousand elements), and no pass is cubic in the number of elements: the
covers come from the pass that folds the order, the irreducibles and
label table are single passes over the covers, on bitsets, and
``is_lattice_quotient`` checks a map on the pairs (element, irreducible).
Derived quantities (irreducibles, the label table, the element
invariants, semidistributivity witnesses) are computed once per
lattice and cached on it.  The irreducibles' cover counts are
cross-checked once per lattice against the definition read on up-sets
(down-sets); the invariant suite checks gamma against mu through kappa.
Semidistributivity is read off the label table: a lattice is join-
(meet-) semidistributive iff every cover has exactly one gamma (mu)
candidate.  Only a lattice that is not gets searched for its first
witness, by a meet fold per row of joins (see
``_semidistributivity_violation``).

The labelling machinery (``gamma_label``, ``mu_label``, ``kappa``,
``kappa_dual``) follows the standard theory of semidistributive lattices:
on a join-semidistributive lattice every cover ``x <| y`` determines a
unique join-irreducible ``j`` with ``x v j = y`` and ``x v j_* = x``, and
dually.  ``kappa`` sends a join-irreducible ``j`` to ``mu`` of the cover
``j_* <| j`` and is a bijection onto the meet-irreducibles whenever the
lattice is semidistributive.  One table, keyed by cover, holds every
cover's gamma and mu candidates; the single-cover functions and kappa
read it.  The kappa checks walk kappa, kappa_dual and the labels cover
by cover over it, so the first failing cover raises as one call would.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple


class AntisymmetryViolation(Exception):
    """Raised when a relation contains x <= y <= x for distinct x, y."""

    def __init__(self, x: int, y: int):
        self.pair = (x, y)
        super().__init__(f"antisymmetry violated: {x} <= {y} and {y} <= {x}")


class NotALattice(Exception):
    """Raised when a poset lacks a join or meet for some pair, or is empty:
    pair () lacks the join of no elements, a bottom."""

    def __init__(self, pair: tuple[int, ...], kind: str):
        self.pair = pair
        self.kind = kind
        super().__init__(
            f"no {kind} for elements {pair[0]} and {pair[1]}" if pair
            else "the empty order has no bottom and no top"
        )


class NotIrreducible(Exception):
    """Raised when an element is not (join/meet) irreducible as required."""


class NotSemidistributive(Exception):
    """Raised when an operation requires semidistributivity that fails."""

    def __init__(self, message: str, witness: tuple[int, int, int] | None = None):
        self.witness = witness
        super().__init__(message)


class InternalInconsistency(Exception):
    """Two characterizations that must agree did not; an implementation bug."""


class CoverEdge(NamedTuple):
    lower: int
    upper: int


def _bits(mask: int):
    """The members of a bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(masks: Iterable[int], n: int) -> tuple[int, ...]:
    """Bitsets of the transposed relation: bit x of entry y iff bit y of
    ``masks[x]``."""
    out = [0] * n
    for x, s in enumerate(masks):
        bit = 1 << x
        for y in _bits(s):
            out[y] |= bit
    return tuple(out)


class FinitePoset:
    """A finite poset on 0..n-1, held as the up-set and down-set bitsets
    of every element.

    ``FinitePoset(gen)`` takes per element x any bitset of elements above
    it (bit x ignored) that generates its strict up-set: its upper covers,
    its up-set or anything between.  One topological pass rejects a cycle
    with a ValueError and places each x after the elements of ``gen[x]``.
    Then ``above``, the union of their strict up-sets, gives x's upper
    covers ``gen[x] & ~above`` (a cover lies in ``gen[x]``, and what lies
    above a member of it is no cover) and ``up[x] = x | gen[x] | above``;
    down-sets are folded from the bottom along the lower covers.  Each OR
    is per bit of ``gen`` or per cover.  ``upper_cover_sets``
    (``lower_cover_sets``) holds per element the bitset of its upper
    (lower) covers, and ``covers`` the cover pairs (x, y), row-major.
    """

    def __init__(self, gen: Iterable[int]):
        strict = [g & ~(1 << x) for x, g in enumerate(gen)]
        n = len(strict)
        if any(g >> n for g in strict):
            raise ValueError(f"a bitset of elements above reaches past the {n} elements")
        # Kahn's pass from the top: x is placed after every member of gen[x]
        below, left = _transpose(strict, n), [g.bit_count() for g in strict]
        order = [x for x in range(n) if not left[x]]
        for y in order:
            for x in _bits(below[y]):
                left[x] -= 1
                if not left[x]:
                    order.append(x)
        if len(order) < n:
            raise ValueError("order relation must be acyclic")
        del below  # n bitsets of up to n bits, freed before the fold
        # strict[x] turns into up[x] in place, after the entries of gen[x]
        up, upper = strict, [0] * n
        for x in order:
            s, above = up[x], 0
            for y in _bits(s):
                above |= up[y] ^ 1 << y
            upper[x] = s & ~above
            up[x] = 1 << x | s | above
        lower = self.lower_cover_sets = _transpose(upper, n)
        down = [0] * n
        for y in reversed(order):
            down[y] = 1 << y
            for x in _bits(lower[y]):
                down[y] |= down[x]
        self.n = n
        self.up = tuple(up)
        self.down = tuple(down)
        self.upper_cover_sets = tuple(upper)
        self.covers = tuple(CoverEdge(x, y) for x, s in enumerate(upper) for y in _bits(s))

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    @cached_property
    def element_at(self) -> tuple[dict[int, int], dict[int, int]]:
        """The element with a given up-set (entry 0) or down-set (entry 1):
        the join of x and y is ``element_at[0][up[x] & up[y]]`` when the
        common upper bounds have a least member, and a meet is the dual."""
        return {u: x for x, u in enumerate(self.up)}, {d: x for x, d in enumerate(self.down)}


def poset_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> FinitePoset:
    """Build a poset from generating pairs x <= y, taking the closure; a
    cycle raises AntisymmetryViolation naming its first clash, row-major."""
    if n < 0:
        raise ValueError(f"element count must not be negative, got {n}")
    up = [1 << x for x in range(n)]
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"pair ({x}, {y}) out of range for n={n}")
        up[x] |= 1 << y
    # Warshall's closure, one row bitset OR per element reaching k
    for k in range(n):
        bit, uk = 1 << k, up[k]
        up = [u | uk if u & bit else u for u in up]
    for x, u in enumerate(up):
        for y in _bits(u & ~(1 << x)):
            if up[y] >> x & 1:
                raise AntisymmetryViolation(x, y)
    return FinitePoset(up)


class FiniteLattice:
    """A finite lattice: a poset in which every pair has a join and a meet
    (``try_lattice`` checks that).  ``join(L, x, y)`` and ``meet(L, x, y)``
    are lookups in the poset's ``element_at`` index; no table is kept.
    """

    def __init__(self, poset: FinitePoset):
        self.poset = poset

    @property
    def n(self) -> int:
        return self.poset.n

    def leq(self, x: int, y: int) -> bool:
        return self.poset.leq(x, y)

    @cached_property
    def _join_irreducibles(self) -> tuple[int, ...]:
        return _irreducibles(self, dual=False)

    @cached_property
    def _meet_irreducibles(self) -> tuple[int, ...]:
        return _irreducibles(self, dual=True)

    @cached_property
    def _jsd_witness(self) -> tuple[int, int, int] | None:
        return join_semidistributivity_violation(self)

    @cached_property
    def _msd_witness(self) -> tuple[int, int, int] | None:
        return meet_semidistributivity_violation(self)

    @cached_property
    def _labels(self) -> dict[CoverEdge, tuple[list[int], list[int]]]:
        return _label_table(self)

    @cached_property
    def _invariants(self) -> list[tuple[int, int, int, int]]:
        return _element_invariants(self)

    @cached_property
    def _invariant_key(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(sorted(self._invariants))


def _in_range(L: FiniteLattice, what: str, *xs: int) -> None:
    """Raise ValueError for an element outside 0..n-1 (a negative index
    would count from the end)."""
    for x in xs:
        if not 0 <= x < L.n:
            raise ValueError(f"{what} {x} out of range for {L.n} elements")


def join(L: FiniteLattice, x: int, y: int) -> int:
    """The join of x and y: the element whose up-set is up[x] & up[y]."""
    _in_range(L, "element", x, y)
    return _op(L.poset, x, y, dual=False)


def meet(L: FiniteLattice, x: int, y: int) -> int:
    """The meet of x and y: the element whose down-set is down[x] & down[y]."""
    _in_range(L, "element", x, y)
    return _op(L.poset, x, y, dual=True)


def _op(p: FinitePoset, x: int, y: int, dual: bool) -> int:
    """The join (dual: meet) of x and y, or NotALattice if there is none."""
    sets = p.down if dual else p.up
    z = p.element_at[dual].get(sets[x] & sets[y])
    if z is None:
        raise NotALattice((x, y), "meet" if dual else "join")
    return z


def _row(p: FinitePoset, x: int, dual: bool) -> list[int | None]:
    """The joins (dual: meets) of x with 0, 1, ..., n - 1, each looked up
    in ``p.element_at``; None where there is none."""
    sets = p.down if dual else p.up
    sx = sets[x]
    return list(map(p.element_at[dual].get, [sx & s for s in sets]))


def try_lattice(p: FinitePoset) -> FiniteLattice:
    """Check that every pair has a join and a meet; return the lattice.

    Raises NotALattice naming the first offending pair otherwise: pairs
    (x, y) with x <= y in lexicographic order, the join before the meet;
    the empty poset raises with the empty pair.

    The common upper bounds of x and y are up[x] & up[y], and their least
    element is the one with exactly that up-set, so x and y have a join iff
    that intersection is in ``p.element_at``; meets likewise on down-sets.
    Row x is looked up whole: a gap before column x would have been found
    in an earlier row.
    """
    if p.n == 0:
        raise NotALattice((), "join")
    for x in range(p.n):
        joins, meets = (_row(p, x, dual) + [None] for dual in (False, True))
        y = min(joins.index(None), meets.index(None))
        if y < p.n:
            raise NotALattice((x, y), "join" if joins[y] is None else "meet")
    return FiniteLattice(p)


def join_irreducibles(L: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one lower cover.

    Cross-checked against the definition (not a join of strictly smaller
    elements) when first computed for L; a mismatch would mean a bug in
    the cover sets or the order.
    """
    return L._join_irreducibles


def meet_irreducibles(L: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one upper cover, cross-checked like the above."""
    return L._meet_irreducibles


def _irreducibles(L: FiniteLattice, dual: bool) -> tuple[int, ...]:
    p = L.poset
    kind, covers = ("meet", p.upper_cover_sets) if dual else ("join", p.lower_cover_sets)
    by_cover = tuple(x for x, c in enumerate(covers) if c.bit_count() == 1)
    by_def = _irreducibles_by_definition(L, dual)
    if by_cover != by_def:
        raise InternalInconsistency(
            f"{kind}-irreducible characterizations disagree: {by_cover} vs {by_def}"
        )
    return by_cover


def _irreducibles_by_definition(L: FiniteLattice, dual: bool) -> tuple[int, ...]:
    """Elements that are not the join of the elements strictly below them
    (dual: meet, above), the bottom being their empty join.  A join's
    up-set is the intersection of those joined, so x is that join iff the
    up-sets of the elements strictly below x meet in up[x].
    """
    up, below = (L.poset.down, L.poset.up) if dual else (L.poset.up, L.poset.down)
    full = (1 << L.n) - 1
    out = []
    for x, s in enumerate(below):
        acc = full
        for y in _bits(s & ~(1 << x)):
            acc &= up[y]
        if acc != up[x]:
            out.append(x)
    return tuple(out)


def j_star(L: FiniteLattice, j: int) -> int:
    """The unique lower cover of a join-irreducible."""
    if j not in L._join_irreducibles:
        raise NotIrreducible(f"element {j} is not join-irreducible")
    return L.poset.lower_cover_sets[j].bit_length() - 1


def m_star(L: FiniteLattice, m: int) -> int:
    """The unique upper cover of a meet-irreducible."""
    if m not in L._meet_irreducibles:
        raise NotIrreducible(f"element {m} is not meet-irreducible")
    return L.poset.upper_cover_sets[m].bit_length() - 1


def join_semidistributivity_violation(
    L: FiniteLattice,
) -> tuple[int, int, int] | None:
    """First triple (x, y, z) with x v y = x v z but x v (y ^ z) != x v y.

    Read off the label table: L is join-semidistributive iff every cover
    x <| y has exactly one gamma candidate, and only otherwise are the
    triples searched, so that the first witness is named.  Why: the
    candidates of x <| y are the minimal elements of Z = {z : x v z = y}.
    A minimal z is join-irreducible (were z = a v b with a, b < z, then
    x v a = x v b = x, as x <| y) and x v z_* = x; a candidate j has no
    smaller member of Z, since any z < j lies below j_*, so x v z = x.
    So there is one candidate iff Z has a minimum, and
    join-semidistributivity gives those minima.  Conversely, let
    a v b = a v c = t but a v (b ^ c) < t.  Replace a by a v (b ^ c) and
    take such an a maximal; then a <| t, and the minimum z0 of Z(a, t)
    lies below b ^ c <= a, against a v z0 = t.

    On a hand-tampered table the search may find no triple; the result is
    then None, and reading a label reports the cover's candidate count.
    """
    if all(len(gamma) == 1 for gamma, _ in L._labels.values()):
        return None
    return _semidistributivity_violation(L, False)


def meet_semidistributivity_violation(
    L: FiniteLattice,
) -> tuple[int, int, int] | None:
    """First triple (x, y, z) with x ^ y = x ^ z but x ^ (y v z) != x ^ y.

    Read off the label table, dually: None iff every cover has exactly one
    mu candidate.
    """
    if all(len(mu) == 1 for _, mu in L._labels.values()):
        return None
    return _semidistributivity_violation(L, True)


def _semidistributivity_violation(L: FiniteLattice, dual: bool) -> tuple[int, int, int] | None:
    """First (x, y, z) in lexicographic order with x v y = x v z but
    x v (y ^ z) != x v y (dual: meets and joins swapped), in O(n^2)
    lookups, one row of joins x v z at a time.

    For each x, the class Z(x, t) = {z : x v z = t} is closed under
    pairwise meets iff the meet of all its members lies in it: the meet
    of two members lies above that of all of them and below each.  So one
    meet fold per class finds the first x with a violation, and only that
    row is scanned for its first (y, z).  Under a hand-tampered label
    table no row may be flagged; the result is then None.
    """
    p = L.poset
    for x in range(p.n):
        row = _row(p, x, dual)
        if None in row:
            raise NotALattice((x, row.index(None)), "meet" if dual else "join")
        least: dict[int, int] = {}
        members: dict[int, list[int]] = {}
        for z, t in enumerate(row):
            w = least.get(t)
            least[t] = z if w is None else _op(p, w, z, not dual)
            members.setdefault(t, []).append(z)
        if all(row[w] == t for t, w in least.items()):
            continue
        for y, t in enumerate(row):
            for z in members[t]:
                if row[_op(p, y, z, not dual)] != t:
                    return (x, y, z)
    return None


def is_join_semidistributive(L: FiniteLattice) -> bool:
    return L._jsd_witness is None


def is_meet_semidistributive(L: FiniteLattice) -> bool:
    return L._msd_witness is None


def is_semidistributive(L: FiniteLattice) -> bool:
    return is_join_semidistributive(L) and is_meet_semidistributive(L)


def gamma_label(L: FiniteLattice, c: CoverEdge) -> int:
    """The unique join-irreducible j with lower v j = upper, lower v j_* = lower.

    Requires join-semidistributivity; the cover then determines j uniquely.
    """
    return _cover_label(L, c, dual=False)


def mu_label(L: FiniteLattice, c: CoverEdge) -> int:
    """The unique meet-irreducible m with upper ^ m = lower, upper ^ m^* = upper."""
    return _cover_label(L, c, dual=True)


def _is_cover(L: FiniteLattice, c: CoverEdge) -> bool:
    """Whether c is a cover of L (False for ends out of range); no label is built."""
    x, y = c
    p = L.poset
    return 0 <= x < p.n and 0 <= y and bool(p.upper_cover_sets[x] >> y & 1)


def _cover_label(L: FiniteLattice, c: CoverEdge, dual: bool) -> int:
    x, y = c
    if not _is_cover(L, c):
        raise ValueError(f"({x}, {y}) is not a cover")
    kind, name, w = (
        ("meet", "mu", L._msd_witness) if dual else ("join", "gamma", L._jsd_witness)
    )
    if w is not None:
        raise NotSemidistributive(
            f"lattice is not {kind}-semidistributive, witness {w}", w
        )
    found = L._labels[c][dual]
    if len(found) != 1:
        raise InternalInconsistency(
            f"cover ({x}, {y}) has {len(found)} {name} labels; expected exactly 1"
        )
    return found[0]


def _label_table(L: FiniteLattice) -> dict[CoverEdge, tuple[list[int], list[int]]]:
    """Each cover's gamma and mu candidates, ascending, one pass over the covers.

    For x <| y the gamma candidates are the join-irreducibles j with
    x v j = y and x v j_* = x.  Because x < x v j <= y and x <| y,
    x v j = y exactly when j <= y and j is not <= x, so they are
    ``low[x] & down[y] & ~down[x]``, low[x] holding the j with j_* <= x.
    Dually the mu candidates, the m with y ^ m = x and y ^ m^* = y, are
    ``high[y] & up[x] & ~up[y]``, high[y] holding the m with y <= m^*.
    A label means something only where exactly one candidate qualifies.
    """
    p = L.poset
    ji, mi = set(join_irreducibles(L)), set(meet_irreducibles(L))
    low = _transpose([p.up[j_star(L, j)] if j in ji else 0 for j in range(p.n)], p.n)
    high = _transpose([p.down[m_star(L, m)] if m in mi else 0 for m in range(p.n)], p.n)
    return {
        c: (
            list(_bits(low[c.lower] & p.down[c.upper] & ~p.down[c.lower])),
            list(_bits(high[c.upper] & p.up[c.lower] & ~p.up[c.upper])),
        )
        for c in p.covers
    }


def kappa(L: FiniteLattice, j: int) -> int:
    """kappa(j) = mu of the cover j_* <| j; bijection ji -> mi when SD."""
    if not is_semidistributive(L):
        raise NotSemidistributive("kappa requires a semidistributive lattice")
    return mu_label(L, CoverEdge(j_star(L, j), j))


def kappa_dual(L: FiniteLattice, m: int) -> int:
    """kappa_dual(m) = gamma of the cover m <| m^*; inverse of kappa."""
    if not is_semidistributive(L):
        raise NotSemidistributive("kappa_dual requires a semidistributive lattice")
    return gamma_label(L, CoverEdge(m, m_star(L, m)))


def check_kappa_bijection(L: FiniteLattice) -> bool:
    """kappa is a bijection ji -> mi with kappa_dual as inverse."""
    jis = join_irreducibles(L)
    image = [kappa(L, j) for j in jis]
    if sorted(image) != sorted(meet_irreducibles(L)):
        return False
    return all(kappa_dual(L, m) == j for j, m in zip(jis, image))


def check_mu_eq_kappa_gamma(L: FiniteLattice) -> bool:
    """mu = kappa o gamma on every cover of a semidistributive lattice."""
    return all(mu_label(L, c) == kappa(L, gamma_label(L, c)) for c in L.poset.covers)


def are_isomorphic(L1: FiniteLattice, L2: FiniteLattice) -> bool:
    """Order isomorphism test by invariant-pruned backtracking, after the
    cached sorted invariants (which differ when the sizes do) agree."""
    if L1._invariant_key != L2._invariant_key:
        return False
    inv1, inv2 = L1._invariants, L2._invariants
    order = sorted(range(L1.n), key=lambda x: (inv1[x], x))
    buckets = {inv: [y for y in range(L2.n) if inv2[y] == inv] for inv in set(inv1)}
    up1, up2 = L1.poset.up, L2.poset.up
    mapping: dict[int, int] = {}
    used = [False] * L2.n

    def fits(x: int, y: int) -> bool:
        return not used[y] and all(
            (up1[u] >> x & 1) == (up2[v] >> y & 1)
            and (up1[x] >> u & 1) == (up2[y] >> v & 1)
            for u, v in mapping.items()
        )

    # Depth-first over order with an explicit stack of untried images, one
    # per mapped element: recursion would overflow at about 1,000 elements.
    tries = [iter(buckets[inv1[order[0]]])] if order else []
    while tries:
        x = order[len(tries) - 1]
        if x in mapping:
            used[mapping.pop(x)] = False
        y = next((y for y in tries[-1] if fits(x, y)), None)
        if y is None:
            tries.pop()
            continue
        mapping[x] = y
        used[y] = True
        if len(tries) == len(order):
            return True
        tries.append(iter(buckets[inv1[order[len(tries)]]]))
    return not order


def _element_invariants(L: FiniteLattice) -> list[tuple[int, int, int, int]]:
    p = L.poset
    return [
        (down.bit_count(), up.bit_count(), lower.bit_count(), upper.bit_count())
        for down, up, lower, upper in zip(p.down, p.up, p.lower_cover_sets, p.upper_cover_sets)
    ]


def is_lattice_quotient(
    f: Iterable[int], L1: FiniteLattice, L2: FiniteLattice
) -> bool:
    """Whether f: L1 -> L2 is surjective and preserves joins and meets.

    Checked on irreducible pairs: f(x v j) = f(x) v f(j) for every x and
    every join-irreducible j of L1, and dually f(x ^ m) = f(x) ^ f(m) for
    every meet-irreducible m.  That suffices: an element y other than the
    bottom is a join of join-irreducibles, so induction on their number
    gives f(x v y) = f(x) v f(y) for every x.  For y the bottom, the check
    at x = bottom puts f(bottom) below every f(j), so below every f(x),
    which is f(bottom) or a join of them.  Meets are the dual.  Each join
    or meet is one lookup in the poset's ``element_at`` index.
    """
    fm = list(f)
    if len(fm) != L1.n:
        raise ValueError(f"map has {len(fm)} entries for a {L1.n}-element lattice")
    if any(not (0 <= y < L2.n) for y in fm):
        raise ValueError("map image out of range")
    if set(fm) != set(range(L2.n)):
        return False
    p1, p2 = L1.poset, L2.poset
    for dual, irreducibles in ((False, join_irreducibles(L1)), (True, meet_irreducibles(L1))):
        sets1, sets2 = (p1.down, p2.down) if dual else (p1.up, p2.up)
        at1, at2 = p1.element_at[dual], p2.element_at[dual]
        images = [sets2[y] for y in fm]
        for j in irreducibles:
            sj, fj = sets1[j], images[j]
            if any(fm[at1[s & sj]] != at2[t & fj] for s, t in zip(sets1, images)):
                return False
    return True


def to_dot(
    L: FiniteLattice,
    node_labels: Iterable[str] | None = None,
    edge_labels: dict[CoverEdge, str] | None = None,
) -> str:
    """Deterministic DOT rendering of the Hasse diagram, edges upward."""
    names = (
        [str(x) for x in range(L.n)]
        if node_labels is None
        else [str(s) for s in node_labels]
    )
    if len(names) != L.n:
        raise ValueError(f"expected {L.n} node labels, got {len(names)}")
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for x in range(L.n):
        lines.append(f'  n{x} [label="{_dot_escape(names[x])}"];')
    for c in sorted(L.poset.covers):
        attr = ""
        if edge_labels is not None and c in edge_labels:
            attr = f' [label="{_dot_escape(edge_labels[c])}"]'
        lines.append(f"  n{c.lower} -> n{c.upper}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')
