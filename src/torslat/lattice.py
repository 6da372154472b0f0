"""Finite posets and lattices.

Elements are integers ``0..n-1``.  A poset is stored as a dense boolean
matrix ``leq`` with ``leq[x, y]`` meaning ``x <= y``; a lattice adds the
join and meet tables.  Everything here is sized for exhaustive small-case
work (up to a few thousand elements).  Derived quantities (covers,
irreducibles, the gamma and mu label of every cover, semidistributivity
witnesses) are computed once per lattice, each by a few whole-lattice
numpy passes, and cached on it.  The irreducibles are cross-checked once
per lattice against a second characterization, their cover counts
against a fold of the join (meet) table over all elements at once; the
invariant suite checks gamma against mu through kappa.
Semidistributivity is read off the label tables: a lattice is join-
(meet-) semidistributive iff every cover has exactly one gamma (mu)
candidate.  Only a lattice that is not gets searched, one element's row
of triples at a time, for its first witness; the table build also takes
one row at a time, so scratch space stays O(n^2).  Boolean matrix
products are counted in float32, which runs through BLAS.

The labelling machinery (``gamma_label``, ``mu_label``, ``kappa``,
``kappa_dual``) follows the standard theory of semidistributive lattices:
on a join-semidistributive lattice every cover ``x <| y`` determines a
unique join-irreducible ``j`` with ``x v j = y`` and ``x v j_* = x``, and
dually.  ``kappa`` sends a join-irreducible ``j`` to ``mu`` of the cover
``j_* <| j`` and is a bijection onto the meet-irreducibles whenever the
lattice is semidistributive.  gamma and mu of all covers come from one
(covers x irreducibles) test each; the single-cover functions and kappa
read those tables.  The kappa checks walk kappa, kappa_dual and the
labels cover by cover over the cached tables, so the first failing cover
raises just as a single call would.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np


class AntisymmetryViolation(Exception):
    """Raised when a relation contains x <= y <= x for distinct x, y."""

    def __init__(self, x: int, y: int):
        self.pair = (x, y)
        super().__init__(f"antisymmetry violated: {x} <= {y} and {y} <= {x}")


class NotALattice(Exception):
    """Raised when a poset lacks a join or meet for some pair."""

    def __init__(self, x: int, y: int, kind: str):
        self.pair = (x, y)
        self.kind = kind
        super().__init__(f"no {kind} for elements {x} and {y}")


class NotIrreducible(Exception):
    """Raised when an element is not (join/meet) irreducible as required."""


class NotSemidistributive(Exception):
    """Raised when an operation requires semidistributivity that fails."""

    def __init__(self, message: str, witness: tuple[int, int, int] | None = None):
        self.witness = witness
        super().__init__(message)


class NotComparable(Exception):
    """Raised when an interval endpoint pair is not comparable."""


class InternalInconsistency(Exception):
    """Two characterizations that must agree did not; an implementation bug."""


class CoverEdge(NamedTuple):
    lower: int
    upper: int


class FinitePoset:
    """A finite poset given by its full order relation."""

    def __init__(self, n: int, leq: np.ndarray):
        leq = np.ascontiguousarray(np.asarray(leq, dtype=bool))
        if leq.shape != (n, n):
            raise ValueError(f"leq must be {n}x{n}, got {leq.shape}")
        if not leq.diagonal().all():
            raise ValueError("order relation must be reflexive")
        clash = leq & leq.T & ~np.eye(n, dtype=bool)
        if clash.any():
            x, y = map(int, np.argwhere(clash)[0])
            raise AntisymmetryViolation(x, y)
        if (_composes(leq, leq) & ~leq).any():
            raise ValueError("order relation must be transitive")
        leq.setflags(write=False)
        self.n = n
        self.leq = leq

    @cached_property
    def cover_matrix(self) -> np.ndarray:
        """cover_matrix[x, y]: x < y with nothing strictly between."""
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        cov = strict & ~_composes(strict, strict)
        cov.setflags(write=False)
        return cov

    @cached_property
    def cover_array(self) -> np.ndarray:
        """The covers as a (covers, 2) array of (lower, upper), in order."""
        return np.argwhere(self.cover_matrix)

    @cached_property
    def covers(self) -> tuple[CoverEdge, ...]:
        """Cover pairs (x, y) with x < y and nothing strictly between."""
        return tuple(CoverEdge(x, y) for x, y in self.cover_array.tolist())

    @cached_property
    def cover_index(self) -> dict[CoverEdge, int]:
        """Position of each cover in ``covers``."""
        return {c: i for i, c in enumerate(self.covers)}


def _composes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product: some k has a[x, k] and b[k, y].

    Counted in float32, which goes through BLAS (a bool matmul does not)
    and is exact while the counts stay below 2^24.
    """
    return np.matmul(a, b, dtype=np.float32) > 0


def poset_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> FinitePoset:
    """Build a poset from generating pairs x <= y, taking the closure."""
    leq = np.eye(n, dtype=bool)
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"pair ({x}, {y}) out of range for n={n}")
        leq[x, y] = True
    while True:
        closed = leq | _composes(leq, leq)
        if (closed == leq).all():
            break
        leq = closed
    return FinitePoset(n, leq)


class FiniteLattice:
    """A finite lattice: a poset together with its join and meet tables."""

    def __init__(
        self,
        poset: FinitePoset,
        join: np.ndarray,
        meet: np.ndarray,
        bottom: int,
        top: int,
    ):
        self.poset = poset
        self.join = join
        self.meet = meet
        self.bottom = bottom
        self.top = top

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def leq(self) -> np.ndarray:
        return self.poset.leq

    @cached_property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        lc: list[list[int]] = [[] for _ in range(self.n)]
        for x, y in self.poset.covers:
            lc[y].append(x)
        return tuple(tuple(v) for v in lc)

    @cached_property
    def upper_covers(self) -> tuple[tuple[int, ...], ...]:
        uc: list[list[int]] = [[] for _ in range(self.n)]
        for x, y in self.poset.covers:
            uc[x].append(y)
        return tuple(tuple(v) for v in uc)

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
    def _gamma_table(self) -> tuple[np.ndarray, np.ndarray]:
        return _label_table(self, dual=False)

    @cached_property
    def _mu_table(self) -> tuple[np.ndarray, np.ndarray]:
        return _label_table(self, dual=True)


def try_lattice(p: FinitePoset) -> FiniteLattice:
    """Check that every pair has a join and a meet; return the tables.

    Raises NotALattice naming the first offending pair otherwise: pairs
    (x, y) with x <= y in lexicographic order, the join before the meet.

    The common upper bounds U of x and y form an up-set, so z is their
    least element iff z lies in U and |up(z)| == |U|; meets use down-sets
    dually.  Each x handles all y >= x at once.
    """
    n, leq = p.n, p.leq
    if n == 0:
        raise NotALattice(0, 0, "join")
    geq = np.ascontiguousarray(leq.T)
    up_size = leq.sum(axis=1)
    down_size = leq.sum(axis=0)
    join = np.zeros((n, n), dtype=np.intp)
    meet = np.zeros((n, n), dtype=np.intp)
    for x in range(n):
        has_join, j = _least_per_row(leq[x] & leq[x:], up_size)
        has_meet, m = _least_per_row(geq[x] & geq[x:], down_size)
        ok = has_join & has_meet
        if not ok.all():
            y = int(ok.argmin())
            raise NotALattice(x, x + y, "meet" if has_join[y] else "join")
        join[x, x:] = join[x:, x] = j
        meet[x, x:] = meet[x:, x] = m
    bottom = int(np.argwhere(leq.all(axis=1))[0][0])
    top = int(np.argwhere(leq.all(axis=0))[0][0])
    return FiniteLattice(p, join, meet, bottom, top)


def _least_per_row(sets: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row, an up-set (down-set) given as a mask: whether it has a
    least (greatest) element, and that element.  ``size[z]`` is the size of
    the up-set (down-set) generated by z."""
    least = sets & (size == sets.sum(axis=1, keepdims=True))
    return least.any(axis=1), least.argmax(axis=1)


def join_irreducibles(L: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one lower cover.

    Cross-checked against the definition (not a join of strictly smaller
    elements) when first computed for L; a mismatch would mean a bug in
    the cover or join tables.
    """
    return L._join_irreducibles


def meet_irreducibles(L: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one upper cover, cross-checked like the above."""
    return L._meet_irreducibles


def _irreducibles(L: FiniteLattice, dual: bool) -> tuple[int, ...]:
    kind, axis, skip = ("meet", 1, L.top) if dual else ("join", 0, L.bottom)
    one_cover = L.poset.cover_matrix.sum(axis=axis) == 1
    one_cover[skip] = False
    by_cover = tuple(np.flatnonzero(one_cover).tolist())
    by_def = _irreducibles_by_definition(L, dual)
    if by_cover != by_def:
        raise InternalInconsistency(
            f"{kind}-irreducible characterizations disagree: {by_cover} vs {by_def}"
        )
    return by_cover


def _irreducibles_by_definition(L: FiniteLattice, dual: bool) -> tuple[int, ...]:
    """Elements other than the bottom that are not the join of the elements
    strictly below them (dual: top, meet, above).

    All n joins are folded at once through the join table, pairwise: row x
    holds the elements strictly below x and the bottom (the empty join)
    elsewhere, and each pass joins neighbouring columns until one is left.
    """
    op, skip, below = (L.meet, L.top, L.leq) if dual else (L.join, L.bottom, L.leq.T)
    n = L.n
    strictly = below & ~np.eye(n, dtype=bool)
    acc = np.where(strictly, np.arange(n), skip)
    while acc.shape[1] > 1:
        if acc.shape[1] % 2:
            acc = np.column_stack([acc, np.full(n, skip)])
        acc = op[acc[:, 0::2], acc[:, 1::2]]
    folded = acc[:, 0]
    folded[skip] = skip
    return tuple(np.flatnonzero(folded != np.arange(n)).tolist())


def j_star(L: FiniteLattice, j: int) -> int:
    """The unique lower cover of a join-irreducible."""
    if j not in L._join_irreducibles:
        raise NotIrreducible(f"element {j} is not join-irreducible")
    return L.lower_covers[j][0]


def m_star(L: FiniteLattice, m: int) -> int:
    """The unique upper cover of a meet-irreducible."""
    if m not in L._meet_irreducibles:
        raise NotIrreducible(f"element {m} is not meet-irreducible")
    return L.upper_covers[m][0]


def join_semidistributivity_violation(
    L: FiniteLattice,
) -> tuple[int, int, int] | None:
    """First triple (x, y, z) with x v y = x v z but x v (y ^ z) != x v y.

    Read off the gamma table: L is join-semidistributive iff every cover
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
    if (L._gamma_table[1] == 1).all():
        return None
    return _semidistributivity_violation(L.join, L.meet)


def meet_semidistributivity_violation(
    L: FiniteLattice,
) -> tuple[int, int, int] | None:
    """First triple (x, y, z) with x ^ y = x ^ z but x ^ (y v z) != x ^ y.

    Read off the mu table, dually: None iff every cover has exactly one
    mu candidate.
    """
    if (L._mu_table[1] == 1).all():
        return None
    return _semidistributivity_violation(L.meet, L.join)


def _semidistributivity_violation(
    op: np.ndarray, dual: np.ndarray
) -> tuple[int, int, int] | None:
    """First (x, y, z) in lexicographic order with op[x, y] == op[x, z] but
    op[x, dual[y, z]] != op[x, y], testing all (y, z) of one x at once."""
    n = op.shape[0]
    for x in range(n):
        row = op[x]
        bad = (row[:, None] == row) & (row[dual] != row[:, None])
        if bad.any():
            return (x, *divmod(int(bad.argmax()), n))
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


def _cover_label(L: FiniteLattice, c: CoverEdge, dual: bool) -> int:
    x, y = c
    i = L.poset.cover_index.get(c)
    if i is None:
        raise ValueError(f"({x}, {y}) is not a cover")
    kind, name, w = (
        ("meet", "mu", L._msd_witness) if dual else ("join", "gamma", L._jsd_witness)
    )
    if w is not None:
        raise NotSemidistributive(
            f"lattice is not {kind}-semidistributive, witness {w}", w
        )
    labels, hits = L._mu_table if dual else L._gamma_table
    if hits[i] != 1:
        raise InternalInconsistency(
            f"cover ({x}, {y}) has {hits[i]} {name} labels; expected exactly 1"
        )
    return int(labels[i])


def _label_table(L: FiniteLattice, dual: bool) -> tuple[np.ndarray, np.ndarray]:
    """gamma (dual: mu) of every cover at once, and how many irreducibles
    qualify for each, as one (covers x irreducibles) test.

    For x <| y the candidates are the join-irreducibles j with x v j = y
    and x v j_* = x (dual: the meet-irreducibles m with y ^ m = x and
    y ^ m^* = y).  A label is meaningful only where exactly one qualifies.
    """
    lower, upper = L.poset.cover_array.T
    if dual:
        irr, op, near, far = meet_irreducibles(L), L.meet, upper, lower
        star = [L.upper_covers[k][0] for k in irr]
    else:
        irr, op, near, far = join_irreducibles(L), L.join, lower, upper
        star = [L.lower_covers[k][0] for k in irr]
    irr, star = np.array(irr, dtype=np.intp), np.array(star, dtype=np.intp)
    near = near[:, None]
    ok = (op[near, irr] == far[:, None]) & (op[near, star] == near)
    hits = ok.sum(axis=1)
    labels = irr[ok.argmax(axis=1)] if irr.size else np.zeros(len(hits), np.intp)
    return labels, hits


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


def _interval_endpoints(L: FiniteLattice, u: int, v: int) -> None:
    """Raise ValueError for an endpoint outside 0..n-1 (a negative index
    would count from the end), then NotComparable unless u <= v."""
    for e in (u, v):
        if not 0 <= e < L.n:
            raise ValueError(f"interval endpoint {e} out of range for {L.n} elements")
    if not L.leq[u, v]:
        raise NotComparable(f"{u} is not below {v}")


def interval_sublattice(
    L: FiniteLattice, u: int, v: int
) -> tuple[FiniteLattice, tuple[int, ...]]:
    """The interval [u, v] as a lattice plus its elements in L's indexing."""
    _interval_endpoints(L, u, v)
    members = tuple(
        int(x) for x in np.flatnonzero(L.leq[u] & L.leq[:, v])
    )
    sub = FinitePoset(len(members), L.leq[np.ix_(members, members)])
    return try_lattice(sub), members


def interval_covers(L: FiniteLattice, u: int, v: int) -> tuple[CoverEdge, ...]:
    """The covers x <| y of L with u <= x and y <= v, upper cover ascending.

    An interval is convex, so these are exactly the covers of the lattice
    [u, v]; its join-irreducibles are the y with one lower cover here.
    """
    _interval_endpoints(L, u, v)
    return tuple(
        CoverEdge(x, int(y))
        for y in np.flatnonzero(L.leq[u] & L.leq[:, v])
        for x in L.lower_covers[y]
        if L.leq[u, x]
    )


def are_isomorphic(L1: FiniteLattice, L2: FiniteLattice) -> bool:
    """Order isomorphism test by invariant-pruned backtracking."""
    if L1.n != L2.n:
        return False
    inv1 = _element_invariants(L1)
    inv2 = _element_invariants(L2)
    if sorted(inv1) != sorted(inv2):
        return False
    order = sorted(range(L1.n), key=lambda x: (inv1[x], x))
    buckets = {inv: [y for y in range(L2.n) if inv2[y] == inv] for inv in set(inv1)}
    leq1, leq2 = L1.leq.tolist(), L2.leq.tolist()
    mapping: dict[int, int] = {}
    used = [False] * L2.n

    def fits(x: int, y: int) -> bool:
        return not used[y] and all(
            leq1[u][x] == leq2[v][y] and leq1[x][u] == leq2[y][v]
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
    down = L.leq.sum(axis=0)
    up = L.leq.sum(axis=1)
    return [
        (
            int(down[x]),
            int(up[x]),
            len(L.lower_covers[x]),
            len(L.upper_covers[x]),
        )
        for x in range(L.n)
    ]


def is_lattice_quotient(
    f: Iterable[int], L1: FiniteLattice, L2: FiniteLattice
) -> bool:
    """Whether f: L1 -> L2 is surjective and preserves joins and meets.

    For finite lattices, preserving binary joins and meets gives
    preservation of all joins and meets.
    """
    fmap = list(f)
    if len(fmap) != L1.n:
        raise ValueError(f"map has {len(fmap)} entries for a {L1.n}-element lattice")
    if any(not (0 <= y < L2.n) for y in fmap):
        raise ValueError("map image out of range")
    if set(fmap) != set(range(L2.n)):
        return False
    fm = np.array(fmap, dtype=np.intp)
    x, y = np.triu_indices(L1.n)
    return all(
        (fm[op1[x, y]] == op2[fm[x], fm[y]]).all()
        for op1, op2 in ((L1.join, L2.join), (L1.meet, L2.meet))
    )


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
