"""Brute-force verifiers and exhaustive searches.

Everything here re-derives results of the main modules by a slower,
independent route: torsion pairs by scanning all subsets instead of
generating the closure system, torsion classes by the module-category
closure axioms instead of perp calculus, the interval identities and a
quotient's fibers one comparable pair at a time (``interval_covers``,
``interval_sublattice``, ``gap_nonempty_check``, ``interval_ji_check``,
``interval_label_set``, ``fiber_check``) instead of one lower end at a
time, and semidistributivity plus the labelling identities over every
reflexive relation of a given size.
A census of all small lattices up to isomorphism feeds the realization
search: every semidistributive lattice should be the torsion lattice of
some factorizable relation, and lattices like M3 should be reachable
only once the factorizability filter is dropped.

The sweep and the realization search take their candidates from the
bit-sliced kernels of ``kernels``, in blocks of at most kernels.BLOCK
candidates in canonical order.  The sweep then runs the invariant suite
once per relabelling orbit of the factorizable relations, in one process.
"""

from __future__ import annotations

import time
from collections import Counter

from .bridge import QuotientMap
from .galois import (
    BrickRelation,
    TorsLattice,
    _closed_sets,
    _tors_from_closed,
    all_torsion_pairs,
    perp_left,
    perp_right,
    tors_closure,
    verify_tors_lattice,
)
from .kernels import candidate_blocks, factorizable_orbits, rows_of
from .lattice import (
    CoverEdge,
    FiniteLattice,
    FinitePoset,
    InternalInconsistency,
    NotALattice,
    _bits,
    _in_range,
    _transpose,
    are_isomorphic,
    is_semidistributive,
    join_irreducibles,
    meet_irreducibles,
    try_lattice,
)
from .quiver import (
    QuiverPresentation,
    bricks,
    exists_surjection,
    hom_relation,
    indecomposables,
    submodules,
    summands,
)


# Caps of the exhaustive searches: a sweep to m bricks decodes all
# 2^(m(m-1)) relations of size m (2^20 at 5, 2^30 at 6), and the census
# enumerates every naturally labelled poset up to the element count.  Each
# search also stops after TIME_LIMIT seconds, read when the search starts.
MAX_SWEEP_BRICKS = 5
MAX_CENSUS_ELEMENTS = 7
TIME_LIMIT = 600.0


class BudgetExceeded(Exception):
    """A search exceeded its size cap or TIME_LIMIT."""


class NotComparable(Exception):
    """Raised when an interval endpoint pair is not comparable."""


def _deadline(size: int) -> float:
    """The deadline of a search up to ``size``, which must be positive."""
    if size < 1:
        raise ValueError(f"search size must be positive, got {size}")
    return time.monotonic() + TIME_LIMIT


def brute_torsion_pairs(R: BrickRelation) -> TorsLattice:
    """All torsion pairs by scanning every subset for perp-closedness."""
    if R.m > 20:
        raise BudgetExceeded(f"{R.m} bricks is past the 2^20 subset-scan cap")
    closed = [
        s for s in range(1 << R.m) if perp_left(R, perp_right(R, s)) == s
    ]
    return _tors_from_closed(R, closed)


def same_tors(a: TorsLattice, b: TorsLattice) -> bool:
    """Exact agreement: same pairs in the same order, same order relation."""
    return a.pairs == b.pairs and a.lattice.poset.up == b.lattice.poset.up


def brute_try_lattice(p: FinitePoset) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The (join, meet) tables of a lattice by scanning bound sets, or the
    NotALattice try_lattice raises, for the same first failure.

    For each pair x <= y in lexicographic order, the common upper bounds
    are scanned for one below all the others, then the common lower
    bounds for one above all the others.
    """
    n, up, down = p.n, p.up, p.down
    if n == 0:
        raise NotALattice((), "join")
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            j = _least_member(up, up[x] & up[y])
            if j is None:
                raise NotALattice((x, y), "join")
            m = _least_member(down, down[x] & down[y])
            if m is None:
                raise NotALattice((x, y), "meet")
            join[x][y] = join[y][x] = j
            meet[x][y] = meet[y][x] = m
    return tuple(map(tuple, join)), tuple(map(tuple, meet))


def _least_member(up: tuple[int, ...], members: int) -> int | None:
    """The member whose up-set (given as ``up``) holds all the others."""
    for z in _bits(members):
        if not members & ~up[z]:
            return z
    return None


def brute_semidistributivity_violation(
    L: FiniteLattice, meet: bool = False
) -> tuple[int, int, int] | None:
    """First triple (x, y, z) against join- (meet=True: meet-)
    semidistributivity, by the plain triple loop over all elements, on
    the tables of brute_try_lattice."""
    tables = brute_try_lattice(L.poset)
    op, dual = reversed(tables) if meet else tables
    for x in range(L.n):
        row = op[x]
        for y in range(L.n):
            t, dy = row[y], dual[y]
            for z in range(L.n):
                if row[z] == t and row[dy[z]] != t:
                    return (x, y, z)
    return None


def _interval_endpoints(L: FiniteLattice, u: int, v: int) -> int:
    """Raise ValueError for an endpoint outside 0..n-1, then NotComparable
    unless u <= v; return the interval [u, v] as a bitset."""
    _in_range(L, "interval endpoint", u, v)
    if not L.leq(u, v):
        raise NotComparable(f"{u} is not below {v}")
    return L.poset.up[u] & L.poset.down[v]


def interval_sublattice(
    L: FiniteLattice, u: int, v: int
) -> tuple[FiniteLattice, tuple[int, ...]]:
    """The interval [u, v] as a lattice plus its elements in L's indexing."""
    span = _interval_endpoints(L, u, v)
    members = tuple(_bits(span))
    pos = {a: i for i, a in enumerate(members)}
    up = [sum(1 << pos[b] for b in _bits(L.poset.up[a] & span)) for a in members]
    return try_lattice(FinitePoset(up)), members


def interval_covers(L: FiniteLattice, u: int, v: int) -> tuple[CoverEdge, ...]:
    """The covers x <| y of L with u <= x and y <= v, upper cover ascending.

    An interval is convex, so these are exactly the covers of the lattice
    [u, v]; its join-irreducibles are the y with one lower cover here.
    """
    span = _interval_endpoints(L, u, v)
    lower = L.poset.lower_cover_sets
    return tuple(CoverEdge(x, y) for y in _bits(span) for x in _bits(lower[y] & span))


def interval_label_set(TL: TorsLattice, u: int, v: int) -> int:
    """Bitmask of bricks labelling covers inside the interval [u, v];
    raises if any cover of the lattice, inside [u, v] or not, has no label."""
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


def fiber_check(qm: QuotientMap, u: int, v: int) -> bool:
    """For source classes u <= v, whether the three collapse criteria agree:
    (i) u and v map to the same quotient class; (ii) every brick in
    fset(u) & tset(v) is killed; (iii) every cover between u and v has a
    killed label brick."""
    TL = qm.source
    labels = interval_label_set(TL, u, v)
    alive = sum(1 << b for b, t in enumerate(qm.brick_map) if t is not None)
    same_image = qm.element_map[u] == qm.element_map[v]
    return same_image == (not TL.fset(u) & TL.tset(v) & alive) == (not labels & alive)


def subset_is_torsion_closed(Q: QuiverPresentation, mask: int) -> bool:
    """Closure axioms for a set of indecomposables, checked module-wise.

    (a) quotient-closed: summands of every quotient of every member stay
    inside; (b) extension-closed: an indecomposable with a submodule and
    corresponding quotient whose summands all lie inside is itself inside.
    """
    return _axiom_closure(_closure_tables(Q), mask) == mask


def _closure_tables(Q: QuiverPresentation) -> list[tuple[int, int]]:
    """The axioms as Horn rules (premise, conclusion) over masks of the
    indecomposables: per E, each distinct summand set of a submodule and
    its quotient (an extension's parts; {E} for the zero submodule) puts
    in E and the summands of all quotients of E."""
    ind = indecomposables(Q)
    index = {M: i for i, M in enumerate(ind)}

    def mask_of(vertices) -> int:
        return sum(1 << index[S] for S in summands(vertices))

    rules = []
    for i, E in enumerate(ind):
        supp = set(E.vertices)
        quots, parts = 0, set()
        for sub in submodules(Q, E):
            q = mask_of(supp - set(sub))
            quots |= q
            parts.add(mask_of(sub) | q)
        rules += [(p, 1 << i | quots) for p in parts]
    return rules


def _axiom_closure(rules: list[tuple[int, int]], mask: int) -> int:
    """The smallest axiom-closed set of indecomposables holding ``mask``:
    passes fire every rule whose premise lies in the set until one adds
    nothing.  A set satisfies the axioms iff it is its own closure."""
    while True:
        before = mask
        for premise, conclusion in rules:
            if premise & ~mask == 0:
                mask |= conclusion
        if mask == before:
            return mask


def closure_axiom_check(Q: QuiverPresentation, TL: TorsLattice) -> bool:
    """The perp-generated torsion classes are the closure-axiom ones.

    The axioms are Horn rules (these members in, so that one in), so the
    sets satisfying them are closed under intersection and every set has a
    closure (``_axiom_closure``).  Each enumerated class must be its own
    closure, and the closure of the empty set and of each class plus one
    indecomposable must be enumerated.  That reaches every axiom-closed S:
    closure(0) lies in S, and for a class C inside S and E in S but not C,
    closure(C + E) is a larger class still inside S.  A step that is a class
    passed the first test, so only the others are closed, each once: with
    n classes and k indecomposables at most n (k + 1) + 1 closures, not 2^k.
    """
    ind = indecomposables(Q)
    if TL.relation.labels != tuple(M.label(Q.n) for M in ind):
        raise InternalInconsistency(
            "torsion lattice bricks do not match the algebra's indecomposables"
        )
    rules = _closure_tables(Q)
    k = len(ind)
    enumerated = {p.tset for p in TL.pairs}
    if any(s >> k or _axiom_closure(rules, s) != s for s in enumerated):
        return False
    steps = {0} | {s | 1 << i for s in enumerated for i in range(k) if not s >> i & 1}
    return all(_axiom_closure(rules, s) in enumerated for s in steps - enumerated)


def _relation_of_rows(rows: tuple[int, ...]) -> BrickRelation:
    return BrickRelation([f"b{i}" for i in range(len(rows))], rows)


def _abstract_dichotomy_holds(R: BrickRelation) -> bool:
    """Within each brick's closure, arrows into the brick are derived epis:
    x epi b iff every brick hit by b is hit by x."""
    rows = R.row_masks
    for b in range(R.m):
        closure = tors_closure(R, 1 << b)
        for x in range(R.m):
            if closure >> x & 1 and rows[x] >> b & 1 and rows[b] & ~rows[x]:
                return False
    return True


def sweep_factorizable(max_size: int, literal_mono: bool = False) -> dict:
    """Check the labelling theory over every reflexive relation, per size.

    For each m up to max_size, all 2^(m(m-1)) relations are decoded;
    the factorizable ones must pass the full torsion-lattice invariant
    suite.  Factorizability, the suite's verdict and the dichotomy are
    invariant under relabelling the bricks, so the suite and the dichotomy
    run once per orbit, on its smallest-mask member; the members of an
    orbit whose representative fails are verified one by one.  The report
    holds per-size counts, all violations (expected none) in mask order,
    an informational count of relations where an arrow into a brick from
    inside its closure fails to be a derived epi, the orbits verified per
    size and the runtime.
    """
    deadline = _deadline(max_size)
    if max_size > MAX_SWEEP_BRICKS:
        raise BudgetExceeded(f"sweeps are capped at {MAX_SWEEP_BRICKS} bricks")
    t0 = time.monotonic()
    per_m: dict[str, dict] = {}
    orbits: dict[str, int] = {}
    violations: list[dict] = []
    dichotomy_failures = 0
    for m in range(1, max_size + 1):
        if time.monotonic() > deadline:
            raise BudgetExceeded(f"sweep ran past its time limit before m={m}")
        by_orbit = factorizable_orbits(m, literal_mono)
        firsts = rows_of([members[0] for members in by_orbit.values()], m)
        failing = []
        for members, rows in zip(by_orbit.values(), firsts):
            R = _relation_of_rows(rows)
            if not _abstract_dichotomy_holds(R):
                dichotomy_failures += len(members)
            if verify_tors_lattice(all_torsion_pairs(R)):
                failing.extend(members)
        failing.sort()
        for mask, rows in zip(failing, rows_of(failing, m)):
            problems = verify_tors_lattice(all_torsion_pairs(_relation_of_rows(rows)))
            if problems:
                violations.append({"m": m, "mask": mask, "problems": problems})
        per_m[str(m)] = {
            "relations": 1 << (m * (m - 1)),
            "factorizable": sum(map(len, by_orbit.values())),
        }
        orbits[str(m)] = len(by_orbit)
    return {
        "max_brick_set_size": max_size,
        "literal_mono": literal_mono,
        "per_m": per_m,
        "violations": violations,
        "abstract_dichotomy_failures": dichotomy_failures,
        "orbits": orbits,
        "runtime_seconds": round(time.monotonic() - t0, 3),
    }


def lattice_census(max_size: int) -> list[FiniteLattice]:
    """All lattices with at most max_size elements, up to isomorphism.

    Enumerates naturally labeled posets with a forced bottom 0 and top
    n-1 (every lattice is labeled that way by any linear extension),
    keeps the ones where joins and meets exist, and dedups by
    backtracking isomorphism inside invariant buckets.
    """
    deadline = _deadline(max_size)
    if max_size > MAX_CENSUS_ELEMENTS:
        raise BudgetExceeded(f"census is capped at {MAX_CENSUS_ELEMENTS} elements")
    out: list[FiniteLattice] = []
    kept: dict[tuple, list[FiniteLattice]] = {}  # by invariant key
    for n in range(1, max_size + 1):
        for downs in _natural_posets(n, deadline):
            try:
                L = try_lattice(FinitePoset(_transpose(downs, n)))
            except NotALattice:
                continue
            bucket = kept.setdefault(L._invariant_key, [])
            if not any(are_isomorphic(L, other) for other in bucket):
                bucket.append(L)
                out.append(L)
    return out


def _natural_posets(n: int, deadline: float, downs: tuple[int, ...] = ()):
    """Each naturally labelled poset on 0..n-1 with bottom 0 and top n-1, as
    the tuple of its elements' strict down-set masks.  Element 0 < j < n-1
    takes, ascending, each odd s < 2^j (s holds the bottom) that holds the
    down-set of each of its members; the last element is the top."""
    if time.monotonic() > deadline:
        raise BudgetExceeded("census ran past its time limit")
    j = len(downs)
    if j == n - 1:
        yield downs + ((1 << j) - 1,)
        return
    for s in range(1, 1 << j, 2) if j else [0]:
        if all(d & ~s == 0 for i, d in enumerate(downs) if s >> i & 1):
            yield from _natural_posets(n, deadline, downs + (s,))


def realize_sd_lattice(
    L: FiniteLattice, max_bricks: int, factorizable_only: bool = True
) -> BrickRelation | None:
    """Search for a brick relation whose torsion lattice is isomorphic to L.

    With the factorizability filter on, a semidistributive L is searched
    on exactly #join-irreducibles bricks (the κ bijection forces that
    count) and a non-semidistributive L is swept over every size up to
    max_bricks to certify absence.  Without the filter, all relations are
    tried.  Sizes below max(#ji, #mi) are skipped in either mode: every
    torsion class is both a join of brick closures and an intersection of
    principal perps, so fewer bricks cannot produce enough irreducibles.

    Enumeration order is canonical: rows are bitmasks chosen in ascending
    order with earlier rows more significant, so the first hit is stable.
    Candidates are tested in bit-sliced blocks of at most kernels.BLOCK,
    in that order, with the deadline checked once per block; a
    BudgetExceeded names the brick count and how many candidates of that
    size came before.
    Relabelling the bricks changes neither the filters nor the lattice's
    isomorphism type, so the first hit is least in its relabelling orbit,
    where row 0 is 2^d - 1 for d the fewest bits in a row; candidates
    breaking that rule are skipped, and first hits and absences are those
    of the full scan.  With the filter on, only tuples that
    kernels.factorizable_lanes accepts reach the closure count and the
    isomorphism test.
    """
    deadline = _deadline(max_bricks)
    n_ji = len(join_irreducibles(L))
    n_mi = len(meet_irreducibles(L))
    lower = max(n_ji, n_mi)
    if factorizable_only and is_semidistributive(L):
        if n_ji > max_bricks:
            raise BudgetExceeded(f"{n_ji} join-irreducibles exceed the {max_bricks}-brick budget")
        sizes = [n_ji]
    else:
        sizes = range(lower, max_bricks + 1)
    for m in sizes:
        hit = _search_relations(L, m, factorizable_only, deadline)
        if hit is not None:
            return hit
    return None


def _search_relations(
    L: FiniteLattice, m: int, factorizable_only: bool, deadline: float
) -> BrickRelation | None:
    """The first m-brick candidate, in the order realize_sd_lattice
    states, that realizes L; the candidates come from
    kernels.candidate_blocks, and the deadline is checked once per block."""
    for lo, candidates in candidate_blocks(m, factorizable_only):
        if time.monotonic() > deadline:
            raise BudgetExceeded(
                f"realization search ran past its time limit on {m} bricks,"
                f" after {lo:,} of 2^{m * (m - 1)} candidate relations"
            )
        for rows in candidates:
            if _rows_realize(L, rows):
                return _relation_of_rows(rows)
    return None


def _rows_realize(L: FiniteLattice, rows: tuple[int, ...]) -> bool:
    """Whether the relation with these rows realizes L.

    A relation has as many torsion-free classes as torsion classes, and
    they are the full set and the intersections of the principal right
    perps, the complements of the rows; so the count needs no columns,
    and only a relation with L.n of them gets its torsion lattice built.
    """
    full = (1 << len(rows)) - 1
    closed = _closed_sets([full & ~r for r in rows], full, cap=L.n)
    if closed is None or len(closed) != L.n:
        return False
    return are_isomorphic(all_torsion_pairs(_relation_of_rows(rows)).lattice, L)


def surjection_dichotomy_sweep(Q: QuiverPresentation) -> dict:
    """Inside each brick's closure, maps onto the brick are onto or absent.

    For every brick B and every brick X in the smallest torsion class
    containing B, either some morphism X -> B is a vertexwise surjection
    or Hom(X, B) is zero.  Reports the pairs checked; violations are
    expected to be empty.
    """
    bs = bricks(Q)
    R = hom_relation(Q)
    checked = 0
    violations = []
    for b, B in enumerate(bs):
        closure = tors_closure(R, 1 << b)
        checked += closure.bit_count()
        for x in _bits(closure & R.col_masks[b]):  # the members X with Hom(X, B) != 0
            if not exists_surjection(Q, bs[x], B):
                violations.append({"brick": B.label(Q.n), "member": bs[x].label(Q.n)})
    return {"pairs_checked": checked, "violations": violations}
