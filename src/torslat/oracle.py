"""Brute-force verifiers and exhaustive searches.

Everything here re-derives results of the main modules by a slower,
independent route: torsion pairs by scanning all subsets instead of
generating the closure system, torsion classes by the module-category
closure axioms instead of perp calculus, and semidistributivity plus
the labelling identities over every reflexive relation of a given size.
A census of all small lattices up to isomorphism feeds the realization
search: every semidistributive lattice should be the torsion lattice of
some factorizable relation, and lattices like M3 should be reachable
only once the factorizability filter is dropped.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .galois import (
    BrickRelation,
    TorsLattice,
    _tors_from_closed,
    all_torsion_pairs,
    perp_left,
    perp_right,
    relation_from_arrows,
    tors_closure,
    verify_tors_lattice,
)
from .lattice import (
    FiniteLattice,
    FinitePoset,
    InternalInconsistency,
    NotALattice,
    _element_invariants,
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
    hom_dim,
    hom_relation,
    indecomposables,
    quotients,
    submodules,
    summands,
)


class BudgetExceeded(Exception):
    """A search exceeded its configured size or time budget."""


@dataclass(frozen=True)
class SearchBudget:
    """Size and time caps for the exhaustive searches."""

    max_brick_set_size: int = 4
    max_lattice_size: int = 6
    time_limit: float = 600.0

    def __post_init__(self):
        if self.max_brick_set_size < 1 or self.max_lattice_size < 1:
            raise ValueError("budget sizes must be positive")
        if self.time_limit <= 0:
            raise ValueError("time limit must be positive")

    def deadline(self) -> float:
        return time.monotonic() + self.time_limit


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
    return a.pairs == b.pairs and bool(np.array_equal(a.lattice.leq, b.lattice.leq))


def brute_try_lattice(p: FinitePoset) -> FiniteLattice:
    """try_lattice by scanning bound sets; same tables, same first failure.

    For each pair x <= y in lexicographic order, the common upper bounds
    are scanned for one below all the others, then the common lower
    bounds for one above all the others.
    """
    n, leq = p.n, p.leq
    if n == 0:
        raise NotALattice(0, 0, "join")
    join = np.zeros((n, n), dtype=np.intp)
    meet = np.zeros((n, n), dtype=np.intp)
    for x in range(n):
        for y in range(x, n):
            j = _least_member(leq, leq[x] & leq[y])
            if j is None:
                raise NotALattice(x, y, "join")
            m = _least_member(leq.T, leq[:, x] & leq[:, y])
            if m is None:
                raise NotALattice(x, y, "meet")
            join[x, y] = join[y, x] = j
            meet[x, y] = meet[y, x] = m
    bottom = int(np.argwhere(leq.all(axis=1))[0][0])
    top = int(np.argwhere(leq.all(axis=0))[0][0])
    return FiniteLattice(p, join, meet, bottom, top)


def _least_member(leq: np.ndarray, members: np.ndarray) -> int | None:
    for z in np.flatnonzero(members):
        if not (members & ~leq[z]).any():
            return int(z)
    return None


def brute_semidistributivity_violation(
    L: FiniteLattice, meet: bool = False
) -> tuple[int, int, int] | None:
    """First triple (x, y, z) against join- (meet=True: meet-)
    semidistributivity, by the plain triple loop over all elements."""
    op, dual = (L.meet, L.join) if meet else (L.join, L.meet)
    op, dual = op.tolist(), dual.tolist()
    for x in range(L.n):
        for y in range(L.n):
            for z in range(L.n):
                if op[x][y] == op[x][z] and op[x][dual[y][z]] != op[x][y]:
                    return (x, y, z)
    return None


def subset_is_torsion_closed(Q: QuiverPresentation, mask: int) -> bool:
    """Closure axioms for a set of indecomposables, checked module-wise.

    (a) quotient-closed: summands of every quotient of every member stay
    inside; (b) extension-closed: an indecomposable with a submodule and
    corresponding quotient whose summands all lie inside is itself inside.
    """
    ind = indecomposables(Q)
    index = {M: i for i, M in enumerate(ind)}
    members = [M for i, M in enumerate(ind) if mask >> i & 1]
    for M in members:
        for q in quotients(Q, M):
            for S in summands(q):
                if not mask >> index[S] & 1:
                    return False
    for i, E in enumerate(ind):
        if mask >> i & 1:
            continue
        supp = set(E.vertices)
        for sub in submodules(Q, E):
            parts = summands(sub) + summands(supp - set(sub))
            if parts and all(mask >> index[S] & 1 for S in parts):
                return False
    return True


def closure_axiom_check(Q: QuiverPresentation, TL: TorsLattice) -> bool:
    """The perp-generated torsion classes match the closure-axiom ones.

    Every enumerated class must satisfy the quotient and extension axioms,
    and every subset of indecomposables satisfying them must appear.
    """
    ind = indecomposables(Q)
    if TL.relation.labels != tuple(M.label(Q.n) for M in ind):
        raise InternalInconsistency(
            "torsion lattice bricks do not match the algebra's indecomposables"
        )
    enumerated = {p.tset for p in TL.pairs}
    axiom = {s for s in range(1 << len(ind)) if subset_is_torsion_closed(Q, s)}
    return enumerated == axiom


def _derived_masks(rows: tuple[int, ...], literal_mono: bool) -> tuple[list[int], list[int]]:
    """epi[x] and mono[x] as bitmasks over y, from row masks alone."""
    m = len(rows)
    cols = [0] * m
    for x in range(m):
        r = rows[x]
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << x
            r ^= low
    epi = [0] * m
    mono = [0] * m
    for x in range(m):
        ex = 0
        mx = 0
        for y in range(m):
            if rows[y] & ~rows[x] == 0:
                ex |= 1 << y
            if literal_mono:
                if rows[x] & ~rows[y] == 0:
                    mx |= 1 << y
            elif cols[x] & ~cols[y] == 0:
                mx |= 1 << y
        epi[x] = ex
        mono[x] = mx
    return epi, mono


def _quick_factorizable(rows: tuple[int, ...], literal_mono: bool = False) -> bool:
    """Mask-only factorizability; agrees with factorizability_violation."""
    m = len(rows)
    epi, mono = _derived_masks(rows, literal_mono)
    for x in range(m):
        for y in range(x + 1, m):
            if epi[x] >> y & 1 and epi[y] >> x & 1:
                return False
            if mono[x] >> y & 1 and mono[y] >> x & 1:
                return False
            if mono[x] >> y & 1 and epi[y] >> x & 1:
                return False
            if mono[y] >> x & 1 and epi[x] >> y & 1:
                return False
    for x in range(m):
        targets = rows[x]
        while targets:
            low = targets & -targets
            z = low.bit_length() - 1
            targets ^= low
            mids = epi[x]
            ok = False
            while mids:
                lm = mids & -mids
                if mono[lm.bit_length() - 1] >> z & 1:
                    ok = True
                    break
                mids ^= lm
            if not ok:
                return False
    return True


def _rows_of_mask(mask: int, m: int) -> tuple[int, ...]:
    """Decode a sweep mask: m*(m-1) off-diagonal bits, row-major."""
    rows = []
    pos = 0
    for x in range(m):
        r = 1 << x
        for y in range(m):
            if y == x:
                continue
            if mask >> pos & 1:
                r |= 1 << y
            pos += 1
        rows.append(r)
    return tuple(rows)


def _relation_of_rows(rows: tuple[int, ...]) -> BrickRelation:
    m = len(rows)
    arrows = [
        (x, y) for x in range(m) for y in range(m) if x != y and rows[x] >> y & 1
    ]
    return relation_from_arrows([f"b{i}" for i in range(m)], arrows)


def _abstract_dichotomy_holds(R: BrickRelation) -> bool:
    """Within each brick's closure, arrows into the brick are derived epis."""
    epi, _ = _derived_masks(R.row_masks, False)
    for b in range(R.m):
        closure = tors_closure(R, 1 << b)
        x_mask = closure
        while x_mask:
            low = x_mask & -x_mask
            x = low.bit_length() - 1
            x_mask ^= low
            if R.row_masks[x] >> b & 1 and not epi[x] >> b & 1:
                return False
    return True


def _sweep_chunk(args: tuple[int, int, int, bool]) -> tuple[int, list, int]:
    m, start, stop, literal_mono = args
    factorizable = 0
    violations = []
    dichotomy_failures = 0
    for mask in range(start, stop):
        rows = _rows_of_mask(mask, m)
        if not _quick_factorizable(rows, literal_mono):
            continue
        factorizable += 1
        R = _relation_of_rows(rows)
        problems = verify_tors_lattice(all_torsion_pairs(R))
        if problems:
            violations.append({"m": m, "mask": mask, "problems": problems})
        if not _abstract_dichotomy_holds(R):
            dichotomy_failures += 1
    return factorizable, violations, dichotomy_failures


def sweep_factorizable(
    budget: SearchBudget | None = None,
    literal_mono: bool = False,
    workers: int = 1,
) -> dict:
    """Check the labelling theory over every reflexive relation, per size.

    For each m up to the budget, all 2^(m(m-1)) relations are decoded;
    the factorizable ones must pass the full torsion-lattice invariant
    suite.  The report holds per-size counts, all violations (expected
    none), an informational count of relations where an arrow into a
    brick from inside its closure fails to be a derived epi, and the
    runtime.  Output is identical for any worker count.
    """
    budget = budget or SearchBudget()
    if budget.max_brick_set_size > 5:
        raise BudgetExceeded("sweeps are capped at 5 bricks")
    deadline = budget.deadline()
    t0 = time.monotonic()
    per_m: dict[str, dict] = {}
    violations: list[dict] = []
    dichotomy_failures = 0
    for m in range(1, budget.max_brick_set_size + 1):
        if time.monotonic() > deadline:
            raise BudgetExceeded("sweep ran past its time limit")
        total = 1 << (m * (m - 1))
        if workers > 1 and total >= 64:
            step = max(1, total // (workers * 8))
            chunks = [
                (m, s, min(s + step, total), literal_mono)
                for s in range(0, total, step)
            ]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_chunk, chunks))
        else:
            results = [_sweep_chunk((m, 0, total, literal_mono))]
        fac = sum(r[0] for r in results)
        for r in results:
            violations.extend(r[1])
            dichotomy_failures += r[2]
        per_m[str(m)] = {"relations": total, "factorizable": fac}
    return {
        "max_brick_set_size": budget.max_brick_set_size,
        "literal_mono": literal_mono,
        "per_m": per_m,
        "violations": violations,
        "abstract_dichotomy_failures": dichotomy_failures,
        "runtime_seconds": round(time.monotonic() - t0, 3),
    }


def lattice_census(budget: SearchBudget | None = None) -> list[FiniteLattice]:
    """All lattices with at most max_lattice_size elements, up to isomorphism.

    Enumerates naturally labeled posets with a forced bottom 0 and top
    n-1 (every lattice is labeled that way by any linear extension),
    keeps the ones where joins and meets exist, and dedups by
    backtracking isomorphism inside invariant buckets.
    """
    budget = budget or SearchBudget()
    if budget.max_lattice_size > 7:
        raise BudgetExceeded("census is capped at 7 elements")
    deadline = budget.deadline()
    out: list[FiniteLattice] = []
    for n in range(1, budget.max_lattice_size + 1):
        found: list[tuple[tuple, FiniteLattice]] = []
        for downs in _natural_posets(n, deadline):
            leq = np.eye(n, dtype=bool)
            for j, d in enumerate(downs):
                for i in range(j):
                    leq[i, j] = bool(d >> i & 1)
            try:
                L = try_lattice(FinitePoset(n, leq))
            except NotALattice:
                continue
            key = tuple(sorted(_element_invariants(L)))
            if any(
                k == key and are_isomorphic(L, other) for k, other in found
            ):
                continue
            found.append((key, L))
        out.extend(L for _, L in found)
    return out


def _natural_posets(n: int, deadline: float):
    """Yield tuples of strict down-set masks for poset elements 1..n-1."""
    if n == 1:
        yield ()
        return

    def down_closed_subsets(downs: tuple[int, ...], j: int):
        for s in range(1 << j):
            if s & 1 == 0:
                continue
            ok = True
            live = s
            while live:
                low = live & -live
                if downs[low.bit_length() - 1] & ~s:
                    ok = False
                    break
                live ^= low
            if ok:
                yield s

    def rec(downs: tuple[int, ...]):
        j = len(downs)
        if time.monotonic() > deadline:
            raise BudgetExceeded("census ran past its time limit")
        if j == n - 1:
            # the top must lie above every earlier element
            yield downs + ((1 << (n - 1)) - 1,)
            return
        for s in down_closed_subsets(downs, j):
            yield from rec(downs + (s,))

    yield from rec((0,))


def realize_sd_lattice(
    L: FiniteLattice,
    budget: SearchBudget | None = None,
    factorizable_only: bool = True,
) -> BrickRelation | None:
    """Search for a brick relation whose torsion lattice is isomorphic to L.

    With the factorizability filter on, a semidistributive L is searched
    on exactly #join-irreducibles bricks (the κ bijection forces that
    count) and a non-semidistributive L is swept over every size up to
    the budget to certify absence.  Without the filter, all relations are
    tried.  Sizes below max(#ji, #mi) are skipped in either mode: every
    torsion class is both a join of brick closures and an intersection of
    principal perps, so fewer bricks cannot produce enough irreducibles.

    Enumeration order is canonical: rows are bitmasks chosen in ascending
    order with earlier rows more significant, so the first hit is stable.
    Following the derived-cycle conditions, rows are forced pairwise
    distinct while the filter is on, which prunes most of the space
    before any full factorizability test.
    """
    budget = budget or SearchBudget(max_brick_set_size=5)
    deadline = budget.deadline()
    n_ji = len(join_irreducibles(L))
    n_mi = len(meet_irreducibles(L))
    lower = max(n_ji, n_mi)
    if factorizable_only and is_semidistributive(L):
        if n_ji > budget.max_brick_set_size:
            raise BudgetExceeded(
                f"{n_ji} join-irreducibles exceed the {budget.max_brick_set_size}-brick budget"
            )
        sizes = [n_ji]
    else:
        sizes = list(range(lower, budget.max_brick_set_size + 1))
    key = tuple(sorted(_element_invariants(L)))
    for m in sizes:
        hit = _search_relations(L, key, m, factorizable_only, deadline)
        if hit is not None:
            return hit
    return None


def _search_relations(
    L: FiniteLattice,
    key: tuple,
    m: int,
    factorizable_only: bool,
    deadline: float,
) -> BrickRelation | None:
    if m == 0:
        rows: tuple[int, ...] = ()
        if _rows_realize(L, key, rows, factorizable_only):
            return _relation_of_rows(rows)
        return None
    # each row has its diagonal bit forced and m-1 free bits around it
    row_choices: list[list[int]] = []
    for x in range(m):
        opts = []
        for free in range(1 << (m - 1)):
            r = 1 << x
            pos = 0
            for y in range(m):
                if y == x:
                    continue
                if free >> pos & 1:
                    r |= 1 << y
                pos += 1
            opts.append(r)
        row_choices.append(sorted(opts))

    def rec(prefix: tuple[int, ...]):
        x = len(prefix)
        if x == m:
            yield prefix
            return
        if time.monotonic() > deadline:
            raise BudgetExceeded("realization search ran past its time limit")
        for r in row_choices[x]:
            if factorizable_only and r in prefix:
                continue
            yield from rec(prefix + (r,))

    for rows in rec(()):
        if _rows_realize(L, key, rows, factorizable_only):
            return _relation_of_rows(rows)
    return None


def _rows_realize(
    L: FiniteLattice, key: tuple, rows: tuple[int, ...], factorizable_only: bool
) -> bool:
    if factorizable_only and not _quick_factorizable(rows):
        return False
    m = len(rows)
    full = (1 << m) - 1
    cols = [0] * m
    for x in range(m):
        r = rows[x]
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << x
            r ^= low
    principals = [full & ~cols[y] for y in range(m)]
    closed = {full}
    frontier = [full]
    while frontier:
        s = frontier.pop()
        for p in principals:
            t = s & p
            if t not in closed:
                closed.add(t)
                if len(closed) > L.n:
                    return False
                frontier.append(t)
    if len(closed) != L.n:
        return False
    R = _relation_of_rows(rows)
    TL = all_torsion_pairs(R)
    if tuple(sorted(_element_invariants(TL.lattice))) != key:
        return False
    return are_isomorphic(TL.lattice, L)


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
        for x in range(R.m):
            if not closure >> x & 1:
                continue
            checked += 1
            X = bs[x]
            if hom_dim(Q, X, B).dim != 0 and not exists_surjection(Q, X, B):
                violations.append(
                    {"brick": B.label(Q.n), "member": X.label(Q.n)}
                )
    return {
        "vertices": Q.n,
        "orientation": list(Q.orientation),
        "relations": [list(p) for p in Q.relations],
        "bricks": R.m,
        "pairs_checked": checked,
        "violations": violations,
    }
