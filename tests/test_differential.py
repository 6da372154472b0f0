"""Bitset lattice core against the plain-Python oracle routes.

The table build (try_lattice) looks joins up by up-set, and
semidistributivity is read off the gamma and mu label tables; the oracle
keeps the bound-scanning and triple-loop versions.  Both must give the
same tables, the same first failing pair and kind, and the same first
witness, on every census lattice up to 7 elements, on torsion lattices of
random relations up to 8 bricks, and on random posets that are mostly not
lattices.  The table-read witnesses must equal the oracle's triple loop
on every relation of 4 bricks, every A2-A5 orientation and the census
lattices, and there the bitset label table and by-definition
irreducibles must equal the same read off the join and meet tables.
Cached irreducibles must equal a scan of the definition that reads only
the order relation.  The covers of every interval, read off the lattice
by interval_covers, must be those of the interval rebuilt as a lattice of
its own by interval_sublattice, with the same join-irreducibles.

The invariant suite checks whole lattices row by row on bitsets; its
problem list (or the exception it raises) must equal that of the same
suite run one element, cover and comparable pair at a time through the
public per-item functions, on every A2-A5 orientation, monomial
quotients, every factorizable relation up to 4 bricks, random relations
and tampered torsion lattices.  The gamma, mu and kappa tables must equal
a search over the irreducibles cover by cover.

is_lattice_quotient checks a map on pairs (element, irreducible) only; its
verdict must be the definition's, read off the oracle's tables, on every
map between small census lattices and on maps one entry away from a
quotient map of an A4 orientation.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torslat.bridge import quotient_map, tors_of_algebra
from torslat.galois import (
    TorsLattice,
    TorsionPair,
    all_torsion_pairs,
    cover_brick_label,
    four_class_diagram,
    ji_of_brick,
    mi_of_brick,
    relation_from_arrows,
    tf_dual_check,
    verify_tors_lattice,
)
from torslat.lattice import (
    CoverEdge,
    FiniteLattice,
    FinitePoset,
    InternalInconsistency,
    NotALattice,
    NotIrreducible,
    NotSemidistributive,
    _irreducibles_by_definition,
    check_kappa_bijection,
    check_mu_eq_kappa_gamma,
    gamma_label,
    is_join_semidistributive,
    is_lattice_quotient,
    is_meet_semidistributive,
    is_semidistributive,
    join,
    join_irreducibles,
    join_semidistributivity_violation,
    kappa,
    kappa_dual,
    meet,
    meet_irreducibles,
    meet_semidistributivity_violation,
    mu_label,
    poset_from_pairs,
    try_lattice,
)
from torslat.kernels import factorizable_orbits, rows_of
from torslat.oracle import (
    NotComparable,
    _relation_of_rows,
    brute_semidistributivity_violation,
    brute_try_lattice,
    gap_nonempty_check,
    interval_covers,
    interval_ji_check,
    interval_label_set,
    interval_sublattice,
    lattice_census,
)
from torslat.quiver import QuiverPresentation


def outcome(build, poset):
    """The join and meet tables of a lattice, or the (pair, kind) it fails
    on: the oracle's own tables, or the fast path's join() and meet() reads."""
    try:
        L = build(poset)
    except NotALattice as exc:
        return ("not a lattice", exc.pair, exc.kind)
    if build is brute_try_lattice:
        return L
    return tuple(
        tuple(tuple(op(L, x, y) for y in range(L.n)) for x in range(L.n)) for op in (join, meet)
    )


def leq_matrix(L) -> np.ndarray:
    """The order of L as an n x n boolean matrix, leq[x, y] meaning x <= y."""
    return np.array(
        [[L.leq(x, y) for y in range(L.n)] for x in range(L.n)], dtype=bool
    ).reshape(L.n, L.n)


def irreducibles_from_order(leq: np.ndarray) -> tuple[int, ...]:
    """x is join-irreducible iff the elements strictly below it do not have
    x as their least upper bound (so the bottom, an empty join, is not)."""
    n = leq.shape[0]
    out = []
    for x in range(n):
        below = [y for y in range(n) if leq[y, x] and y != x]
        uppers = [u for u in range(n) if all(leq[y, u] for y in below)]
        least = [u for u in uppers if all(leq[u, w] for w in uppers)]
        if least != [x]:
            out.append(x)
    return tuple(out)


def assert_core_matches_oracle(L):
    assert outcome(try_lattice, L.poset) == outcome(brute_try_lattice, L.poset)
    assert join_semidistributivity_violation(L) == brute_semidistributivity_violation(L)
    assert meet_semidistributivity_violation(L) == brute_semidistributivity_violation(
        L, meet=True
    )
    leq = leq_matrix(L)
    assert join_irreducibles(L) == irreducibles_from_order(leq)
    assert meet_irreducibles(L) == irreducibles_from_order(leq.T)


def assert_intervals_match_sublattices(L):
    """interval_covers against interval_sublattice on every pair of
    elements; returns the number of intervals."""
    checked = 0
    for u, v in itertools.product(range(L.n), repeat=2):
        if not L.leq(u, v):
            with pytest.raises(NotComparable):
                interval_covers(L, u, v)
            continue
        sub, members = interval_sublattice(L, u, v)
        got = interval_covers(L, u, v)
        expected = [CoverEdge(members[x], members[y]) for x, y in sub.poset.covers]
        assert sorted(got) == expected
        lower_count = Counter(c.upper for c in got)
        assert [y for y in members if lower_count[y] == 1] == [
            members[j] for j in join_irreducibles(sub)
        ]
        checked += 1
    return checked


CENSUS = lattice_census(7)


def test_census_has_every_lattice_up_to_seven():
    assert len(CENSUS) == 1 + 1 + 1 + 2 + 5 + 15 + 53


@pytest.mark.parametrize("index", range(len(CENSUS)))
def test_census_lattice_matches_oracle(index):
    assert_core_matches_oracle(CENSUS[index])


def test_interval_covers_match_sublattices_on_census_and_type_a():
    checked = sum(assert_intervals_match_sublattices(L) for L in CENSUS)
    for n in (2, 3, 4):
        for orientation in itertools.product(("left", "right"), repeat=n - 1):
            TL = tors_of_algebra(QuiverPresentation(n, orientation))
            checked += assert_intervals_match_sublattices(TL.lattice)
    assert checked == 5260


@st.composite
def relations(draw, max_bricks=8):
    m = draw(st.integers(1, max_bricks))
    pairs = [(x, y) for x in range(m) for y in range(m) if x != y]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return relation_from_arrows(
        [f"b{i}" for i in range(m)], [p for p, k in zip(pairs, keep) if k]
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(relations())
def test_torsion_lattices_match_oracle(R):
    L = all_torsion_pairs(R).lattice
    assume(L.n <= 64)  # keeps the cubic oracle loops short
    assert_core_matches_oracle(L)
    assert_intervals_match_sublattices(L)


@st.composite
def posets(draw, max_size=8):
    """Random orders under a random labelling; most are not lattices."""
    n = draw(st.integers(0, max_size))
    perm = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return poset_from_pairs(n, [(perm[i], perm[j]) for (i, j), k in zip(pairs, keep) if k])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(posets())
def test_random_posets_match_oracle(p):
    got = outcome(try_lattice, p)
    assert got == outcome(brute_try_lattice, p)
    if got[0] != "not a lattice":
        assert_core_matches_oracle(try_lattice(p))


def reference_suite(TL):
    """verify_tors_lattice one element, cover and comparable pair at a time,
    from the public per-item functions."""
    problems = []
    L = TL.lattice
    if not is_semidistributive(L):
        return ["lattice is not semidistributive"]
    jis, mis, m = join_irreducibles(L), meet_irreducibles(L), TL.relation.m
    if not (len(jis) == len(mis) == m):
        problems.append(
            f"counts differ: {m} bricks, {len(jis)} join-irr, {len(mis)} meet-irr"
        )
    if sorted(ji_of_brick(TL, b) for b in range(m)) != sorted(jis):
        problems.append("brick closures do not enumerate the join-irreducibles")
    if sorted(mi_of_brick(TL, b) for b in range(m)) != sorted(mis):
        problems.append("brick left perps do not enumerate the meet-irreducibles")
    labelled = True
    if "cover_labels" not in TL.__dict__:  # not replaced by a tampering test
        try:
            labels = {c: cover_brick_label(TL, c) for c in L.poset.covers}
        except Exception as exc:  # the three labelling failures, or a bug
            problems.append(str(exc))
            labelled = False
        else:
            TL.__dict__["cover_labels"] = labels  # what interval_label_set reads
    image = [kappa(L, j) for j in jis]
    if not (
        sorted(image) == sorted(mis)
        and all(kappa_dual(L, kappa(L, j)) == j for j in jis)
    ):
        problems.append("kappa is not a bijection with inverse kappa_dual")
    if not all(mu_label(L, c) == kappa(L, gamma_label(L, c)) for c in L.poset.covers):
        problems.append("mu != kappa o gamma on some cover")
    if not all(
        ((TL.tset(i) & ~TL.tset(j)) == 0) == ((TL.fset(j) & ~TL.fset(i)) == 0) == L.leq(i, j)
        for i in range(TL.n)
        for j in range(TL.n)
    ):
        problems.append("torsion-free order is not the reverse of torsion order")
    for b in range(m):
        try:
            four_class_diagram(TL, b)
        except InternalInconsistency as exc:
            problems.append(str(exc))
        except NotIrreducible as exc:
            problems.append(f"brick {b}: {exc}")
    for u, v in np.argwhere(leq_matrix(L)).tolist():
        if not gap_nonempty_check(TL, u, v):
            problems.append(f"interval ({u}, {v}): gap/strictness equivalence fails")
        if not interval_ji_check(TL, u, v):
            problems.append(f"interval ({u}, {v}): join-irreducible map fails")
        if labelled and interval_label_set(TL, u, v) != TL.fset(u) & TL.tset(v):
            problems.append(f"interval ({u}, {v}): label set mismatch")
    return problems


def rebuilt(TL, pairs=None, up=None, label_table=None):
    """A copy of TL with nothing cached, optionally with replaced pairs,
    up-sets or gamma/mu table."""
    L = TL.lattice
    poset = FinitePoset(L.poset.up if up is None else up)
    lattice = FiniteLattice(poset)
    if label_table is not None:
        lattice._labels = label_table
    return TorsLattice(TL.relation, TL.pairs if pairs is None else pairs, lattice)


def suite_outcome(suite, TL, labels=None):
    if labels is not None:
        TL.__dict__["cover_labels"] = labels
    try:
        return suite(TL)
    except Exception as exc:  # the two suites must fail alike too
        return (type(exc).__name__, str(exc))


def assert_suites_agree(TL, **parts):
    """The array suite and the reference on fresh copies; returns the
    problem list."""
    labels = parts.pop("labels", None)
    got = suite_outcome(verify_tors_lattice, rebuilt(TL, **parts), labels)
    expected = suite_outcome(reference_suite, rebuilt(TL, **parts), labels)
    assert got == expected
    return got


def orientations(n):
    return itertools.product(("left", "right"), repeat=n - 1)


TYPE_A = [QuiverPresentation(n, o) for n in (2, 3, 4, 5) for o in orientations(n)]

QUOTIENTS = [
    QuiverPresentation(3, ("right", "right"), ((0, 1),)),
    QuiverPresentation(3, ("left", "left"), ((1, 0),)),
    QuiverPresentation(4, ("right",) * 3, ((0, 1),)),
    QuiverPresentation(4, ("right",) * 3, ((1, 2),)),
    QuiverPresentation(4, ("right",) * 3, ((0, 1), (1, 2))),
    QuiverPresentation(4, ("right",) * 3, ((0, 1, 2),)),
    QuiverPresentation(4, ("left",) * 3, ((1, 0),)),
    QuiverPresentation(4, ("left",) * 3, ((1, 0), (2, 1))),
    QuiverPresentation(5, ("left",) * 4, ((1, 0), (3, 2))),
]


@pytest.mark.parametrize("q", TYPE_A + QUOTIENTS, ids=repr)
def test_suite_matches_reference_on_algebras(q):
    TL = tors_of_algebra(q)
    assert assert_suites_agree(TL) == []


def factorizable_relations(max_bricks=4):
    for m in range(1, max_bricks + 1):
        masks = sorted(mask for orbit in factorizable_orbits(m, False).values() for mask in orbit)
        for r in rows_of(masks, m):
            yield _relation_of_rows(r)


def test_suite_matches_reference_on_every_small_factorizable_relation():
    relations = list(factorizable_relations())
    assert len(relations) == 536
    for R in relations:
        assert assert_suites_agree(all_torsion_pairs(R)) == []


@settings(max_examples=100, deadline=None, derandomize=True)
@given(relations())
def test_suite_matches_reference_on_random_relations(R):
    TL = all_torsion_pairs(R)
    assume(TL.n <= 64)  # keeps the per-pair reference short
    assert_suites_agree(TL)


def test_suite_matches_reference_on_every_relation_up_to_three_bricks():
    """Most of these are not factorizable, and their suites fail."""
    fired = Counter()
    for m in (1, 2, 3):
        for R in all_relations(m):
            outcome = assert_suites_agree(all_torsion_pairs(R))
            fired.update(line.split(": ")[-1] for line in outcome)
    assert fired["join-irreducible map fails"] > 0
    assert fired["label set mismatch"] > 0


def all_relations(m):
    return [_relation_of_rows(r) for r in rows_of(range(1 << (m * (m - 1))), m)]


def ladder_lattices():
    """The torsion lattices of all 4,096 relations of 4 bricks and of every
    A2-A5 orientation, then the census lattices."""
    lattices = [all_torsion_pairs(R).lattice for R in all_relations(4)]
    lattices += [tors_of_algebra(q).lattice for q in TYPE_A]
    return lattices + CENSUS


def test_semidistributivity_read_off_label_tables_names_the_triple_witness():
    """A lattice is join- (meet-) semidistributive iff every cover has one
    gamma (mu) candidate: the table-read witnesses, searched by a meet
    (join) fold per row, equal the oracle's plain triple loop on all 4,096
    relations of 4 bricks, every A2-A5 orientation and the census
    lattices, most of the relations failing."""
    lattices = ladder_lattices()
    failing = 0
    for L in lattices:
        join_w = brute_semidistributivity_violation(L)
        meet_w = brute_semidistributivity_violation(L, meet=True)
        assert join_semidistributivity_violation(L) == join_w
        assert meet_semidistributivity_violation(L) == meet_w
        failing += join_w is not None or meet_w is not None
    assert len(lattices) == 4096 + 30 + 78
    assert failing >= 1000


def label_table_from_tables(L):
    """Each cover's gamma and mu candidates read off the join and meet
    tables: for x <| y, the join-irreducibles j with x v j = y and
    x v j_* = x, and the meet-irreducibles m with y ^ m = x and
    y ^ m^* = y."""
    p = L.poset
    join_table, meet_table = brute_try_lattice(p)
    jstar = [(j, p.lower_cover_sets[j].bit_length() - 1) for j in join_irreducibles(L)]
    mstar = [(m, p.upper_cover_sets[m].bit_length() - 1) for m in meet_irreducibles(L)]
    table = {}
    for c in p.covers:
        x, y = c
        jx, my = join_table[x], meet_table[y]
        table[c] = (
            [j for j, s in jstar if jx[j] == y and jx[s] == x],
            [m for m, s in mstar if my[m] == x and my[s] == y],
        )
    return table


def irreducibles_from_table_fold(L, dual):
    """The elements other than the bottom (dual: top) that are not the
    join (meet) of the elements below (above) them, folded through the
    join (meet) table from the bottom (top)."""
    join_table, meet_table = brute_try_lattice(L.poset)
    full = (1 << L.n) - 1
    op, skip, below = (
        (meet_table, L.poset.down.index(full), L.poset.up)
        if dual
        else (join_table, L.poset.up.index(full), L.poset.down)
    )
    out = []
    for x, s in enumerate(below):
        acc = skip
        for y in range(L.n):
            if s >> y & 1 and y != x:
                acc = op[acc][y]
        if acc != x and x != skip:
            out.append(x)
    return tuple(out)


def test_bitset_label_table_and_irreducibles_match_the_table_reads():
    """The gamma/mu table and the by-definition irreducibles read bitsets
    of the order; they equal the same quantities read off the join and
    meet tables, on every lattice semidistributive or not."""
    lattices = ladder_lattices()
    for L in lattices:
        for dual in (False, True):
            got = _irreducibles_by_definition(L, dual)
            assert got == irreducibles_from_table_fold(L, dual)
        assert L._labels == label_table_from_tables(L)
    assert len(lattices) == 4096 + 30 + 78


TAMPER_BASES = [
    lambda: tors_of_algebra(QuiverPresentation(3, ("left", "left"))),
    lambda: tors_of_algebra(QuiverPresentation(3, ("right", "left"))),
    lambda: all_torsion_pairs(relation_from_arrows(list("abc"), [(0, 1), (1, 2)])),
]


def tampered_pairs(TL):
    """Every swap of two pairs entries, and one torsion-free side replaced
    so that the two sides of a pair disagree."""
    for i, j in itertools.combinations(range(TL.n), 2):
        pairs = list(TL.pairs)
        pairs[i], pairs[j] = pairs[j], pairs[i]
        yield {"pairs": tuple(pairs)}
    pairs = list(TL.pairs)
    pairs[1] = TorsionPair(pairs[1].tset, pairs[0].fset)
    yield {"pairs": tuple(pairs)}


def tampered_labels(TL):
    """Every cover relabelled with every other brick."""
    labels = dict(TL.cover_labels)
    for c, b in labels.items():
        for other in range(TL.relation.m):
            if other != b:
                yield {"labels": {**labels, c: other}}


def tampered_label_table(TL):
    """Every cover's mu label replaced by each other meet-irreducible."""
    table = TL.lattice._labels
    for c, (gamma, mu) in table.items():
        for m in meet_irreducibles(TL.lattice):
            if [m] != mu:
                yield {"label_table": {**table, c: (gamma, [m])}}


def tampered_order(TL):
    """Every cover x <| y taken out of the order; nothing lies strictly
    between x and y, so what is left is still an order."""
    for x, y in TL.lattice.poset.covers:
        up = list(TL.lattice.poset.up)
        up[x] &= ~(1 << y)
        yield {"up": up}


def test_tampered_lattices_fail_alike():
    """Each tampering gives the same problem lines, in the same order, or
    the same exception, from both suites; together they fire every
    interval line and the lattice-level checks."""
    fired = Counter()
    for make in TAMPER_BASES:
        TL = make()
        tampers = (tampered_pairs, tampered_labels, tampered_label_table, tampered_order)
        for tamper in tampers:
            for parts in tamper(TL):
                outcome = assert_suites_agree(TL, **parts)
                if isinstance(outcome, tuple):
                    fired[outcome[0]] += 1
                    continue
                assert outcome, parts  # every tampering is caught
                fired.update(line.split(": ")[-1] for line in outcome)
    for kind in (
        "gap/strictness equivalence fails",
        "join-irreducible map fails",
        "label set mismatch",
        "lattice is not semidistributive",
        "kappa is not a bijection with inverse kappa_dual",
        "torsion-free order is not the reverse of torsion order",
        "InternalInconsistency",
    ):
        assert fired[kind] > 0, (kind, fired)


def loop_label(L, c, dual):
    """gamma (dual: mu) of one cover by searching the irreducibles, or the
    error a single call raises."""
    x, y = c
    if dual:
        if not is_meet_semidistributive(L):
            return NotSemidistributive
        irr, op, near, far = meet_irreducibles(L), meet, y, x
        star = [L.poset.upper_cover_sets[k].bit_length() - 1 for k in irr]
    else:
        if not is_join_semidistributive(L):
            return NotSemidistributive
        irr, op, near, far = join_irreducibles(L), join, x, y
        star = [L.poset.lower_cover_sets[k].bit_length() - 1 for k in irr]
    hits = [k for k, s in zip(irr, star) if op(L, near, k) == far and op(L, near, s) == near]
    return hits[0] if len(hits) == 1 else len(hits)


def table_label(label, L, c):
    try:
        return label(L, c)
    except NotSemidistributive:
        return NotSemidistributive


@pytest.mark.parametrize("index", range(len(CENSUS)))
def test_label_tables_match_loops_on_census(index):
    L = CENSUS[index]
    for c in L.poset.covers:
        assert table_label(gamma_label, L, c) == loop_label(L, c, dual=False)
        assert table_label(mu_label, L, c) == loop_label(L, c, dual=True)
    if not is_semidistributive(L):
        with pytest.raises(NotSemidistributive):
            check_kappa_bijection(L)
        return
    jis, mis = join_irreducibles(L), meet_irreducibles(L)
    lower, upper = L.poset.lower_cover_sets, L.poset.upper_cover_sets
    kap = [loop_label(L, CoverEdge(lower[j].bit_length() - 1, j), dual=True) for j in jis]
    assert [kappa(L, j) for j in jis] == kap
    back = [loop_label(L, CoverEdge(m, upper[m].bit_length() - 1), dual=False) for m in mis]
    assert [kappa_dual(L, m) for m in mis] == back
    assert check_kappa_bijection(L) == (
        sorted(kap) == list(mis)
        and all(back[mis.index(k)] == j for j, k in zip(jis, kap))
    )
    assert check_mu_eq_kappa_gamma(L) == all(
        loop_label(L, c, dual=True)
        == kap[jis.index(loop_label(L, c, dual=False))]
        for c in L.poset.covers
    )


@pytest.mark.parametrize("q", TYPE_A[:6] + QUOTIENTS[:4], ids=repr)
def test_tf_dual_check_matches_loop(q):
    TL = tors_of_algebra(q)
    pairs = list(TL.pairs)
    assert tf_dual_check(TL)
    pairs[1] = TorsionPair(pairs[1].tset, pairs[0].fset)
    assert not tf_dual_check(rebuilt(TL, pairs=tuple(pairs)))


def preserves(f, op1, op2) -> bool:
    """f(op1[x][y]) == op2[f(x)][f(y)] for every pair x, y."""
    return all(
        f[z] == op2[f[x]][f[y]] for x, row in enumerate(op1) for y, z in enumerate(row)
    )


def quotient_verdicts(maps):
    """(is_lattice_quotient, surjective, preserves joins, preserves meets)
    per map, the last three read off the oracle's tables, counted."""
    verdicts = Counter()
    for f, L1, L2, T1, T2 in maps:
        verdicts[
            is_lattice_quotient(f, L1, L2),
            set(f) == set(range(L2.n)),
            preserves(f, T1[0], T2[0]),
            preserves(f, T1[1], T2[1]),
        ] += 1
    return verdicts


def assert_quotient_matches_definition(verdicts):
    assert all(fast == all(parts) for fast, *parts in verdicts)


def test_is_lattice_quotient_matches_definition_on_census_maps():
    """Every map from a census lattice of at most 5 elements onto one no
    larger (a larger target cannot be covered)."""
    census = [(L, brute_try_lattice(L.poset)) for L in CENSUS if L.n <= 5]
    maps = [
        (list(f), L1, L2, T1, T2)
        for L1, T1 in census
        for L2, T2 in census
        if L2.n <= L1.n
        for f in itertools.product(range(L2.n), repeat=L1.n)
    ]
    assert len(maps) == 91_007
    verdicts = quotient_verdicts(maps)
    assert_quotient_matches_definition(verdicts)
    # 37 surjections keep only meets and 37 only joins, so dropping either
    # half of the check is seen
    assert verdicts[False, True, False, True] == verdicts[False, True, True, False] == 37
    assert verdicts[True, True, True, True] == 69


def test_is_lattice_quotient_matches_definition_near_quotient_maps():
    """Every map that sets one entry of a one-arrow quotient map of an A4
    orientation to any target class: 24 maps onto 42 classes each."""
    maps = []
    for q in TYPE_A:
        if q.n != 4:
            continue
        for k in range(3):
            qm = quotient_map(q, ((k,),))
            L1, L2 = qm.source.lattice, qm.target.lattice
            T1, T2 = brute_try_lattice(L1.poset), brute_try_lattice(L2.poset)
            for i in range(L1.n):
                for v in range(L2.n):
                    f = list(qm.element_map)
                    f[i] = v
                    maps.append((f, L1, L2, T1, T2))
    assert len(maps) == 27_216
    verdicts = quotient_verdicts(maps)
    assert_quotient_matches_definition(verdicts)
    # only the unchanged maps, one per entry, are quotients
    assert verdicts[True, True, True, True] == 24 * 42
