"""Vectorized lattice core against the plain-Python oracle routes.

The table build (try_lattice) and the semidistributivity tests run on
numpy rows; the oracle keeps the loop versions.  Both must give the same
tables, the same first failing pair and kind, and the same first
witness, on every census lattice up to 7 elements, on torsion lattices
of random relations up to 8 bricks, and on random posets that are mostly
not lattices.  Cached irreducibles must equal a scan of the definition
that reads only the order relation.  The covers of every interval, read
off the lattice by interval_covers, must be those of the interval rebuilt
as a lattice of its own by interval_sublattice, with the same
join-irreducibles.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torslat.bridge import tors_of_algebra
from torslat.galois import all_torsion_pairs, relation_from_arrows
from torslat.lattice import (
    CoverEdge,
    NotALattice,
    NotComparable,
    interval_covers,
    interval_sublattice,
    join_irreducibles,
    join_semidistributivity_violation,
    meet_irreducibles,
    meet_semidistributivity_violation,
    poset_from_pairs,
    try_lattice,
)
from torslat.oracle import (
    SearchBudget,
    brute_semidistributivity_violation,
    brute_try_lattice,
    lattice_census,
)
from torslat.quiver import QuiverPresentation


def outcome(build, poset):
    """Tables and extremes of a lattice, or the (pair, kind) it fails on."""
    try:
        L = build(poset)
    except NotALattice as exc:
        return ("not a lattice", exc.pair, exc.kind)
    return (L.join.tolist(), L.meet.tolist(), L.bottom, L.top)


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
    assert join_irreducibles(L) == irreducibles_from_order(L.leq)
    assert meet_irreducibles(L) == irreducibles_from_order(L.leq.T)


def assert_intervals_match_sublattices(L):
    """interval_covers against interval_sublattice on every pair of
    elements; returns the number of intervals."""
    checked = 0
    for u, v in itertools.product(range(L.n), repeat=2):
        if not L.leq[u, v]:
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


CENSUS = lattice_census(SearchBudget(max_lattice_size=7))


def test_census_has_every_lattice_up_to_seven():
    assert len(CENSUS) == 1 + 1 + 1 + 2 + 5 + 15 + 53


@pytest.mark.parametrize("index", range(len(CENSUS)))
def test_census_lattice_matches_oracle(index):
    assert_core_matches_oracle(CENSUS[index])


def test_interval_covers_match_sublattices_on_census_and_type_a():
    checked = sum(assert_intervals_match_sublattices(L) for L in CENSUS)
    for n in (2, 3, 4):
        for orientation in itertools.product(("left", "right"), repeat=n - 1):
            TL = tors_of_algebra(QuiverPresentation(n, orientation)).tors
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
