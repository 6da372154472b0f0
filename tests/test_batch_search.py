"""The factorizability kernel and the block search built on it.

kernels.factorizable_lanes decides factorizability of a block of
relations held bit-sliced, one int per arrow and one bit (lane) per
relation; galois.factorizability_violation, derived_epi and derived_mono
decide one relation by loops over its row and column bitsets.  They must
agree with each other and with the plain double loops below (kept here as
the reference) on every relation of at most 4 bricks and on random
relations of up to 8, in both readings of mono, and on relations of 63-80
bricks (planes and masks are Python ints of any width).  The test's
planes are built from explicit row tuples by ``planes_of``.  The block
enumerator must hand the realization search exactly the tuples, in
exactly the order, that a one-at-a-time loop over the product of row
choices would, less those that cannot be the least member of their
relabelling orbit; the least member of every orbit must pass that rule.
The first hits below were recorded from the one-tuple-at-a-time search
that preceded the kernel: keys are indices into the census of lattices up
to 7 elements, values the row masks of the relation found (None: none
within budget; BUDGET: BudgetExceeded).
"""

from __future__ import annotations

import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torslat.kernels as kernels_mod
import torslat.oracle as oracle_mod
from torslat.galois import (
    _closed_sets,
    all_torsion_pairs,
    derived_epi,
    derived_mono,
    factorizability_violation,
    perp_right,
    relation_from_arrows,
)
from torslat.kernels import factorizable_lanes, rows_of
from torslat.lattice import (
    is_semidistributive,
    poset_from_pairs,
    try_lattice,
)
from torslat.oracle import (
    BudgetExceeded,
    _relation_of_rows,
    lattice_census,
    realize_sd_lattice,
)

BUDGET = "budget"

SD_HITS = {
    0: (),
    1: (1,),
    2: (1, 3),
    3: (1, 2),
    4: (1, 3, 7),
    6: (1, 3, 6),
    7: (1, 2, 7),
    8: (1, 3, 5),
    9: (1, 3, 7, 15),
    15: (3, 14, 7, 12),
    16: (1, 2, 5),
    17: (1, 3, 7, 14),
    18: (1, 3, 6, 15),
    19: (1, 2, 7, 15),
    21: (1, 3, 7, 13),
    22: (1, 3, 5, 15),
    23: (1, 3, 7, 11),
    24: (1, 3, 7, 15, 31),
    47: (1, 3, 5, 14),
    50: (3, 30, 7, 15, 28),
    51: (1, 3, 6, 14),
    52: (3, 14, 7, 12, 31),
    53: (1, 3, 7, 12),
    54: (1, 2, 7, 13),
    55: (1, 2, 5, 15),
    57: (1, 3, 6, 11),
    58: (1, 3, 7, 15, 30),
    59: (1, 3, 7, 14, 31),
    60: (1, 3, 6, 15, 31),
    61: (1, 2, 7, 11),
    62: (1, 2, 7, 15, 31),
    68: (1, 7, 29, 15, 25),
    69: (1, 3, 5, 11),
    70: (1, 3, 7, 15, 29),
    71: (1, 3, 7, 13, 31),
    72: (1, 3, 5, 15, 31),
    74: (1, 3, 7, 15, 27),
    75: (1, 3, 7, 11, 31),
    76: (1, 3, 7, 15, 23),
    77: BUDGET,
}

NON_SD_HITS = {
    5: None,
    10: None,
    11: None,
    12: None,
    13: None,
    14: None,
    20: None,
}

UNFILTERED_HITS = {
    0: (),
    1: (1,),
    2: (1, 3),
    3: (1, 2),
    4: (1, 3, 7),
    5: (3, 6, 5),
    6: (1, 3, 6),
    7: (1, 2, 7),
    8: (1, 3, 5),
    9: None,
    10: None,
    11: None,
    12: None,
    13: None,
    14: None,
    15: None,
    16: (1, 2, 5),
    17: None,
    18: None,
    19: None,
    20: None,
    21: None,
    22: None,
    23: None,
    24: None,
}

CENSUS = lattice_census(7)
M3 = try_lattice(poset_from_pairs(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))


def relation_of_rows(rows):
    m = len(rows)
    return relation_from_arrows(
        [f"b{i}" for i in range(m)],
        [(x, y) for x in range(m) for y in range(m) if x != y and rows[x] >> y & 1],
    )


def loop_epi(R):
    """epi[x, y]: every brick receiving an arrow from y also receives one from x."""
    rows = R.row_masks
    m = R.m
    epi = np.zeros((m, m), dtype=bool)
    for x in range(m):
        for y in range(m):
            epi[x, y] = (rows[y] & ~rows[x]) == 0
    return epi


def loop_mono(R, literal=False):
    """mono[x, y]: every brick with an arrow into x has one into y (literal:
    y's targets inside x's)."""
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


def loop_violation(R, literal_mono=False):
    """First witness in lexicographic order: unfactored arrows, then cycles."""
    epi = loop_epi(R)
    mono = loop_mono(R, literal=literal_mono)
    m = R.m
    for x in range(m):
        for z in range(m):
            if not R.row_masks[x] >> z & 1:
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


def reference(rows, literal_mono):
    return loop_violation(relation_of_rows(rows), literal_mono) is None


def planes_of(batch, m):
    """The planes of a batch of row tuples on m bricks, lane t holding
    relation t: plane [x][y] has bit t iff relation t has x -> y."""
    planes = [[0] * m for _ in range(m)]
    for t, rows in enumerate(batch):
        for x, r in enumerate(rows):
            for y in range(m):
                if r >> y & 1:
                    planes[x][y] |= 1 << t
    return planes, (1 << len(batch)) - 1


def lane_flags(mask, n):
    return [bool(mask >> t & 1) for t in range(n)]


def kernel_verdicts(batch, m, literal_mono=False):
    """factorizable_lanes on a batch of row tuples, one bool per relation."""
    return lane_flags(factorizable_lanes(*planes_of(batch, m), literal_mono), len(batch))


def all_rows(m):
    return rows_of(range(1 << (m * (m - 1))), m)


def row_masks(matrix):
    """Each row of a boolean matrix as the bitset of its true columns."""
    return tuple(sum(1 << y for y in range(len(row)) if row[y]) for row in matrix)


def assert_table_matches_loops(R, literal_mono):
    assert derived_epi(R) == row_masks(loop_epi(R))
    assert derived_mono(R, literal_mono) == row_masks(loop_mono(R, literal_mono))
    witness = factorizability_violation(R, literal_mono)
    assert witness == loop_violation(R, literal_mono)
    assert all(type(v) is int for v in (witness or ())[1:])
    return witness


def row_choices(m):
    return [[r for r in range(1 << m) if r >> x & 1] for x in range(m)]


@pytest.mark.parametrize("literal_mono", [False, True])
def test_kernel_matches_the_loops_on_every_small_relation(literal_mono):
    counts = []
    kinds = set()
    for m in range(1, 5):
        rows = all_rows(m)
        got = kernel_verdicts(rows, m, literal_mono)
        assert got == [reference(r, literal_mono) for r in rows]
        counts.append(sum(got))
        for r in rows:
            witness = assert_table_matches_loops(relation_of_rows(r), literal_mono)
            kinds.add((witness or ("none",))[0])
    assert counts == ([1, 1, 1, 1] if literal_mono else [1, 3, 25, 507])
    # every witness form, and so every priority at a cycle pair, is reached
    forms = {"none", "unfactorized-arrow", "epi-cycle", "mono-epi-cycle"}
    assert kinds == (forms if literal_mono else forms | {"mono-cycle"})


@pytest.mark.parametrize("literal_mono", [False, True])
def test_kernel_equals_the_single_relation_code_on_every_small_relation(literal_mono):
    """The bit-sliced kernel and the bitset loops of one relation decide
    the same, on all 4,165 relations of at most 4 bricks."""
    for m in range(1, 5):
        rows = all_rows(m)
        assert kernel_verdicts(rows, m, literal_mono) == [
            factorizability_violation(_relation_of_rows(r), literal_mono) is None
            for r in rows
        ]


@st.composite
def same_size_relations(draw, max_bricks=8):
    """1-6 relations on one random number of bricks, as row masks."""
    m = draw(st.integers(0, max_bricks))
    free = st.integers(0, (1 << m) - 1)
    return [
        tuple(draw(free) | 1 << x for x in range(m))
        for _ in range(draw(st.integers(1, 6)))
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(same_size_relations(), st.booleans())
def test_kernel_matches_the_loops_on_random_relations(batch, literal_mono):
    got = kernel_verdicts(batch, len(batch[0]), literal_mono)
    assert got == [reference(r, literal_mono) for r in batch]
    for r in batch:
        assert_table_matches_loops(relation_of_rows(r), literal_mono)


def total_order(m, equal_rows=False):
    """Brick x hits every y >= x; with equal_rows brick 1 also hits 0, so
    bricks 0 and 1 have the same row."""
    rows = [((1 << m) - 1) & ~((1 << x) - 1) for x in range(m)]
    if equal_rows:
        rows[1] |= 1
    return tuple(rows)


@pytest.mark.parametrize("m", [63, 70, 80])
@pytest.mark.parametrize("equal_rows", [False, True])
def test_wide_relations_take_any_width(m, equal_rows):
    rows = total_order(m, equal_rows)
    R = relation_of_rows(rows)
    expected = ("epi-cycle", 0, 1) if equal_rows else None
    assert loop_violation(R) == expected
    assert_table_matches_loops(R, False)
    batch = [rows, total_order(m, not equal_rows)]
    assert kernel_verdicts(batch, m) == [not equal_rows, equal_rows]


def recorded_candidates(monkeypatch, m, factorizable_only):
    seen = []

    def record(L, rows):
        seen.append(rows)
        return False

    monkeypatch.setattr(oracle_mod, "_rows_realize", record)
    deadline = time.monotonic() + 60
    assert oracle_mod._search_relations(M3, m, factorizable_only, deadline) is None
    return seen


def may_lead_orbit(rows):
    """The orbit rule by a plain loop: row 0 is 2^d - 1 for the least
    number d of bits in a row (no rows: nothing to test)."""
    if not rows:
        return True
    d = min(bin(r).count("1") for r in rows)
    return rows[0] == (1 << d) - 1


@pytest.mark.parametrize("block", [1, 16, 1024])
@pytest.mark.parametrize("m", range(5))
def test_blocks_pass_the_filtered_product_in_order(monkeypatch, m, block):
    monkeypatch.setattr(kernels_mod, "BLOCK", block)
    expected = [
        t
        for t in itertools.product(*row_choices(m))
        if may_lead_orbit(t) and len(set(t)) == m and reference(t, False)
    ]
    assert recorded_candidates(monkeypatch, m, True) == expected


@pytest.mark.parametrize("block", [1, 16, 1024])
@pytest.mark.parametrize("m", range(4))
def test_unfiltered_blocks_pass_the_whole_product_in_order(monkeypatch, m, block):
    monkeypatch.setattr(kernels_mod, "BLOCK", block)
    assert recorded_candidates(monkeypatch, m, False) == [
        t for t in itertools.product(*row_choices(m)) if may_lead_orbit(t)
    ]


def least_relabellings(relations, m):
    """The least row tuple of each relation's relabelling orbit, by brute
    force: p sends brick x to p[x], so row p[x] becomes p(row x)."""
    images = [
        (p, [sum(1 << p[y] for y in range(m) if r >> y & 1) for r in range(1 << m)])
        for p in itertools.permutations(range(m))
    ]

    def relabelled(rows, p, image):
        moved = [0] * m
        for x, r in enumerate(rows):
            moved[p[x]] = image[r]
        return tuple(moved)

    return [min(relabelled(rows, p, image) for p, image in images) for rows in relations]


def kernel_may_lead(batch, m):
    """The orbit rule as the search applies it: a row 0 that is not
    2^d - 1 drops the relation, and otherwise _may_lead_orbit decides,
    on the batch split by row 0 as the search's blocks are."""
    out = {}
    for head in {rows[0] for rows in batch}:
        group = [t for t, rows in enumerate(batch) if rows[0] == head]
        if head & (head + 1):
            verdicts = [False] * len(group)
        else:
            planes, full = planes_of([batch[t] for t in group], m)
            d = head.bit_length()
            verdicts = lane_flags(kernels_mod._may_lead_orbit(planes, d, full), len(group))
        out.update(zip(group, verdicts))
    return [out[t] for t in range(len(batch))]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_the_least_of_every_orbit_passes_the_orbit_rule(m):
    """Every relation for m <= 4, a seeded sample of 2,000 at m = 5."""
    masks = range(1 << (m * (m - 1)))
    if m == 5:
        masks = np.random.default_rng(0).choice(len(masks), 2000, replace=False).tolist()
    relations = rows_of(masks, m)
    if m <= 4:
        assert kernel_may_lead(relations, m) == [may_lead_orbit(r) for r in relations]
    least = least_relabellings(relations, m)
    assert all(kernel_may_lead(least, m))
    assert all(may_lead_orbit(r) for r in least)


def assert_realize_counts_torsion_free_classes(rows):
    """The realization search counts a candidate's classes on the
    torsion-free side, from the complemented rows.  Those classes are the
    right perps of all brick sets, as many as the torsion classes; and
    the relation realizes its own torsion lattice."""
    R = relation_of_rows(rows)
    full = R.full_mask
    free = _closed_sets([full & ~r for r in rows], full, cap=1 << R.m)
    assert free == {perp_right(R, s) for s in range(1 << R.m)}
    TL = all_torsion_pairs(R)
    assert len(free) == TL.n
    assert oracle_mod._rows_realize(TL.lattice, rows)


def test_torsion_free_count_on_every_small_relation():
    for m in range(5):
        for rows in itertools.product(*row_choices(m)):
            assert_realize_counts_torsion_free_classes(rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(same_size_relations())
def test_torsion_free_count_on_random_relations(batch):
    for rows in batch:
        assert_realize_counts_torsion_free_classes(rows)


def test_m3_certificate_tests_few_candidates(monkeypatch):
    """Certifying M3 on 3 to 5 bricks made 23,033 _rows_realize calls
    while every candidate was tested; skipping those that cannot be least
    in their orbit leaves 7,114.  Of the 1,036 blocks, 327 have a row 0
    of the form 2^d - 1 and reach the kernels; the rest are skipped whole."""
    blocks, calls = [0], [0]
    real_planes = kernels_mod._planes
    real_realize = oracle_mod._rows_realize

    def counting_planes(*args):
        blocks[0] += 1
        return real_planes(*args)

    def counting_realize(*args):
        calls[0] += 1
        return real_realize(*args)

    monkeypatch.setattr(kernels_mod, "_planes", counting_planes)
    monkeypatch.setattr(oracle_mod, "_rows_realize", counting_realize)
    assert realize_sd_lattice(M3, 5) is None
    assert 0 < blocks[0] <= 1_036 / 3
    assert 0 < calls[0] <= 23_033 / 3


def hit(L, max_bricks, factorizable_only=True):
    try:
        R = realize_sd_lattice(L, max_bricks, factorizable_only)
    except BudgetExceeded:
        return BUDGET
    return None if R is None else R.row_masks


def test_pinned_hits_cover_the_intended_lattices():
    assert sorted(SD_HITS) == [i for i, L in enumerate(CENSUS) if is_semidistributive(L)]
    assert len(SD_HITS) == 40
    assert sorted(NON_SD_HITS) == [
        i for i, L in enumerate(CENSUS) if L.n <= 6 and not is_semidistributive(L)
    ]
    assert sorted(UNFILTERED_HITS) == [i for i, L in enumerate(CENSUS) if L.n <= 6]


@pytest.mark.parametrize("index", sorted(SD_HITS))
def test_semidistributive_first_hits_are_pinned(index):
    assert hit(CENSUS[index], 5) == SD_HITS[index]


@pytest.mark.parametrize("index", sorted(NON_SD_HITS))
def test_non_semidistributive_absence_is_pinned(index):
    assert hit(CENSUS[index], 4) == NON_SD_HITS[index]


@pytest.mark.parametrize("index", sorted(UNFILTERED_HITS))
def test_unfiltered_first_hits_are_pinned(index):
    assert hit(CENSUS[index], 3, False) == UNFILTERED_HITS[index]


def test_m3_has_no_factorizable_realization_up_to_five_bricks():
    assert realize_sd_lattice(M3, 5) is None


def aborted_search(L, max_bricks):
    """The BudgetExceeded message, the seconds and the traced peak bytes."""
    tracemalloc.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            realize_sd_lattice(L, max_bricks)
        return str(exc.value), time.monotonic() - t0, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_budget_abort_names_its_stage_and_block_memory_stays_small(monkeypatch):
    monkeypatch.setattr(oracle_mod, "TIME_LIMIT", 0.5)
    msg, seconds, peak = aborted_search(M3, 8)
    found = re.search(r"on (\d+) bricks, after ([\d,]+) of 2\^(\d+) candidate", msg)
    assert found, msg
    m = int(found.group(1))
    assert 3 <= m <= 8
    examined, exponent = int(found.group(2).replace(",", "")), int(found.group(3))
    assert exponent == m * (m - 1) and examined < 2**exponent
    assert seconds < 5
    assert peak < 4 * 2**20


def test_search_on_eight_bricks_works_in_bounded_blocks(monkeypatch):
    # M8, eight atoms: not semidistributive, so the search starts at 8 bricks
    atoms = range(1, 9)
    m8 = try_lattice(poset_from_pairs(10, [(0, a) for a in atoms] + [(a, 9) for a in atoms]))
    monkeypatch.setattr(oracle_mod, "TIME_LIMIT", 0.3)
    msg, seconds, peak = aborted_search(m8, 8)
    assert "on 8 bricks, after " in msg
    assert seconds < 5
    assert peak < 4 * 2**20


def test_nine_free_bricks_realize_the_boolean_lattice():
    """2^72 candidates on 9 bricks: block starts pass int64, and the first
    candidate, the arrow-free relation, realizes the 512-element lattice."""
    covers = [(s, s | 1 << i) for s in range(512) for i in range(9) if not s >> i & 1]
    boolean = try_lattice(poset_from_pairs(512, covers))
    R = realize_sd_lattice(boolean, 9)
    assert R.row_masks == tuple(1 << i for i in range(9))


def test_a_huge_brick_budget_costs_nothing_up_front(monkeypatch):
    """M3 is not semidistributive, so every size up to the budget is
    searched; the sizes are not listed before the first candidate."""
    monkeypatch.setattr(oracle_mod, "TIME_LIMIT", 0.05)
    msg, seconds, peak = aborted_search(M3, 10**9)
    assert "ran past its time limit" in msg
    assert seconds < 1
    assert peak < 4 * 2**20


def test_sixty_three_bricks_search_until_the_time_limit(monkeypatch):
    """The 64-element chain has 63 join-irreducibles; planes have no width
    limit, so 63 bricks are searched like any other size."""
    chain = try_lattice(poset_from_pairs(64, [(i, i + 1) for i in range(63)]))
    monkeypatch.setattr(oracle_mod, "TIME_LIMIT", 0.05)
    msg, seconds, peak = aborted_search(chain, 63)
    assert "on 63 bricks, after " in msg
    assert seconds < 5
    assert peak < 4 * 2**20
