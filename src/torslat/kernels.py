"""Bit-sliced kernels of the exhaustive searches (``oracle``).

A block of candidate relations on m bricks is held as m x m planes:
plane ``a[x][y]`` is a Python int whose bit t (lane t) says whether
candidate t has the arrow x -> y; diagonal planes hold every lane.  Each
filter is AND/OR/NOT over planes, so a block costs O(m^3) int operations
whatever its lane count, and m has no width limit.  Both searches number
their relations so that row x is a digit of m-1 bits at a fixed shift
(see ``_planes``); a block is the numbers lo | t for t below its lane
count, a power of two dividing lo.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import permutations, product
from operator import and_, or_

from .lattice import InternalInconsistency

# Lanes per block of either search; bounds scratch for any m.  A power of
# two, so candidate lo + t of a block is lo | t.
BLOCK = 1024


def factorizable_lanes(a: list[list[int]], full: int, literal_mono: bool = False) -> int:
    """The lanes of the planes ``a`` (all lanes: ``full``) whose relation
    is factorizable: no arrow x -> z lacks a y with x epi y and y mono z,
    and no x != y form a derived cycle (x epi y epi x, x mono y epi x or
    x mono y mono x)."""
    m = len(a)
    # epi[x][y]: every brick hit by y is hit by x
    epi = _inside(a, full)
    # co[y][x]: x mono y, every brick hitting x hits y; the literal
    # reading is row containment reversed
    co = epi if literal_mono else _inside(list(zip(*a)), full)
    bad = 0
    for x, z in product(range(m), repeat=2):
        bad |= a[x][z] & ~reduce(or_, map(and_, epi[x], co[z]), 0)
    for x, y in permutations(range(m), 2):
        bad |= (epi[x][y] & epi[y][x]) | (co[y][x] & (co[x][y] | epi[y][x]))
    return full & ~bad


def _inside(rows, full: int) -> list[list[int]]:
    """c[x][y]: the lanes where row y of the planes ``rows`` is inside row x."""
    outside = [[full ^ p for p in row] for row in rows]
    return [[full ^ reduce(or_, map(and_, ry, ox), 0) for ry in rows] for ox in outside]


def factorizable_orbits(m: int, literal_mono: bool) -> dict[int, list[int]]:
    """The sweep masks of the factorizable relations on m bricks, grouped
    by relabelling orbit: orbit key (the smallest mask of the orbit) ->
    its members in ascending order, keys ascending.

    A mask holds m*(m-1) off-diagonal bits, row-major: the m-1 bits of
    row x start at bit x*(m-1).  All 2^(m(m-1)) masks are decided, BLOCK
    at a time.  Factorizability is invariant under relabelling, so the
    survivors are walked in ascending order and each one not yet seen is
    the least member of its orbit: its m! relabellings, all survivors.
    """
    total = 1 << (m * (m - 1))
    lanes = min(BLOCK, total)
    full, bits = (1 << lanes) - 1, _lane_bits(lanes)
    shifts = [x * (m - 1) for x in range(m)]
    survivors = []
    for lo in range(0, total, lanes):
        good = factorizable_lanes(_planes(lo, shifts, full, bits), full, literal_mono)
        survivors.extend(lo | t for t in _lanes(good))
    # moves[p][i]: the bit that relabelling p sends the arrow of bit i to
    pairs = [(x, y) for x in range(m) for y in range(m) if x != y]
    moves = [[1 << pairs.index((p[x], p[y])) for x, y in pairs] for p in permutations(range(m))]
    kept, seen = set(survivors), set()
    orbits: dict[int, list[int]] = {}
    for mask in survivors:
        if mask in seen:
            continue
        arrows = _lanes(mask)
        orbit = {sum(move[i] for i in arrows) for move in moves}
        if not orbit <= kept:
            raise InternalInconsistency(f"relabelling {m}-brick mask {mask} changes factorizability")
        seen |= orbit
        orbits[mask] = sorted(orbit)
    return orbits


def rows_of(masks: list[int], m: int) -> list[tuple[int, ...]]:
    """The row masks of each sweep mask, as tuples."""
    shifts = [x * (m - 1) for x in range(m)]
    return [_rows(mask, shifts) for mask in masks]


def candidate_blocks(m: int, factorizable_only: bool):
    """The m-brick candidates of the realization search, one block at a
    time: yields (lo, candidates) for the block starting at candidate lo,
    each candidate its row masks as a tuple, decoded as the search reaches
    it, so an abort or a hit skips the rest of the block.  Blocks skipped
    whole are yielded empty, so the caller can keep time.

    Row x takes the 2^(m-1) masks with bit x set, so candidate c is m
    digits of m-1 bits: digit x is at shift s_x = (m-1)(m-1-x), and row 0
    is the most significant.  A block has min(BLOCK, 2^s_0) lanes, so all
    its candidates share row 0.  Candidates that cannot lead their orbit
    (proof at ``_may_lead_orbit``) are dropped first: the whole block
    unless row 0 is 2^d - 1, and otherwise the lanes with a row of fewer
    than d bits.  With the filter on, only factorizable lanes are kept.
    """
    k = 1 << (m - 1) if m else 1
    total = k**m
    top = (m - 1) ** 2  # s_0
    lanes = min(BLOCK, 1 << top, total)
    full, bits = (1 << lanes) - 1, _lane_bits(lanes)
    shifts = [(m - 1) * (m - 1 - x) for x in range(m)]
    for lo in range(0, total, lanes):
        # row 0 is 2 h + 1 for digit 0 = h: a run of low bits iff h is one
        head = lo >> top
        if head & (head + 1):
            yield lo, ()
            continue
        a = _planes(lo, shifts, full, bits)
        keep = _may_lead_orbit(a, head.bit_length() + 1, full)
        if factorizable_only and keep:
            keep &= factorizable_lanes(a, full)
        yield lo, (_rows(lo | t, shifts) for t in _lanes(keep))


def _may_lead_orbit(a: list[list[int]], d: int, full: int) -> int:
    """The lanes of the planes ``a`` where every row has at least d bits:
    given row 0 is 2^d - 1, those whose relation may be the least of its
    relabelling orbit, rows compared in order.  Relabelling a brick with
    the fewest bits, d', to 0 and its targets to 1..d'-1 gives row 0 =
    2^d' - 1, and every row 0 holds bit 0 and at least d' bits, so none is
    smaller: the least member has row 0 = 2^d' - 1 and so d = d'.
    """
    keep = full
    for row in a:
        # at[j]: the lanes with at least j of the planes so far set
        at = [full] + [0] * d
        for p in row:
            for j in range(d, 0, -1):
                at[j] |= at[j - 1] & p
        keep &= at[d]
    return keep


def _planes(lo: int, shifts: list[int], full: int, bits: list[int]) -> list[list[int]]:
    """The planes of the block of relations numbered lo | t.  The arrow
    x -> y (y != x) of a relation is bit b = s_x + y - (y > x) of its
    number, s_x = shifts[x]: the lanes ``bits[b]`` below the lane count's
    bit width, and above it all lanes or none, as lo has bit b."""
    def plane(b: int) -> int:
        return bits[b] if b < len(bits) else full * (lo >> b & 1)

    m = len(shifts)
    return [[full if y == x else plane(s + y - (y > x)) for y in range(m)]
            for x, s in enumerate(shifts)]


def _lane_bits(lanes: int) -> list[int]:
    """Per bit b of t < lanes (a power of two), the lanes t with bit b set."""
    width = lanes.bit_length() - 1
    return [sum(1 << t for t in range(lanes) if t >> b & 1) for b in range(width)]


def _lanes(mask: int) -> list[int]:
    """The set lanes of a mask, ascending, read off its binary digits."""
    return [one.start() for one in re.finditer("1", bin(mask)[:1:-1])]


def _rows(c: int, shifts: list[int]) -> tuple[int, ...]:
    """The row masks of relation number c: row x is the d-th mask with
    bit x set, d its digit at shifts[x], so bit x is spliced into d."""
    k = (1 << (len(shifts) - 1)) - 1 if shifts else 0
    rows = []
    for x, s in enumerate(shifts):
        d, low = (c >> s) & k, (1 << x) - 1
        rows.append(((d & ~low) << 1) | (1 << x) | (d & low))
    return tuple(rows)
