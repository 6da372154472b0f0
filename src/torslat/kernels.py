"""numpy batch kernels of the exhaustive searches.

The only module of the package that imports numpy.  ``oracle`` imports it
when a sweep or a realization search runs, so every other command starts
without numpy.  Each kernel handles a block of at most BLOCK candidate
relations, given as an (N, m) int64 array of row masks (brick x has arrows
to the bricks in ``rows[n, x]``, diagonal included), so m is at most 63:

- ``factorizable_batch``: factorizability of each relation, the batch form
  of ``galois.factorizability_violation(...) is None``;
- ``factorizable_orbits``: the sweep's decode of every relation on m
  bricks, grouped by relabelling orbit (``_rows_of_masks``,
  ``_orbit_keys``), and ``rows_of`` to decode the members it runs;
- ``candidate_blocks``: the realization search's candidates, in canonical
  order, less those that cannot lead their relabelling orbit
  (``_may_lead_orbit``) and, with the filter on, those that are not
  factorizable.
"""

from __future__ import annotations

import itertools

import numpy as np

# Candidate relations per kernel call; bounds scratch for any m.  A power
# of two, so the realization search decodes candidate lo + t of a block as
# lo | t.
BLOCK = 1024


def factorizable_batch(rows, literal_mono: bool = False) -> np.ndarray:
    """Factorizability of N relations at once, from their (N, m) row masks.

    Returns an (N,) bool array, entry n being
    ``factorizability_violation(...) is None`` for relation n: no arrow
    x -> z lacks a y with x epi y and y mono z, and no x != y form a
    derived cycle (x epi y epi x, x mono y epi x or x mono y mono x).
    """
    rows = np.asarray(rows, dtype=np.int64)
    n, m = rows.shape
    bit = np.left_shift(1, np.arange(m, dtype=np.int64))
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
    return ~(cycle | unfactored).reshape(n, m * m).any(axis=1)


def _rows_of_masks(masks, m: int) -> np.ndarray:
    """Decode sweep masks into an (N, m) array of row masks.

    A mask holds m*(m-1) off-diagonal bits, row-major: the m-1 bits of
    row x start at bit x*(m-1), and bit x is spliced in as the diagonal.
    """
    masks = np.asarray(masks, dtype=np.int64)[:, None]
    x = np.arange(m)
    return _row_choice((masks >> x * (m - 1)) & ((1 << (m - 1)) - 1), x)


def _orbit_keys(masks: np.ndarray, m: int) -> np.ndarray:
    """The smallest sweep mask of each relation over all m! relabellings.

    Bit i of a mask is the i-th off-diagonal pair (x, y) in row-major
    order; a relabelling p moves that bit to the pair (p[x], p[y]).
    """
    pairs = [(x, y) for x in range(m) for y in range(m) if x != y]
    bit = {pair: i for i, pair in enumerate(pairs)}
    bits = (masks[:, None] >> np.arange(len(pairs))) & 1
    keys = masks.copy()
    for p in itertools.permutations(range(m)):
        moved = np.array([1 << bit[p[x], p[y]] for x, y in pairs], dtype=np.int64)
        np.minimum(keys, bits @ moved, out=keys)
    return keys


def factorizable_orbits(m: int, literal_mono: bool) -> dict[int, list[int]]:
    """The sweep masks of the factorizable relations on m bricks, grouped
    by relabelling orbit: orbit key (the smallest mask of the orbit) ->
    its members in ascending order, keys ascending.  All 2^(m(m-1)) masks
    are decoded, BLOCK at a time."""
    total = 1 << (m * (m - 1))
    kept = []
    for lo in range(0, total, BLOCK):
        masks = np.arange(lo, min(lo + BLOCK, total), dtype=np.int64)
        kept.append(masks[factorizable_batch(_rows_of_masks(masks, m), literal_mono)])
    survivors = np.concatenate(kept)
    orbits: dict[int, list[int]] = {}
    for mask, key in zip(survivors.tolist(), _orbit_keys(survivors, m).tolist()):
        orbits.setdefault(key, []).append(mask)
    return orbits


def rows_of(masks: list[int], m: int) -> list[tuple[int, ...]]:
    """The row masks of each sweep mask, as tuples."""
    return list(map(tuple, _rows_of_masks(masks, m).tolist()))


def candidate_blocks(m: int, factorizable_only: bool):
    """The m-brick candidates of the realization search, one block at a
    time: yields (lo, candidates) for the block starting at candidate lo,
    each candidate a pair: its row masks as a tuple, and a list of each
    brick's principal left perp, the bricks with no arrow into it.
    Blocks skipped whole are yielded empty, so the caller can keep time.

    Row x takes the k = 2^(m-1) masks with bit x set, so candidate c is m
    base-k digits: digit x is (c >> s_x) & (k - 1) with s_x = (m-1)(m-1-x).
    BLOCK is a power of two, so candidate lo + t of the block at lo is
    lo | t, and each digit is lo's (a Python int, so the 2^(m(m-1))
    candidates may pass 64 bits) OR'd with one fixed table of t's digits:
    scratch is O(BLOCK * m^2) whatever m is.  Candidates that cannot lead
    their orbit (row 0 is not 2^d - 1, d the fewest bits in a row; proof
    at ``_may_lead_orbit``) are dropped first.  Row 0 is digit 0, so if
    BLOCK <= 2^s_0 a block shares it and may be skipped whole.  With the
    filter on, rows are forced pairwise distinct (two equal rows are an
    epi-cycle) and only factorizable tuples are kept.
    """
    k = 1 << (m - 1) if m else 1
    total = k**m
    x = np.arange(m)
    shifts = (m - 1) * (m - 1 - x)
    low = (np.arange(min(BLOCK, total))[:, None] >> np.minimum(shifts, 63)) & (k - 1)
    full = (1 << m) - 1
    top = (m - 1) ** 2  # s_0, as a Python int
    whole = BLOCK <= 1 << top
    for lo in range(0, total, BLOCK):
        # row 0 is 2 d + 1 for digit 0 = d: a run of low bits iff d is one
        d = lo >> top
        if whole and d & (d + 1):
            yield lo, ()
            continue
        high = np.array([(lo >> s) & (k - 1) for s in shifts.tolist()], dtype=np.int64)
        rows = _row_choice(low | high, x)
        rows = rows[_may_lead_orbit(rows)]
        if factorizable_only:
            ordered = np.sort(rows, axis=1)
            rows = rows[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
            rows = rows[factorizable_batch(rows)]
        # column y of a relation: the bricks x with an arrow x -> y
        bits = (rows[:, :, None] >> x) & 1
        perps = full & ~(bits << x[:, None]).sum(axis=1)
        yield lo, zip(map(tuple, rows.tolist()), perps.tolist())


def _may_lead_orbit(rows: np.ndarray) -> np.ndarray:
    """Whether each relation of an (N, m) row array may be the least of its
    relabelling orbit, rows compared in order: row 0 is 2^d - 1 for d the
    fewest bits in a row.  Relabelling a brick with d bits to 0 and its
    targets to 1..d-1 gives that row 0, and every row 0 holds bit 0 and at
    least d bits, so none is smaller.
    """
    counts = np.zeros_like(rows)
    for y in range(rows.shape[1]):
        counts += (rows >> y) & 1
    head = rows[:, :1]
    return (((head & (head + 1)) == 0) & (counts >= counts[:, :1])).all(axis=1)


def _row_choice(d, x):
    """The d-th mask with bit x set, in ascending order: bit x spliced into d."""
    low = (1 << x) - 1
    return ((d & ~low) << 1) | (1 << x) | (d & low)
