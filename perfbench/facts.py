"""Facts the benchmark derives on its own, without importing torslat.

A brick relation is a list of row bitmasks: bit y of rows[x] is set when
there is a nonzero map x -> y (the diagonal included).  A finite poset is
a list of up-set bitmasks: bit y of up[x] is set when x <= y.
"""

from __future__ import annotations

import math

# Lattices on n unlabelled elements, n = 1..7 (OEIS A006966), and how many
# of them are semidistributive.
LATTICE_COUNTS = (1, 1, 1, 2, 5, 15, 53)
SD_LATTICE_COUNTS = (1, 1, 1, 2, 4, 9, 22)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def rows_from_arrows(m: int, arrows) -> list[int]:
    rows = [1 << x for x in range(m)]
    for x, y in arrows:
        rows[x] |= 1 << y
    return rows


def _cols(rows: list[int]) -> list[int]:
    m = len(rows)
    return [sum(1 << x for x in range(m) if rows[x] >> y & 1) for y in range(m)]


def closed_sets(rows: list[int]) -> set[int]:
    """Torsion classes by subset scan: the sets T with T = left-perp(right-perp(T))."""
    m = len(rows)
    cols = _cols(rows)
    full = (1 << m) - 1
    out = set()
    for s in range(1 << m):
        hit = 0
        for x in bits(s):
            hit |= rows[x]
        free = full & ~hit
        hit = 0
        for y in bits(free):
            hit |= cols[y]
        if full & ~hit == s:
            out.add(s)
    return out


def factorizable(rows: list[int]) -> bool:
    """Every arrow is a derived epi followed by a derived mono, and no
    nontrivial cycle (epi-epi, mono-epi, mono-mono) joins two bricks."""
    m = len(rows)
    cols = _cols(rows)

    def epi(x, y):  # everything y maps to, x maps to
        return rows[y] & ~rows[x] == 0

    def mono(x, y):  # everything mapping to x maps to y
        return cols[x] & ~cols[y] == 0

    for x in range(m):
        for z in bits(rows[x]):
            if not any(epi(x, y) and mono(y, z) for y in range(m)):
                return False
    for x in range(m):
        for y in range(m):
            if x != y and (
                (epi(x, y) and epi(y, x))
                or (mono(x, y) and epi(y, x))
                or (mono(x, y) and mono(y, x))
            ):
                return False
    return True


def linear_bricks(n: int, relations=()) -> list[tuple[int, int]]:
    """Bricks of linear A_n (every arrow toward the smaller vertex) modulo
    monomial relations: the intervals [a, b] of 1-based vertices that do not
    contain the vertex span of any relation path."""
    spans = [(min(p) + 1, max(p) + 2) for p in relations]
    return [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        if not any(a <= lo and hi <= b for lo, hi in spans)
    ]


def interval_label(n: int, a: int, b: int) -> str:
    return "[" + "".join("1" if a <= v <= b else "0" for v in range(1, n + 1)) + "]"


def linear_rows(bricks: list[tuple[int, int]]) -> list[int]:
    """Hom([a,b], [c,d]) is nonzero on linear A_n exactly when a <= c <= b <= d:
    a quotient [c, b] of the first is a submodule of the second."""
    return [
        sum(1 << j for j, (c, d) in enumerate(bricks) if a <= c <= b <= d)
        for a, b in bricks
    ]


def up_sets_from_covers(n: int, covers) -> list[int]:
    up = [1 << x for x in range(n)]
    changed = True
    for lo, hi in covers:
        up[lo] |= 1 << hi
    while changed:
        changed = False
        for x in range(n):
            grown = up[x]
            for y in bits(up[x]):
                grown |= up[y]
            if grown != up[x]:
                up[x], changed = grown, True
    return up


def up_sets_of_classes(classes: list[int]) -> list[int]:
    return [
        sum(1 << j for j, b in enumerate(classes) if a & ~b == 0) for a in classes
    ]


def _join_table(up: list[int]):
    n = len(up)
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            common = up[x] & up[y]
            least = [z for z in bits(common) if common & ~up[z] == 0]
            table[x][y] = least[0] if least else None
    return table


def lattice_tables(up: list[int]):
    """(join, meet) tables, or None when some pair lacks a join or meet."""
    n = len(up)
    down = [sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)]
    join, meet = _join_table(up), _join_table(down)
    if any(v is None for row in join + meet for v in row):
        return None
    return join, meet


def semidistributive(up: list[int]) -> bool:
    join, meet = lattice_tables(up)
    n = len(up)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if join[x][y] == join[x][z] and join[x][meet[y][z]] != join[x][y]:
                    return False
                if meet[x][y] == meet[x][z] and meet[x][join[y][z]] != meet[x][y]:
                    return False
    return True


def isomorphic(up1: list[int], up2: list[int]) -> bool:
    """Order isomorphism by backtracking, matching up-set and down-set sizes."""
    n = len(up1)
    if n != len(up2):
        return False

    def shape(up):
        down = [sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)]
        return [(bin(up[x]).count("1"), bin(down[x]).count("1")) for x in range(n)]

    s1, s2 = shape(up1), shape(up2)
    if sorted(s1) != sorted(s2):
        return False
    image = [-1] * n

    def extend(x: int, used: int) -> bool:
        if x == n:
            return True
        for y in range(n):
            if used >> y & 1 or s1[x] != s2[y]:
                continue
            if all(
                (up1[x] >> w & 1) == (up2[y] >> image[w] & 1)
                and (up1[w] >> x & 1) == (up2[image[w]] >> y & 1)
                for w in range(x)
            ):
                image[x] = y
                if extend(x + 1, used | 1 << y):
                    return True
        return False

    return extend(0, 0)
