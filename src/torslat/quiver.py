"""Interval modules over small type-A quiver algebras.

Supported algebras: the path algebra of a quiver ``1 - 2 - ... - n``
with any arrow orientations, modulo any monomial path relations.  Such an
algebra is a string algebra without bands, so its indecomposables are
the finitely many interval modules described below.

Arrow ``k`` (for ``k = 0..n-2``) joins vertices ``k+1`` and ``k+2``;
``orientation[k] == "right"`` points it ``k+1 -> k+2`` and ``"left"``
points it ``k+2 -> k+1``.

Every indecomposable here is an interval module ``[a, b]``: one copy of
the ground field at each vertex of ``a..b`` and identity maps on arrows
inside the support.  An interval is a module of the algebra exactly when
no relation path lies inside its support.  Hom spaces are computed from
the defining linear system (graded-piece equations ``f . M = N . f``)
by exact integer elimination, never from a formula.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from .galois import BrickRelation, relation_from_arrows
from .lattice import InternalInconsistency


class UnexpectedHomDim(Exception):
    """A Hom space exceeded the dimension bound this code relies on."""

    def __init__(self, dim: int):
        self.dim = dim
        super().__init__(f"hom space has dimension {dim}; expected 0 or 1")


class IntervalModule(NamedTuple("IntervalModule", [("a", int), ("b", int)])):
    """The interval module supported on vertices a..b (1-based, a <= b).

    A named tuple: modules compare, sort and hash as the pair (a, b).
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if not (1 <= a <= b):
            raise ValueError(f"bad interval [{a}, {b}]")
        return super().__new__(cls, a, b)

    @property
    def vertices(self) -> range:
        return range(self.a, self.b + 1)

    def label(self, n: int) -> str:
        """Dimension vector as a bracketed 0/1 string, vertex 1 first."""
        return "[" + "".join(
            "1" if self.a <= v <= self.b else "0" for v in range(1, n + 1)
        ) + "]"


class QuiverPresentation(
    NamedTuple(
        "QuiverPresentation",
        [
            ("n", int),
            ("orientation", tuple[str, ...]),
            ("relations", tuple[tuple[int, ...], ...]),
        ],
    )
):
    """A type-A quiver with monomial relations given as arrow paths.

    A named tuple of (n, orientation, relations); the derived tables below
    are cached in the instance dict.
    """

    def __new__(
        cls,
        n: int,
        orientation: Iterable[str],
        relations: Iterable[Iterable[int]] = (),
    ):
        self = super().__new__(
            cls, n, tuple(orientation), tuple(tuple(p) for p in relations)
        )
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        if len(self.orientation) != n - 1:
            raise ValueError(
                f"need {n - 1} orientations, got {len(self.orientation)}"
            )
        if any(o not in ("left", "right") for o in self.orientation):
            raise ValueError("orientation entries must be 'left' or 'right'")
        seen = set()
        for path in self.relations:
            if len(path) < 1:
                raise ValueError("relation paths must contain an arrow")
            if any(not (0 <= k < n - 1) for k in path):
                raise ValueError(f"relation path {path} has an arrow out of range")
            for k, k2 in zip(path, path[1:]):
                if arrow_ends(self, k)[1] != arrow_ends(self, k2)[0]:
                    raise ValueError(f"relation path {path} is not composable")
            if path in seen:
                raise ValueError(f"duplicate relation path {path}")
            seen.add(path)
        return self

    @cached_property
    def arrows(self) -> tuple[tuple[int, int], ...]:
        """(tail, head) of every arrow in index order."""
        return tuple(arrow_ends(self, k) for k in range(self.n - 1))

    @cached_property
    def _indecomposables(self) -> tuple[IntervalModule, ...]:
        out = tuple(
            M
            for a in range(1, self.n + 1)
            for b in range(a, self.n + 1)
            if is_valid_interval(self, M := IntervalModule(a, b))
        )
        for M in out:
            if hom_dim(self, M, M).dim != 1:
                raise InternalInconsistency(
                    f"interval {M} has endomorphism dimension != 1"
                )
        return out

    @cached_property
    def _hom_relation(self) -> BrickRelation:
        bs = bricks(self)
        arrows = [
            (i, j)
            for i, M in enumerate(bs)
            for j, N in enumerate(bs)
            if i != j and hom_dim(self, M, N).dim > 0
        ]
        return relation_from_arrows((M.label(self.n) for M in bs), arrows)


def arrow_ends(Q: QuiverPresentation, k: int) -> tuple[int, int]:
    if Q.orientation[k] == "right":
        return (k + 1, k + 2)
    return (k + 2, k + 1)


def path_vertices(Q: QuiverPresentation, path: Iterable[int]) -> frozenset[int]:
    out = set()
    for k in path:
        out.update((k + 1, k + 2))
    return frozenset(out)


def is_valid_interval(Q: QuiverPresentation, M: IntervalModule) -> bool:
    """Whether the interval fits the quiver and avoids every relation path."""
    return M.b <= Q.n and annihilated_by(Q, M, Q.relations)


def indecomposables(Q: QuiverPresentation) -> tuple[IntervalModule, ...]:
    """All interval modules of the algebra, sorted by (a, b).

    Each one is confirmed to have a one-dimensional endomorphism space.
    Computed once per presentation.
    """
    return Q._indecomposables


class HomSpace(NamedTuple):
    """A Hom space: its dimension and an integer basis.

    Each basis vector lists the scalar of the vertex map at vertices
    1..n in order (zero wherever either module vanishes); every entry is
    0, 1 or -1 (see ``_nullspace``).
    """

    dim: int
    basis: tuple[tuple[int, ...], ...]


def hom_dim(Q: QuiverPresentation, M: IntervalModule, N: IntervalModule) -> HomSpace:
    """Solve the morphism equations f_head . M_k = N_k . f_tail exactly."""
    common = sorted(set(M.vertices) & set(N.vertices))
    col = {v: i for i, v in enumerate(common)}
    rows: list[list[int]] = []
    for k in range(Q.n - 1):
        t, h = arrow_ends(Q, k)
        m_act = t in M.vertices and h in M.vertices
        n_act = t in N.vertices and h in N.vertices
        row = [0] * len(common)
        if m_act and h in col:
            row[col[h]] += 1
        if n_act and t in col:
            row[col[t]] -= 1
        if any(row):
            rows.append(row)
    basis_vecs = _nullspace(rows, len(common))
    basis = []
    for vec in basis_vecs:
        full = [0] * Q.n
        for v, x in zip(common, vec):
            full[v - 1] = x
        basis.append(tuple(full))
    return HomSpace(len(basis), tuple(basis))


def _nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the solution space of rows . x = 0, by exact elimination.

    Every row of a Hom system is +1 at the head's column and/or -1 at the
    tail's, so the matrix is totally unimodular: each pivot is +1 or -1,
    dividing the pivot row by it is multiplying by it, and the entries
    stay in {0, +1, -1}.  A pivot of any other value raises
    InternalInconsistency instead of returning a wrong basis.
    """
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        unit = mat[r][c]
        if unit not in (1, -1):
            raise InternalInconsistency(f"Hom system has pivot {unit}, not +1 or -1")
        mat[r] = [x * unit for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        vec = [0] * ncols
        vec[c] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][c]
        basis.append(vec)
    return basis


def bricks(Q: QuiverPresentation) -> tuple[IntervalModule, ...]:
    """Indecomposables with one-dimensional endomorphism ring.

    That is all of them: indecomposables() confirms it for each.
    """
    return indecomposables(Q)


def hom_relation(Q: QuiverPresentation) -> BrickRelation:
    """The reflexive relation "Hom(x, y) is nonzero" on the bricks of Q.

    Computed once per presentation.
    """
    return Q._hom_relation


def submodules(Q: QuiverPresentation, M: IntervalModule) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of submodules: subsets closed under arrows inside the support."""
    supp = list(M.vertices)
    inside = [
        (t, h) for t, h in Q.arrows if t in M.vertices and h in M.vertices
    ]
    out = []
    for bits in range(1 << len(supp)):
        sub = {v for i, v in enumerate(supp) if bits >> i & 1}
        if all(h in sub for t, h in inside if t in sub):
            out.append(tuple(sorted(sub)))
    return tuple(sorted(out, key=lambda s: (len(s), s)))


def quotients(Q: QuiverPresentation, M: IntervalModule) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of quotients, complementing submodules(Q, M) entrywise."""
    supp = set(M.vertices)
    return tuple(
        tuple(sorted(supp - set(s))) for s in submodules(Q, M)
    )


def summands(vertices: Iterable[int]) -> tuple[IntervalModule, ...]:
    """Decompose a vertex set into maximal runs of consecutive vertices."""
    vs = sorted(set(vertices))
    out = []
    i = 0
    while i < len(vs):
        j = i
        while j + 1 < len(vs) and vs[j + 1] == vs[j] + 1:
            j += 1
        out.append(IntervalModule(vs[i], vs[j]))
        i = j + 1
    return tuple(out)


def exists_surjection(
    Q: QuiverPresentation, M: IntervalModule, N: IntervalModule
) -> bool:
    """Whether some morphism M -> N is surjective at every vertex of N.

    Relies on Hom spaces here being at most one-dimensional: a nonzero
    multiple of the basis vector vanishes exactly where it does.
    """
    hom = hom_dim(Q, M, N)
    if hom.dim == 0:
        return False
    if hom.dim > 1:
        raise UnexpectedHomDim(hom.dim)
    vec = hom.basis[0]
    return all(vec[v - 1] != 0 for v in N.vertices)


def annihilated_by(
    Q: QuiverPresentation, M: IntervalModule, paths: Iterable[tuple[int, ...]]
) -> bool:
    """Whether every given arrow path acts as zero on M.

    A monomial path acts nonzero on an interval module exactly when all
    its arrows lie inside the support.
    """
    supp = set(M.vertices)
    return all(not path_vertices(Q, tuple(p)) <= supp for p in paths)
