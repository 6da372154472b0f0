"""Monomial algebras on every orientation, through the one quiver path.

A type-A quiver modulo monomial relations is a string algebra without
bands: its indecomposables are the interval modules that hold no relation
path, each with a one-dimensional endomorphism ring, whatever the
orientation.  The inputs are every non-linear orientation of A3-A4 with
one or two minimal relation paths (single arrows allowed) and of A5 with
paths of at least two arrows.  Each algebra must lose the interval each
relation path spans, and its torsion lattice must come from a
factorizable relation and pass the invariant suite, the closure-axiom
oracle, the surjection dichotomy and, up to 12 bricks, the subset scan.
Each quotient by one more path that keeps the relations minimal must
kill the interval that path spans and pass the fiber check on every
comparable pair and the label check.
"""

from __future__ import annotations

import itertools

import pytest

from torslat.bridge import (
    label_preservation_check,
    quotient_map,
    tors_of_algebra,
)
from torslat.galois import is_factorizable, verify_tors_lattice
from torslat.oracle import (
    brute_torsion_pairs,
    closure_axiom_check,
    fiber_check,
    same_tors,
    surjection_dichotomy_sweep,
)
from torslat.quiver import IntervalModule, QuiverPresentation, bricks


def paths(orientation):
    """Every arrow path of the quiver, arrows in the order they compose."""
    out = []
    for k, o in enumerate(orientation):
        end = k
        while end < len(orientation) and orientation[end] == o:
            run = tuple(range(k, end + 1))
            out.append(run if o == "right" else run[::-1])
            end += 1
    return out


def minimal(relations):
    """No relation path lies inside another."""
    return all(
        not set(p) <= set(q) for p, q in itertools.permutations(relations, 2)
    )


def span(path) -> IntervalModule:
    """The interval on exactly the vertices the path runs through."""
    return IntervalModule(min(path) + 1, max(path) + 2)


# (vertices, shortest relation path allowed)
SIZES = ((3, 1), (4, 1), (5, 2))


def monomial_specs():
    """(n, orientation, relations, candidate paths) per algebra."""
    out = []
    for n, shortest in SIZES:
        for o in itertools.product(("left", "right"), repeat=n - 1):
            if len(set(o)) == 1:
                continue
            candidates = [p for p in paths(o) if len(p) >= shortest]
            for count in (1, 2):
                for rels in itertools.combinations(candidates, count):
                    if minimal(rels):
                        out.append((n, o, rels, candidates))
    return out


SPECS = monomial_specs()
ALGEBRAS = [(n, o, rels) for n, o, rels, _ in SPECS]
QUOTIENTS = [
    ((n, o, rels), p)
    for n, o, rels, candidates in SPECS
    for p in candidates
    if minimal(rels + (p,))
]


def spec_id(spec) -> str:
    n, o, rels = spec
    return f"A{n}{''.join(d[0] for d in o)}:" + "+".join(
        ".".join(map(str, p)) for p in rels
    )


def test_family_sizes():
    assert len(ALGEBRAS) == 78
    assert len(QUOTIENTS) == 78


@pytest.mark.parametrize("spec", ALGEBRAS, ids=spec_id)
def test_algebra_passes_every_check(spec):
    Q = QuiverPresentation(*spec)
    TL = tors_of_algebra(Q)
    assert not {span(p) for p in Q.relations} & set(bricks(Q))
    assert is_factorizable(TL.relation)
    assert verify_tors_lattice(TL) == []
    assert closure_axiom_check(Q, TL)
    assert surjection_dichotomy_sweep(Q)["violations"] == []
    if TL.relation.m <= 12:
        assert same_tors(TL, brute_torsion_pairs(TL.relation))


@pytest.mark.parametrize(
    "spec, extra",
    QUOTIENTS,
    ids=[f"{spec_id(s)}/{'.'.join(map(str, p))}" for s, p in QUOTIENTS],
)
def test_quotient_passes_fiber_and_label_checks(spec, extra):
    Q = QuiverPresentation(*spec)
    qm = quotient_map(Q, (extra,))
    assert qm.brick_map[bricks(Q).index(span(extra))] is None
    L = qm.source.lattice
    assert all(
        fiber_check(qm, u, v) for u in range(L.n) for v in range(L.n) if L.leq(u, v)
    )
    assert label_preservation_check(qm)
