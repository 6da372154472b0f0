"""The sweep's relabelling orbits.

The sweep runs the invariant suite and the dichotomy once per S_m orbit of
the factorizable relations.  That is sound only if each orbit's key is its
smallest mask over all relabellings and its members are the whole orbit,
and if everything the sweep reports is constant on each orbit; both are
checked here against brute force on every relation of at most 4 bricks,
as is the constancy of the torsion lattice's isomorphism type that the
realization search relies on.  The
violation and dichotomy paths never fire on the real suite, so they are
driven with a faked verdict on one orbit.
"""

from __future__ import annotations

import itertools
import json
import time

import pytest

import torslat.oracle as oracle_mod
from torslat.cli import main
from torslat.galois import all_torsion_pairs, factorizability_violation, verify_tors_lattice
from torslat.kernels import factorizable_orbits, rows_of
from torslat.lattice import are_isomorphic
from torslat.oracle import (
    _abstract_dichotomy_holds,
    _relation_of_rows,
    sweep_factorizable,
)

# One factorizable orbit on 3 bricks: mask 6 is the arrows 0 -> 2 and 1 -> 0.
ORBIT = [6, 9, 17, 24, 34, 36]


def off_diagonal(m):
    return [(x, y) for x in range(m) for y in range(m) if x != y]


def mask_of(R) -> int:
    return sum(
        1 << i for i, (x, y) in enumerate(off_diagonal(R.m)) if R.row_masks[x] >> y & 1
    )


def brute_orbit(mask: int, m: int) -> list[int]:
    """Every mask reached by relabelling, with x -> y sent to p[x] -> p[y]."""
    arrows = [(x, y) for i, (x, y) in enumerate(off_diagonal(m)) if mask >> i & 1]
    return sorted(
        {
            sum(1 << (p[x] * (m - 1) + p[y] - (p[y] > p[x])) for x, y in arrows)
            for p in itertools.permutations(range(m))
        }
    )


def factorizable_masks(m, literal_mono=False):
    """The sweep masks the kernel finds factorizable."""
    return {mask for orbit in factorizable_orbits(m, literal_mono).values() for mask in orbit}


@pytest.mark.parametrize("literal_mono", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_orbits_are_the_brute_force_grouping(m, literal_mono):
    """factorizable_orbits equals the factorizable masks, by the
    single-relation test, grouped by their smallest relabelled mask: the
    same keys, members and order."""
    brute = {}
    for mask, rows in enumerate(rows_of(range(1 << (m * (m - 1))), m)):
        if factorizability_violation(_relation_of_rows(rows), literal_mono) is None:
            brute.setdefault(brute_orbit(mask, m)[0], []).append(mask)
    orbits = factorizable_orbits(m, literal_mono)
    assert list(orbits.items()) == sorted(brute.items())


def test_the_faked_orbit_is_one_factorizable_orbit():
    assert brute_orbit(ORBIT[0], 3) == ORBIT
    assert factorizable_orbits(3, False)[ORBIT[0]] == ORBIT


@pytest.mark.parametrize("m, orbits", [(1, 1), (2, 3), (3, 16), (4, 218)])
def test_sweep_outcomes_are_constant_on_every_orbit(m, orbits):
    """Factorizability in both readings, the suite's verdict and problem
    count, and the dichotomy, for each relation on m bricks (4,165 in all
    for m <= 4), taken one relation at a time.  The orbit counts are those
    of unlabelled digraphs on m vertices."""
    fac, literal = factorizable_masks(m), factorizable_masks(m, literal_mono=True)
    outcome = {}
    for mask, r in enumerate(rows_of(range(1 << (m * (m - 1))), m)):
        key = brute_orbit(mask, m)[0]
        R = _relation_of_rows(r)
        problems = verify_tors_lattice(all_torsion_pairs(R))
        dichotomy = _abstract_dichotomy_holds(R)
        seen = (mask in fac, mask in literal, not problems, len(problems), dichotomy)
        assert outcome.setdefault(key, seen) == seen, (m, mask, key)
    assert len(outcome) == orbits


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_torsion_lattice_type_is_constant_on_every_orbit(m):
    """The realization search skips candidates that cannot be least in
    their orbit, which is sound because each relation's torsion lattice is
    isomorphic to its orbit key's and factorizability (in both readings)
    agrees with the key's."""
    masks = range(1 << (m * (m - 1)))
    keys = [brute_orbit(mask, m)[0] for mask in masks]
    rows, key_rows = rows_of(masks, m), rows_of(keys, m)
    for literal in (False, True):
        fac = factorizable_masks(m, literal)
        assert [mask in fac for mask in masks] == [key in fac for key in keys]
    lattice_of = {
        key: all_torsion_pairs(_relation_of_rows(r)).lattice
        for key, r in zip(keys, key_rows)
    }
    for key, r in zip(keys, rows):
        L = all_torsion_pairs(_relation_of_rows(r)).lattice
        assert are_isomorphic(L, lattice_of[key]), (m, r)


def fake_suite(monkeypatch):
    """The suite fails, naming the relation's own mask, exactly on ORBIT."""

    def verify(TL):
        mask = mask_of(TL.relation)
        if TL.relation.m == 3 and mask in ORBIT:
            return [f"fake problem at mask {mask}"]
        return []

    monkeypatch.setattr(oracle_mod, "verify_tors_lattice", verify)


def test_a_failing_orbit_reports_every_member_in_mask_order(monkeypatch):
    fake_suite(monkeypatch)
    report = sweep_factorizable(4)
    assert report["violations"] == [
        {"m": 3, "mask": mask, "problems": [f"fake problem at mask {mask}"]}
        for mask in ORBIT
    ]
    assert report["per_m"]["3"] == {"relations": 64, "factorizable": 25}


def test_a_failing_orbit_exits_one_naming_the_first_member(monkeypatch, capsys):
    fake_suite(monkeypatch)
    rc = main(["sweep", "--max-size", "3"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert len(json.loads(out)["violations"]) == len(ORBIT)
    assert err.splitlines()[-1] == "violation: m=3 mask=6: fake problem at mask 6"


def test_dichotomy_failures_count_the_whole_orbit(monkeypatch):
    def holds(R):
        return not (R.m == 3 and mask_of(R) in ORBIT)

    monkeypatch.setattr(oracle_mod, "_abstract_dichotomy_holds", holds)
    report = sweep_factorizable(3)
    assert report["abstract_dichotomy_failures"] == len(ORBIT)
    assert report["violations"] == []


def test_time_limit_names_the_size_it_stopped_before(monkeypatch):
    def slow(R):
        time.sleep(0.2)
        return True

    monkeypatch.setattr(oracle_mod, "_abstract_dichotomy_holds", slow)
    monkeypatch.setattr(oracle_mod, "TIME_LIMIT", 0.1)
    with pytest.raises(oracle_mod.BudgetExceeded, match="time limit before m=2"):
        sweep_factorizable(3)
