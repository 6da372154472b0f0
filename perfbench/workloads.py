"""The three workloads: seeded inputs, command lists and output checks.

Each command is a `torslat` argument list plus a check that reads the
command's exit code and stdout and returns a problem string, or None when
the output agrees with facts the benchmark derives itself (facts.py).
Inputs are written under one fixed relative directory so that stdout, which
echoes input paths, is byte-stable across checkouts.

Every workload ends with smoke(): one tiny instance of each of the nine
commands, so that every layer and command is timed on every workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import facts

INPUT_DIR = ".perfbench_work/in"

# Same content as tests/data/{a2,a2_rel,shift4_rel,m3_lattice,b2_lattice}.json.
A2 = {"vertices": 2, "orientation": ["left"], "relations": []}
A2_REL = {"labels": ["[10]", "[11]", "[01]"], "arrows": [[0, 1], [1, 2]]}
SHIFT4_REL = {"labels": ["b0", "b1", "b2", "b3"], "arrows": [[0, 1], [1, 2], [2, 3]]}
M3 = {"elements": 5, "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]}
B2 = {"elements": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}

# Known defect when this benchmark was written: `check` on this non-factorizable
# relation ends in a NotIrreducible traceback (four_class_diagram -> m_star)
# instead of a one-line violation; `build-rel` reports ('epi-cycle', 3, 5).
CHECK_CRASH_REL = {
    "labels": ["b0", "b1", "b2", "b3", "b4", "b5"],
    "arrows": [[0, 1], [0, 2], [0, 3], [0, 5], [1, 4], [2, 3], [3, 4], [3, 5], [5, 3], [5, 4]],
}

# Semidistributive 7-element lattices with 5 join-irreducibles, all
# realized by 5 bricks.  These nine take a similar search time; the other
# four such census lattices take from 0.03 s to 2.3 s and would make the
# seed, not the code, move wall_s.
REALIZE_POOL = (
    [[0, 1], [0, 2], [1, 3], [2, 6], [3, 4], [4, 5], [5, 6]],
    [[0, 1], [0, 2], [1, 3], [2, 5], [3, 4], [4, 5], [5, 6]],
    [[0, 1], [0, 2], [1, 3], [2, 4], [3, 4], [4, 5], [5, 6]],
    [[0, 1], [1, 2], [1, 3], [2, 4], [3, 6], [4, 5], [5, 6]],
    [[0, 1], [1, 2], [1, 3], [2, 4], [3, 5], [4, 5], [5, 6]],
    [[0, 1], [1, 2], [1, 3], [2, 4], [3, 4], [4, 5], [5, 6]],
    [[0, 1], [1, 2], [2, 3], [2, 4], [3, 5], [4, 6], [5, 6]],
    [[0, 1], [1, 2], [2, 3], [2, 4], [3, 5], [4, 5], [5, 6]],
    [[0, 1], [1, 2], [2, 3], [3, 4], [3, 5], [4, 6], [5, 6]],
)

# Composable relation paths of linear A4 (arrow k joins vertices k+1, k+2).
A4_IDEALS = ((1, 0), (2, 1), (2, 1, 0))

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check

    @property
    def name(self) -> str:
        return self.argv[0]


def write_input(root: Path, name: str, obj) -> str:
    rel = f"{INPUT_DIR}/{name}.json"
    (root / rel).write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return rel


def quiver(n: int, orientation, relations=()) -> dict:
    return {
        "vertices": n,
        "orientation": list(orientation),
        "relations": [list(p) for p in relations],
    }


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}")


class CheckFailed(Exception):
    pass


def _expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def checker(fn) -> Check:
    """Turn a function that raises CheckFailed into a Check."""

    def check(code: int, stdout: str):
        try:
            fn(code, stdout)
        except CheckFailed as exc:
            return str(exc)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return f"unexpected output shape: {exc!r}"
        return None

    return check


def _names(labels, mask: int) -> frozenset:
    return frozenset(labels[b] for b in facts.bits(mask))


# --- checks -----------------------------------------------------------------


def check_quiver_suite(path: str) -> Check:
    expected = {
        "factorizable",
        "torsion_lattice_properties",
        "closure_axioms",
        "surjection_dichotomy",
        "subset_scan_agreement",
    }

    def fn(code, stdout):
        rep = _json(stdout)
        _expect(code == 0, f"exit {code}, expected 0")
        _expect(rep["input"] == path, f"input echoed as {rep['input']!r}")
        _expect({c["name"] for c in rep["checks"]} == expected, "check names differ")
        _expect(all(c["ok"] for c in rep["checks"]) and rep["ok"] is True, "a check failed")

    return checker(fn)


def check_relation_suite(path: str, rows: list[int]) -> Check:
    fac = facts.factorizable(rows)

    def fn(code, stdout):
        rep = _json(stdout)
        ok = {c["name"]: c["ok"] for c in rep["checks"]}
        _expect(code == (0 if fac else 1), f"exit {code}, factorizable={fac}")
        _expect(rep["input"] == path, f"input echoed as {rep['input']!r}")
        _expect(ok["factorizable"] == fac, f"factorizable reported {ok['factorizable']}")
        _expect(ok["subset_scan_agreement"] is True, "subset scan disagrees")
        if fac:
            _expect(ok["torsion_lattice_properties"] is True, "properties failed")
        _expect(rep["ok"] == all(ok.values()), "ok flag inconsistent")

    return checker(fn)


def check_tors(labels, rows: list[int], relation_file: bool) -> Check:
    """build-tors / build-rel: the classes are exactly the subset scan's."""
    classes = {_names(labels, s) for s in facts.closed_sets(rows)}
    fac = facts.factorizable(rows)

    def fn(code, stdout):
        rep = _json(stdout)
        _expect(rep["pairs"] == len(classes), f"pairs {rep['pairs']} != {len(classes)}")
        got = {frozenset(c) for c in rep["classes"]}
        _expect(len(rep["classes"]) == len(got) and got == classes, "classes differ")
        _expect(rep["bricks"] == sorted(labels), "brick list differs")
        if relation_file:
            _expect(rep["factorizable"] == fac, f"factorizable reported {rep['factorizable']}")
            _expect((rep["violation"] is None) == fac, "violation field inconsistent")
        _expect(code == (0 if fac else 1), f"exit {code}, factorizable={fac}")
        if fac:
            _expect(rep["semidistributive"] is True, "not semidistributive")
            m = len(labels)
            _expect(rep["join_irreducibles"] == rep["meet_irreducibles"] == m,
                    "irreducibles do not match bricks")

    return checker(fn)


def check_linear_tors(n: int, relations=()) -> Check:
    bricks = facts.linear_bricks(n, relations)
    labels = [facts.interval_label(n, a, b) for a, b in bricks]
    return check_tors(labels, facts.linear_rows(bricks), relation_file=False)


def check_labels(n: int) -> Check:
    """A_n in any orientation: n*C(n+1)/2 covers over C(n+1) classes."""

    def fn(code, stdout):
        covers = _json(stdout)["covers"]
        _expect(code == 0, f"exit {code}")
        _expect(len(covers) == n * facts.catalan(n + 1) // 2, f"{len(covers)} covers")
        classes = {frozenset(c[k]) for c in covers for k in ("lower_class", "upper_class")}
        _expect(len(classes) == facts.catalan(n + 1), f"{len(classes)} classes")
        for c in covers:
            _expect(c["brick"] in c["upper_class"] and c["brick"] not in c["lower_class"],
                    f"cover {c['lower']}->{c['upper']} label not in the gap")
        _expect(len({c["brick"] for c in covers}) == n * (n + 1) // 2, "bricks unused")

    return checker(fn)


def check_kappa(n: int) -> Check:
    """A_n in any orientation: kappa is a bijection on n(n+1)/2 irreducibles."""

    def fn(code, stdout):
        rows = _json(stdout)["kappa"]
        _expect(code == 0, f"exit {code}")
        _expect(len(rows) == n * (n + 1) // 2, f"{len(rows)} rows")
        _expect(len({r["ji"] for r in rows}) == len(rows), "ji repeated")
        _expect(len({r["mi"] for r in rows}) == len(rows), "mi repeated")
        _expect(all(r["ji_back"] == r["ji"] for r in rows), "kappa_dual o kappa != id")

    return checker(fn)


def check_quotient(n: int, ideal) -> Check:
    source = facts.linear_bricks(n)
    kept = facts.linear_bricks(n, [ideal])
    target_pairs = len(facts.closed_sets(facts.linear_rows(kept)))
    killed = sorted(facts.interval_label(n, a, b) for a, b in source if (a, b) not in kept)

    def fn(code, stdout):
        rep = _json(stdout)
        _expect(code == 0, f"exit {code}")
        _expect(rep["source_pairs"] == facts.catalan(n + 1), "source pairs")
        _expect(rep["target_pairs"] == target_pairs == rep["target"]["pairs"],
                f"target pairs {rep['target_pairs']}/{rep['target']['pairs']} != {target_pairs}")
        _expect(sorted(rep["killed_bricks"]) == killed, "killed bricks differ")
        emap = rep["element_map"]
        _expect(len(emap) == rep["source_pairs"] and set(emap) == set(range(target_pairs)),
                "element map is not onto")
        fibers = [[i for i, t in enumerate(emap) if t == k] for k in range(target_pairs)]
        _expect(rep["fibers"] == fibers, "fibers differ from the element map")
        _expect(rep["collapsed_fibers"] == [f for f in fibers if len(f) > 1], "collapsed fibers")
        _expect(rep["fiber_checks"] is True and rep["label_preservation"] is True,
                "quotient checks failed")

    return checker(fn)


def check_sweep(max_size: int) -> Check:
    expected = {}
    for m in range(1, max_size + 1):
        k = m * (m - 1)
        pairs = [(x, y) for x in range(m) for y in range(m) if x != y]
        fac = sum(
            facts.factorizable(
                facts.rows_from_arrows(m, [p for i, p in enumerate(pairs) if code >> i & 1])
            )
            for code in range(1 << k)
        )
        expected[str(m)] = {"relations": 1 << k, "factorizable": fac}

    def fn(code, stdout):
        rep = _json(stdout)
        _expect(code == 0, f"exit {code}")
        _expect(rep["per_m"] == expected, f"per_m {rep['per_m']} != {expected}")
        _expect(rep["violations"] == [], "violations reported")
        _expect(rep["abstract_dichotomy_failures"] == 0, "dichotomy failures")

    return checker(fn)


def check_census(max_size: int) -> Check:
    def fn(code, stdout):
        rep = _json(stdout)
        _expect(code == 0, f"exit {code}")
        want = {str(n): facts.LATTICE_COUNTS[n - 1] for n in range(1, max_size + 1)}
        want_sd = {str(n): facts.SD_LATTICE_COUNTS[n - 1] for n in range(1, max_size + 1)}
        _expect(rep["sizes"] == want, f"sizes {rep['sizes']}")
        _expect(rep["semidistributive"] == want_sd, f"semidistributive {rep['semidistributive']}")
        _expect(rep["total"] == len(rep["lattices"]) == sum(want.values()), "total")
        seen = {}
        for e in rep["lattices"]:
            up = facts.up_sets_from_covers(e["elements"], e["covers"])
            _expect(facts.lattice_tables(up) is not None, "entry is not a lattice")
            _expect(e["semidistributive"] == facts.semidistributive(up), "SD flag wrong")
            seen[str(e["elements"])] = seen.get(str(e["elements"]), 0) + 1
        _expect(seen == want, "per-size entries differ from sizes")

    return checker(fn)


def check_realize(lattice: dict, realizable: bool) -> Check:
    target = facts.up_sets_from_covers(lattice["elements"], lattice["covers"])

    def fn(code, stdout):
        rep = _json(stdout)
        _expect(code == 0, f"exit {code}")
        _expect(rep["realized"] is realizable, f"realized={rep['realized']}")
        if not realizable:
            return
        rows = facts.rows_from_arrows(len(rep["labels"]), rep["arrows"])
        _expect(rep["factorizable"] is True and facts.factorizable(rows),
                "realizing relation is not factorizable")
        classes = sorted(facts.closed_sets(rows))
        _expect(facts.isomorphic(facts.up_sets_of_classes(classes), target),
                "torsion lattice of the answer is not the input lattice")

    return checker(fn)


# --- workloads --------------------------------------------------------------


def relation_commands(root: Path, name: str, obj: dict, which=("check", "build-rel")):
    path = write_input(root, name, obj)
    rows = facts.rows_from_arrows(len(obj["labels"]), obj["arrows"])
    checks = {
        "check": check_relation_suite(path, rows),
        "build-rel": check_tors(obj["labels"], rows, relation_file=True),
    }
    return [Command((cmd, path), checks[cmd]) for cmd in which]


def smoke(root: Path) -> list[Command]:
    a2 = write_input(root, "smoke_a2", A2)
    b2 = write_input(root, "smoke_b2_lattice", B2)
    return [
        Command(("build-tors", a2), check_linear_tors(2)),
        *relation_commands(root, "smoke_a2_rel", A2_REL, which=("build-rel",)),
        Command(("check", a2), check_quiver_suite(a2)),
        Command(("labels", a2), check_labels(2)),
        Command(("kappa", a2), check_kappa(2)),
        Command(("quotient", a2, "--ideal", "0"), check_quotient(2, (0,))),
        Command(("realize", b2), check_realize(B2, True)),
        Command(("census", "--max-size", "4"), check_census(4)),
        Command(("sweep", "--max-size", "2"), check_sweep(2)),
    ]


def algebra_ladder(root: Path, rng) -> list[Command]:
    """One large lattice per command on type-A algebras (lattice, quiver, bridge)."""
    a4 = write_input(root, "check_a4", quiver(4, ["left"] * 3))
    kappa_a5 = write_input(
        root, "kappa_a5", quiver(5, [rng.choice(["left", "right"]) for _ in range(4)])
    )
    labels_a4 = write_input(
        root, "labels_a4", quiver(4, [rng.choice(["left", "right"]) for _ in range(3)])
    )
    ideal = rng.choice(A4_IDEALS)
    nakayama = ((1, 0), (3, 2))
    a5n = write_input(root, "build_tors_a5_nakayama", quiver(5, ["left"] * 4, nakayama))
    return [
        Command(("check", a4), check_quiver_suite(a4)),
        Command(("kappa", kappa_a5), check_kappa(5)),
        Command(("labels", labels_a4), check_labels(4)),
        Command(("quotient", a4, "--ideal", ",".join(map(str, ideal))), check_quotient(4, ideal)),
        Command(("build-tors", a5n), check_linear_tors(5, nakayama)),
    ] + smoke(root)


def random_relation(rng) -> dict:
    """6-8 bricks, each off-diagonal arrow present with probability 0.3."""
    m = rng.randint(6, 8)
    arrows = [[x, y] for x in range(m) for y in range(m) if x != y and rng.random() < 0.3]
    return {"labels": [f"b{i}" for i in range(m)], "arrows": arrows}


def relation_sweep(root: Path, rng) -> list[Command]:
    """Many tiny lattices: the exhaustive sweep plus relations of 6-8 bricks."""
    cmds = [Command(("sweep", "--max-size", "4"), check_sweep(4))]
    cmds += relation_commands(root, "a2_rel", A2_REL)
    cmds += relation_commands(root, "shift4_rel", SHIFT4_REL)
    cmds += relation_commands(root, "check_crash_rel", CHECK_CRASH_REL)
    for i in range(4):
        cmds += relation_commands(root, f"random_rel_{i}", random_relation(rng))
    return cmds + smoke(root)


def search_census(root: Path, rng) -> list[Command]:
    """Exhaustive search in the oracle: census and realization."""
    m3 = write_input(root, "m3_lattice", M3)
    cmds = [
        Command(("census", "--max-size", "7"), check_census(7)),
        Command(("realize", m3), check_realize(M3, False)),
    ]
    for i, covers in enumerate(rng.sample(REALIZE_POOL, 2)):
        lattice = {"elements": 7, "covers": covers}
        path = write_input(root, f"realize_sd7_{i}", lattice)
        cmds.append(Command(("realize", path), check_realize(lattice, True)))
    return cmds + smoke(root)


WORKLOADS = {
    "algebra-ladder": algebra_ladder,
    "relation-sweep": relation_sweep,
    "search-census": search_census,
}

# The command whose traced call counts are cross-checked against cProfile
# in every traced run (index into the workload's command list).
CROSSCHECK = {"algebra-ladder": 0, "relation-sweep": -1, "search-census": 0}
