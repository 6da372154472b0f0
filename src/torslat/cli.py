"""Command-line surface: parse input files, run the suites, emit DOT/JSON.

Commands: build-tors, build-rel, check, labels, kappa, quotient, realize,
sweep, census.  All structured output is JSON text with sorted keys; Hasse
diagrams are DOT.  Each command raises instead of returning a status, and
main alone maps the outcome to an exit code and its one stderr line: 0
success, 1 property violation (first witness) or search failure, 2
unusable input file (line and column for syntax errors), output path,
flag value or TORSLAT_THREADS.  Sweep timing goes to stderr so stdout
stays byte-stable across runs and worker counts (TORSLAT_THREADS, default
1, at most MAX_WORKERS).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .bridge import (
    InvalidIdeal,
    fiber_check,
    label_preservation_check,
    quotient_map,
    tors_of_algebra,
)
from .galois import (
    BrickRelation,
    LabelMissing,
    LabelNotUnique,
    TorsLattice,
    all_cover_labels,
    all_torsion_pairs,
    factorizability_violation,
    relation_from_arrows,
    verify_tors_lattice,
)
from .lattice import (
    AntisymmetryViolation,
    FiniteLattice,
    InternalInconsistency,
    NotALattice,
    NotSemidistributive,
    is_semidistributive,
    join_irreducibles,
    kappa,
    kappa_dual,
    meet_irreducibles,
    poset_from_pairs,
    to_dot,
    try_lattice,
)
from .oracle import (
    MAX_CENSUS_ELEMENTS,
    MAX_SWEEP_BRICKS,
    BudgetExceeded,
    SearchBudget,
    brute_torsion_pairs,
    closure_axiom_check,
    lattice_census,
    realize_sd_lattice,
    same_tors,
    surjection_dichotomy_sweep,
    sweep_factorizable,
)
from .quiver import QuiverPresentation, UnsupportedAlgebra

MAX_WORKERS = 64
# A lattice realized by m bricks has at most 2^m elements, and realize
# cannot get through 8 bricks (2^56 candidate relations), so larger
# lattice files are refused before any O(n^2) table is allocated.
MAX_LATTICE_ELEMENTS = 1 << 8


class InputFileError(Exception):
    """Unusable input file, output path, flag value or environment value; exit 2."""


class Violation(Exception):
    """A checked property failed after the report was written; exit code 1."""


def _is_int(v) -> bool:
    """JSON integers only: true and false are not 1 and 0."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_pair(entry) -> bool:
    return isinstance(entry, list) and len(entry) == 2 and all(map(_is_int, entry))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputFileError(f"{path}: file not found")
    except OSError as exc:
        raise InputFileError(f"{path}: cannot read: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path}: not UTF-8 text: {exc.reason}")
    except RecursionError:
        raise InputFileError(f"{path}: JSON nested too deeply")
    except json.JSONDecodeError as exc:
        raise InputFileError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )


def relation_from_json(path: str) -> BrickRelation:
    """Relation file: {"labels": [...], "arrows": [[i, j], ...]}.

    The diagonal is implicit; duplicate pairs (including explicit
    self-pairs) are rejected.
    """
    return _relation_from_obj(path, _load_json(path))


def _relation_from_obj(path: str, obj) -> BrickRelation:
    if not isinstance(obj, dict) or "labels" not in obj or "arrows" not in obj:
        raise InputFileError(
            f"{path}: expected an object with 'labels' and 'arrows'"
        )
    labels = obj["labels"]
    arrows = obj["arrows"]
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise InputFileError(f"{path}: 'labels' must be an array of strings")
    if not isinstance(arrows, list):
        raise InputFileError(f"{path}: 'arrows' must be an array of pairs")
    seen = set()
    pairs = []
    for entry in arrows:
        if not _is_int_pair(entry):
            raise InputFileError(f"{path}: arrow {entry!r} is not an [i, j] pair")
        x, y = entry
        if x == y:
            raise InputFileError(
                f"{path}: arrow [{x}, {y}] duplicates the implicit diagonal"
            )
        if (x, y) in seen:
            raise InputFileError(f"{path}: duplicate arrow [{x}, {y}]")
        seen.add((x, y))
        pairs.append((x, y))
    try:
        return relation_from_arrows(labels, pairs)
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}")


def quiver_from_json(path: str) -> QuiverPresentation:
    """Quiver file: {"vertices": n, "orientation": [...], "relations": [...]}."""
    return _quiver_from_obj(path, _load_json(path))


def _quiver_from_obj(path: str, obj) -> QuiverPresentation:
    if not isinstance(obj, dict) or "vertices" not in obj or "orientation" not in obj:
        raise InputFileError(
            f"{path}: expected an object with 'vertices' and 'orientation'"
        )
    vertices = obj["vertices"]
    orientation = obj["orientation"]
    relations = obj.get("relations", [])
    if not _is_int(vertices):
        raise InputFileError(f"{path}: 'vertices' must be an integer")
    if not isinstance(orientation, list) or not all(
        isinstance(s, str) for s in orientation
    ):
        raise InputFileError(f"{path}: 'orientation' must be an array of strings")
    if not isinstance(relations, list) or not all(
        isinstance(p, list) and all(_is_int(k) for k in p) for p in relations
    ):
        raise InputFileError(
            f"{path}: 'relations' must be an array of arrow index arrays"
        )
    try:
        return QuiverPresentation(
            vertices, tuple(orientation), tuple(tuple(p) for p in relations)
        )
    except (ValueError, UnsupportedAlgebra) as exc:
        raise InputFileError(f"{path}: {exc}")


def lattice_from_json(path: str) -> FiniteLattice:
    """Lattice file: {"elements": n, "covers": [[lower, upper], ...]}."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or "elements" not in obj or "covers" not in obj:
        raise InputFileError(
            f"{path}: expected an object with 'elements' and 'covers'"
        )
    n = obj["elements"]
    covers = obj["covers"]
    if not _is_int(n) or not isinstance(covers, list):
        raise InputFileError(f"{path}: bad 'elements' or 'covers'")
    if n > MAX_LATTICE_ELEMENTS:
        raise InputFileError(
            f"{path}: refusing to allocate tables for {n} elements;"
            f" at most {MAX_LATTICE_ELEMENTS} are supported"
        )
    for entry in covers:
        if not _is_int_pair(entry):
            raise InputFileError(f"{path}: cover {entry!r} is not an [l, u] pair")
    try:
        return try_lattice(poset_from_pairs(n, [tuple(c) for c in covers]))
    except NotALattice as exc:
        raise InputFileError(f"{path}: not a lattice: {exc}")
    except (ValueError, AntisymmetryViolation) as exc:
        raise InputFileError(f"{path}: {exc}")


def _read_tors(path: str) -> tuple[QuiverPresentation | None, TorsLattice]:
    """Parse a quiver or relation file once; the quiver is None for relations."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "vertices" in obj:
        Q = _quiver_from_obj(path, obj)
        return Q, tors_of_algebra(Q).tors
    return None, all_torsion_pairs(_relation_from_obj(path, obj))


def _int(text: str) -> int:
    """ASCII digits with an optional leading '-', and nothing else.

    int() alone also reads '1_0' as 10, ' 0 ' as 0 and a full-width '７'
    as 7.  The ValueError also covers int()'s digit-count limit.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # argparse names the type: "invalid int value: 'abc'"


def _in_range(flag: str, value: int, cap: int | None = None) -> int:
    if value < 1:
        raise InputFileError(f"{flag} must be at least 1, got {value}")
    if cap is not None and value > cap:
        raise InputFileError(f"{flag} must be at most {cap}, got {value}")
    return value


def _workers() -> int:
    """TORSLAT_THREADS, checked before any worker process starts."""
    raw = os.environ.get("TORSLAT_THREADS", "1")
    try:
        workers = _int(raw)
    except ValueError:
        workers = 0
    if not 1 <= workers <= MAX_WORKERS:
        raise InputFileError(
            f"TORSLAT_THREADS must be an integer from 1 to {MAX_WORKERS}, got {raw!r}"
        )
    return workers


def _class_label(TL: TorsLattice, i: int) -> str:
    return "{" + ",".join(_class_list(TL, i)) + "}"


def _class_list(TL: TorsLattice, i: int) -> list[str]:
    return [
        TL.relation.labels[b]
        for b in range(TL.relation.m)
        if TL.tset(i) >> b & 1
    ]


def _tors_summary(TL: TorsLattice) -> dict:
    L = TL.lattice
    return {
        "bricks": sorted(TL.relation.labels),
        "pairs": TL.n,
        "join_irreducibles": len(join_irreducibles(L)),
        "meet_irreducibles": len(meet_irreducibles(L)),
        "semidistributive": is_semidistributive(L),
        "classes": [_class_list(TL, i) for i in range(TL.n)],
    }


def _tors_dot(TL: TorsLattice) -> str:
    labels = all_cover_labels(TL)
    return to_dot(
        TL.lattice,
        node_labels=[_class_label(TL, i) for i in range(TL.n)],
        edge_labels={c: TL.relation.labels[b] for c, b in labels.items()},
    )


def _emit(text: str, dest: str | None):
    if dest is None or dest == "-":
        sys.stdout.write(text)
        return
    try:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFileError(f"{dest}: cannot write: {exc.strerror}")


def _write(args, report: dict, dot: str | None = None):
    """DOT goes to --dot when given; the JSON report goes to --json, or to
    stdout unless the DOT took stdout."""
    if args.dot is not None:
        _emit(dot, args.dot)
    if not (args.dot == "-" and args.json is None):
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.json)


def _cmd_build(args):
    if args.command == "build-tors":
        TL, witness = tors_of_algebra(quiver_from_json(args.input)).tors, None
    else:
        TL = all_torsion_pairs(relation_from_json(args.input))
        witness = factorizability_violation(TL.relation)
    label_error = None
    try:
        dot = _tors_dot(TL)
    except (LabelMissing, LabelNotUnique, InternalInconsistency) as exc:
        label_error = str(exc)
        dot = to_dot(
            TL.lattice, node_labels=[_class_label(TL, i) for i in range(TL.n)]
        )
    summary = _tors_summary(TL)
    if args.command == "build-rel":
        summary["factorizable"] = witness is None
        summary["violation"] = list(witness) if witness else None
    if label_error is not None:
        summary["label_error"] = label_error
    _write(args, summary, dot)
    first = witness or label_error
    if first is not None:
        raise Violation(first)


def _cmd_check(args):
    Q, TL = _read_tors(args.input)
    witness = factorizability_violation(TL.relation)
    problems = verify_tors_lattice(TL)
    checks = [
        {
            "name": "factorizable",
            "ok": witness is None,
            "witness": list(witness) if witness else None,
        },
        {
            "name": "torsion_lattice_properties",
            "ok": not problems,
            "problems": problems,
        },
    ]
    if Q is not None:
        checks.append(
            {"name": "closure_axioms", "ok": closure_axiom_check(Q, TL)}
        )
        dich = surjection_dichotomy_sweep(Q)
        checks.append(
            {
                "name": "surjection_dichotomy",
                "ok": not dich["violations"],
                "violations": dich["violations"],
            }
        )
    if TL.relation.m <= 12:
        checks.append(
            {
                "name": "subset_scan_agreement",
                "ok": same_tors(brute_torsion_pairs(TL.relation), TL),
            }
        )
    report = {"input": args.input, "checks": checks, "ok": all(c["ok"] for c in checks)}
    _write(args, report)
    if not report["ok"]:
        first = next(c for c in checks if not c["ok"])
        raise Violation(f"{first['name']} failed")


def _cmd_labels(args):
    _, TL = _read_tors(args.input)
    table = [
        {
            "lower": c.lower,
            "upper": c.upper,
            "lower_class": _class_list(TL, c.lower),
            "upper_class": _class_list(TL, c.upper),
            "brick": TL.relation.labels[b],
        }
        for c, b in sorted(all_cover_labels(TL).items())
    ]
    _write(args, {"covers": table})


def _cmd_kappa(args):
    _, TL = _read_tors(args.input)
    L = TL.lattice
    table = [
        {
            "ji": j,
            "ji_class": _class_list(TL, j),
            "mi": (m := kappa(L, j)),
            "mi_class": _class_list(TL, m),
            "ji_back": kappa_dual(L, m),
        }
        for j in join_irreducibles(L)
    ]
    _write(args, {"kappa": table})


def _cmd_quotient(args):
    Q = quiver_from_json(args.input)
    ideal = []
    for spec_str in args.ideal or []:
        try:
            ideal.append(tuple(_int(k) for k in spec_str.split(",") if k != ""))
        except ValueError:
            raise InputFileError(f"bad --ideal value {spec_str!r}")
    try:
        qm = quotient_map(Q, tuple(ideal))
    except (InvalidIdeal, UnsupportedAlgebra) as exc:
        raise InputFileError(str(exc))
    src = qm.source.tors
    dst = qm.target.tors
    fibers: dict[int, list[int]] = {}
    for i, t in enumerate(qm.element_map):
        fibers.setdefault(t, []).append(i)
    fiber_ok = all(
        fiber_check(qm, u, v)
        for u in range(src.n)
        for v in range(src.n)
        if src.lattice.leq[u, v]
    )
    labels_ok = label_preservation_check(qm)
    report = {
        "source_pairs": src.n,
        "target_pairs": dst.n,
        "element_map": list(qm.element_map),
        "killed_bricks": [
            qm.source.relation.labels[b]
            for b, t in enumerate(qm.brick_map)
            if t is None
        ],
        "fibers": [fibers[t] for t in sorted(fibers)],
        "collapsed_fibers": [fibers[t] for t in sorted(fibers) if len(fibers[t]) > 1],
        "fiber_checks": fiber_ok,
        "label_preservation": labels_ok,
        "target": _tors_summary(dst),
    }
    _write(args, report, _tors_dot(dst))
    if not (fiber_ok and labels_ok):
        raise Violation("quotient structure checks failed")


def _cmd_realize(args):
    L = lattice_from_json(args.input)
    budget = SearchBudget(max_brick_set_size=_in_range("--max-bricks", args.max_bricks))
    R = realize_sd_lattice(L, budget, factorizable_only=not args.unfiltered)
    if R is None:
        _write(args, {"realized": False, "reason": "none within budget"})
        return
    arrows = [
        [x, y]
        for x in range(R.m)
        for y in range(R.m)
        if x != y and R.row_masks[x] >> y & 1
    ]
    witness = factorizability_violation(R)
    _write(
        args,
        {
            "realized": True,
            "labels": list(R.labels),
            "arrows": arrows,
            "factorizable": witness is None,
        },
    )


def _cmd_sweep(args):
    workers = _workers()
    size = _in_range("--max-size", args.max_size, MAX_SWEEP_BRICKS)
    budget = SearchBudget(max_brick_set_size=size)
    report = sweep_factorizable(budget, literal_mono=args.literal_mono, workers=workers)
    runtime = report.pop("runtime_seconds")
    _write(args, report)
    print(f"runtime: {runtime}s", file=sys.stderr)
    if report["violations"]:
        v = report["violations"][0]
        raise Violation(f"m={v['m']} mask={v['mask']}: {v['problems'][0]}")


def _cmd_census(args):
    size = _in_range("--max-size", args.max_size, MAX_CENSUS_ELEMENTS)
    budget = SearchBudget(max_lattice_size=size)
    out = [
        {
            "elements": L.n,
            "covers": [[c.lower, c.upper] for c in sorted(L.poset.covers)],
            "semidistributive": is_semidistributive(L),
        }
        for L in lattice_census(budget)
    ]
    sizes = Counter(str(e["elements"]) for e in out)
    sd = Counter(str(e["elements"]) for e in out if e["semidistributive"])
    _write(
        args, {"sizes": sizes, "semidistributive": sd, "total": len(out), "lattices": out}
    )


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="torslat",
        description="Torsion-pair lattices of brick relations and type-A quiver algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(sp, run, reads_input=True, dot=False):
        """Finish a subparser: its input, --json, --dot when dot, its handler."""
        if reads_input:
            sp.add_argument("input")
        sp.add_argument("--json", default=None, help="write JSON here instead of stdout")
        if dot:
            sp.add_argument("--dot", default=None, help="write DOT here ('-' for stdout)")
        sp.set_defaults(run=run, dot=None)

    add = sub.add_parser
    command(add("build-tors", help="torsion lattice of a quiver algebra"), _cmd_build, dot=True)
    command(add("build-rel", help="torsion lattice of a brick relation"), _cmd_build, dot=True)
    command(add("check", help="run the full property suite on an input"), _cmd_check)
    command(add("labels", help="cover-to-brick label table"), _cmd_labels)
    command(add("kappa", help="join- to meet-irreducible bijection table"), _cmd_kappa)
    sp = add("quotient", help="quotient algebra and induced lattice quotient")
    sp.add_argument(
        "--ideal",
        action="append",
        help="comma-separated arrow indices of a relation path; repeatable",
    )
    command(sp, _cmd_quotient, dot=True)
    sp = add("realize", help="search for a relation with the given torsion lattice")
    sp.add_argument("--max-bricks", type=_int, default=5)
    sp.add_argument("--unfiltered", action="store_true")
    command(sp, _cmd_realize)
    sp = add("sweep", help="exhaustive relation sweep with invariant checks")
    sp.add_argument("--max-size", type=_int, default=4)
    sp.add_argument("--literal-mono", action="store_true")
    command(sp, _cmd_sweep, reads_input=False)
    sp = add("census", help="all small lattices up to isomorphism")
    sp.add_argument("--max-size", type=_int, default=6)
    command(sp, _cmd_census, reads_input=False)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.run(args)
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        Violation,
        LabelMissing,
        LabelNotUnique,
        InternalInconsistency,
        NotSemidistributive,
    ) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
