"""Command-line surface: parse input files, run the suites, emit DOT/JSON.

Commands: build-tors, build-rel, check, labels, kappa, quotient, realize,
sweep, census.  All structured output is JSON text with sorted keys; Hasse
diagrams are DOT.  Each command raises instead of returning a status, and
main alone maps the outcome to an exit code and its one stderr line: 0
success, 1 property violation (first witness) or search failure, 2
unusable input file (line and column for syntax errors), output path or
flag value, or an input with more torsion classes than MAX_TORS_CLASSES.
Sweep counts per size and timing go to stderr so stdout stays byte-stable
across runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import Counter

from .bridge import (
    InvalidIdeal,
    _fibers_agree,
    label_preservation_check,
    quotient_map,
    tors_of_algebra,
)
from .galois import (
    MAX_TORS_CLASSES,
    BrickRelation,
    LabelMissing,
    LabelNotUnique,
    TooManyClasses,
    TorsLattice,
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
    TIME_LIMIT,
    BudgetExceeded,
    brute_torsion_pairs,
    closure_axiom_check,
    lattice_census,
    realize_sd_lattice,
    same_tors,
    surjection_dichotomy_sweep,
    sweep_factorizable,
)
from .quiver import QuiverPresentation

# A lattice realized by m bricks has at most 2^m elements, and realize
# cannot get through 8 bricks (2^56 candidate relations): larger lattice
# files are refused before their order is built.
MAX_LATTICE_ELEMENTS = 1 << 8
# The simple modules' subsets generate distinct torsion classes, so an
# algebra on n vertices has at least 2^n of them: past this many vertices
# it is over MAX_TORS_CLASSES, and is refused before any Hom is solved.
MAX_QUIVER_VERTICES = MAX_TORS_CLASSES.bit_length() - 1
# Bricks with different columns have different principal left perps,
# torsion classes other than the full set, so a wider relation is over
# MAX_TORS_CLASSES or has two equal columns (a mono-cycle, not
# factorizable); it is refused on its label count, before its arrows are
# read or any principal perp is intersected.
MAX_RELATION_BRICKS = MAX_TORS_CLASSES - 1


class InputFileError(Exception):
    """Unusable input file, output path or flag value; exit 2."""


class Violation(Exception):
    """A checked property failed after the report was written; exit code 1."""


def _is_int(v) -> bool:
    """JSON integers only: true and false are not 1 and 0."""
    return isinstance(v, int) and not isinstance(v, bool)


def _require(path: str, obj, *keys: str):
    """Exit 2 unless obj is an object holding every key."""
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        names = " and ".join(f"'{k}'" for k in keys)
        raise InputFileError(f"{path}: expected an object with {names}")


def _strings(path: str, obj: dict, key: str) -> list[str]:
    value = obj[key]
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InputFileError(f"{path}: '{key}' must be an array of strings")
    if any("\ud800" <= ch <= "\udfff" for s in value for ch in s):
        raise InputFileError(f"{path}: '{key}' holds a lone surrogate, which UTF-8 cannot encode")
    return value


def _pairs(path: str, entries: list, noun: str, shape: str, self_pair: str) -> list:
    """The [x, y] integer pairs, in order; exit 2 at the first entry that is
    not one, has x == y or repeats an earlier pair."""
    pairs: dict[tuple[int, int], None] = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2 and all(map(_is_int, entry))):
            raise InputFileError(f"{path}: {noun} {entry!r} is not an {shape} pair")
        x, y = entry
        if x == y:
            raise InputFileError(f"{path}: {noun} [{x}, {y}] {self_pair}")
        if (x, y) in pairs:
            raise InputFileError(f"{path}: duplicate {noun} [{x}, {y}]")
        pairs[x, y] = None
    return list(pairs)


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
    except ValueError:  # int()'s digit-count limit on a JSON integer
        raise InputFileError(f"{path}: a number has too many digits")


def relation_from_json(path: str) -> BrickRelation:
    """Relation file: {"labels": [...], "arrows": [[i, j], ...]}.

    The diagonal is implicit; duplicate pairs (including explicit
    self-pairs) are rejected.
    """
    return _relation_from_obj(path, _load_json(path))


def _relation_from_obj(path: str, obj) -> BrickRelation:
    _require(path, obj, "labels", "arrows")
    labels = _strings(path, obj, "labels")
    arrows = obj["arrows"]
    if len(labels) > MAX_RELATION_BRICKS:
        raise InputFileError(
            f"{path}: {len(labels)} bricks have more than {MAX_TORS_CLASSES}"
            " torsion classes or two equal columns;"
            f" at most {MAX_RELATION_BRICKS} bricks are supported"
        )
    if not isinstance(arrows, list):
        raise InputFileError(f"{path}: 'arrows' must be an array of pairs")
    pairs = _pairs(path, arrows, "arrow", "[i, j]", "duplicates the implicit diagonal")
    try:
        return relation_from_arrows(labels, pairs)
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}")


def quiver_from_json(path: str) -> QuiverPresentation:
    """Quiver file: {"vertices": n, "orientation": [...], "relations": [...]}."""
    return _quiver_from_obj(path, _load_json(path))


def _quiver_from_obj(path: str, obj) -> QuiverPresentation:
    _require(path, obj, "vertices", "orientation")
    vertices = obj["vertices"]
    relations = obj.get("relations", [])
    if not _is_int(vertices):
        raise InputFileError(f"{path}: 'vertices' must be an integer")
    if vertices > MAX_QUIVER_VERTICES:
        raise InputFileError(
            f"{path}: {vertices} vertices have at least 2^{vertices} torsion"
            f" classes; at most {MAX_QUIVER_VERTICES} vertices are supported"
        )
    orientation = _strings(path, obj, "orientation")
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
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}")


def lattice_from_json(path: str) -> FiniteLattice:
    """Lattice file: {"elements": n, "covers": [[lower, upper], ...]}.

    Repeated covers, covers [x, x] and pairs that are not covers of the
    order the list generates are rejected.
    """
    obj = _load_json(path)
    _require(path, obj, "elements", "covers")
    n = obj["elements"]
    covers = obj["covers"]
    if not _is_int(n) or not isinstance(covers, list):
        raise InputFileError(f"{path}: bad 'elements' or 'covers'")
    if n < 0:
        raise InputFileError(f"{path}: 'elements' must not be negative, got {n}")
    if n > MAX_LATTICE_ELEMENTS:
        raise InputFileError(
            f"{path}: refusing to allocate {n} elements, more than 8 bricks can realize;"
            f" at most {MAX_LATTICE_ELEMENTS} are supported"
        )
    pairs = _pairs(path, covers, "cover", "[l, u]", "joins an element to itself")
    try:
        poset = poset_from_pairs(n, pairs)
        for x, y in pairs:
            if not poset.upper_cover_sets[x] >> y & 1:
                raise InputFileError(
                    f"{path}: [{x}, {y}] is not a cover of the order the covers generate"
                )
        return try_lattice(poset)
    except NotALattice as exc:
        raise InputFileError(f"{path}: not a lattice: {exc}")
    except (ValueError, AntisymmetryViolation) as exc:
        raise InputFileError(f"{path}: {exc}")


def _read_tors(path: str) -> tuple[QuiverPresentation | None, TorsLattice]:
    """Parse a quiver or relation file once; the quiver is None for relations."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "vertices" in obj:
        Q = _quiver_from_obj(path, obj)
        return Q, tors_of_algebra(Q)
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
    return to_dot(
        TL.lattice,
        node_labels=[_class_label(TL, i) for i in range(TL.n)],
        edge_labels={c: TL.relation.labels[b] for c, b in TL.cover_labels.items()},
    )


def _emit(text: str, dest: str | None):
    to_stdout = dest is None or dest == "-"
    if to_stdout and sys.stdout is None:  # fd 1 was closed at start-up
        raise InputFileError("stdout: cannot write: it is closed")
    try:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if to_stdout:  # what stays buffered would fail again at exit
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise InputFileError(f"{'stdout' if to_stdout else dest}: cannot write: {exc.strerror}")


def _distinct_outputs(args):
    """Refuse --json and --dot naming one file ('-' is stdout, not a file)."""
    if {args.json, args.dot}.isdisjoint({None, "-"}) and (
        os.path.realpath(args.json) == os.path.realpath(args.dot)
    ):
        raise InputFileError(f"--json and --dot both name {args.dot}")


def _write(args, report: dict, dot: str | None = None):
    """DOT goes to --dot when given; the JSON report goes to --json, or to
    stdout unless the DOT took stdout."""
    if args.dot is not None:
        _emit(dot, args.dot)
    if not (args.dot == "-" and args.json is None):
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.json)


def _cmd_build(args):
    if args.command == "build-tors":
        TL, witness = tors_of_algebra(quiver_from_json(args.input)), None
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
        for c, b in sorted(TL.cover_labels.items())
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
            ideal.append(tuple(_int(k) for k in spec_str.split(",")))
        except ValueError:
            raise InputFileError(f"bad --ideal value {spec_str!r}")
    try:
        qm = quotient_map(Q, tuple(ideal))
    except InvalidIdeal as exc:
        raise InputFileError(f"--ideal: {exc}")
    src, dst = qm.source, qm.target
    fibers: dict[int, list[int]] = {}
    for i, t in enumerate(qm.element_map):
        fibers.setdefault(t, []).append(i)
    fiber_ok = _fibers_agree(qm)
    labels_ok = label_preservation_check(qm)
    report = {
        "source_pairs": src.n,
        "target_pairs": dst.n,
        "element_map": list(qm.element_map),
        "killed_bricks": [
            src.relation.labels[b]
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
    max_bricks = _in_range("--max-bricks", args.max_bricks)
    R = realize_sd_lattice(L, max_bricks, factorizable_only=not args.unfiltered)
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
    size = _in_range("--max-size", args.max_size, MAX_SWEEP_BRICKS)
    report = sweep_factorizable(size, literal_mono=args.literal_mono)
    runtime = report.pop("runtime_seconds")
    orbits = report.pop("orbits")
    _write(args, report)
    for m, counts in report["per_m"].items():
        print(
            f"m={m}: {counts['relations']} relations,"
            f" {counts['factorizable']} factorizable, {orbits[m]} orbits verified",
            file=sys.stderr,
        )
    print(f"runtime: {runtime}s", file=sys.stderr)
    if report["violations"]:
        v = report["violations"][0]
        raise Violation(f"m={v['m']} mask={v['mask']}: {v['problems'][0]}")


def _cmd_census(args):
    size = _in_range("--max-size", args.max_size, MAX_CENSUS_ELEMENTS)
    out = [
        {
            "elements": L.n,
            "covers": [[c.lower, c.upper] for c in sorted(L.poset.covers)],
            "semidistributive": is_semidistributive(L),
        }
        for L in lattice_census(size)
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
    stops = f"A search still running after {TIME_LIMIT:g} s stops with exit 1."
    sp = add(
        "realize", help="search for a relation with the given torsion lattice", description=stops
    )
    sp.add_argument("--max-bricks", type=_int, default=5, help="most bricks (default %(default)s)")
    sp.add_argument("--unfiltered", action="store_true", help="try all relations (default off)")
    command(sp, _cmd_realize)
    sp = add("sweep", help="exhaustive relation sweep with invariant checks", description=stops)
    sp.add_argument("--max-size", type=_int, default=4, help="most bricks (default %(default)s)")
    sp.add_argument("--literal-mono", action="store_true", help="mono = reversed epi (default off)")
    command(sp, _cmd_sweep, reads_input=False)
    sp = add("census", help="all small lattices up to isomorphism", description=stops)
    sp.add_argument("--max-size", type=_int, default=6, help="most elements (default %(default)s)")
    command(sp, _cmd_census, reads_input=False)
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit code.

    With ``argv`` None this is the process entry point (``python -m
    torslat.cli`` or the ``torslat`` script), and the objects that start-up
    and the imports made (about 13,000 the collector tracks, the same for
    every command) are moved out of the cyclic collector's reach.  All but
    a few dozen of them live until exit anyway; frozen, neither the
    collections a command triggers nor the full ones at interpreter exit
    walk them.  A caller passing ``argv`` (tests, tracing harnesses,
    library code) keeps normal collection.
    """
    args = _parser().parse_args(argv)
    if argv is None:
        gc.freeze()
    try:
        _distinct_outputs(args)
        args.run(args)
    except (InputFileError, TooManyClasses) as exc:
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
