"""End-to-end tests for the command line, including byte-exact goldens."""

import ast
import errno
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import torslat
from torslat.cli import MAX_LATTICE_ELEMENTS, main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return rc, out, err


def golden(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def child(*args: str, timeout: float | None = None, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` on the package under test, installed or not;
    ``kwargs`` go to subprocess.run."""
    src = str(Path(torslat.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
        **kwargs,
    )


def test_build_tors_a2_json_golden(capsys):
    rc, out, err = run(capsys, "build-tors", DATA / "a2.json")
    assert rc == 0
    assert out == golden("a2_tors.json")


def test_build_tors_a2_dot_golden(capsys):
    rc, out, _ = run(capsys, "build-tors", DATA / "a2.json", "--dot", "-")
    assert rc == 0
    assert out == golden("a2_tors.dot")


def test_build_tors_a2_dot_has_all_five_edge_labels(capsys):
    _, out, _ = run(capsys, "build-tors", DATA / "a2.json", "--dot", "-")
    edges = [line for line in out.splitlines() if "->" in line]
    assert len(edges) == 5
    assert all("label=" in line for line in edges)
    assert sum('label="[11]"' in line for line in edges) == 1
    assert sum('label="[10]"' in line for line in edges) == 2
    assert sum('label="[01]"' in line for line in edges) == 2


def test_build_tors_a3_goldens(capsys):
    rc, out, _ = run(capsys, "build-tors", DATA / "a3.json")
    assert rc == 0
    assert out == golden("a3_tors.json")
    rc, out, _ = run(capsys, "build-tors", DATA / "a3.json", "--dot", "-")
    assert rc == 0
    assert out == golden("a3_tors.dot")


def test_build_rel_m3_goldens(capsys):
    """The 3-cycle's lattice is M3, which is not semidistributive: the
    witness search runs and build-rel exits 1 naming the unfactorized arrow."""
    for argv, name in (([], "m3_rel_tors.json"), (["--dot", "-"], "m3_rel_tors.dot")):
        rc, out, err = run(capsys, "build-rel", DATA / "m3_rel.json", *argv)
        assert rc == 1
        assert out == golden(name)
        assert err == "violation: ('unfactorized-arrow', 0, 1)\n"


def test_build_tors_repeated_runs_are_identical(capsys):
    _, first, _ = run(capsys, "build-tors", DATA / "a3.json")
    _, second, _ = run(capsys, "build-tors", DATA / "a3.json")
    assert first == second


def test_quotient_a2_golden(capsys):
    rc, out, err = run(capsys, "quotient", DATA / "a2.json", "--ideal", "0")
    assert rc == 0
    assert out == golden("a2_quotient.json")


def test_quotient_a2_boolean_target_with_one_collapsed_fiber(capsys):
    rc, out, _ = run(capsys, "quotient", DATA / "a2.json", "--ideal", "0")
    report = json.loads(out)
    assert report["target_pairs"] == 4
    assert report["collapsed_fibers"] == [[2, 3]]
    assert report["killed_bricks"] == ["[11]"]
    assert report["fiber_checks"] is True
    assert report["label_preservation"] is True
    assert report["target"]["join_irreducibles"] == 2


def test_quotient_reports_a_tampered_map(monkeypatch, capsys):
    import torslat.cli

    real = torslat.cli.quotient_map

    def tampered(Q, extra_paths):
        qm = real(Q, extra_paths)
        qm.brick_map = (0, None, None)
        return qm

    monkeypatch.setattr(torslat.cli, "quotient_map", tampered)
    rc, out, err = run(capsys, "quotient", DATA / "a2.json", "--ideal", "0")
    assert rc == 1
    report = json.loads(out)
    assert report["fiber_checks"] is False
    assert report["label_preservation"] is False
    assert "quotient structure checks failed" in err


def test_quotient_dot_golden(capsys):
    rc, out, _ = run(capsys, "quotient", DATA / "a2.json", "--ideal", "0", "--dot", "-")
    assert rc == 0
    assert out == golden("a2_quotient.dot")


def test_quotient_a3_goldens(capsys):
    """Linear A3 modulo the path 1,0: two fibers of two classes collapse."""
    rc, out, _ = run(capsys, "quotient", DATA / "a3.json", "--ideal", "1,0")
    assert rc == 0
    assert out == golden("a3_quotient.json")
    rc, out, _ = run(capsys, "quotient", DATA / "a3.json", "--ideal", "1,0", "--dot", "-")
    assert rc == 0
    assert out == golden("a3_quotient.dot")


@pytest.mark.parametrize(
    "stem, command",
    [("a3", "labels"), ("a3", "kappa"), ("a3", "check"), ("a4_mixed_rel", "check")],
    ids=["labels", "kappa", "check", "a4_mixed_rel-check"],
)
def test_cover_readers_a3_goldens(capsys, monkeypatch, stem, command):
    """The commands that read the covers, on linear A3, and check on an A4
    algebra with a relation; run from the repo root so that check's
    "input" field reads as in the golden."""
    monkeypatch.chdir(DATA.parents[1])
    rc, out, _ = run(capsys, command, f"tests/data/{stem}.json")
    assert rc == 0
    assert out == golden(f"{stem}_{command}.json")


def test_build_rel_pentagon_matches_quiver_lattice(capsys):
    rc, out, _ = run(capsys, "build-rel", DATA / "a2_rel.json")
    assert rc == 0
    summary = json.loads(out)
    assert summary["factorizable"] is True
    assert summary["violation"] is None
    assert summary["pairs"] == 5
    quiver_summary = json.loads(golden("a2_tors.json"))
    for key in ("bricks", "classes", "pairs", "semidistributive"):
        assert summary[key] == quiver_summary[key]


def test_build_rel_nonfactorizable_exits_one_with_witness(capsys):
    rc, out, err = run(capsys, "build-rel", DATA / "shift4_rel.json")
    assert rc == 1
    summary = json.loads(out)
    assert summary["factorizable"] is False
    assert summary["violation"] == ["unfactorized-arrow", 1, 2]
    assert summary["semidistributive"] is False
    assert "label_error" in summary
    assert "violation" in err


def chain_file(tmp_path, m, equal_rows=False):
    """Total order on m bricks (x hits every y > x); with equal_rows brick 1
    also hits 0, so bricks 0 and 1 have the same row."""
    arrows = [[x, y] for x in range(m) for y in range(x + 1, m)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "labels": [f"b{i}" for i in range(m)],
        "arrows": arrows + ([[1, 0]] if equal_rows else []),
    }))
    return path


def test_build_rel_and_check_on_seventy_bricks(capsys, tmp_path):
    # wider than a 64-bit row mask: factorizability runs on Python-int masks
    path = chain_file(tmp_path, 70)
    rc, out, err = run(capsys, "build-rel", path)
    assert (rc, err) == (0, "")
    summary = json.loads(out)
    assert summary["factorizable"] is True and summary["violation"] is None
    assert summary["pairs"] == len(summary["classes"]) == 71
    assert summary["join_irreducibles"] == summary["meet_irreducibles"] == 70
    rc, out, err = run(capsys, "check", path)
    assert (rc, err) == (0, "")
    assert json.loads(out)["checks"][0] == {
        "name": "factorizable", "ok": True, "witness": None
    }
    rc, out, err = run(capsys, "build-rel", chain_file(tmp_path, 70, equal_rows=True))
    assert (rc, err) == (1, "violation: ('epi-cycle', 0, 1)\n")
    assert json.loads(out)["violation"] == ["epi-cycle", 0, 1]


# a4_mixed_rel: 1 -> 2 -> 3 <- 4 modulo the path through vertex 2;
# relations are legal on every orientation
@pytest.mark.parametrize("name", ["a2.json", "a4_mixed_rel.json"])
def test_check_quiver_all_pass(capsys, name):
    rc, out, _ = run(capsys, "check", DATA / name)
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True
    names = [c["name"] for c in report["checks"]]
    assert "factorizable" in names
    assert "torsion_lattice_properties" in names
    assert "closure_axioms" in names
    assert "surjection_dichotomy" in names
    assert "subset_scan_agreement" in names
    assert all(c["ok"] for c in report["checks"])


def test_quotient_of_a_mixed_orientation(capsys, tmp_path):
    path = tmp_path / "a4_mixed.json"
    path.write_text(
        json.dumps({"vertices": 4, "orientation": ["right", "right", "left"]}),
        encoding="utf-8",
    )
    rc, out, err = run(capsys, "quotient", path, "--ideal", "0,1")
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert report["fiber_checks"] is True
    assert report["label_preservation"] is True
    assert report["killed_bricks"] == ["[1110]", "[1111]"]


def test_check_relation_input(capsys):
    rc, out, _ = run(capsys, "check", DATA / "a2_rel.json")
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_check_reports_first_failure(capsys):
    rc, out, err = run(capsys, "check", DATA / "shift4_rel.json")
    assert rc == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert "factorizable failed" in err


def test_mask_228_is_clean_but_not_polygonal(capsys):
    """Sweep mask 228 (arrows 0->3, 1->3, 2->0, 2->1) is factorizable and
    passes `check`, yet class 0's two upper covers {b2} and {b3} join at
    the top, so [0, top] is the whole 7-class lattice, not a polygon."""
    path = DATA / "mask228_rel.json"
    rc, out, _ = run(capsys, "check", path)
    assert rc == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["torsion_lattice_properties"]["ok"] is True
    rc, out, _ = run(capsys, "build-rel", path)
    assert rc == 0
    summary = json.loads(out)
    assert summary["pairs"] == 7
    assert summary["factorizable"] is True
    classes = summary["classes"]
    rc, out, _ = run(capsys, "labels", path)
    assert rc == 0
    upper = [c["upper"] for c in json.loads(out)["covers"] if c["lower"] == 0]
    assert [classes[u] for u in upper] == [["b2"], ["b3"]]
    # the join is the smallest class holding both; only the top does
    assert [i for i, c in enumerate(classes) if {"b2", "b3"} <= set(c)] == [6]
    assert len(classes) == 7


def test_labels_table(capsys):
    rc, out, _ = run(capsys, "labels", DATA / "a2_rel.json")
    assert rc == 0
    table = json.loads(out)["covers"]
    assert len(table) == 5
    by_edge = {(row["lower"], row["upper"]): row["brick"] for row in table}
    assert by_edge == {
        (0, 1): "[10]",
        (0, 2): "[01]",
        (1, 4): "[01]",
        (2, 3): "[11]",
        (3, 4): "[10]",
    }


def test_labels_accepts_quiver_input(capsys):
    rc, out, _ = run(capsys, "labels", DATA / "a2.json")
    assert rc == 0
    assert len(json.loads(out)["covers"]) == 5


def test_labels_failure_exits_one(capsys):
    rc, _, err = run(capsys, "labels", DATA / "shift4_rel.json")
    assert rc == 1
    assert "violation" in err


def test_kappa_table(capsys):
    rc, out, _ = run(capsys, "kappa", DATA / "a2.json")
    assert rc == 0
    table = json.loads(out)["kappa"]
    assert {row["ji"]: row["mi"] for row in table} == {1: 3, 2: 1, 3: 2}
    assert all(row["ji_back"] == row["ji"] for row in table)


def test_realize_pentagon(capsys):
    rc, out, _ = run(capsys, "realize", DATA / "n5_lattice.json")
    assert rc == 0
    result = json.loads(out)
    assert result["realized"] is True
    assert result["factorizable"] is True
    assert len(result["labels"]) == 3


def test_realize_diamond_needs_unfiltered(capsys):
    rc, out, _ = run(capsys, "realize", DATA / "m3_lattice.json", "--max-bricks", "3")
    assert rc == 0
    assert json.loads(out) == {"realized": False, "reason": "none within budget"}
    rc, out, _ = run(
        capsys, "realize", DATA / "m3_lattice.json", "--max-bricks", "3", "--unfiltered"
    )
    assert rc == 0
    result = json.loads(out)
    assert result["realized"] is True
    assert result["factorizable"] is False


def test_realize_rejects_non_lattice(capsys):
    path = DATA / "not_a_lattice.json"
    path.write_text('{"elements": 3, "covers": [[0, 1], [0, 2]]}', encoding="utf-8")
    try:
        rc, _, err = run(capsys, "realize", path)
    finally:
        path.unlink()
    assert rc == 2
    assert "not a lattice" in err


def test_sweep_stdout_is_stable_and_runtime_on_stderr(capsys):
    rc, first, err = run(capsys, "sweep", "--max-size", "2")
    assert rc == 0
    assert "runtime" in err and "runtime" not in first
    _, second, _ = run(capsys, "sweep", "--max-size", "2")
    assert first == second
    report = json.loads(first)
    assert report["per_m"] == {
        "1": {"factorizable": 1, "relations": 1},
        "2": {"factorizable": 3, "relations": 4},
    }
    assert report["violations"] == []


def test_sweep_counts_per_size_go_to_stderr_only(capsys):
    """stdout is the report recorded before the sweep grouped relations
    into relabelling orbits; the counts per size are stderr lines."""
    rc, out, err = run(capsys, "sweep", "--max-size", "4")
    assert rc == 0
    assert out == golden("sweep_4.json")
    lines = err.splitlines()
    assert lines[:-1] == [
        "m=1: 1 relations, 1 factorizable, 1 orbits verified",
        "m=2: 4 relations, 3 factorizable, 2 orbits verified",
        "m=3: 64 relations, 25 factorizable, 6 orbits verified",
        "m=4: 4096 relations, 507 factorizable, 30 orbits verified",
    ]
    assert re.fullmatch(r"runtime: [0-9.]+s", lines[-1])


def test_sweep_literal_mono_stdout_is_the_recorded_report(capsys):
    rc, out, err = run(capsys, "sweep", "--max-size", "4", "--literal-mono")
    assert rc == 0
    assert out == golden("sweep_4_literal.json")
    assert err.splitlines()[-2] == "m=4: 4096 relations, 1 factorizable, 1 orbits verified"


@pytest.mark.parametrize(
    "modules",
    [
        ("concurrent.futures", "multiprocessing"),
        ("dataclasses", "fractions", "decimal"),
        ("numpy",),
    ],
    ids=["process-pool", "dataclasses-fractions-decimal", "numpy"],
)
def test_cli_import_leaves_out(modules):
    """Every CLI command is a fresh process, and importing each of these
    costs it measured milliseconds (Python 3.11): concurrent.futures about
    5 ms and multiprocessing about 6 ms; dataclasses about 1 ms, plus about
    1 ms for each frozen class it generates methods for; fractions with
    decimal about 3 ms; numpy about 120 ms, which no command needs (see
    the tests below)."""
    code = f"import sys, torslat.cli; print(sorted({set(modules)!r} & set(sys.modules)))"
    proc = child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def entry_point_run(*argv: str) -> tuple[int, bool]:
    """Run one command as the console script does; its exit code and
    whether numpy was loaded when it returned."""
    code = (
        "import sys, torslat.cli\n"
        f"sys.argv = ['torslat', *{list(argv)!r}]\n"
        "rc = torslat.cli.main()\n"
        "print(rc, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = child("-c", code)
    rc, loaded = proc.stderr.split()[-2:]
    return int(rc), loaded == "True"


@pytest.mark.parametrize(
    "argv",
    [
        ("build-tors", str(DATA / "a3.json")),
        ("build-rel", str(DATA / "a2_rel.json")),
        ("check", str(DATA / "a3.json")),
        ("labels", str(DATA / "a3.json")),
        ("kappa", str(DATA / "a3.json")),
        ("quotient", str(DATA / "a3.json"), "--ideal", "1,0"),
        ("census", "--max-size", "4"),
        ("realize", str(DATA / "n5_lattice.json")),
        ("sweep", "--max-size", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_lattice_commands_never_load_numpy(argv):
    assert entry_point_run(*argv) == (0, False)


def test_bare_import_does_not_load_numpy():
    proc = child("-c", "import sys, torslat; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_no_module_imports_numpy():
    package = Path(torslat.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (
                [a.name for a in node.names] if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom)
                else []
            )
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.stem)
    assert importers == set()


def test_process_entry_freezes_the_gc_and_main_with_argv_does_not(capsys):
    """The console script calls main() with no argv: that process freezes
    the import-time heap out of the cyclic collector and prints what
    main([...]) prints.  main([...]), as tests and library callers run it,
    leaves the collector alone."""
    a2 = str(DATA / "a2.json")
    code = (
        "import gc, sys, torslat.cli\n"
        f"sys.argv = ['torslat', 'build-tors', {a2!r}]\n"
        "rc = torslat.cli.main()\n"
        "print(gc.get_freeze_count(), rc, file=sys.stderr)\n"
    )
    proc = child("-c", code)
    assert proc.returncode == 0, proc.stderr
    frozen, rc = map(int, proc.stderr.split())
    assert frozen > 0 and rc == 0
    before = gc.get_freeze_count()
    assert run(capsys, "build-tors", a2)[:2] == (0, proc.stdout)
    assert gc.get_freeze_count() == before


def test_sweep_literal_mono_flag(capsys):
    rc, out, _ = run(capsys, "sweep", "--max-size", "2", "--literal-mono")
    assert rc == 0
    report = json.loads(out)
    assert report["literal_mono"] is True
    assert report["per_m"]["2"]["factorizable"] == 1


def test_census_counts(capsys):
    rc, out, _ = run(capsys, "census", "--max-size", "5")
    assert rc == 0
    report = json.loads(out)
    assert report["sizes"] == {"1": 1, "2": 1, "3": 1, "4": 2, "5": 5}
    assert report["semidistributive"] == {"1": 1, "2": 1, "3": 1, "4": 2, "5": 4}
    assert report["total"] == 10


def test_census_7_golden(capsys):
    """The census to 7 elements byte for byte, lattices in the order the
    enumeration keeps them."""
    rc, out, _ = run(capsys, "census", "--max-size", "7")
    assert rc == 0
    assert out == golden("census_7.json")


@pytest.mark.parametrize(
    "name, flags",
    [("n5", []), ("m3", ["--max-bricks", "3", "--unfiltered"])],
)
def test_realize_golden(capsys, name, flags):
    """`realize` byte for byte: the lattice file is read through
    poset_from_pairs, and the first relation found is pinned."""
    rc, out, _ = run(capsys, "realize", DATA / f"{name}_lattice.json", *flags)
    assert rc == 0
    assert out == golden(f"{name}_realize{'_unfiltered' if flags else ''}.json")


def test_syntax_error_reports_line_and_column(capsys):
    rc, _, err = run(capsys, "build-rel", DATA / "bad_syntax.json")
    assert rc == 2
    assert "line 1 column" in err


def test_duplicate_arrow_is_input_error(capsys):
    rc, _, err = run(capsys, "build-rel", DATA / "dup_arrow.json")
    assert rc == 2
    assert "duplicate arrow" in err


def test_self_arrow_is_input_error(capsys):
    rc, _, err = run(capsys, "build-rel", DATA / "self_arrow.json")
    assert rc == 2
    assert "diagonal" in err


def test_missing_file_is_input_error(capsys):
    rc, _, err = run(capsys, "build-tors", DATA / "no_such_file.json")
    assert rc == 2
    assert "file not found" in err


def test_quotient_bad_ideal_values(capsys):
    rc, _, err = run(capsys, "quotient", DATA / "a2.json", "--ideal", "5")
    assert rc == 2
    assert err == "error: --ideal: relation path (5,) has an arrow out of range\n"
    rc, _, err = run(capsys, "quotient", DATA / "a2.json", "--ideal", "x")
    assert rc == 2
    assert "--ideal" in err
    rc, _, err = run(capsys, "quotient", DATA / "a4_mixed_rel.json", "--ideal", "0,1")
    assert rc == 2
    assert err == "error: --ideal: duplicate relation path (0, 1)\n"


def test_console_script_entry_point():
    proc = child("-m", "torslat.cli", "build-tors", str(DATA / "a2.json"))
    assert proc.returncode == 0
    assert proc.stdout == golden("a2_tors.json")


def test_closed_stdout_exits_two_with_one_line():
    """With fd 1 closed at start-up there is no sys.stdout to write the
    report to: one error line, as for an unwritable --json path."""
    proc = child(
        "-m", "torslat.cli", "build-tors", str(DATA / "a2.json"),
        timeout=30, preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: stdout: cannot write: it is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("extra", [(), ("--dot", "-")])
@pytest.mark.parametrize("name", ["a2.json", "a3.json"])
def test_full_stdout_exits_two_with_one_line(monkeypatch, unbuffered, extra, name):
    """A write or flush to stdout that fails (/dev/full: no space left on
    device) is one error line and exit 2, with stdout buffered or not."""
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)

    def full_stdout():
        os.dup2(os.open("/dev/full", os.O_WRONLY), 1)

    proc = child(
        "-m", "torslat.cli", "build-tors", str(DATA / name), *extra,
        timeout=30, preexec_fn=full_stdout,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: stdout: cannot write: {os.strerror(errno.ENOSPC)}\n"


def write_json(tmp_path, obj) -> Path:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def one_line_error(rc, out, err) -> bool:
    return rc == 2 and out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "arrows",
    [
        # semidistributive, epi-cycle (3, 5); a brick's left perp is not meet-irreducible
        [[0, 1], [0, 2], [0, 3], [0, 5], [1, 4], [2, 3], [3, 4], [3, 5], [5, 3], [5, 4]],
        # a cover without a brick label; brick closures that are not join-irreducible
        [[0, 4], [0, 5], [1, 2], [1, 4], [2, 4], [3, 0], [3, 2], [3, 4], [3, 5], [4, 0],
         [5, 3], [5, 4]],
        # a cover with two brick labels
        [[1, 0], [1, 2], [1, 3], [2, 0], [2, 1], [3, 0], [4, 0], [4, 2], [5, 0]],
    ],
)
def test_check_reports_invariant_failures_of_non_factorizable_relations(
    capsys, tmp_path, arrows
):
    path = write_json(tmp_path, {"labels": [f"b{i}" for i in range(6)], "arrows": arrows})
    rc, out, err = run(capsys, "check", path)
    assert rc == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["factorizable"]["ok"] is False
    assert checks["torsion_lattice_properties"]["ok"] is False
    assert checks["torsion_lattice_properties"]["problems"]
    assert err == "violation: factorizable failed\n"


@pytest.mark.parametrize("command", ["check", "labels", "build-rel"])
def test_brick_label_off_gamma_is_a_violation(capsys, tmp_path, command):
    # semidistributive but not factorizable: cover (1, 3) is labelled by
    # brick 0, whose closure is not the cover's gamma label
    path = write_json(
        tmp_path, {"labels": ["a", "b", "c"], "arrows": [[0, 1], [0, 2], [1, 2], [2, 0]]}
    )
    rc, out, err = run(capsys, command, path)
    assert rc == 1
    assert err.startswith("violation: ")
    if command == "labels":
        assert "disagrees with gamma label" in err


@pytest.mark.parametrize(
    "command,obj",
    [
        ("build-rel", {"labels": ["a", "b"], "arrows": [[True, False]]}),
        ("build-tors", {"vertices": True, "orientation": []}),
        (
            "build-tors",
            {"vertices": 3, "orientation": ["left", "left"], "relations": [[True, False]]},
        ),
        ("realize", {"elements": True, "covers": []}),
        ("realize", {"elements": 2, "covers": [[False, True]]}),
    ],
)
def test_json_booleans_are_not_integers(capsys, tmp_path, command, obj):
    assert one_line_error(*run(capsys, command, write_json(tmp_path, obj)))


@pytest.mark.parametrize(
    "obj,message",
    [
        ({"elements": 2, "covers": [[0, 5]]}, "out of range"),
        ({"elements": 2, "covers": [[0, 1], [1, 0]]}, "antisymmetry"),
        ({"elements": -1, "covers": []}, "negative"),
        ({"elements": 10**9, "covers": []}, "allocate"),  # fails before allocating
        ({"elements": 2, "covers": [[0, 1], [0, 1]]}, "duplicate cover [0, 1]"),
        ({"elements": 2, "covers": [[0, 1], [1, 1]]}, "cover [1, 1] joins an element"),
        ({"elements": 3, "covers": [[0, 1], [1, 2], [0, 2]]}, "[0, 2] is not a cover"),
    ],
)
def test_bad_lattice_files_exit_two(capsys, tmp_path, obj, message):
    rc, out, err = run(capsys, "realize", write_json(tmp_path, obj))
    assert one_line_error(rc, out, err)
    assert message in err


READER_MESSAGES = [
    # relation files
    ("build-rel", [], "expected an object with 'labels' and 'arrows'"),
    ("build-rel", {"labels": []}, "expected an object with 'labels' and 'arrows'"),
    ("build-rel", {"labels": ["a", 1], "arrows": 5}, "'labels' must be an array of strings"),
    ("build-rel", {"labels": "ab", "arrows": []}, "'labels' must be an array of strings"),
    ("build-rel", {"labels": ["a"], "arrows": {}}, "'arrows' must be an array of pairs"),
    ("build-rel", {"labels": ["a", "b"], "arrows": [[0]]}, "arrow [0] is not an [i, j] pair"),
    ("build-rel", {"labels": ["a", "b"], "arrows": [[0, 1.0]]},
     "arrow [0, 1.0] is not an [i, j] pair"),
    ("build-rel", {"labels": ["a", "b"], "arrows": [[1, 1], [0]]},
     "arrow [1, 1] duplicates the implicit diagonal"),
    ("build-rel", {"labels": ["a", "b"], "arrows": [[0, 1], [0, 1]]}, "duplicate arrow [0, 1]"),
    ("build-rel", {"labels": ["a", "b"], "arrows": [[0, 5]]},
     "arrow (0, 5) out of range for 2 bricks"),
    ("build-rel", {"labels": ["\ud800", "b"], "arrows": []},
     "'labels' holds a lone surrogate, which UTF-8 cannot encode"),
    # quiver files
    ("build-tors", {"vertices": 2}, "expected an object with 'vertices' and 'orientation'"),
    ("build-tors", {"vertices": "2", "orientation": ["left"]}, "'vertices' must be an integer"),
    ("build-tors", {"vertices": 2, "orientation": [0]}, "'orientation' must be an array of strings"),
    ("build-tors", {"vertices": 2, "orientation": ["left"], "relations": [0]},
     "'relations' must be an array of arrow index arrays"),
    ("build-tors", {"vertices": 0, "orientation": []}, "need at least one vertex, got n=0"),
    ("build-tors", {"vertices": 3, "orientation": ["left"]}, "need 2 orientations, got 1"),
    ("build-tors", {"vertices": 2, "orientation": ["up"]},
     "orientation entries must be 'left' or 'right'"),
    ("build-tors", {"vertices": 3, "orientation": ["left", "right"], "relations": [[0, 1]]},
     "relation path (0, 1) is not composable"),
    ("build-tors", {"vertices": 3, "orientation": ["left", "left"], "relations": [[1, 0], [1, 0]]},
     "duplicate relation path (1, 0)"),
    ("build-tors", {"vertices": 2, "orientation": ["left"], "relations": [[2]]},
     "relation path (2,) has an arrow out of range"),
    ("build-tors", {"vertices": 2, "orientation": ["left"], "relations": [[]]},
     "relation paths must contain an arrow"),
    # lattice files
    ("realize", {"covers": []}, "expected an object with 'elements' and 'covers'"),
    ("realize", {"elements": 2.0, "covers": []}, "bad 'elements' or 'covers'"),
    ("realize", {"elements": -1, "covers": {}}, "bad 'elements' or 'covers'"),
    ("realize", {"elements": -1, "covers": [[0]]}, "'elements' must not be negative, got -1"),
    ("realize", {"elements": 0, "covers": []},
     "not a lattice: the empty order has no bottom and no top"),
    ("realize", {"elements": MAX_LATTICE_ELEMENTS + 1, "covers": [[0]]},
     f"refusing to allocate {MAX_LATTICE_ELEMENTS + 1} elements, more than 8 bricks can realize;"
     f" at most {MAX_LATTICE_ELEMENTS} are supported"),
    ("realize", {"elements": 2, "covers": [[0, 1, 1]]}, "cover [0, 1, 1] is not an [l, u] pair"),
    ("realize", {"elements": 2, "covers": [[1, 1], [0, 1], [0, 1]]},
     "cover [1, 1] joins an element to itself"),
    ("realize", {"elements": 2, "covers": [[0, 1], [0, 1], [1, 1]]}, "duplicate cover [0, 1]"),
    ("realize", {"elements": 2, "covers": [[0, 5]]}, "pair (0, 5) out of range for n=2"),
    ("realize", {"elements": 3, "covers": [[0, 1], [1, 2], [0, 2]]},
     "[0, 2] is not a cover of the order the covers generate"),
]


@pytest.mark.parametrize(
    "command, obj, message", READER_MESSAGES, ids=[m for _, _, m in READER_MESSAGES]
)
def test_reader_messages(capsys, tmp_path, command, obj, message):
    """Each malformed shape of the three input formats exits 2 with its own
    line, and a file with several faults names the one checked first."""
    path = write_json(tmp_path, obj)
    rc, out, err = run(capsys, command, path)
    assert (rc, out, err) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("dot", ["-", "out.dot"])
def test_lone_surrogate_label_writes_no_dot(capsys, tmp_path, dot):
    """A JSON escape can hold a lone surrogate, which no UTF-8 output can:
    the reader refuses it before any DOT is written or its file opened."""
    path = write_json(tmp_path, {"labels": ["\ud800", "b"], "arrows": []})
    dest = dot if dot == "-" else tmp_path / dot
    rc, out, err = run(capsys, "build-rel", path, "--dot", dest)
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: 'labels' holds a lone surrogate, which UTF-8 cannot encode\n"
    assert not (tmp_path / "out.dot").exists()


def test_internal_errors_are_not_reported_as_bad_input(monkeypatch, tmp_path):
    import torslat.cli

    def broken(poset):
        raise RuntimeError("bug")

    monkeypatch.setattr(torslat.cli, "try_lattice", broken)
    with pytest.raises(RuntimeError):
        main(["realize", str(DATA / "n5_lattice.json")])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sweep", "--max-size", "0"), "must be at least 1"),
        (("census", "--max-size", "-1"), "must be at least 1"),
        (("realize", DATA / "n5_lattice.json", "--max-bricks", "0"), "must be at least 1"),
        (("sweep", "--max-size", "6"), "--max-size must be at most 5, got 6"),
        (("census", "--max-size", "8"), "--max-size must be at most 7, got 8"),
    ],
    ids=["sweep-0", "census--1", "realize-0", "sweep-6", "census-8"],
)
def test_size_flags_out_of_range_exit_two(capsys, monkeypatch, argv, message):
    import torslat.cli

    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(torslat.cli, "sweep_factorizable", no_search)
    monkeypatch.setattr(torslat.cli, "lattice_census", no_search)
    monkeypatch.setattr(torslat.cli, "realize_sd_lattice", no_search)
    rc, out, err = run(capsys, *argv)
    assert one_line_error(rc, out, err)
    assert message in err


@pytest.mark.parametrize("elements", [MAX_LATTICE_ELEMENTS + 1, 10**9])
def test_oversized_lattice_files_exit_two_before_allocating(
    capsys, monkeypatch, tmp_path, elements
):
    import torslat.cli

    def no_tables(*args):
        raise AssertionError("an order table was allocated")

    monkeypatch.setattr(torslat.cli, "poset_from_pairs", no_tables)
    path = write_json(tmp_path, {"elements": elements, "covers": []})
    rc, out, err = run(capsys, "realize", path)
    assert one_line_error(rc, out, err)
    assert f"at most {MAX_LATTICE_ELEMENTS}" in err


def test_lattice_file_at_the_element_cap_is_read(tmp_path):
    from torslat.cli import lattice_from_json

    n = MAX_LATTICE_ELEMENTS
    path = write_json(tmp_path, {"elements": n, "covers": [[i, i + 1] for i in range(n - 1)]})
    assert lattice_from_json(str(path)).n == n


def deep_json(tmp_path) -> Path:
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return path


def non_utf8(tmp_path) -> Path:
    path = tmp_path / "latin1.json"
    path.write_bytes('{"labels": ["é"], "arrows": []}'.encode("latin-1"))
    return path


@pytest.mark.parametrize(
    "command, make, message",
    [
        ("check", lambda tmp_path: tmp_path, "cannot read"),  # a directory
        ("build-rel", non_utf8, "not UTF-8"),
        ("realize", deep_json, "nested too deeply"),
    ],
    ids=["directory", "non-utf8", "nested-100000"],
)
def test_unreadable_input_exits_two_naming_the_file(
    capsys, tmp_path, command, make, message
):
    path = make(tmp_path)
    rc, out, err = run(capsys, command, path)
    assert one_line_error(rc, out, err)
    assert str(path) in err and message in err


@pytest.mark.parametrize("command", ["build-tors", "build-rel", "check", "realize"])
def test_integer_past_the_digit_limit_exits_two(tmp_path, command):
    """json.load raises a plain ValueError past int()'s 4,300-digit limit."""
    path = tmp_path / "long.json"
    path.write_text('{"vertices": ' + "9" * 5000 + ', "orientation": []}', encoding="utf-8")
    proc = child("-m", "torslat.cli", command, str(path), timeout=30)
    assert one_line_error(proc.returncode, proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}: ")


@pytest.mark.parametrize("flag", ["--json", "--dot"])
def test_unwritable_output_path_exits_two_naming_it(capsys, tmp_path, flag):
    dest = tmp_path / "missing" / "out.txt"
    rc, out, err = run(capsys, "build-tors", DATA / "a2.json", flag, dest)
    assert one_line_error(rc, out, err)
    assert err.startswith("error: ") and str(dest) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("build-tors", DATA / "a2.json"),
        ("build-rel", DATA / "a2_rel.json"),
        ("quotient", DATA / "a2.json", "--ideal", "0"),
    ],
    ids=["build-tors", "build-rel", "quotient"],
)
def test_json_and_dot_naming_one_file_exit_two_writing_neither(
    capsys, monkeypatch, tmp_path, argv
):
    """Two spellings of one path would have the JSON overwrite the DOT:
    the command exits 2 before it writes either."""
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv, "--dot", "q.out", "--json", "./q.out")
    assert (rc, out, err) == (2, "", "error: --json and --dot both name q.out\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("realize", DATA / "n5_lattice.json", "--max-bricks", "1_0"),
        ("realize", DATA / "n5_lattice.json", "--max-bricks", "+5"),
        ("census", "--max-size", "７"),  # full-width 7
        ("census", "--max-size", " 3 "),
        ("sweep", "--max-size", "٣"),  # Arabic-Indic 3
        ("sweep", "--max-size", "9" * 5000),
        ("sweep", "--max-size", "abc"),
        ("sweep", "--max-size", ""),
        ("census", "--max-size", "1.5"),
        ("sweep", "--max-size", "2\n"),
    ],
    ids=[
        "underscore",
        "plus",
        "full-width",
        "spaces",
        "arabic-indic",
        "5000-digits",
        "letters",
        "empty",
        "decimal",
        "newline",
    ],
)
def test_size_flags_take_ascii_digits_only(capsys, monkeypatch, argv):
    import torslat.cli

    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(torslat.cli, "sweep_factorizable", no_search)
    monkeypatch.setattr(torslat.cli, "lattice_census", no_search)
    monkeypatch.setattr(torslat.cli, "realize_sd_lattice", no_search)
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "invalid int value" in err


def test_negative_size_flag_still_reaches_the_range_check(capsys):
    rc, out, err = run(capsys, "realize", DATA / "n5_lattice.json", "--max-bricks", "-3")
    assert one_line_error(rc, out, err)
    assert "--max-bricks must be at least 1, got -3" in err


@pytest.mark.parametrize("spec", [" 0 ", "1_0", "０", "+0", "0, 1", "", "0,", ",0", "1,,0"])
def test_ideal_entries_take_ascii_digits_only(capsys, spec):
    rc, out, err = run(capsys, "quotient", DATA / "a2.json", "--ideal", spec)
    assert one_line_error(rc, out, err)
    assert f"bad --ideal value {spec!r}" in err


@pytest.mark.parametrize(
    "command, obj, message",
    [
        (
            "build-rel",
            {"labels": [f"b{i}" for i in range(24)], "arrows": []},
            "24 bricks have more than 2048 torsion classes",
        ),
        (
            "build-tors",
            {"vertices": 40, "orientation": ["left"] * 39},
            "40 vertices have at least 2^40 torsion classes;"
            " at most 11 vertices are supported",
        ),
        (
            "check",
            {"vertices": 8, "orientation": ["left"] * 7},
            "36 bricks have more than 2048 torsion classes",
        ),
        (
            "build-rel",
            {"labels": [f"b{i}" for i in range(20000)], "arrows": []},
            "20000 bricks have more than 2048 torsion classes or two equal"
            " columns; at most 2047 bricks are supported",
        ),
    ],
    ids=["free-24-bricks", "linear-A40", "linear-A8", "free-20000-bricks"],
)
def test_class_budget_exits_two_within_seconds(tmp_path, command, obj, message):
    """2^24 classes and an A40 quiver ran until killed; now they stop at
    MAX_TORS_CLASSES (or at the vertex or brick count that implies it) with one
    line, before any table is allocated."""
    proc = child("-m", "torslat.cli", command, str(write_json(tmp_path, obj)), timeout=30)
    assert one_line_error(proc.returncode, proc.stdout, proc.stderr)
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
