"""End-to-end tests for the command line, including byte-exact goldens."""

import json
import os
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


def test_quotient_dot_golden(capsys):
    rc, out, _ = run(capsys, "quotient", DATA / "a2.json", "--ideal", "0", "--dot", "-")
    assert rc == 0
    assert out == golden("a2_quotient.dot")


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


def test_check_quiver_all_pass(capsys):
    rc, out, _ = run(capsys, "check", DATA / "a2.json")
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


def test_sweep_stdout_independent_of_worker_count(capsys, monkeypatch):
    rc, serial, _ = run(capsys, "sweep", "--max-size", "3")
    assert rc == 0
    monkeypatch.setenv("TORSLAT_THREADS", "2")
    rc, parallel, _ = run(capsys, "sweep", "--max-size", "3")
    assert rc == 0
    assert serial == parallel


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
    rc, _, err = run(capsys, "quotient", DATA / "a2.json", "--ideal", "x")
    assert rc == 2


def test_console_script_entry_point():
    # the child imports the package under test, installed or not
    src = str(Path(torslat.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "torslat.cli", "build-tors", str(DATA / "a2.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == golden("a2_tors.json")


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
    ],
)
def test_bad_lattice_files_exit_two(capsys, tmp_path, obj, message):
    rc, out, err = run(capsys, "realize", write_json(tmp_path, obj))
    assert one_line_error(rc, out, err)
    assert message in err


def test_internal_errors_are_not_reported_as_bad_input(monkeypatch, tmp_path):
    import torslat.cli

    def broken(poset):
        raise RuntimeError("bug")

    monkeypatch.setattr(torslat.cli, "try_lattice", broken)
    with pytest.raises(RuntimeError):
        main(["realize", str(DATA / "n5_lattice.json")])


@pytest.mark.parametrize("value", ["abc", "", "0", "-2", "1.5", "65", "100000", "9" * 5000])
def test_bad_thread_count_exits_two_before_any_worker(capsys, monkeypatch, value):
    import torslat.oracle

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(torslat.oracle, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("TORSLAT_THREADS", value)
    rc, out, err = run(capsys, "sweep", "--max-size", "3")
    assert one_line_error(rc, out, err)
    assert "TORSLAT_THREADS" in err


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


@pytest.mark.parametrize("flag", ["--json", "--dot"])
def test_unwritable_output_path_exits_two_naming_it(capsys, tmp_path, flag):
    dest = tmp_path / "missing" / "out.txt"
    rc, out, err = run(capsys, "build-tors", DATA / "a2.json", flag, dest)
    assert one_line_error(rc, out, err)
    assert err.startswith("error: ") and str(dest) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("realize", DATA / "n5_lattice.json", "--max-bricks", "1_0"),
        ("realize", DATA / "n5_lattice.json", "--max-bricks", "+5"),
        ("census", "--max-size", "７"),  # full-width 7
        ("census", "--max-size", " 3 "),
        ("sweep", "--max-size", "٣"),  # Arabic-Indic 3
        ("sweep", "--max-size", "9" * 5000),
    ],
    ids=["underscore", "plus", "full-width", "spaces", "arabic-indic", "5000-digits"],
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


@pytest.mark.parametrize("spec", [" 0 ", "1_0", "０", "+0", "0, 1"])
def test_ideal_entries_take_ascii_digits_only(capsys, spec):
    rc, out, err = run(capsys, "quotient", DATA / "a2.json", "--ideal", spec)
    assert one_line_error(rc, out, err)
    assert f"bad --ideal value {spec!r}" in err


@pytest.mark.parametrize("value", [" 1 ", "1_0", "２", "+2", "2\n"])
def test_thread_count_takes_ascii_digits_only(capsys, monkeypatch, value):
    import torslat.oracle

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(torslat.oracle, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("TORSLAT_THREADS", value)
    rc, out, err = run(capsys, "sweep", "--max-size", "2")
    assert one_line_error(rc, out, err)
    assert "TORSLAT_THREADS" in err
