"""torslat benchmark: CLI workloads timed end to end, layers traced, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every command is a fresh
`python -m torslat.cli ...` process on the checkout's src/, with a fixed
environment (TORSLAT_THREADS, BLAS thread counts and PYTHONHASHSEED pinned)
and inputs at fixed relative paths, since each CLI user pays the cold cost.

--trace 0 cycles through the workload's command list until --seconds is
spent and reports one pass's wall_s, cpu_s and peak_rss_mb, rebuilt from
per-command medians, and setup_s (fresh `import torslat`) as a median.
--trace 1 runs each command untraced and then under traced_cli.py and
reports the per-layer metrics, plus the number of functions whose traced
call count differs from cProfile's on one command.

Every command's stdout is checked (workloads.py); with seed 0 it is also
compared byte for byte with golden_seed0.json.  A command fails when it
exits outside 0/1/2, prints a traceback, or its output is wrong; `correct`
is false only for wrong output (or a traced run changing an output).  The last stdout line is the result JSON.
`attempted` counts the workload's distinct commands and `failed` those that
failed on any run of them, so both depend only on the seed and the code,
not on how many repetitions fit into --seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
GOLDEN = Path(__file__).resolve().parent / "golden_seed0.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_EVERY_S = 2.0
RUN_LIMIT_S = 170.0  # every child is killed before the run reaches this
STAT_INDEX = {"calls": 0, "self_s": 1, "total_s": 2}
CLI = (sys.executable, "-m", "torslat.cli")


class Sample(NamedTuple):
    """One command run: wall and user+sys seconds, max RSS, check verdict."""

    name: str
    wall: float
    cpu: float
    rss_mb: float
    ok: bool
    digest: str  # sha256 of stdout


class Runner:
    """Runs torslat child processes and checks what they print."""

    def __init__(self, workload: str, seed: int, t_start: float):
        self.t_start = t_start
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "TORSLAT_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1",
        }
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        self.golden = golden.get(workload, {}) if seed == 0 else {}  # key -> stdout sha256
        self.verdicts: dict = {}
        self.failed_any: dict[str, bool] = {}  # command -> failed on some run
        self.wrong: Counter[str] = Counter()  # wrong output, by reason
        self.crashed: Counter[str] = Counter()

    @property
    def attempted(self) -> int:
        return len(self.failed_any)

    @property
    def failed(self) -> int:
        return sum(self.failed_any.values())

    def spawn(self, argv: list[str]):
        """Run one child to completion; (exit code, stdout, stderr, wall, rusage)."""
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        limit = RUN_LIMIT_S - (time.perf_counter() - self.t_start)
        if limit <= 0:
            raise RuntimeError("run time limit reached")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env)
            timer = threading.Timer(limit, _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return proc.returncode, stdout, stderr, wall, usage

    def run(self, cmd: workloads.Command, prefix=CLI) -> Sample:
        """Run and check one command."""
        code, stdout, stderr, wall, usage = self.spawn([*prefix, *cmd.argv])
        key = " ".join(cmd.argv)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        crashed = "Traceback (most recent call last)" in stderr or code not in (0, 1, 2)
        if crashed:
            problem = f"crashed (exit {code}): {stderr.strip().splitlines()[-1:]}"
        else:
            problem = self.verdicts.get((key, code, digest))
            if problem is None:
                problem = cmd.check(code, stdout) or ""
                want = self.golden.get(key)
                if not problem and want is not None and want != digest:
                    problem = "stdout differs from the seed-0 golden hash"
                self.verdicts[(key, code, digest)] = problem
        self.failed_any[key] = self.failed_any.get(key, False) or bool(problem)
        if problem:
            (self.crashed if crashed else self.wrong)[f"{key}: {problem}"] += 1
        return Sample(cmd.name, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, not problem, digest)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def rel_spread(values) -> float:
    """(max - min) / median of one run's samples; run-to-run spread is spread.py's."""
    return (max(values) - min(values)) / statistics.median(values)


def machine_facts(numpy_version: str) -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "torslat").glob("*.py")):
        src_digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


def measure_untraced(runner: Runner, cmds, seconds: float) -> tuple[dict, dict]:
    """Cycle through the commands until `seconds` is spent, one full pass first.

    A pass's value is rebuilt from per-command medians: wall_s and cpu_s
    sum them, peak_rss_mb takes the largest.  After the first pass a
    command is started only if its last time still fits, so the short ones
    fill the end of the run.  setup_s samples (fresh `import torslat`) are
    taken every SETUP_EVERY_S between commands, so they see the same host
    as the commands do.
    """
    samples: list[list[Sample]] = [[] for _ in cmds]
    setup: list[float] = []
    t0 = last_setup = time.perf_counter()
    for k in itertools.count():
        i = k % len(cmds)
        if k >= len(cmds):
            left = seconds - (time.perf_counter() - t0)
            if min(rows[-1].wall for rows in samples) > left:
                break
            if samples[i][-1].wall > left:
                continue
        if not setup or time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setup.append(runner.spawn([sys.executable, "-c", "import torslat"])[3])
            last_setup = time.perf_counter()
        samples[i].append(runner.run(cmds[i]))
    wall = [statistics.median(s.wall for s in rows) for rows in samples]
    metrics = {
        "wall_s": ("s", sum(wall)),
        "cpu_s": ("s", sum(statistics.median(s.cpu for s in rows) for rows in samples)),
        "peak_rss_mb": ("MB", max(statistics.median(s.rss_mb for s in rows) for rows in samples)),
        "setup_s": ("s", statistics.median(setup)),
    }
    info = {
        "command_runs": [len(rows) for rows in samples],
        "command_wall_s": wall,
        "within_run_spread": {
            "setup_s": rel_spread(setup),
            "command_wall_s": [rel_spread([s.wall for s in rows]) for rows in samples],
        },
    }
    return {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}, info


def measure_traced(runner: Runner, cmds, workload: str) -> tuple[dict, dict]:
    stats_dir = WORK / "stats"
    stats_dir.mkdir(exist_ok=True)
    tracer = str(Path(__file__).resolve().parent / "traced_cli.py")
    plain, traced = [], []
    for i, cmd in enumerate(cmds):  # interleaved, so host drift hits both alike
        plain.append(runner.run(cmd))
        traced.append(runner.run(cmd, (sys.executable, tracer, "trace", str(stats_dir / f"{i}.json"))))
    per_cmd = [json.loads((stats_dir / f"{i}.json").read_text()) for i in range(len(cmds))]
    totals: dict[str, list] = {}
    for stats in per_cmd:
        for key, rec in stats.items():
            acc = totals.setdefault(key, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += rec[k]

    info = {"traced_outputs_identical": [s.digest for s in plain] == [s.digest for s in traced]}
    if not info["traced_outputs_identical"]:
        runner.wrong["traced run changed a command's stdout"] += 1

    # Cross-check the wrappers' call counts against cProfile on one command.
    idx = workloads.CROSSCHECK[workload]
    prof_path = stats_dir / "profile.json"
    runner.spawn([sys.executable, tracer, "profile", str(prof_path), *cmds[idx].argv])
    profiled = json.loads(prof_path.read_text())
    traced_calls = {k: rec[0] for k, rec in per_cmd[idx].items() if rec[0]}
    mismatch = {k: (traced_calls.get(k, 0), profiled.get(k, 0))
                for k in set(traced_calls) | set(profiled)
                if traced_calls.get(k, 0) != profiled.get(k, 0)}
    info["crosscheck"] = {
        "command": " ".join(cmds[idx].argv),
        "functions": len(profiled),
        "join_irreducibles_calls": profiled.get("lattice.join_irreducibles", 0),
        "mismatches": mismatch,
    }
    if mismatch:  # a tracer blind spot, not a wrong answer: reported, not failed
        print(f"warning: traced call counts differ from cProfile: {mismatch}", file=sys.stderr)

    plain_wall = sum(s.wall for s in plain)
    traced_wall = sum(s.wall for s in traced)
    metrics = {}
    for spec in json.loads(SPEC.read_text())["per_layer"]:
        name = spec["name"]
        head, _, stat = name.rpartition(".")
        if name == "trace.overhead_frac":
            value = traced_wall / plain_wall - 1
        elif name == "trace.crosscheck_mismatches":
            value = len(mismatch)
        elif name == "fail_frac":
            value = runner.failed / runner.attempted
        elif head.startswith("cli.") and stat == "wall_s":
            value = sum(s.wall for s in plain if s.name == head[4:])
        else:
            value = totals.get(head, [0, 0.0, 0.0])[STAT_INDEX[stat]]
        metrics[name] = {"value": value, "unit": spec["unit"]}
    info |= {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return metrics, info


def write_golden(runner: Runner, cmds, args) -> int:
    if args.seed != 0:
        print("error: golden hashes are recorded for seed 0", file=sys.stderr)
        return 2
    runner.golden = {}
    runs = [runner.run(c) for c in cmds]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[args.workload] = {" ".join(c.argv): s.digest for c, s in zip(cmds, runs) if s.ok}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for problem in runner.crashed + runner.wrong:
        print(problem, file=sys.stderr)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record the stdout hashes of one passing seed-0 pass")
    args = ap.parse_args()
    t_start = time.perf_counter()
    if not (ROOT / "src" / "torslat" / "cli.py").is_file():
        print(f"error: no torslat sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    (WORK / "in").mkdir(parents=True, exist_ok=True)
    for stale in (WORK / "in").iterdir():
        stale.unlink()

    runner = Runner(args.workload, args.seed, t_start)
    code, out, err, _, _ = runner.spawn(
        [sys.executable, "-c", "import numpy, torslat; print(torslat.__file__, numpy.__version__)"])
    where, _, numpy_version = out.strip().rpartition(" ")
    if code != 0 or not Path(where).resolve().is_relative_to(ROOT / "src"):
        print(f"error: torslat does not import from this checkout: {out or err}",
              file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    cmds = workloads.WORKLOADS[args.workload](ROOT, rng)
    if args.write_golden:
        return write_golden(runner, cmds, args)
    if args.trace:
        metrics, info = measure_traced(runner, cmds, args.workload)
    else:
        metrics, info = measure_untraced(runner, cmds, args.seconds)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(numpy_version),
        "commands": [" ".join(c.argv) for c in cmds],
        "crashed": runner.crashed,
        "wrong": runner.wrong,
        "golden_checked": bool(runner.golden),
    } | info
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
