"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 10] [--first-seed 1]

Runs run.py once per seed with BENCHMARK.json's run_seconds and prints, per
metric, the median, the quartiles (statistics.quantiles, n=4) and
(Q3 - Q1) / median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        row = {k: m["value"] for k, m in result["metrics"].items()}
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "failed": result["failed"], **row}), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:12s} median {med:.4g}  "
              f"q1 {q1:.4g}  q3 {q3:.4g}  spread {(q3 - q1) / med:.3f}  "
              f"bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
