"""Run one torslat command with its layers measured.

    python perfbench/traced_cli.py trace|profile STATS.json <torslat args...>

`trace` replaces every public function of torslat.{lattice,galois,quiver,
bridge,oracle}, and torslat.cli.main, by a wrapper that counts calls and
times self and total seconds.  The wrapper is bound in every torslat.*
namespace that holds the function, so calls through `from .lattice import
...` references are seen too.  `profile` runs the command under cProfile
instead and records the same functions' call counts, to cross-check the
wrappers.  STATS.json maps "<module>.<function>" to [calls, self_s,
total_s] (trace) or to calls (profile).  The exit code is the command's.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import json
import sys
import time

LAYERS = ("lattice", "galois", "quiver", "bridge", "oracle")


def targets() -> dict:
    import torslat.cli

    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"torslat.{layer}"]
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                found[f"{layer}.{name}"] = fn
    found["cli.main"] = torslat.cli.main
    return found


def install(found: dict, stats: dict) -> None:
    """Bind a timing wrapper for each function in every torslat namespace."""
    stack = [0.0]  # time spent in wrapped callees, one slot per active call

    def wrap(key, fn):
        rec = stats[key] = [0, 0.0, 0.0]
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[0] += 1
            depth[0] += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                rec[1] += dt - stack.pop()
                stack[-1] += dt
                depth[0] -= 1
                if depth[0] == 0:
                    rec[2] += dt

        return wrapper

    wrappers = {id(fn): (fn, wrap(key, fn)) for key, fn in found.items()}
    for modname, mod in list(sys.modules.items()):
        if modname != "torslat" and not modname.startswith("torslat."):
            continue
        for name, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, name, hit[1])


def main() -> int:
    mode, stats_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    found = targets()
    import torslat.cli

    stats: dict = {}
    try:
        if mode == "trace":
            install(found, stats)
            return torslat.cli.main(argv)
        prof = cProfile.Profile()
        try:
            return prof.runcall(torslat.cli.main, argv)
        finally:
            by_code = {
                (fn.__code__.co_filename, fn.__code__.co_firstlineno, fn.__code__.co_name): key
                for key, fn in found.items()
            }
            prof.create_stats()
            for code, (_, ncalls, *_rest) in prof.stats.items():
                if code in by_code:
                    stats[by_code[code]] = ncalls
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main())
