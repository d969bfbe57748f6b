"""Scaling sweep of the cold library calls behind the count tables; not gated, run on demand.

    python3 perfbench/sweep.py          # caps 12, 16 and 20: about 2.5 minutes

Run from the root of a compstats checkout.  Each (function, cap) pair is
timed in a fresh interpreter, so no ``lru_cache`` carries over.  Prints a
table, then one JSON object as the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

FUNCTIONS = ("inv_gf_total", "des_gf_total", "inversion_totals", "des_gf_total_rational")
CAPS = (12, 16, 20)


def time_call(function: str, cap: int) -> float:
    """Seconds one call takes in this (fresh) interpreter, import excluded."""
    from compstats import distributions

    call = getattr(distributions, function)
    began = perf_counter()
    call(cap)
    return perf_counter() - began


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", nargs=2, metavar=("FUNCTION", "CAP"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(time_call(args.one[0], int(args.one[1])))
        return 0
    root = Path.cwd()
    if not (root / "src" / "compstats" / "distributions.py").is_file():
        print("error: run from the root of a compstats checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    results = []
    for cap in CAPS:
        for function in FUNCTIONS:
            child = subprocess.run([sys.executable, __file__, "--one", function, str(cap)],
                                   env=env, cwd=root, check=True, capture_output=True,
                                   text=True)
            seconds = float(child.stdout)
            results.append({"function": function, "cap": cap, "s": seconds})
            print(f"{function:24s} cap {cap:3d}  {seconds:10.4f} s", flush=True)
    print(json.dumps({"python": platform.python_version(), "machine": platform.machine(),
                      "cpus": os.cpu_count(), "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
