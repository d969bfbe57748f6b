"""The long-lived library session behind the oeis-warm workload.

Reads a JSON spec on stdin, imports compstats once, runs round 0 untimed to
fill the caches, then runs whole rounds of library requests until the time
is up (or exactly ``rounds`` rounds when given), so the package's
``lru_cache``s carry over from request to request.
Prints one JSON line per request with its wall time, its raw result and
the times of the calibration kernel runs right before and after it; the parent checks
the results once the session has ended.  With ``spans_file``
set, every layer boundary is traced and the spans are written at exit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import compstats.cli  # noqa: F401  (loads the same modules a CLI call does)
from compstats import distributions, oeis

import calibration
import tracer as tracing
import workloads


def run_request(request: dict, oeis_dir: Path) -> dict:
    if request["op"] == "oeis":
        path = oeis_dir / f"b{request['seq'][1:]}.txt"
        bfile = oeis.load_bfile(path, sequence_id=request["seq"])
        metadata = oeis.load_metadata(oeis_dir / "metadata.json")
        report = oeis.check_sequence(request["seq"], bfile, request["max_n"], metadata)
        return {"sequence_id": report.sequence_id, "agree": report.agree,
                "terms_checked": report.terms_checked}
    build = (distributions.DistTable.inversions if request["kind"] == "ic"
             else distributions.DistTable.descents)
    table = build(request["max_n"], k=request["k"])
    return {"entries": table.sorted_entries()}


def main() -> int:
    spec = json.load(sys.stdin)
    tracer = None
    if spec["spans_file"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    oeis_dir = Path(spec["oeis_dir"])
    out = sys.stdout

    cal = calibration.time_in_process()

    def run_round(index: int) -> None:
        nonlocal cal
        for request in workloads.round_requests(spec["workload"], spec["seed"], index):
            began = perf_counter()
            try:
                result = run_request(request, oeis_dir)
            except Exception as exc:  # a failed request is counted, not fatal
                result = {"error": f"{type(exc).__name__}: {exc}"}
            elapsed = perf_counter() - began
            cal_before, cal = cal, calibration.time_in_process()
            out.write(json.dumps({"round": index, "s": elapsed, "result": result,
                                  "cal_before": cal_before, "cal": cal}) + "\n")

    try:
        run_round(0)
        start = perf_counter()
        rounds = 0
        while (rounds < spec["rounds"] if spec["rounds"] else
               rounds < spec["min_rounds"] or perf_counter() - start < spec["seconds"]):
            rounds += 1
            run_round(rounds)
    finally:
        if tracer is not None:
            tracer.dump(spec["spans_file"])
    out.write(json.dumps({"rounds": rounds,
                          "wrappers": tracing.installed_wrappers()}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
