"""compstats benchmark: what a user waits for, end to end and layer by layer.

    python3 perfbench/run.py --workload ic-cold --seed 1 --seconds 15 --trace 0

Run from the root of a compstats checkout.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` runs the same rounds
twice, plain and then through ``tracer.py``, and reports the per-layer
metrics and the tracing overhead.  Every output is checked against
references built before the timed loop starts.  Timed values are scaled to
a reference machine speed with the kernel in ``calibration.py``.  The last
line of stdout is the JSON result; the lines above it repeat every metric
with its unit, sample count and unscaled value.  Workloads, metrics and the
reasoning behind them are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

CLI_ENTRY = "import sys; from compstats.cli import main; sys.exit(main())"
SETUP_IMPORTS = 7
REQUIRED_FILES = ("src/compstats/cli.py", "tests/data/golden/table_ic_16.txt",
                  "tests/data/golden/table_dc_16.txt", "tests/data/oeis/metadata.json")


class Op:
    """One finished request: wall time, exit code, output, peak memory, and the
    calibration kernel's times measured right before and right after it."""

    def __init__(self, request: dict, seconds: float, code: int, stdout: str,
                 stderr: str, rss_kb: int):
        self.request, self.seconds, self.code = request, seconds, code
        self.stdout, self.stderr, self.rss_kb = stdout, stderr, rss_kb
        self.error: str | None = None
        self.cal_before = self.cal = 0.0
        self.result: dict | None = None  # a warm op's raw result
        self.warmup = False  # the warm session's cache-filling round


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.scratch = root / ".perfbench_out"
        self.scratch.mkdir(exist_ok=True)

    # -- child processes ---------------------------------------------------------

    def spawn(self, argv: list[str], stdin: bytes = b"") -> tuple[float, int, str, str, int]:
        """Run a child to completion: (wall s, exit code, stdout, stderr, peak RSS KB)."""
        with tempfile.TemporaryFile(dir=self.scratch) as out, \
                tempfile.TemporaryFile(dir=self.scratch) as err:
            began = perf_counter()
            child = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                     stdin=subprocess.PIPE, stdout=out, stderr=err)
            child.stdin.write(stdin)
            child.stdin.close()
            _, status, usage = os.wait4(child.pid, 0)
            elapsed = perf_counter() - began
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (elapsed, child.returncode, out.read().decode(), err.read().decode(),
                    usage.ru_maxrss)

    def calibrate(self) -> float:
        """Wall time of a fresh interpreter running the calibration kernel."""
        elapsed, code, _, err, _ = self.spawn(["-c", calibration.KERNEL])
        if code != 0:
            raise RuntimeError(f"calibration kernel failed: {err.strip()}")
        return elapsed

    def setup_seconds(self) -> list[Op]:
        """Fresh interpreters importing compstats.cli, after one warm-up, calibrated."""
        argv = ["-c", "import compstats.cli"]
        self.spawn(argv)
        imports = []
        cal = self.calibrate()
        for _ in range(SETUP_IMPORTS):
            op = Op({"op": "import"}, *self.spawn(argv))
            if op.code != 0:
                raise RuntimeError(f"import compstats.cli failed: {op.stderr.strip()}")
            op.cal_before, op.cal = cal, self.calibrate()
            cal = op.cal
            imports.append(op)
        return imports

    def cold_op(self, request: dict, spans_file: str | None) -> Op:
        args = workloads.cli_argv(request)
        if spans_file is None:
            argv = ["-c", CLI_ENTRY, *args]
        else:
            argv = [str(HERE / "tracer.py"), spans_file, *args]
        return Op(request, *self.spawn(argv))

    # -- loops --------------------------------------------------------------------

    def run_cold(self, seconds: float, min_rounds: int, rounds: int | None = None,
                 trace: layers.LayerTotals | None = None) -> tuple[list[Op], int]:
        """Whole rounds until ``seconds`` and ``min_rounds`` are reached, or exactly ``rounds``;
        the calibration kernel runs after every op."""
        ops: list[Op] = []
        spans_file = str(self.scratch / f"spans-{os.getpid()}.bin") if trace else None
        began = perf_counter()
        done = 0
        cal = self.calibrate()
        while (done < rounds if rounds is not None else
               done < min_rounds or perf_counter() - began < seconds):
            for request in workloads.round_requests(self.workload, self.seed, done):
                op = self.cold_op(request, spans_file)
                op.cal_before, op.cal = cal, self.calibrate()
                cal = op.cal
                ops.append(op)
                if trace is not None:
                    trace.add(layers.load_spans(spans_file))
            done += 1
        if spans_file:
            os.unlink(spans_file)
        return ops, done

    def run_warm(self, seconds: float, min_rounds: int, rounds: int | None = None,
                 trace: layers.LayerTotals | None = None) -> tuple[list[Op], int, int]:
        """One session process: its ops (warm-up round first), timed rounds and peak RSS KB."""
        spans_file = str(self.scratch / f"spans-{os.getpid()}.bin") if trace else None
        spec = {"workload": self.workload, "seed": self.seed, "seconds": seconds,
                "min_rounds": min_rounds, "rounds": rounds, "spans_file": spans_file,
                "oeis_dir": str(self.root / "tests" / "data" / "oeis")}
        _, code, stdout, stderr, rss_kb = self.spawn(
            [str(HERE / "session.py")], json.dumps(spec).encode())
        lines = [json.loads(line) for line in stdout.splitlines()]
        if code != 0 or not lines or "wrappers" not in lines[-1]:
            raise RuntimeError(f"session failed (exit {code}): {stderr.strip()[-2000:]}")
        summary = lines.pop()
        if trace is None and summary["wrappers"]:
            raise RuntimeError(f"timed session has wrapped functions: {summary['wrappers']}")
        if trace is not None:
            trace.add(layers.load_spans(spans_file))
            os.unlink(spans_file)
        done = summary["rounds"]
        requests = [request for i in range(done + 1)
                    for request in workloads.round_requests(self.workload, self.seed, i)]
        ops = []
        for request, line in zip(requests, lines, strict=True):
            op = Op(request, line["s"], 0, "", "", 0)
            op.result, op.warmup = line["result"], line["round"] == 0
            op.cal_before, op.cal = line["cal_before"], line["cal"]
            ops.append(op)
        return ops, done, rss_kb

    # -- checks ---------------------------------------------------------------------

    def check(self, ref: reference.Reference, op: Op) -> None:
        """Set ``op.error`` when the op failed or its output disagrees with the reference."""
        request = op.request
        if request["op"] in ("oeis", "disttable"):
            result = op.result
            if "error" in result:
                op.error = result["error"]
            elif request["op"] == "oeis":
                op.error = ref.check_report(request, result)
            else:
                entries = {(n, r): int(count) for n, r, count in result["entries"]}
                op.error = ref.check_entries(
                    entries, ref.table(request["kind"], request["max_n"], request["k"]))
            return
        if op.code != 0:
            last = op.stderr.strip().splitlines()[-1:] or [""]
            op.error = f"exit {op.code}: {last[0]}"
        elif request["op"] == "table":
            op.error = ref.check_table_output(request, op.stdout)
        elif request["op"] == "verify":
            op.error = reference.check_verify_output(request["suite"], op.stdout)
        else:
            op.error = reference.check_bij_output(request["composition"], op.stdout)


def round_size(workload: str) -> int:
    return len(workloads.round_requests(workload, 0, 0))


def timed(ops: list[Op]) -> list[Op]:
    """The ops whose time counts: correct, and not the warm session's cache-filling round."""
    return [op for op in ops if not op.error and not op.warmup]


def scaled(op: Op, reference_s: float) -> float:
    """The op's wall time at the calibration's reference speed, from the kernel runs around it."""
    return op.seconds * reference_s / ((op.cal_before + op.cal) / 2)


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(root, workload, seed)
    ref = reference.Reference(root)
    warm = workload == workloads.WARM
    min_rounds = workloads.MIN_ROUNDS
    reference_s = calibration.IN_PROCESS_REFERENCE_S if warm else calibration.CHILD_REFERENCE_S
    totals = layers.LayerTotals() if trace else None
    first_seconds, first_min_rounds = (seconds / 2, 1) if trace else (seconds, min_rounds)
    if warm:
        ops, rounds, rss_kb = bench.run_warm(first_seconds, first_min_rounds)
        traced = bench.run_warm(seconds, 1, rounds, totals)[0] if trace else []
    else:
        ops, rounds = bench.run_cold(first_seconds, first_min_rounds)
        rss_kb = max(op.rss_kb for op in ops)
        traced = bench.run_cold(seconds, 1, rounds, totals)[0] if trace else []
    probes = [bench.cold_op(request, None) for request in workloads.probe_requests(workload, seed)]

    checked = ops + traced
    for op in checked + probes:
        bench.check(ref, op)
    failed = [op for op in checked if op.error]
    good = timed(ops)
    busy = sum(op.seconds for op in ops if not op.warmup)
    times = [scaled(op, reference_s) for op in good]
    lines = [f"workload {workload}, seed {seed}: {rounds} rounds of {round_size(workload)} ops, "
             f"{busy:.2f} s busy, closed loop, one client",
             f"  times are scaled to a calibration kernel time of {reference_s} s; "
             f"its median in this run was {statistics.median(op.cal for op in ops):.4f} s"]
    for op in failed[:5]:
        lines.append(f"  FAILED {json.dumps(op.request)}: {op.error}")
    lines.append(f"  error_rate {len(failed)}/{len(checked)} ops")
    for op in probes:
        verdict = "ok" if op.error is None else f"FAILED ({op.error})"
        lines.append(f"  known-defect probe (k > N must give an all-zero table) "
                     f"{' '.join(workloads.cli_argv(op.request))}: {verdict}")

    # the percentile with ten samples beyond it in a run of min_rounds rounds
    n_min = min_rounds * round_size(workload)
    tail_p = 1 - 10 / n_min
    if trace:
        traced_times = [scaled(op, reference_s) for op in timed(traced)]
        overhead = statistics.median(traced_times) / statistics.median(times)
        # warm ops are timed in-process; a cold op's in-process time is its cli.main span
        in_process = (sum(op.seconds for op in traced) if warm
                      else totals.inclusive["cli.main"])
        metrics = totals.metrics(len(traced), in_process, overhead)
        lines.append(f"  traced {len(traced)} ops ({rounds} rounds) against "
                     f"{len(ops)} plain ones; per-layer values are per op and unscaled")
    else:
        imports = bench.setup_seconds()
        def tail(values: list[float]) -> float:
            return statistics.quantiles(values, n=n_min, method="inclusive")[n_min - 11]

        raw_times = [op.seconds for op in good]
        raw = {"op_s.p50": statistics.median(raw_times), "op_s.tail": tail(raw_times),
               "ops_per_s": len(good) / busy,
               "setup_s": statistics.median(op.seconds for op in imports),
               "peak_rss_mb": rss_kb / 1024}
        setup_s = statistics.median(scaled(op, calibration.CHILD_REFERENCE_S)
                                    for op in imports)
        metrics = {"op_s.p50": {"value": statistics.median(times), "unit": "s"},
                   "op_s.tail": {"value": tail(times), "unit": "s"},
                   "ops_per_s": {"value": len(good) / sum(times), "unit": "1/s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"}}
        counts = {"op_s.p50": f"n={len(good)}",
                  "op_s.tail": f"p{100 * tail_p:.1f}, n={len(good)}",
                  "ops_per_s": f"{len(good)} ops",
                  "setup_s": f"median of {len(imports)} imports",
                  "peak_rss_mb": "session process" if warm else f"largest of {len(ops)} children"}
    for name, metric in metrics.items():
        note = "" if trace else f"  ({counts[name]}; unscaled {raw[name]:.6g})"
        lines.append(f"  {name:45s} {metric['value']:.6g} {metric['unit']}{note}")
    print("\n".join(lines))
    return {"correct": not failed, "attempted": len(checked), "failed": len(failed),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    missing = [name for name in REQUIRED_FILES if not (root / name).is_file()]
    if missing:
        print(f"error: run from the root of a compstats checkout; missing {missing}",
              file=sys.stderr)
        return 2
    result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
