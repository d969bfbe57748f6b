"""Self-tests of the benchmark.

    python3 -m pytest perfbench          (or: python3 perfbench/test_perfbench.py)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

REF = reference.Reference(ROOT)


def _render(table: dict, kind: str, max_n: int, k, fmt: str) -> str:
    """Format a reference table the way `compstats table` prints it."""
    if fmt == "json":
        entries = [[n, r, str(table[(n, r)])] for n, r in sorted(table)]
        return json.dumps({"kind": f"{kind}_n" if k is None else f"{kind}_nk", "k": k,
                           "cap": max_n, "entries": entries})
    if fmt == "csv":
        return "\n".join(["n,r,count"] + [f"{n},{r},{table[(n, r)]}"
                                          for n, r in sorted(table)]) + "\n"
    columns = reference.GRID_COLUMNS[kind]
    rows = [["n/r"] + [str(r) for r in range(columns)]]
    rows += [[str(n)] + [str(table.get((n, r), 0)) for r in range(columns)]
             for n in range(max_n + 1)]
    return "\n".join("  ".join(row) for row in rows) + "\n"


def _bump_last_count(stdout: str, fmt: str) -> str:
    """The same output with its last count raised by one."""
    if fmt == "json":
        data = json.loads(stdout)
        data["entries"][-1][2] = str(int(data["entries"][-1][2]) + 1)
        return json.dumps(data)
    lines = stdout.splitlines()
    sep = "," if fmt == "csv" else None
    cells = lines[-1].split(sep)
    cells[-1] = str(int(cells[-1]) + 1)
    lines[-1] = (sep or "  ").join(cells)
    return "\n".join(lines) + "\n"


class RequestListTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_requests(self):
        for workload in workloads.WORKLOADS:
            first = workloads.request_list(workload, 7, 5)
            self.assertEqual(first, workloads.request_list(workload, 7, 5))
            self.assertNotEqual(first, workloads.request_list(workload, 8, 5))

    def test_request_list_does_not_depend_on_the_hash_seed(self):
        code = ("import sys, workloads; "
                "sys.stdout.buffer.write(workloads.request_list('ic-cold', 3, 4))")
        outputs = [subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                                  capture_output=True,
                                  env=dict(os.environ, PYTHONHASHSEED=str(seed))).stdout
                   for seed in (1, 2)]
        self.assertEqual(outputs[0], outputs[1])

    def test_tail_percentile_falls_in_the_top_cost_class(self):
        # more of a round is in its most expensive class (all-k tables at N = 14,
        # checks and all-k DistTables at max_n 13, equidist and foata) than lies
        # beyond the tail percentile
        def heavy(request: dict) -> bool:
            top = 14 if request["op"] == "table" else 13
            return (request.get("suite") in ("equidist", "foata")
                    or (request.get("k") is None and request.get("max_n") == top))

        for workload in workloads.WORKLOADS:
            for index in range(6):
                requests = workloads.round_requests(workload, 3, index)
                share = sum(map(heavy, requests)) / len(requests)
                beyond = 10 / (workloads.MIN_ROUNDS * len(requests))
                self.assertGreater(share, beyond + 0.03, workload)
                self.assertLess(share, 0.5, workload)

    def test_probes_ask_for_more_parts_than_the_size(self):
        for workload in ("ic-cold", "dc-cold"):
            probes = workloads.probe_requests(workload, 5)
            self.assertTrue(probes)
            self.assertTrue(all(p["k"] > p["max_n"] for p in probes))


class PerLayerMetricsTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = layers.LayerTotals().metrics(1, 1.0, 1.0)
        self.assertEqual([(name, metric["unit"]) for name, metric in metrics.items()],
                         [(m["name"], m["unit"]) for m in per_layer])


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root 0..10 holds a 1..4 and b 5..9; b holds c 6..8
        parents = [-1, 0, 0, 2]
        starts = [0.0, 1.0, 5.0, 6.0]
        ends = [10.0, 4.0, 9.0, 8.0]
        self.assertEqual(layers.self_times(parents, starts, ends), [3.0, 3.0, 2.0, 2.0])

    def test_leaf_and_sibling_roots(self):
        self.assertEqual(layers.self_times([-1, -1], [0.0, 2.0], [1.5, 2.5]), [1.5, 0.5])


class CorrectnessGateTest(unittest.TestCase):
    def test_reference_matches_small_brute_force(self):
        # compositions of 4 by inversions: 4, 13, 22, 112, 1111 | 31, 121 | 211
        table = REF.table("ic", 4, None)
        self.assertEqual([table.get((4, r), 0) for r in range(3)], [5, 2, 1])
        # two parts, by descents: 11 | 12, 21 | 13, 22, 31
        self.assertEqual(REF.table("dc", 4, 2),
                         {(2, 0): 1, (3, 0): 1, (3, 1): 1, (4, 0): 2, (4, 1): 1})

    def test_altered_count_is_rejected_in_every_format(self):
        for kind, k, fmt, dense in (("ic", None, "grid", False), ("dc", None, "grid", False),
                                    ("ic", 3, "csv", False), ("dc", None, "json", False),
                                    ("ic", 5, "json", False)):
            request = {"op": "table", "kind": kind, "max_n": 9, "k": k,
                       "format": fmt, "dense": dense}
            table = REF.table(kind, 9, k)
            self.assertIsNone(REF.check_table_output(request, _render(table, kind, 9, k, fmt)))
            altered = dict(table)
            key = max(altered)
            altered[key] += 1
            self.assertIsNotNone(
                REF.check_table_output(request, _render(altered, kind, 9, k, fmt)),
                f"{kind} {fmt} accepted an altered count")

    def test_real_cli_output_passes_and_altered_fails(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for fmt, dense in (("grid", False), ("csv", True), ("json", False)):
            request = {"op": "table", "kind": "ic", "max_n": 8, "k": None,
                       "format": fmt, "dense": dense}
            argv = workloads.cli_argv(request)
            out = subprocess.run([sys.executable, "-m", "compstats.cli", *argv], env=env,
                                 check=True, capture_output=True, text=True).stdout
            self.assertIsNone(REF.check_table_output(request, out))
            self.assertIsNotNone(REF.check_table_output(request, _bump_last_count(out, fmt)))

    def test_zero_table_for_more_parts_than_size(self):
        request = {"op": "table", "kind": "ic", "max_n": 5, "k": 7,
                   "format": "csv", "dense": False}
        self.assertIsNone(REF.check_table_output(request, "n,r,count\n"))
        self.assertIsNotNone(REF.check_table_output(request, "n,r,count\n5,0,1\n"))

    def test_verify_and_bij_checks(self):
        self.assertIsNone(reference.check_verify_output("prod", "PASS prod: ok\n"))
        self.assertIsNotNone(reference.check_verify_output("prod", "FAIL prod: no\n"))
        good = ("composition:   4,2,1,2,1,5,3\nsum:           18\npermutation:   6172435\n"
                "sorted mu:     5,4,3,2,2,1,1\npartition:     2,2,1,1,1,1,1\n"
                "maj(perm):     9\n|partition|:   9\nround-trip:    4,2,1,2,1,5,3\n")
        self.assertIsNone(reference.check_bij_output([4, 2, 1, 2, 1, 5, 3], good))
        bad = good.replace("2,2,1,1,1,1,1", "2,2,2,1,1,1,1")
        self.assertIsNotNone(reference.check_bij_output([4, 2, 1, 2, 1, 5, 3], bad))


class TracerTest(unittest.TestCase):
    def test_traced_cli_call_records_every_namespace(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        scratch = ROOT / ".perfbench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            spans_file = str(Path(tmp) / "spans.bin")
            subprocess.run([sys.executable, str(HERE / "tracer.py"), spans_file,
                            "table", "ic", "--max-n", "7"],
                           env=env, check=True, capture_output=True)
            spans = layers.load_spans(spans_file)
        totals = layers.LayerTotals()
        totals.add(spans)
        # distributions calls its own `syt_count_q` binding; __rmul__ is an alias of __mul__
        self.assertGreater(totals.calls["partitions.syt_count_q"], 0)
        self.assertGreater(totals.calls["polynomial.poly_mul"], 0)
        self.assertEqual(totals.calls["distributions.inv_gf_total"], 1)
        self.assertEqual(totals.calls["cli.main"], 1)
        self.assertGreater(totals.poly_mul_in_syt_s, 0.0)

    def test_plain_import_installs_nothing(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        code = ("import tracer, compstats.cli; print(tracer.installed_wrappers()); "
                "tracer.install(tracer.Tracer()); print(len(tracer.installed_wrappers()))")
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, check=True,
                             capture_output=True, text=True).stdout.split("\n")
        self.assertEqual(out[0], "[]")
        self.assertGreater(int(out[1]), 20)


if __name__ == "__main__":
    unittest.main()
