"""Check that each mutant of a fixed list is killed by the test recorded for it.

Each mutant replaces one piece of text in one file of the checkout and names the test
that kills it, as a pytest node id.  For each, this script copies the checkout (without
``.git``) into a fresh temporary directory, checks that the old text occurs exactly once,
applies the replacement and runs the recorded test there with ``PYTHONPATH=src``:

    python -m pytest -x -q -p no:cacheprovider <node id>

If it fails, the mutant is KILLED.  If it passes, the whole suite runs,

    python -m pytest -x -q -p no:cacheprovider tests --ignore=tests/test_mutants.py

(test_mutants.py checks this list, so it would fail on every mutant; it is left out), and
the mutant is STALE if a test fails there, and the first failing test is printed as the
killer to record, or SURVIVED if none does.  A run that could not collect or start the
tests is BROKEN.  The script prints each verdict and the time it took; the exit code is 1
unless every mutant is killed by its recorded test.

    python3 tools/mutants.py

A run takes about two minutes, so the test suite only checks that every old text still
occurs exactly once and that every recorded test is collected (tests/test_mutants.py).
Mutants that change no result (such as reversing a palindromic hook quotient) are left
out: no test can kill them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIST = "src/compstats/distributions.py"
OEIS = "src/compstats/oeis.py"
SUITES = "src/compstats/suites.py"
TABLES = "src/compstats/tables.py"

# (file, old text, new text, what the mutant breaks, the pytest node id of the test that kills it)
MUTANTS = [
    (TABLES, "for m in range(min(k - 1, max_p) + 1):", "for m in range(min(k - 1, max_p)):",
     "_hook_sum skips the largest first-row split m",
     "tests/test_acceptance.py::test_criterion_1_inversion_table_reproduction"),
    (TABLES, "            if b <= max_p:", "            if b < max_p:",
     "_hook_sum drops the shapes with b = max_p",
     "tests/test_acceptance.py::test_criterion_1_inversion_table_reproduction"),
    (TABLES, "if mu and mu[0] > k - m:", "if mu and mu[0] >= k - m:",
     "_hook_sum drops the shapes whose second row equals the first",
     "tests/test_acceptance.py::test_criterion_1_inversion_table_reproduction"),
    (TABLES, "for m in range(min(k - 1, max_p) + 1):", "for m in range(min(k - 1, max_p, 8) + 1):",
     "_hook_sum skips m > 8, which changes only the inversion rows n > 16",
     "tests/test_distributions.py::test_hook_sum_cut_is_exact_truncation"),
    (TABLES, "if mu and mu[0] > k - m:", "if mu and mu[0] > k - m or (k, m) == (7, 2):",
     "_hook_sum drops the m = 2 shapes at k = 7",
     "tests/test_acceptance.py::test_criterion_1_inversion_table_reproduction"),
    (TABLES, "for c in range(1, s - j + 2)", "for c in range(1, s - j + 1)",
     "_q_eulerian_sum leaves the largest part c out of W[s][j]",
     "tests/test_acceptance.py::test_criterion_2_descent_table_reproduction"),
    (TABLES, "<< (SLOT_BITS * (j - 1)) for j in range(1, k + 1)]",
     "<< (SLOT_BITS * (j - 1)) for j in range(1, min(k, 16) + 1)]",
     "_q_eulerian_sum drops the shapes of more than 16 parts: only descent rows n > 16",
     "tests/test_distributions.py::test_des_gf_total_matches_rational_form"),
    (TABLES, "kern = kernel(k, min(cap - k, comb(k, 2)))",
     "kern = kernel(k, min(cap - k - 1, comb(k, 2)))",
     "_counts cuts each kernel one power short",
     "tests/test_acceptance.py::test_criterion_1_inversion_table_reproduction"),
    (TABLES, "by_k = [_counts(kernel, cap, j) for j in range(cap + 1)]",
     "by_k = [_counts(kernel, cap, j) for j in range(1, cap + 1)]",
     "the all-k sum leaves out the k = 0 row",
     "tests/test_acceptance.py::test_criterion_1_inversion_table_reproduction"),
    (TABLES, "for part in range(1, min(n, len(coefficients) - 1) + 1):",
     "for part in range(1, min(n, len(coefficients) - 1)):",
     "over_pochhammer skips the largest part",
     "tests/test_acceptance.py::test_criterion_1_inversion_table_reproduction"),
    (DIST, "while comb(j + 1, 2) <= cap:", "while comb(j + 1, 2) < cap:",
     "the rational route drops the last term of its denominator at a triangular cap",
     "tests/test_distributions.py::test_des_gf_total_matches_rational_form"),
    (DIST, "factor = comb(j + 1, 2), pack([-1, 1]) ** (j - 1)",
     "factor = comb(j + 1, 2), pack([-1, 1]) ** j",
     "the rational route keeps the (t - 1) factor that D = (1 - t)(1 - E) cancels",
     "tests/test_acceptance.py::test_criterion_2_descent_table_reproduction"),
    (DIST, "    j = 1\n    while comb(j + 1, 2) <= cap:",
     "    j = 2\n    while comb(j + 1, 2) <= cap:",
     "the rational route leaves the j = 1 term out of E",
     "tests/test_acceptance.py::test_criterion_2_descent_table_reproduction"),
    (DIST, "rows.append(sum(map(mul, by_q[n:0:-1], rows)))",
     "rows.append(sum(map(mul, by_q[n - 1:0:-1], rows)))",
     "the rational route pairs E_m with X_{n-m-1}",
     "tests/test_acceptance.py::test_criterion_2_descent_table_reproduction"),
    (TABLES, "enumerate(_counts(_hook_sum, cap, k)[k:], start=k):",
     "enumerate(_counts(_hook_sum, cap, k)[k:cap], start=k):",
     "inversion_totals leaves out n = cap",
     "tests/test_acceptance.py::test_criterion_9_oeis_cross_checks"),
    (TABLES, "(cols[j] - i - 1) + 1 for j in range(row_len)]",
     "(cols[j] - i) + 1 for j in range(row_len)]",
     "every leg of a hook is one cell too long",
     "tests/test_acceptance.py::test_criterion_1_inversion_table_reproduction"),
    ("src/compstats/cli.py", 'GRID_COLUMNS = {"ic": 13, "dc": 6}', 'GRID_COLUMNS = {"ic": 12, "dc": 6}',
     "the inversion grid loses its last column",
     "tests/test_cli.py::test_table_grid_matches_golden"),
    (TABLES, "if degree < 0 or any(coefficients[degree + 1:]):", "if degree < 0:",
     "q_quotient no longer checks the tail past the quotient's degree",
     "tests/test_qanalog.py::test_q_quotient_refuses_a_series"),
    ("src/compstats/errors.py", "    if value > LIMITS[limit]:", "    if value > LIMITS[limit] + 1:",
     "check_size lets one size past each limit through",
     "tests/test_cli.py::test_limits_have_one_source"),
    (TABLES, 'check_size("table", "n", n)',
     'from .errors import check_nonnegative; check_nonnegative("n", n)',
     "partitions_of loses its upper bound",
     "tests/test_partitions.py::test_partitions_of_refuses_a_size_past_the_table_limit"),
    ("src/compstats/oracles.py",
     'check_size("hk", "max_order", max_order)\n    return not any(',
     'from .errors import check_nonnegative; check_nonnegative("max_order", max_order)\n'
     '    return not any(',
     "check_q_exponential_inverse loses its upper bound",
     "tests/test_qanalog.py::test_q_exponential_inverse_refuses_an_order_past_the_hk_limit"),
    ("src/compstats/errors.py", "class InexactDivision(ArithmeticError):",
     "class InexactDivision(CompstatsError):",
     "an inexact division is a usage error again",
     "tests/test_cli.py::test_internal_error_has_its_own_exit_code"),
    ("src/compstats/cli.py", "            code = max(code, EXIT_INTERNAL if fault else EXIT_USAGE)",
     "            code = max(code, EXIT_USAGE)",
     "verify reports a fault as a usage error",
     "tests/test_cli.py::test_verify_reports_every_suite_past_an_internal_error"),
    ("src/compstats/cli.py",
     "            code = max(code, EXIT_INTERNAL if fault else EXIT_USAGE)\n            continue",
     "            code = max(code, EXIT_INTERNAL if fault else EXIT_USAGE)\n"
     "            if fault:\n                break\n            continue",
     "verify stops at the first fault",
     "tests/test_cli.py::test_verify_reports_every_suite_past_an_internal_error"),
    ("src/compstats/cli.py", "        return EXIT_INTERNAL\n", "        return EXIT_USAGE\n",
     "main reports an internal error with the usage exit code",
     "tests/test_cli.py::test_internal_error_has_its_own_exit_code"),
    (OEIS, "if offset <= index < end:", "if offset <= index <= end:",
     "check_sequence admits index = offset + len(terms)",
     "tests/test_cli.py::test_oeis_check_fixture"),
    (OEIS, "(metadata or {}).get(sequence_id, SEQUENCES.get(sequence_id))",
     "SEQUENCES.get(sequence_id, (metadata or {}).get(sequence_id))",
     "the SEQUENCES defaults override the metadata",
     "tests/test_cli.py::test_oeis_check_malformed_sidecar_is_usage_error"
     '[{"A189074": {"n_start": 1}}]'),
    (OEIS, "                chunks.append(chunk)\n",
     "                chunks.append(chunk)\n                break\n",
     "the raw read keeps only its first chunk",
     "tests/test_oeis.py::test_a_bfile_longer_than_one_read_chunk_loads_every_row"),
    (SUITES,
     "got {actual}\")\n        return None\n\n    failure = first_failure(\n"
     "        lambda: (sigma for n in range(max_n + 1)",
     "got {actual}\")\n        return None\n\n    failure = first_failure(\n"
     "        lambda: (sigma for n in range(1, max_n + 1)",
     "verify lemma sweeps from n = 1 again, past the empty composition",
     "tests/test_cli.py::test_verify_max_n_zero_checks_the_empty_composition[lemma]"),
    (SUITES, "        if mine and theirs:\n", "        if mine:\n",
     "the parent ignores the child's report",
     "tests/test_cli.py::test_foata_split_reports_the_first_failure_of_either_half[odd]"),
    (SUITES, "    if split:\n        raise ArithmeticError(\"the objects failed when split between two "
             "processes and \"\n                              \"passed in one pass\")\n", "",
     "an object that fails in the child and passes in the parent passes",
     "tests/test_cli.py::test_an_object_that_fails_only_in_the_child_is_an_internal_error"),
    (SUITES, "joint[values] = joint.get(values, 0) + count",
     "joint[values] = joint.get(values, 0)",
     "equidist's parent ignores the child's counts",
     "tests/test_cli.py::test_composition_splits_report_the_failure_a_single_pass_reports"
     "[odd-equidist-comaj]"),
    ("src/compstats/statistics.py", "return des, maj, len(seq) * des - maj",
     "return des, maj, (len(seq) + 1) * des - maj",
     "descent_stats counts each descent's comaj one too high",
     "tests/test_permutations.py::test_stats_identity_and_reversal"),
    ("src/compstats/statistics.py", "            maj += i\n", "            maj += i if i > 1 else 0\n",
     "descent_stats leaves a descent at position 1 out of maj",
     "tests/test_permutations.py::test_stats_worked_example"),
    ("src/compstats/compositions.py", "sorted(range(1, len(sigma) + 1), key=",
     "sorted(range(len(sigma), 0, -1), key=",
     "sorting_permutation puts tied parts in decreasing index order",
     "tests/test_compositions.py::test_sorting_permutation"),
    (TABLES,
     "    shape = check_partition(shape)\n    cols = conjugate(shape)",
     "    shape = check_partition(shape)\n    if not shape:\n"
     "        raise ValueError(\"the empty diagram has no cells\")\n    cols = conjugate(shape)",
     "hook_lengths refuses the empty shape again",
     "tests/test_compositions.py::test_size_zero_follows_the_general_formulas"),
    (TABLES, "        if k > cap:\n            return ((),) * (cap + 1)",
     "        if k > cap + 1:\n            return ((),) * (cap + 1)",
     "a part count above the cap takes a memo entry again",
     "tests/test_distributions.py::test_part_counts_above_the_cap_add_no_memo_entry"),
    (TABLES, "if cap < len(rows):", "if cap <= len(rows):",
     "a cap past the widest rows is served from them",
     "tests/test_distributions.py::test_des_gf_total_matches_rational_form"),
    (TABLES, 'check_size("table", "cap", cap)\n    rows = _count_rows.get((kernel, k), ())\n'
           '    if cap < len(rows):\n        return rows[:cap + 1]\n',
     'rows = _count_rows.get((kernel, k), ())\n    if 0 <= cap < len(rows):\n'
     '        return rows[:cap + 1]\n    check_size("table", "cap", cap)\n',
     "the count-row memo answers before the limit is checked",
     "tests/test_distributions.py::test_the_memo_serves_no_cap_past_the_limit"),
    ("src/compstats/qanalog.py", "    if not 0 <= k <= n:\n        return Poly.zero()",
     "    if not 0 <= k <= n:\n        return Poly.constant(int(k == n + 1))",
     "gaussian_binomial answers 1 one past n",
     "tests/test_distributions.py::test_part_counts_above_the_cap_add_no_memo_entry"),
    ("src/compstats/qanalog.py", "for c in range(1, min(s, k + 1))]",
     "for c in range(1, min(s, k))]",
     "the q-Pascal loop drops entry k of each full row",
     "tests/test_acceptance.py::test_criterion_3_listed_polynomials"),
    ("src/compstats/oracles.py", "    for j in range(m + 1):\n        total += Poly.variable",
     "    for j in range(m):\n        total += Poly.variable",
     "the q-exponential sum drops its j = m term",
     "tests/test_acceptance.py::test_criterion_7_identity_verifications"),
    ("src/compstats/oracles.py", 'ratio *= 1 - Poly.variable("p", j)',
     'ratio *= 1 - Poly.variable("p", j + 1)',
     "the Carlitz product grows by the wrong factor",
     "tests/test_acceptance.py::test_criterion_3_listed_polynomials"),
    (TABLES, "if c or dense", "if c", "the dense CSV drops its zero counts",
     "tests/test_distributions.py::test_dist_table_reads_outside_the_triangle_are_zero"),
    ("src/compstats/cli.py", "TYPE_CHECKING = False  # typing's flag, without importing typing",
     "from typing import TYPE_CHECKING",
     "the table path imports typing again",
     "tests/test_imports.py::test_cli_call_loads_only_what_its_subcommand_runs[argv0]"),
    ("src/compstats/cli.py", "    from .tables import DistTable\n\n    if args.kind",
     "    from .distributions import DistTable\n\n    if args.kind",
     "a table call compiles the closed forms again",
     "tests/test_imports.py::test_cli_call_loads_only_what_its_subcommand_runs[argv0]"),
    ("src/compstats/cli.py",
     '        if given.setdefault(name, default) is REQUIRED:\n            fail(f"{name} is required")',
     "        given.setdefault(name, default)",
     "the parser drops its required-argument check",
     "tests/test_cli.py::test_input_errors_print_usage_and_exit_2[missing-required]"),
    ("src/compstats/cli.py", "elif isinstance(kinds[name], tuple) and value not in kinds[name]:",
     "elif isinstance(kinds[name], tuple) and value is None:",
     "the parser skips its choices check",
     "tests/test_cli.py::test_input_errors_print_usage_and_exit_2[bad-choice]"),
]


def run_pytest(copy: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
        cwd=copy, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True)


def first_failure(result: subprocess.CompletedProcess) -> str:
    return next((line.split(" - ")[0].split(" ", 1)[1] for line in result.stdout.splitlines()
                 if line.startswith(("FAILED ", "ERROR "))), "")


def run_mutant(path: str, old: str, new: str, killer: str) -> tuple[str, str]:
    """(verdict, first failing test) on a copy of the checkout with ``old`` replaced by
    ``new`` in ``path``: the recorded killer runs first, and the whole suite only if the
    mutant survives it."""
    with tempfile.TemporaryDirectory(prefix="compstats-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"))
        target = copy / path
        text = target.read_text()
        found = text.count(old)
        if found != 1:
            raise ValueError(f"{path}: the old text occurs {found} times, not once: {old!r}")
        target.write_text(text.replace(old, new))
        result = run_pytest(copy, killer)
        if result.returncode == 1:
            return "KILLED", killer
        if result.returncode == 0:
            result = run_pytest(copy, "tests", "--ignore=tests/test_mutants.py")
            if result.returncode in (0, 1):
                return "SURVIVED" if result.returncode == 0 else "STALE", first_failure(result)
    return f"BROKEN (pytest exit {result.returncode})", first_failure(result)


def main() -> int:
    killed = 0
    for path, old, new, note, killer in MUTANTS:
        start = time.perf_counter()
        verdict, failed = run_mutant(path, old, new, killer)
        killed += verdict == "KILLED"
        detail = "" if verdict == "KILLED" else f"\n          recorded killer: {killer}" + (
            f"\n          first failure: {failed}" if failed else "")
        print(f"{verdict:<9} {time.perf_counter() - start:5.1f} s  {note}{detail}", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed by their recorded test")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
