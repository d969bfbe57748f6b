"""Run the test suite against a fixed list of mutants and report which ones it kills.

Each mutant replaces one piece of text in one file of the checkout.  For each,
this script copies the checkout (without ``.git``) into a fresh temporary
directory, checks that the old text occurs exactly once, applies the
replacement and runs

    python -m pytest -x -q -p no:cacheprovider tests --ignore=tests/test_mutants.py

there with ``PYTHONPATH=src``.  test_mutants.py checks this list, so it would
fail on every mutant; it is left out.  The script prints KILLED (with the first
failing test) or SURVIVED for each mutant, and the time the run took; a run
that could not collect or start the tests is reported as BROKEN.  The exit code
is 1 unless every mutant is killed.

    python3 tools/mutants.py

A full run takes a few minutes, so the test suite only checks that every old
text still occurs exactly once (tests/test_mutants.py) and never runs this.
Mutants that change no result (such as reversing a palindromic hook quotient)
are left out: no test can kill them.
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

# (file, old text, new text, what the mutant breaks)
MUTANTS = [
    (DIST, "for m in range(min(k - 1, max_p) + 1):", "for m in range(min(k - 1, max_p)):",
     "_hook_sum skips the largest first-row split m"),
    (DIST, "            if b <= max_p:", "            if b < max_p:",
     "_hook_sum drops the shapes with b = max_p"),
    (DIST, "if mu and mu[0] > k - m:", "if mu and mu[0] >= k - m:",
     "_hook_sum drops the shapes whose second row equals the first"),
    (DIST, "for m in range(min(k - 1, max_p) + 1):", "for m in range(min(k - 1, max_p, 8) + 1):",
     "_hook_sum skips m > 8, which changes only the inversion rows n > 16"),
    (DIST, "if mu and mu[0] > k - m:", "if mu and mu[0] > k - m or (k, m) == (7, 2):",
     "_hook_sum drops the m = 2 shapes at k = 7"),
    (DIST, "for c in range(1, s - j + 2)", "for c in range(1, s - j + 1)",
     "_q_eulerian_sum leaves the largest part c out of W[s][j]"),
    (DIST, "<< (SLOT_BITS * (j - 1)) for j in range(1, k + 1)]",
     "<< (SLOT_BITS * (j - 1)) for j in range(1, min(k, 16) + 1)]",
     "_q_eulerian_sum drops the shapes of more than 16 parts: only descent rows n > 16"),
    (DIST, "kern = kernel(k, min(cap - k, comb(k, 2)))",
     "kern = kernel(k, min(cap - k - 1, comb(k, 2)))",
     "_counts cuts each kernel one power short"),
    (DIST, "by_k = [_counts(kernel, cap, j) for j in range(cap + 1)]",
     "by_k = [_counts(kernel, cap, j) for j in range(1, cap + 1)]",
     "the all-k sum leaves out the k = 0 row"),
    ("src/compstats/qanalog.py", "for part in range(1, min(n, len(coefficients) - 1) + 1):",
     "for part in range(1, min(n, len(coefficients) - 1)):",
     "over_pochhammer skips the largest part"),
    (DIST, "while comb(j + 1, 2) <= cap:", "while comb(j + 1, 2) < cap:",
     "the rational route drops the last term of its denominator at a triangular cap"),
    (DIST, "factor = comb(j + 1, 2), pack([-1, 1]) ** (j - 1)",
     "factor = comb(j + 1, 2), pack([-1, 1]) ** j",
     "the rational route keeps the (t - 1) factor that D = (1 - t)(1 - E) cancels"),
    (DIST, "    j = 1\n    while comb(j + 1, 2) <= cap:",
     "    j = 2\n    while comb(j + 1, 2) <= cap:",
     "the rational route leaves the j = 1 term out of E"),
    (DIST, "rows.append(sum(map(mul, by_q[n:0:-1], rows)))",
     "rows.append(sum(map(mul, by_q[n - 1:0:-1], rows)))",
     "the rational route pairs E_m with X_{n-m-1}"),
    (DIST, "enumerate(_counts(_hook_sum, cap, k)[k:], start=k):",
     "enumerate(_counts(_hook_sum, cap, k)[k:cap], start=k):",
     "inversion_totals leaves out n = cap"),
    ("src/compstats/partitions.py", "(cols[j] - i - 1) + 1 for j in range(row_len)]",
     "(cols[j] - i) + 1 for j in range(row_len)]",
     "every leg of a hook is one cell too long"),
    ("src/compstats/cli.py", 'GRID_COLUMNS = {"ic": 13, "dc": 6}', 'GRID_COLUMNS = {"ic": 12, "dc": 6}',
     "the inversion grid loses its last column"),
    ("src/compstats/qanalog.py", "if degree < 0 or any(coefficients[degree + 1:]):", "if degree < 0:",
     "q_quotient no longer checks the tail past the quotient's degree"),
    ("src/compstats/errors.py", "    if value > LIMITS[limit]:", "    if value > LIMITS[limit] + 1:",
     "check_size lets one size past each limit through"),
    ("src/compstats/partitions.py", 'check_size("table", "n", n)',
     'from .errors import check_nonnegative; check_nonnegative("n", n)',
     "partitions_of loses its upper bound"),
    ("src/compstats/oracles.py",
     'check_size("hk", "max_order", max_order)\n    for m in range(1, max_order + 1):\n'
     '        total = Poly.zero()',
     'from .errors import check_nonnegative; check_nonnegative("max_order", max_order)\n'
     '    for m in range(1, max_order + 1):\n        total = Poly.zero()',
     "check_q_exponential_inverse loses its upper bound"),
    ("src/compstats/errors.py", "class InexactDivision(ArithmeticError):",
     "class InexactDivision(CompstatsError):",
     "an inexact division is a usage error again"),
    ("src/compstats/cli.py", "            code = max(code, EXIT_INTERNAL if fault else EXIT_USAGE)",
     "            code = max(code, EXIT_USAGE)",
     "verify reports a fault as a usage error"),
    ("src/compstats/cli.py",
     "            code = max(code, EXIT_INTERNAL if fault else EXIT_USAGE)\n            continue",
     "            code = max(code, EXIT_INTERNAL if fault else EXIT_USAGE)\n"
     "            if fault:\n                break\n            continue",
     "verify stops at the first fault"),
    ("src/compstats/cli.py", "        return EXIT_INTERNAL\n", "        return EXIT_USAGE\n",
     "main reports an internal error with the usage exit code"),
    (OEIS, "if offset <= index < end:", "if offset <= index <= end:",
     "check_sequence admits index = offset + len(terms)"),
    (OEIS, "(metadata or {}).get(sequence_id, SEQUENCES.get(sequence_id))",
     "SEQUENCES.get(sequence_id, (metadata or {}).get(sequence_id))",
     "the SEQUENCES defaults override the metadata"),
    (OEIS, "                chunks.append(chunk)\n",
     "                chunks.append(chunk)\n                break\n",
     "the raw read keeps only its first chunk"),
    ("src/compstats/suites.py",
     "inversions, major_index\n\n    for n in range(max_n + 1):",
     "inversions, major_index\n\n    for n in range(1, max_n + 1):",
     "verify lemma sweeps from n = 1 again, past the empty composition"),
    ("src/compstats/partitions.py",
     "    shape = check_partition(shape)\n    cols = conjugate(shape)",
     "    shape = check_partition(shape)\n    if not shape:\n"
     "        raise ValueError(\"the empty diagram has no cells\")\n    cols = conjugate(shape)",
     "hook_lengths refuses the empty shape again"),
    (DIST, "        if k > cap:\n            return ((),) * (cap + 1)",
     "        if k > cap + 1:\n            return ((),) * (cap + 1)",
     "a part count above the cap takes a memo entry again"),
    (DIST, "if cap < len(rows):", "if cap <= len(rows):",
     "a cap past the widest rows is served from them"),
    (DIST, 'check_size("table", "cap", cap)\n    rows = _count_rows.get((kernel, k), ())\n'
           '    if cap < len(rows):\n        return rows[:cap + 1]\n',
     'rows = _count_rows.get((kernel, k), ())\n    if 0 <= cap < len(rows):\n'
     '        return rows[:cap + 1]\n    check_size("table", "cap", cap)\n',
     "the count-row memo answers before the limit is checked"),
    ("src/compstats/qanalog.py", "return _gauss(n, k) if 0 <= k <= n else Poly.zero()",
     "return _gauss(n, k) if 0 <= k <= n else Poly.constant(int(k == n + 1))",
     "gaussian_binomial answers 1 one past n"),
    (DIST, "TYPE_CHECKING = False  # typing's flag, without importing typing",
     "from typing import TYPE_CHECKING",
     "the table path imports typing again"),
]


def run_mutant(path: str, old: str, new: str) -> tuple[str, str]:
    """(verdict, first failing test) of the test suite on a copy of the checkout with
    ``old`` replaced by ``new`` in ``path``."""
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
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests",
             "--ignore=tests/test_mutants.py"],
            cwd=copy, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True)
    failed = next((line.split(" - ")[0].split(" ", 1)[1] for line in result.stdout.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), "")
    if result.returncode == 0:
        return "SURVIVED", ""
    if result.returncode == 1:
        return "KILLED", failed
    return f"BROKEN (pytest exit {result.returncode})", failed


def main() -> int:
    killed = 0
    for path, old, new, note in MUTANTS:
        start = time.perf_counter()
        verdict, failed = run_mutant(path, old, new)
        killed += verdict == "KILLED"
        print(f"{verdict:<9} {time.perf_counter() - start:5.1f} s  {note}"
              + (f"\n          first failure: {failed}" if failed else ""), flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
