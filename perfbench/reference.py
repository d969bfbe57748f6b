"""Reference answers and output checks, built without the package's closed forms.

Count tables come from walking every composition with sum <= 16 and
counting its inversions and descents directly; the all-k tables are also
checked against the golden grids in ``tests/data/golden/`` before any run.
Every check returns ``None`` when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_MAX_N = 16
GRID_COLUMNS = {"ic": 13, "dc": 6}
GOLDEN_FILES = {"ic": "table_ic_16.txt", "dc": "table_dc_16.txt"}


def enumerate_counts(max_n: int) -> dict[str, dict[tuple[int, int], dict[int, int]]]:
    """kind -> (n, k) -> {r: number of k-part compositions of n with r inversions/descents}.

    Walks every composition part by part; appending part x adds one
    inversion per earlier part larger than x and one descent if the
    previous part is larger than x.
    """
    counts = {"ic": {}, "dc": {}}
    seen = [0] * (max_n + 2)  # seen[v]: parts so far with value v

    def record(kind: str, n: int, k: int, r: int) -> None:
        row = counts[kind].setdefault((n, k), {})
        row[r] = row.get(r, 0) + 1

    def walk(total: int, k: int, inv: int, des: int, last: int) -> None:
        record("ic", total, k, inv)
        record("dc", total, k, des)
        for x in range(1, max_n - total + 1):
            added = sum(seen[x + 1:])
            seen[x] += 1
            walk(total + x, k + 1, inv + added, des + (last > x), x)
            seen[x] -= 1

    walk(0, 0, 0, 0, 0)
    return counts


def parse_grid(text: str) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Parse a `table` grid into (column labels, {(n, r): count})."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty grid")
    header = lines[0].split()
    if header[0] != "n/r":
        raise ValueError(f"bad grid header {lines[0]!r}")
    columns = [int(cell) for cell in header[1:]]
    cells: dict[tuple[int, int], int] = {}
    for line in lines[1:]:
        values = [int(cell) for cell in line.split()]
        if len(values) != len(columns) + 1:
            raise ValueError(f"grid row {line!r} has {len(values) - 1} counts")
        for r, count in zip(columns, values[1:]):
            cells[(values[0], r)] = count
    return columns, cells


class Reference:
    """Reference tables for every n <= 16, checked against the golden grids."""

    def __init__(self, repo: Path):
        self.counts = enumerate_counts(REFERENCE_MAX_N)
        self._all_k = {kind: self.table(kind, REFERENCE_MAX_N, None) for kind in GOLDEN_FILES}
        for kind, name in GOLDEN_FILES.items():
            _, golden = parse_grid((repo / "tests" / "data" / "golden" / name).read_text())
            for (n, r), count in golden.items():
                if self._all_k[kind].get((n, r), 0) != count:
                    raise RuntimeError(
                        f"enumeration disagrees with golden {name} at n={n}, r={r}")

    def table(self, kind: str, max_n: int, k: int | None) -> dict[tuple[int, int], int]:
        """Nonzero counts {(n, r): count} for n <= max_n, all part counts or exactly k."""
        if max_n > REFERENCE_MAX_N:
            raise ValueError(f"no reference beyond n = {REFERENCE_MAX_N}")
        table: dict[tuple[int, int], int] = {}
        for (n, parts), row in self.counts[kind].items():
            if n <= max_n and (k is None or parts == k):
                for r, count in row.items():
                    table[(n, r)] = table.get((n, r), 0) + count
        return table

    def row_length(self, kind: str, n: int) -> int:
        """Entries in row n of the all-k triangle: r = 0 .. last nonzero r."""
        return 1 + max(r for (row_n, r) in self._all_k[kind] if row_n == n)

    def expected_terms(self, sequence_id: str, max_n: int) -> int:
        """Terms an OEIS check covers for n = 1 .. max_n."""
        if sequence_id == "A189052":
            return max_n
        if sequence_id == "A189073":
            return max_n * (max_n + 1) // 2
        kind = "ic" if sequence_id == "A189074" else "dc"
        return sum(self.row_length(kind, n) for n in range(1, max_n + 1))

    # -- output checks ----------------------------------------------------------

    def check_table_output(self, request: dict, stdout: str) -> str | None:
        """Check `compstats table` output in any format against the reference."""
        kind, max_n, k = request["kind"], request["max_n"], request["k"]
        expected = self.table(kind, max_n, k)
        try:
            if request["format"] == "grid":
                return self._check_grid(kind, max_n, expected, stdout)
            if request["format"] == "csv":
                return self._check_csv(max_n, expected, stdout, request["dense"])
            return self._check_json(kind, max_n, k, expected, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparsable {request['format']} output: {exc}"

    @staticmethod
    def _check_grid(kind: str, max_n: int, expected: dict, stdout: str) -> str | None:
        columns, cells = parse_grid(stdout)
        if columns != list(range(GRID_COLUMNS[kind])):
            return f"grid columns {columns}"
        rows = sorted({n for n, _ in cells})
        if rows != list(range(max_n + 1)):
            return f"grid rows {rows[:1]}..{rows[-1:]} instead of 0..{max_n}"
        for (n, r), count in cells.items():
            if count != expected.get((n, r), 0):
                return f"grid n={n} r={r}: {count}, expected {expected.get((n, r), 0)}"
        return None

    @staticmethod
    def check_entries(entries: dict[tuple[int, int], int], expected: dict) -> str | None:
        nonzero = {key: count for key, count in entries.items() if count}
        if nonzero == expected:
            return None
        for key in sorted(set(nonzero) | set(expected)):
            if nonzero.get(key, 0) != expected.get(key, 0):
                return (f"n={key[0]} r={key[1]}: {nonzero.get(key, 0)}, "
                        f"expected {expected.get(key, 0)}")
        return "entries differ"

    def _check_csv(self, max_n: int, expected: dict, stdout: str, dense: bool) -> str | None:
        lines = stdout.splitlines()
        if not lines or lines[0] != "n,r,count":
            return "missing csv header"
        entries = {}
        for line in lines[1:]:
            n, r, count = (int(cell) for cell in line.split(","))
            entries[(n, r)] = count
        if len(entries) != len(lines) - 1:
            return "repeated csv entry"
        if dense:
            top = max((r for _, r in expected), default=0)
            grid = {(n, r) for n in range(max_n + 1) for r in range(top + 1)}
            if set(entries) != grid:
                return "dense csv does not cover the full rectangle"
        elif any(count == 0 for count in entries.values()):
            return "sparse csv lists a zero count"
        return self.check_entries(entries, expected)

    def _check_json(self, kind: str, max_n: int, k: int | None, expected: dict,
                    stdout: str) -> str | None:
        data = json.loads(stdout)
        want_kind = f"{kind}_n" if k is None else f"{kind}_nk"
        if (data["kind"], data["k"], data["cap"]) != (want_kind, k, max_n):
            return f"json header {(data['kind'], data['k'], data['cap'])}"
        entries = {(n, r): int(count) for n, r, count in data["entries"]}
        return self.check_entries(entries, expected)

    def check_report(self, request: dict, result: dict) -> str | None:
        """Check an `oeis.check_sequence` report from the warm session."""
        expected_terms = self.expected_terms(request["seq"], request["max_n"])
        if result["sequence_id"] != request["seq"] or not result["agree"]:
            return f"{request['seq']}: b-file disagrees ({result})"
        if result["terms_checked"] != expected_terms:
            return (f"{request['seq']}: {result['terms_checked']} terms checked, "
                    f"expected {expected_terms}")
        return None


def check_verify_output(suite: str, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or any(not line.startswith("PASS ") for line in lines):
        return f"verify {suite}: not only PASS lines: {lines[:3]}"
    if not lines[0].startswith(f"PASS {suite}:") or len(lines) != 1:
        return f"verify {suite}: unexpected lines {lines}"
    return None


def _major_index(pi: list[int]) -> int:
    return sum(i + 1 for i in range(len(pi) - 1) if pi[i] > pi[i + 1])


def _parts(text: str) -> list[int]:
    return [int(cell) for cell in text.split(",")]


def check_bij_output(composition: list[int], stdout: str) -> str | None:
    """Check a `bij` walk-through: its fields, the round trip and |partition| + maj = sum."""
    fields = {}
    for line in stdout.splitlines():
        name, _, value = line.partition(":")
        fields[name.strip()] = value.strip()
    try:
        pi_text = fields["permutation"]
        pi = _parts(pi_text) if "," in pi_text else [int(d) for d in pi_text]
        mu, lam = _parts(fields["sorted mu"]), _parts(fields["partition"])
        if (composition != _parts(fields["composition"])
                or composition != _parts(fields["round-trip"])):
            return "bij: composition or round trip differs from the input"
        if int(fields["sum"]) != sum(composition):
            return "bij: wrong sum"
        if sorted(pi) != list(range(1, len(composition) + 1)):
            return f"bij: {pi_text} is not a permutation of the parts"
        if mu != [composition[i - 1] for i in pi] or mu != sorted(composition, reverse=True):
            return "bij: the permutation does not sort the composition"
        if lam != sorted(lam, reverse=True) or min(lam) < 1:
            return f"bij: {lam} is not a partition"
        if sum(lam) + _major_index(pi) != sum(composition):
            return "bij: |partition| + maj(permutation) != sum"
    except (KeyError, ValueError) as exc:
        return f"bij: unparsable output ({exc})"
    return None
