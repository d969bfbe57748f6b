"""Print one SHA-256 over a fixed set of compstats outputs, to show a refactor kept the bytes.

Runs a fixed list of ``compstats`` CLI calls in this process and hashes each
call's argv, exit code, stdout and stderr, then the reprs of the series and
totals the library returns:

- ``table ic|dc --max-n N`` for every N in 0..24, without ``--k`` and with
  every k in 0..N+1, in grid, csv, dense csv and json;
- ``hk 0..8``, ``hk 5 --format json``, ``verify --suite all``,
  ``bij 4,2,1,2,1,5,3`` and ``table ic --max-n 25`` (a usage error);
- ``oeis-check`` on the five fixture b-files at ``--max-n`` 0, 1, 5, 12 and 16;
- ``inv_gf``, ``inv_gf_total``, ``des_gf``, ``des_gf_total`` and
  ``inversion_totals`` at caps 0, 5, 12, 16 and 24, every k in 0..cap;
- the cross-check routes ``des_gf_total_rational`` at every cap 0..24 and
  ``maj_inv_poly_carlitz`` at k 0..8;
- ``pochhammer_inverse_series(n, "p", cap)`` for n in 0..cap+1 at the same caps,
  ``joint_gf(k, cap)`` for k in 0..min(cap, 5) at caps 0, 5, 9 and 12, and
  ``comaj_des_gf(k, cap)`` for k in 0..min(cap, 7) at caps 0, 5, 12 and 16.

    python3 tools/same_bytes.py

Then it runs every ``table`` call once more.  The count rows are memoised
per kernel and part count at the widest cap built so far, so these reruns
read prefixes of the cap-24 rows where the first pass built each cap.  If a
rerun's exit code or output differs from its first run, the script names
the call on stderr, prints no hash and exits 1.  The hash covers the first
pass only.

It imports the package from the ``src`` directory next to it, and hashes the
fixture paths relative to the checkout, so a copy of this script placed in
another checkout hashes that checkout's code.  It looks the library functions
up as ``compstats.<name>``, so it runs whichever module defines them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "data" / "oeis"
SEQUENCES = ("A189052", "A189073", "A189074", "A238343", "A238344")
TABLE_FORMATS = (["--format", "grid"], ["--format", "csv"], ["--format", "csv", "--dense"],
                 ["--format", "json"])
SERIES_CAPS = (0, 5, 12, 16, 24)
RATIONAL_CAPS = range(25)
CARLITZ_KS = range(9)
JOINT_CAPS = (0, 5, 9, 12)
COMAJ_DES_CAPS = (0, 5, 12, 16)


def calls() -> list[list[str]]:
    tables = [["table", kind, "--max-n", str(n), *k, *fmt]
              for kind in ("ic", "dc") for n in range(25)
              for k in ([], *(["--k", str(k)] for k in range(n + 2)))
              for fmt in TABLE_FORMATS]
    fixed = ([["hk", str(k)] for k in range(9)]
             + [["hk", "5", "--format", "json"], ["verify", "--suite", "all"],
                ["bij", "4,2,1,2,1,5,3"], ["table", "ic", "--max-n", "25"]])
    oeis = [["oeis-check", "--seq", seq, "--bfile",
             str((FIXTURES / f"b{seq[1:]}.txt").relative_to(ROOT)), "--max-n", str(n)]
            for seq in SEQUENCES for n in (0, 1, 5, 12, 16)]
    return tables + fixed + oeis


def run(cli, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call; paths resolve under ROOT."""
    resolved = [str(ROOT / arg) if arg.startswith("tests/") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(resolved)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def library_values(compstats):
    for cap in SERIES_CAPS:
        for k in range(cap + 1):
            yield compstats.inv_gf(k, cap)
            yield compstats.des_gf(k, cap)
        yield compstats.inv_gf_total(cap)
        yield compstats.des_gf_total(cap)
        yield compstats.inversion_totals(cap)
    for cap in RATIONAL_CAPS:
        yield compstats.des_gf_total_rational(cap)
    for k in CARLITZ_KS:
        yield compstats.maj_inv_poly_carlitz(k)
    for cap in SERIES_CAPS:
        for n in range(cap + 2):
            yield compstats.pochhammer_inverse_series(n, "p", cap)
    for cap in JOINT_CAPS:
        for k in range(min(cap, 5) + 1):
            yield compstats.joint_gf(k, cap)
    for cap in COMAJ_DES_CAPS:
        for k in range(min(cap, 7) + 1):
            yield compstats.comaj_des_gf(k, cap)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import compstats
    from compstats import cli

    digest = hashlib.sha256()
    tables = {}
    for argv in calls():
        result = run(cli, argv)
        if argv[0] == "table":
            tables[tuple(argv)] = result
        digest.update(repr((argv, *result)).encode() + b"\n")
    for value in library_values(compstats):
        digest.update(repr(value).encode() + b"\n")
    # the memo now holds the rows at cap 24, so every rerun reads a prefix of them
    for argv, result in tables.items():
        if run(cli, list(argv)) != result:
            print(f"rerun differs from the first run: {' '.join(argv)}", file=sys.stderr)
            return 1
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
