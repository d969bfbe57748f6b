"""Command-line front end: tables, bijection round-trips, verification suites, OEIS checks.

Exit codes: 0 success, 1 verification failure or value mismatch, 2 usage,
parse or download error, 3 internal error (a bug in this package: an exact
division left a remainder, or a packed count outgrew its slot), each read off
the exception's base class; verify exits with the largest code of its suites.
Output is deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

# each subcommand imports what it runs, so a table never loads polynomial, the
# verify suites, the oracles, or the enumeration or OEIS modules, and only JSON
# output loads json
from .errors import LIMITS, CompstatsError

if TYPE_CHECKING:
    from .distributions import DistTable

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# grid output mirrors the published row-per-n tables: inversions are shown
# for r <= 12 and descents for r <= 5, zero-padded
GRID_COLUMNS = {"ic": 13, "dc": 6}


# ---------------------------------------------------------------------------
# hk
# ---------------------------------------------------------------------------

def cmd_hk(args: argparse.Namespace) -> int:
    from . import distributions

    poly = distributions.maj_inv_poly(args.k)
    if args.format == "json":
        import json

        print(json.dumps({"k": args.k, "terms": poly.to_json_obj()}))
    else:
        print(poly)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _render_grid(table: DistTable, columns: int) -> str:
    header = ["n/r"] + [str(r) for r in range(columns)]
    rows = [header]
    for n in range(table.cap + 1):
        rows.append([str(n)] + [str(table.count(n, r)) for r in range(columns)])
    widths = [max(len(row[i]) for row in rows) for i in range(columns + 1)]
    lines = ["  ".join(cell.rjust(width) for cell, width in zip(row, widths))
             for row in rows]
    return "\n".join(lines) + "\n"


def cmd_table(args: argparse.Namespace) -> int:
    from . import distributions

    if args.kind == "ic":
        table = distributions.DistTable.inversions(args.max_n, k=args.k)
    else:
        table = distributions.DistTable.descents(args.max_n, k=args.k)
    if args.format == "csv":
        sys.stdout.write(table.to_csv(dense=args.dense))
    elif args.format == "json":
        print(table.to_json())
    else:
        sys.stdout.write(_render_grid(table, GRID_COLUMNS[args.kind]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bij
# ---------------------------------------------------------------------------

def cmd_bij(args: argparse.Namespace) -> int:
    from .compositions import (format_composition, macmahon_forward, macmahon_inverse,
                               parse_composition)
    from .permutations import format_permutation
    from .statistics import major_index

    sigma = parse_composition(sys.stdin.read() if args.composition == "-" else args.composition)
    if not sigma:
        raise CompstatsError("bij needs a composition with at least one part")
    pi, lam = macmahon_forward(sigma)
    mu = tuple(sigma[i - 1] for i in pi)
    maj = major_index(pi)
    reconstructed = macmahon_inverse(pi, lam)
    print(f"composition:   {format_composition(sigma)}")
    print(f"sum:           {sum(sigma)}")
    print(f"permutation:   {format_permutation(pi)}")
    print(f"sorted mu:     {format_composition(mu)}")
    print(f"partition:     {format_composition(lam)}")
    print(f"maj(perm):     {maj}")
    print(f"|partition|:   {sum(lam)}")
    print(f"round-trip:    {format_composition(reconstructed)}")
    if sum(lam) + maj != sum(sigma) or reconstructed != sigma:
        print("check:         FAILED")
        return EXIT_VERIFY_FAILED
    print(f"check:         |partition| + maj = {sum(lam)} + {maj} = {sum(sigma)} = sum")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# suite -> the bounds its check ``suites.check_<suite>`` reads, in argument
# order: option name -> (default when the option is left out, the limit it may
# not exceed); prod and geneuler build the S_k polynomials that hk caps, the
# enumerating suites sweep S_k or every composition up to the bound
SUITES = {
    "prod": {"k": (4, "hk"), "cap": (8, "table")},
    "geneuler": {"k": (6, "hk")},
    "genfuncid": {"k": (5, "table"), "cap": (12, "table")},
    "lemma": {"max_n": (12, "sweep")},
    "macmahon": {"max_n": (12, "sweep")},
    "jointstat": {"k": (4, "joint"), "cap": (9, "compositions")},
    "foata": {"k": (7, "joint")},
    "equidist": {"k": (7, "joint"), "cap": (12, "table")},
}


def cmd_verify(args: argparse.Namespace) -> int:
    from . import suites

    code = EXIT_OK
    for name, bounds in SUITES.items():
        if args.suite not in ("all", name):
            continue
        # a default stands in only for an option left out: 0 is a bound
        values = [default if getattr(args, option) is None else getattr(args, option)
                  for option, (default, _) in bounds.items()]
        try:
            ok, detail = getattr(suites, f"check_{name}")(*values)
        except (ValueError, ArithmeticError) as exc:
            fault = isinstance(exc, ArithmeticError)
            print(f"ERROR {name}: {'internal error: ' if fault else ''}{exc}", flush=True)
            code = max(code, EXIT_INTERNAL if fault else EXIT_USAGE)
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
        code = max(code, EXIT_OK if ok else EXIT_VERIFY_FAILED)
    return code


# ---------------------------------------------------------------------------
# oeis-check
# ---------------------------------------------------------------------------

def cmd_oeis_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import oeis

    if args.fetch:
        metadata = None
    else:
        path = Path(args.bfile)
        sidecar = path.parent / "metadata.json"
        metadata = oeis.load_metadata(sidecar) if sidecar.exists() else None
    # an unknown sequence or an over-limit --max-n is refused before a b-file is read or
    # downloaded; the terms are memoised, so check_sequence does not compute them again
    oeis.sequence_terms(args.seq, args.max_n, metadata)
    bfile = (oeis.fetch_bfile(args.seq) if args.fetch
             else oeis.load_bfile(path, sequence_id=args.seq))
    report = oeis.check_sequence(args.seq, bfile, args.max_n, metadata)
    if not report.terms_checked:
        raise CompstatsError(f"{args.seq}: nothing to compare: no b-file index falls in "
                             f"the terms computed for --max-n {args.max_n}")
    print(report.summary())
    return EXIT_OK if report.agree else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compstats",
        description="Distributions of inversions and descents over integer compositions.")
    sub = parser.add_subparsers(dest="command", required=True)

    hk = sub.add_parser("hk", help="print the joint (maj, inv) polynomial over S_k")
    hk.add_argument("k", type=int)
    hk.add_argument("--format", choices=("text", "json"), default="text")
    hk.set_defaults(func=cmd_hk)

    table = sub.add_parser("table", help="emit a count triangle (inversions or descents)")
    table.add_argument("kind", choices=("ic", "dc"))
    table.add_argument("--max-n", type=int, required=True)
    table.add_argument("--k", type=int, default=None,
                       help="restrict to k-part compositions")
    table.add_argument("--format", choices=("csv", "json", "grid"), default="grid")
    table.add_argument("--dense", action="store_true",
                       help="pad CSV output with explicit zero entries (csv only)")
    table.set_defaults(func=cmd_table)

    bij = sub.add_parser("bij", help="run the composition -> (permutation, partition) bijection")
    bij.add_argument("composition", help='comma-separated parts, e.g. "4,2,1,5,3"; - reads stdin')
    bij.set_defaults(func=cmd_bij)

    verify = sub.add_parser("verify", help="run identity and bijection verification suites")
    verify.add_argument("--suite", choices=("all", *SUITES), default="all")
    verify.add_argument("--k", type=int, default=None, help="order / part-count bound")
    verify.add_argument("--cap", type=int, default=None, help="series truncation cap")
    verify.add_argument("--max-n", type=int, default=None, help="composition sum bound")
    verify.set_defaults(func=cmd_verify)

    check = sub.add_parser("oeis-check", help="compare computed values against an OEIS b-file")
    check.add_argument("--seq", required=True, help="sequence id, e.g. A189074")
    source = check.add_mutually_exclusive_group(required=True)
    source.add_argument("--bfile", help="path to a local b-file")
    source.add_argument("--fetch", action="store_true",
                        help="download the b-file from oeis.org instead")
    check.add_argument("--max-n", type=int, default=16)
    check.set_defaults(func=cmd_oeis_check)

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    def bound(flag: str, value: int, limit: str | None = None, where: str = "") -> None:
        if value < 0:
            parser.error(f"{flag} must be nonnegative")
        if limit is not None and value > LIMITS[limit]:
            parser.error(f"{flag} is capped at {LIMITS[limit]}{where}")

    if args.command == "hk":
        bound("k", args.k, "hk")
    elif args.command == "table":
        bound("--max-n", args.max_n, "table")
        if args.k is not None:
            bound("--k", args.k)
        if args.dense and args.format != "csv":
            parser.error("--dense applies only to --format csv")
    elif args.command == "oeis-check":
        bound("--max-n", args.max_n)  # the library refuses one above its table limit
    elif args.command == "verify":
        runs = SUITES if args.suite == "all" else {args.suite: SUITES[args.suite]}
        for option in ("k", "cap", "max_n"):
            flag, value = "--" + option.replace("_", "-"), getattr(args, option)
            if value is None:
                continue
            readers = {suite: bounds[option][1] for suite, bounds in runs.items()
                       if option in bounds}
            if not readers:
                parser.error(f"--suite {args.suite} does not read {flag}")
            for suite, limit in readers.items():
                bound(flag, value, limit, f" for --suite {suite}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
