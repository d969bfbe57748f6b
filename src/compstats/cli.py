"""Command-line front end: tables, bijection round-trips, verification suites, OEIS checks.

Exit codes: 0 success, 1 verification failure or value mismatch, 2 usage or
parse error (or a verification suite that raised one), 3 internal error: an
invariant such as an exact division failed, which is a bug in this package.
Output is deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

# each subcommand and verify check imports what it runs, so a table never
# loads polynomial, the oracles, or the enumeration or OEIS modules, and an
# enumerating check never loads the closed forms
from .errors import LIMITS, CompstatsError, InexactDivision, NetworkUnavailable

if TYPE_CHECKING:
    from .distributions import DistTable
    from .polynomial import Poly

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
        raise CompstatsError("the empty composition is not in the bijection's domain")
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

def _first_poly_difference(a: Poly, b: Poly) -> str:
    from .polynomial import monomial_exponents

    diff = a - b
    key, _ = next(diff.terms())
    exponents = monomial_exponents(key)
    return (f"coefficient {exponents}: expected {b.coeff(**exponents)}, "
            f"got {a.coeff(**exponents)}")


def _check_prod(max_t: int, cap: int) -> tuple[bool, str]:
    from . import oracles

    if not oracles.verify_product_expansion(max_t, cap):
        return False, f"product expansion differs within t-degrees 0..{max_t} (caps {cap},{cap})"
    return True, f"t-degrees 0..{max_t}, caps ({cap},{cap})"


def _check_geneuler(max_order: int) -> tuple[bool, str]:
    from . import oracles

    if not oracles.verify_q_eulerian_gf(max_order):
        return False, f"q-Eulerian generating identity fails within orders 1..{max_order}"
    return True, f"orders 1..{max_order}"


def _check_genfuncid(max_k: int, cap: int) -> tuple[bool, str]:
    from . import oracles

    for k in range(max_k + 1):
        if not oracles.verify_composition_count_identity(k, cap):
            return False, f"composition-count identity fails at k={k}, cap={cap}"
    return True, f"k 0..{max_k}, cap {cap}"


def _check_lemma(max_n: int) -> tuple[bool, str]:
    from .compositions import (all_compositions, format_composition, reversed_composition,
                               sorting_permutation)
    from .permutations import inverse_permutation
    from .statistics import comajor_index, descent_number, inversions, major_index

    for n in range(1, max_n + 1):
        for sigma in all_compositions(n):
            pi = sorting_permutation(sigma)
            inverse = inverse_permutation(pi)
            rev = reversed_composition(sigma)
            pairs = (
                ("inv", inversions(pi), inversions(rev)),
                ("imaj=comaj^R", major_index(inverse), comajor_index(rev)),
                ("icomaj=maj^R", comajor_index(inverse), major_index(rev)),
                ("ides=des^R", descent_number(inverse), descent_number(rev)),
            )
            for label, actual, expected in pairs:
                if actual != expected:
                    return False, (f"sigma={format_composition(sigma)}: {label} "
                                   f"expected {expected}, got {actual}")
    return True, f"all compositions with sum <= {max_n}"


def _check_macmahon(max_n: int) -> tuple[bool, str]:
    from .compositions import (all_compositions, format_composition, macmahon_forward,
                               macmahon_inverse)
    from .statistics import major_index

    for n in range(1, max_n + 1):
        for sigma in all_compositions(n):
            pi, lam = macmahon_forward(sigma)
            maj = major_index(pi)
            if sum(lam) + maj != n:
                return False, (f"sigma={format_composition(sigma)}: "
                               f"|lambda| + maj = {sum(lam)} + {maj} != {n}")
            back = macmahon_inverse(pi, lam)
            if back != sigma:
                return False, (f"sigma={format_composition(sigma)}: round-trip "
                               f"gave {format_composition(back)}")
    return True, f"all compositions with sum <= {max_n}"


def _check_jointstat(max_k: int, cap: int) -> tuple[bool, str]:
    from . import distributions
    from .compositions import statistic_distribution as composition_distribution

    stats = ("sum", "inv", "comaj", "maj", "des")
    variables = ("p", "q", "t", "u", "v")
    for k in range(max_k + 1):
        closed = distributions.joint_gf(k, cap)
        brute = composition_distribution(k, cap, stats, variables)
        if closed != brute:
            return False, (f"k={k}, cap={cap}: "
                           + _first_poly_difference(closed.body, brute.body))
    return True, f"k 0..{max_k}, cap {cap}"


def _inverse_descent_set(pi: tuple[int, ...]) -> tuple[int, ...]:
    """The descent set of the inverse of pi: i is in it when i + 1 stands left of i in pi."""
    where = [0] * (len(pi) + 1)
    for position, value in enumerate(pi):
        where[value] = position
    return tuple([i for i in range(1, len(pi)) if where[i] > where[i + 1]])


def _check_foata(max_k: int) -> tuple[bool, str]:
    from .permutations import all_permutations, foata, foata_inverse, format_permutation
    from .statistics import inversions, major_index

    # foata checks pi and foata_inverse checks the image: one validation per permutation
    for k in range(max_k + 1):
        for pi in all_permutations(k):
            image = foata(pi)
            maj, inv = major_index(pi), inversions(image)
            if maj != inv:
                return False, f"pi={format_permutation(pi)}: maj {maj} != inv(foata) {inv}"
            before, after = _inverse_descent_set(pi), _inverse_descent_set(image)
            if before != after:
                return False, (f"pi={format_permutation(pi)}: inverse descent set "
                               f"{before} became {after}")
            if foata_inverse(image) != pi:
                return False, f"pi={format_permutation(pi)}: foata round-trip failed"
    return True, f"S_k for k 0..{max_k}"


def _pair(joint: Poly, first: str, second: str) -> Poly:
    """The distribution of two variables of ``joint``, the others set to 1, renamed to (p, q)."""
    for var in joint.variables_used() - {first, second}:
        joint = joint.eval_at_one(var)
    return joint.rename({first: "p", second: "q"})


def _check_equidist(max_k: int, cap: int) -> tuple[bool, str]:
    from .compositions import statistic_distribution as composition_distribution
    from .permutations import statistic_distribution as permutation_distribution

    # one enumeration per k; each pair distribution is read off the joint one
    variable = {"imaj": "p", "maj": "q", "inv": "t"}
    for k in range(max_k + 1):
        joint = permutation_distribution(k, tuple(variable), tuple(variable.values()))
        reference = _pair(joint, variable["imaj"], variable["maj"])
        for stats in (("inv", "imaj"), ("maj", "inv")):
            other = _pair(joint, variable[stats[0]], variable[stats[1]])
            if other != reference:
                return False, (f"k={k}: ({stats[0]},{stats[1]}) distribution differs: "
                               + _first_poly_difference(other, reference))
        swapped = reference.rename({"p": "q", "q": "p"})
        if swapped != reference:
            return False, f"k={k}: joint distribution is not symmetric"
    comp_max_k = min(max_k, 5)
    variable = {"sum": "p", "inv": "q", "maj": "t", "comaj": "u"}
    for k in range(comp_max_k + 1):
        joint = composition_distribution(k, cap, tuple(variable),
                                         tuple(variable.values())).body
        reference = _pair(joint, variable["sum"], variable["inv"])
        for stat in ("maj", "comaj"):
            other = _pair(joint, variable["sum"], variable[stat])
            if other != reference:
                return False, (f"k={k}: (sum,{stat}) over compositions differs: "
                               + _first_poly_difference(other, reference))
    return True, f"S_k for k 0..{max_k}; compositions k 0..{comp_max_k}, cap {cap}"


# suite -> its check and the bounds it reads, in argument order: option name ->
# (default when the option is left out, the limit it may not exceed); prod and
# geneuler build the S_k polynomials that hk caps, the enumerating suites sweep
# S_k or every composition up to the bound
SUITES = {
    "prod": (_check_prod, {"k": (4, "hk"), "cap": (8, "table")}),
    "geneuler": (_check_geneuler, {"k": (6, "hk")}),
    "genfuncid": (_check_genfuncid, {"k": (5, "table"), "cap": (12, "table")}),
    "lemma": (_check_lemma, {"max_n": (12, "sweep")}),
    "macmahon": (_check_macmahon, {"max_n": (12, "sweep")}),
    "jointstat": (_check_jointstat, {"k": (4, "joint"), "cap": (9, "compositions")}),
    "foata": (_check_foata, {"k": (7, "joint")}),
    "equidist": (_check_equidist, {"k": (7, "joint"), "cap": (12, "table")}),
}


def cmd_verify(args: argparse.Namespace) -> int:
    failed = errored = False
    for name, (check, bounds) in SUITES.items():
        if args.suite not in ("all", name):
            continue
        # a default stands in only for an option left out: 0 is a bound
        values = [default if getattr(args, option) is None else getattr(args, option)
                  for option, (default, _) in bounds.items()]
        try:
            ok, detail = check(*values)
        except InexactDivision:
            raise
        except CompstatsError as exc:
            print(f"ERROR {name}: {exc}", flush=True)
            errored = True
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
        failed = failed or not ok
    if errored:
        return EXIT_USAGE
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# oeis-check
# ---------------------------------------------------------------------------

def cmd_oeis_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import oeis

    if args.fetch:
        bfile = oeis.fetch_bfile(args.seq)
        metadata = None
    else:
        path = Path(args.bfile)
        bfile = oeis.load_bfile(path, sequence_id=args.seq)
        sidecar = path.parent / "metadata.json"
        metadata = oeis.load_metadata(sidecar) if sidecar.exists() else None
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
            readers = {suite: bounds[option][1] for suite, (_, bounds) in runs.items()
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
    except InexactDivision as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (NetworkUnavailable, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
