"""Command-line front end: tables, bijection round-trips, verification suites, OEIS checks.

Arguments are read in one pass against the table ``COMMANDS``, without argparse: an option
takes ``--name value``, ``--name=value`` or a unique prefix of its name, and ``-h`` prints
the usage of the program or of a command.

Exit codes: 0 success, 1 verification failure or value mismatch, 2 usage,
parse or download error, 3 internal error (a bug in this package: an exact
division left a remainder, or a packed count outgrew its slot), each read off
the exception's base class; verify exits with the largest code of its suites.
Output is deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace as Namespace

# each subcommand imports what it runs, so a table loads tables alone: never the
# closed forms, polynomial, the verify suites, the oracles, or the enumeration or
# OEIS modules, and only JSON output loads json
from .errors import LIMITS, CompstatsError

TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable
    from typing import NoReturn

    from .tables import DistTable

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

def cmd_hk(args: Namespace) -> int:
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


def cmd_table(args: Namespace) -> int:
    from .tables import DistTable

    if args.kind == "ic":
        table = DistTable.inversions(args.max_n, k=args.k)
    else:
        table = DistTable.descents(args.max_n, k=args.k)
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

def cmd_bij(args: Namespace) -> int:
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


def cmd_verify(args: Namespace) -> int:
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

def cmd_oeis_check(args: Namespace) -> int:
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

REQUIRED = ...  # the default of an argument that must be given

# command -> (help, arguments); an argument is (name, kind, default, help), positional unless
# its name starts with "--", of kind int, str, bool (a flag: it takes no value) or a tuple of
# choices.  Reading this table, not building an argparse parser, keeps argparse out of a call
COMMANDS = {
    "hk": ("print the joint (maj, inv) polynomial over S_k", (
        ("k", int, REQUIRED, "the order k of S_k"),
        ("--format", ("text", "json"), "text", "output format"))),
    "table": ("emit a count triangle (inversions or descents)", (
        ("kind", ("ic", "dc"), REQUIRED, "ic (inversions) or dc (descents)"),
        ("--max-n", int, REQUIRED, "largest composition sum"),
        ("--k", int, None, "restrict to k-part compositions"),
        ("--format", ("csv", "json", "grid"), "grid", "output format"),
        ("--dense", bool, False, "pad CSV output with explicit zero entries (csv only)"))),
    "bij": ("run the composition -> (permutation, partition) bijection", (
        ("composition", str, REQUIRED, 'comma-separated parts, e.g. "4,2,1,5,3"; - reads stdin'),)),
    "verify": ("run identity and bijection verification suites", (
        ("--suite", ("all", *SUITES), "all", "the suite to run"),
        ("--k", int, None, "order / part-count bound"),
        ("--cap", int, None, "series truncation cap"),
        ("--max-n", int, None, "composition sum bound"))),
    "oeis-check": ("compare computed values against an OEIS b-file", (
        ("--seq", str, REQUIRED, "sequence id, e.g. A189074"),
        ("--bfile", str, None, "path to a local b-file"),
        ("--fetch", bool, False, "download the b-file from oeis.org instead"),
        ("--max-n", int, 16, "largest composition sum"))),
}


def _parse(argv: list[str]) -> Namespace:
    """Read ``argv`` against COMMANDS in one pass, then check its bounds with ``_validate``;
    an input error prints a usage line and ``compstats[ <command>]: error: <message>`` to
    stderr and exits 2, and -h or --help prints the usage and one line per argument."""
    command, *tokens = argv or [""]
    arguments = COMMANDS[command][1] if command in COMMANDS else ()
    kinds = {name: kind for name, kind, _, _ in arguments}
    positional = [name for name in kinds if name[0] != "-"]

    def usage(where: str) -> str:
        if not where:
            return "usage: compstats [-h] {" + ",".join(COMMANDS) + "} ..."
        words = []
        for name, kind, default, _ in arguments:
            value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()
            word = name if kind is bool or name[0] != "-" else f"{name} {value}"
            words.append(word if default is REQUIRED else f"[{word}]")
        return " ".join(["usage: compstats", where, "[-h]", *words])

    def fail(message: str, where: str = command) -> NoReturn:
        print(usage(where), f"{('compstats ' + where).rstrip()}: error: {message}",
              sep="\n", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def is_option(token: str) -> bool:  # "-" reads stdin, and "-1" is a negative int
        return token[:1] == "-" and token != "-" and not token[1:].isdigit()

    if command in ("-h", "--help") or arguments and {"-h", "--help"} & {*tokens}:
        rows = [(name, text) for name, _, _, text in arguments] or [
            (name, text) for name, (text, _) in COMMANDS.items()]
        print(usage(command if arguments else ""), *(f"  {name:<13}{text}" for name, text in rows),
              sep="\n")
        raise SystemExit(EXIT_OK)
    if not arguments:
        fail(f"{f'unknown command {command!r}' if command else 'no command'}; "
             f"choose one of {', '.join(COMMANDS)}", "")
    given = {}
    while tokens:
        token = tokens.pop(0)
        if is_option(token):
            prefix, equals, value = token.partition("=")
            names = [name for name in kinds if name == prefix] or [
                name for name in kinds if name.startswith(prefix) and prefix != "--"]
            if len(names) != 1:
                fail(f"ambiguous option {prefix}: {', '.join(names)}" if names
                     else f"unknown option {prefix}")
            name = names[0]
            if kinds[name] is bool:
                value = True if not equals else fail(f"{name} takes no value")
            elif not equals:
                value = (tokens.pop(0) if tokens and not is_option(tokens[0])
                         else fail(f"{name} needs a value"))
        elif positional:
            name, value = positional.pop(0), token
        else:
            fail(f"unexpected argument {token!r}")
        if kinds[name] is int:
            try:
                value = int(value)
            except ValueError:
                fail(f"{name}: invalid int value {value!r}")
        elif isinstance(kinds[name], tuple) and value not in kinds[name]:
            fail(f"{name}: invalid choice {value!r} (choose from {', '.join(kinds[name])})")
        given[name] = value
    for name, _, default, _ in arguments:
        if given.setdefault(name, default) is REQUIRED:
            fail(f"{name} is required")
    args = Namespace(command=command, **{
        name.lstrip("-").replace("-", "_"): value for name, value in given.items()})
    if command == "oeis-check" and (args.bfile is None) != args.fetch:
        fail("give exactly one of --bfile and --fetch")
    _validate(lambda message: fail(message, ""), args)  # the top usage line, as under argparse
    return args


def _validate(fail: Callable[[str], NoReturn], args: Namespace) -> None:
    def bound(flag: str, value: int, limit: str | None = None, where: str = "") -> None:
        if value < 0:
            fail(f"{flag} must be nonnegative")
        if limit is not None and value > LIMITS[limit]:
            fail(f"{flag} is capped at {LIMITS[limit]}{where}")

    if args.command == "hk":
        bound("k", args.k, "hk")
    elif args.command == "table":
        bound("--max-n", args.max_n, "table")
        if args.k is not None:
            bound("--k", args.k)
        if args.dense and args.format != "csv":
            fail("--dense applies only to --format csv")
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
                fail(f"--suite {args.suite} does not read {flag}")
            for suite, limit in readers.items():
                bound(flag, value, limit, f" for --suite {suite}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        # looked up at the call, so a wrapper bound to the module's name runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
