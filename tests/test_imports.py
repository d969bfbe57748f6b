"""What a CLI call imports, and the lazily resolved package namespace."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import compstats

SRC = Path(__file__).resolve().parents[1] / "src"

# the modules a table call loads under -S beyond a bare interpreter, each named: the
# package's own, __future__ for ``from __future__ import annotations``, types for the
# parsed arguments, and the stdlib modules that tables imports (collections, functools,
# itertools, math, operator) with what they pull in.  Everything the table path runs below
# the CLI is in compstats.tables, on packed ints, so it never loads the closed forms or
# polynomial; hk builds a Poly from the same kernel, so it adds distributions and polynomial
# alone.  No table call loads json, in any format: DistTable.to_json writes its text itself
TABLE_PATH = {
    "compstats", "compstats.cli", "compstats.errors", "compstats.tables", "__future__",
    "collections", "collections.abc", "_collections", "_collections_abc", "functools",
    "_functools", "itertools", "keyword", "math", "operator", "_operator", "reprlib", "types",
}
HK_PATH = TABLE_PATH | {"compstats.distributions", "compstats.polynomial"}
BFILES = Path(__file__).parent / "data" / "oeis"


def loaded_modules(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``.  It runs with -S: a site
    hook (a .pth file that imports a package at start-up) would load modules of its own and
    hide what the code loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = code + "\nimport sys\nsys.stderr.write(' '.join(sys.modules))\n"
    result = subprocess.run([sys.executable, "-S", "-c", probe, *argv], env=env,
                            capture_output=True, text=True, check=True)
    return set(result.stderr.split())


@pytest.mark.parametrize("argv", [("table", "ic", "--max-n", "4"), ("hk", "3"),
                                  ("table", "dc", "--max-n", "4", "--k", "2"),
                                  ("table", "ic", "--max-n", "4", "--format", "csv"),
                                  ("table", "dc", "--max-n", "4", "--format", "csv", "--dense"),
                                  ("table", "ic", "--max-n", "4", "--format", "json"),
                                  ("table", "dc", "--max-n", "4", "--k", "2", "--format", "json")])
def test_cli_call_loads_only_what_its_subcommand_runs(argv):
    bare = loaded_modules("")
    used = loaded_modules(
        "import sys\nfrom compstats.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    assert used - bare - (HK_PATH if argv[0] == "hk" else TABLE_PATH) == set()


# the command table is read in one pass, so no call builds an argparse parser, and none
# loads argparse or the gettext and locale modules it brings
@pytest.mark.parametrize("argv", [
    ("table", "ic", "--max-n", "4", "--format", "json"), ("hk", "3", "--format", "json"),
    ("verify", "--suite", "genfuncid", "--k", "2", "--cap", "4"),
    ("verify", "--suite", "foata", "--k", "3"), ("bij", "2,1"),
    ("oeis-check", "--seq", "A189074", "--bfile", str(BFILES / "b189074.txt"), "--max-n", "4"),
])
def test_no_cli_call_loads_argparse(argv):
    used = loaded_modules(
        "import sys\nfrom compstats.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    assert used & {"argparse", "gettext", "locale"} == set()


TABLE_MODULES = {name for name in TABLE_PATH if name.partition(".")[0] == "compstats"}
ORACLE_MODULES = TABLE_MODULES | {"compstats.distributions", "compstats.qanalog",
                                  "compstats.polynomial", "compstats.oracles", "compstats.suites"}


# oeis-check reads the same tables and totals; the identity suites run the
# oracles from the verify suites, which build the closed forms but no tableau counts
@pytest.mark.parametrize("argv, modules", [
    (("oeis-check", "--seq", "A189073", "--bfile", str(BFILES / "b189073.txt"), "--max-n", "6"),
     TABLE_MODULES | {"compstats.oeis"}),
    (("oeis-check", "--seq", "A238343", "--bfile", str(BFILES / "b238343.txt"), "--max-n", "6"),
     TABLE_MODULES | {"compstats.oeis"}),
    (("verify", "--suite", "prod", "--k", "2", "--cap", "3"), ORACLE_MODULES),
    (("verify", "--suite", "geneuler", "--k", "3"), ORACLE_MODULES),
    (("verify", "--suite", "genfuncid", "--k", "2", "--cap", "4"), ORACLE_MODULES),
])
def test_compstats_modules_a_call_loads(argv, modules):
    used = loaded_modules(
        "import sys\nfrom compstats.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    assert {name for name in used if name.partition(".")[0] == "compstats"} == modules


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "foata", "--k", "3"),
    ("bij", "2,1"),
    ("oeis-check", "--seq", "A189074", "--bfile", str(BFILES / "b189074.txt"), "--max-n", "4"),
])
def test_enumerating_and_oeis_calls_do_not_load_dataclasses(argv):
    used = loaded_modules(
        "import sys\nfrom compstats.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    assert "dataclasses" not in used


CLOSED_FORMS = {"compstats.distributions", "compstats.oracles", "compstats.partitions",
                "compstats.qanalog", "compstats.tables"}
NO_POLY = CLOSED_FORMS | {"compstats.polynomial"}


# the compositions side imports check_partition from errors, not from partitions;
# statistics, permutations and compositions import polynomial only to build a
# Poly or Series, which none of these calls does: equidist counts in plain dicts
@pytest.mark.parametrize("argv, never", [
    (("verify", "--suite", "foata", "--k", "3"), NO_POLY),
    (("verify", "--suite", "equidist", "--k", "3", "--cap", "4"), NO_POLY),
    (("verify", "--suite", "lemma", "--max-n", "4"), NO_POLY),
    (("verify", "--suite", "macmahon", "--max-n", "4"), NO_POLY),
    (("bij", "2,1"), NO_POLY),
])
def test_enumerating_calls_do_not_load_the_closed_forms(argv, never):
    used = loaded_modules(
        "import sys\nfrom compstats.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    assert used & (never | {"json"}) == set()
    assert ("compstats.suites" in used) == (argv[0] == "verify")


# the names perfbench (tracer.py, session.py, sweep.py) looks up in the modules the table
# path left; each must still resolve, in the module perfbench reads, to the one implementation
PERFBENCH_LOOKUPS = [
    ("distributions", "DistTable"), ("distributions", "inversion_totals"),
    ("distributions", "inv_gf_total"), ("distributions", "des_gf_total_rational"),
    ("distributions", "des_gf_total"), ("distributions", "inv_gf"),
    ("partitions", "partitions_of"), ("partitions", "syt_count_q"),
    ("partitions", "q_eulerian_weight"),
    ("qanalog", "q_multinomial"), ("qanalog", "pochhammer_inverse_series"),
    ("qanalog", "gaussian_binomial"),
]
MOVED_TO_TABLES = {"DistTable", "inversion_totals", "partitions_of"}


@pytest.mark.parametrize("module, name", PERFBENCH_LOOKUPS)
def test_the_names_perfbench_looks_up_resolve(module, name):
    value = getattr(getattr(compstats, module), name)
    home = "compstats.tables" if name in MOVED_TO_TABLES else f"compstats.{module}"
    assert value.__module__ == home
    assert getattr(sys.modules[home], name) is value


def test_every_public_name_resolves():
    for name in compstats.__all__:
        value = getattr(compstats, name)
        assert getattr(sys.modules[value.__module__], name) is value
        namespace = {}
        exec(f"from compstats import {name}", namespace)
        assert namespace[name] is value
    namespace = {}
    exec("from compstats import *", namespace)
    assert set(compstats.__all__) <= set(namespace)


def test_submodules_resolve_as_attributes():
    code = ("import compstats\n"
            "assert compstats.distributions.inv_gf_total(4).coeff(p=4, q=1) == 2\n"
            "assert compstats.oeis.parse_bfile('1 1').rows == ((1, 1),)\n")
    assert {"compstats.distributions", "compstats.oeis"} <= loaded_modules(code)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        compstats.no_such_name
    with pytest.raises(ImportError):
        exec("from compstats import no_such_name", {})


def test_dir_lists_public_names():
    assert set(compstats.__all__) <= set(dir(compstats))
    assert "__version__" in dir(compstats)
