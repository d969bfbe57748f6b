"""What a CLI call imports, and the lazily resolved package namespace."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import compstats

SRC = Path(__file__).resolve().parents[1] / "src"

# the modules a table call may load beyond argparse and what it pulls in;
# __future__ comes with ``from __future__ import annotations``, and a bare
# interpreter may already hold math and collections.abc.  The table path works
# on packed ints, so it never loads polynomial; hk builds a Poly from the same
# kernel, so it adds polynomial alone.  Only JSON output loads json, and only
# verify loads its suites
TABLE_PATH = {
    "compstats", "compstats.cli", "compstats.errors", "compstats.qanalog",
    "compstats.partitions", "compstats.distributions",
    "__future__", "math", "collections.abc",
}
HK_PATH = TABLE_PATH | {"compstats.polynomial"}
NEVER_ON_TABLE_PATH = {
    "urllib.request", "compstats.oeis", "compstats.oracles", "compstats.permutations",
    "compstats.compositions", "compstats.suites", "dataclasses", "json",
}
BFILES = Path(__file__).parent / "data" / "oeis"


def loaded_modules(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = code + "\nimport sys\nsys.stderr.write(' '.join(sys.modules))\n"
    result = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                            capture_output=True, text=True, check=True)
    return set(result.stderr.split())


@pytest.mark.parametrize("argv", [("table", "ic", "--max-n", "4"), ("hk", "3"),
                                  ("table", "dc", "--max-n", "4", "--k", "2"),
                                  ("table", "ic", "--max-n", "4", "--format", "csv")])
def test_cli_call_loads_only_what_its_subcommand_runs(argv):
    bare = loaded_modules("")
    stdlib = loaded_modules(
        "import argparse\n"
        "parser = argparse.ArgumentParser()\n"
        "parser.add_argument('--n')\n"
        "parser.parse_args([])\n")
    used = loaded_modules(
        "import sys\nfrom compstats.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    extra = used - bare
    assert extra & NEVER_ON_TABLE_PATH == set()
    assert extra - stdlib - (HK_PATH if argv[0] == "hk" else TABLE_PATH) == set()


TABLE_MODULES = {name for name in TABLE_PATH if name.partition(".")[0] == "compstats"}
ORACLE_MODULES = TABLE_MODULES | {"compstats.polynomial", "compstats.oracles",
                                  "compstats.suites"}


# oeis-check reads the same tables and totals; the identity suites run the
# oracles from the verify suites
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
                "compstats.qanalog"}
NO_POLY = CLOSED_FORMS | {"compstats.polynomial"}


# the compositions side imports check_partition from errors, not from partitions;
# statistics, permutations and compositions import polynomial only to build a
# Poly or Series, which equidist does and the others do not
@pytest.mark.parametrize("argv, never", [
    (("verify", "--suite", "foata", "--k", "3"), NO_POLY),
    (("verify", "--suite", "equidist", "--k", "3", "--cap", "4"), CLOSED_FORMS),
    (("verify", "--suite", "lemma", "--max-n", "4"), NO_POLY),
    (("verify", "--suite", "macmahon", "--max-n", "4"), NO_POLY),
    (("bij", "2,1"), NO_POLY),
])
def test_enumerating_calls_do_not_load_the_closed_forms(argv, never):
    used = loaded_modules(
        "import sys\nfrom compstats.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    assert used & (never | {"json"}) == set()
    assert ("compstats.suites" in used) == (argv[0] == "verify")


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
