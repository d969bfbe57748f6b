"""What a CLI call imports, and the lazily resolved package namespace."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import compstats

SRC = Path(__file__).resolve().parents[1] / "src"

# the modules a table or hk call may load beyond argparse, json and what
# they pull in; __future__ comes with ``from __future__ import annotations``,
# and a bare interpreter may already hold math and collections.abc
TABLE_PATH = {
    "compstats", "compstats.cli", "compstats.errors", "compstats.polynomial",
    "compstats.qanalog", "compstats.partitions", "compstats.distributions",
    "__future__", "math", "collections.abc",
}
NEVER_ON_TABLE_PATH = {
    "urllib.request", "compstats.oeis", "compstats.permutations",
    "compstats.compositions", "dataclasses",
}


def loaded_modules(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = code + "\nimport sys\nsys.stderr.write(' '.join(sys.modules))\n"
    result = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                            capture_output=True, text=True, check=True)
    return set(result.stderr.split())


@pytest.mark.parametrize("argv", [("table", "ic", "--max-n", "4"), ("hk", "3")])
def test_cli_call_loads_only_what_its_subcommand_runs(argv):
    bare = loaded_modules("")
    stdlib = loaded_modules(
        "import argparse, json\n"
        "parser = argparse.ArgumentParser()\n"
        "parser.add_argument('--n')\n"
        "json.dumps(parser.parse_args([]).n)\n")
    used = loaded_modules(
        "import sys\nfrom compstats.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    extra = used - bare
    assert extra & NEVER_ON_TABLE_PATH == set()
    assert extra - stdlib - TABLE_PATH == set()


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "foata", "--k", "3"),
    ("bij", "2,1"),
    ("oeis-check", "--seq", "A189074", "--bfile",
     str(Path(__file__).parent / "data" / "oeis" / "b189074.txt"), "--max-n", "4"),
])
def test_enumerating_and_oeis_calls_do_not_load_dataclasses(argv):
    used = loaded_modules(
        "import sys\nfrom compstats.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    assert "dataclasses" not in used


CLOSED_FORMS = {"compstats.distributions", "compstats.partitions", "compstats.qanalog"}


# the compositions side imports check_partition from errors, not from partitions
@pytest.mark.parametrize("argv, never", [
    (("verify", "--suite", "foata", "--k", "3"), CLOSED_FORMS),
    (("verify", "--suite", "equidist", "--k", "3", "--cap", "4"), CLOSED_FORMS),
    (("verify", "--suite", "lemma", "--max-n", "4"), CLOSED_FORMS),
    (("verify", "--suite", "macmahon", "--max-n", "4"), CLOSED_FORMS),
    (("bij", "2,1"), CLOSED_FORMS),
])
def test_enumerating_calls_do_not_load_the_closed_forms(argv, never):
    used = loaded_modules(
        "import sys\nfrom compstats.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    assert used & never == set()


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
