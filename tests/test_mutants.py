"""The mutation list of tools/mutants.py stays applicable to the code it mutates, every
mutant still compiles, and every test recorded as a mutant's killer is collected."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_replaces_text_that_occurs_once():
    # a mutant that only breaks collection fails here in milliseconds, where
    # tools/mutants.py would report it BROKEN after minutes
    mutants = load_mutants()
    assert mutants
    for path, old, new, note, _ in mutants:
        text = (ROOT / path).read_text()
        assert text.count(old) == 1, note
        assert new != old, note
        compile(text.replace(old, new), path, "exec")
    assert len({note for *_, note, _ in mutants}) == len(mutants)


def test_every_recorded_killer_is_collected():
    # pytest exits with 4 on a node id it cannot find, so a renamed or deleted killer
    # fails here instead of sending tools/mutants.py to the whole suite
    killers = sorted({killer for *_, killer in load_mutants()})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *killers],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert set(killers) <= set(result.stdout.splitlines())
