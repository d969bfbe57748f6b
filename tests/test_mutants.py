"""The mutation list of tools/mutants.py stays applicable to the code it mutates, and every
mutant still compiles."""

import importlib.util
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
    for path, old, new, note in mutants:
        text = (ROOT / path).read_text()
        assert text.count(old) == 1, note
        assert new != old, note
        compile(text.replace(old, new), path, "exec")
    assert len({note for *_, note in mutants}) == len(mutants)
