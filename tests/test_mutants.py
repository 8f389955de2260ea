"""The mutation table of tools/mutants.py stays applicable to the tree."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_replaces_text_that_occurs_exactly_once():
    for path, old, new, why in _mutants():
        assert old != new, why
        assert (ROOT / path).read_text().count(old) == 1, (path, old, why)
