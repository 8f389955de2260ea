"""The mutation table of tools/mutants.py stays applicable to the tree, and
the harness reads the failing test ids whole."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _harness():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_replaces_text_that_occurs_exactly_once():
    for path, old, new, why in _harness().MUTANTS:
        assert old != new, why
        assert (ROOT / path).read_text().count(old) == 1, (path, old, why)


def test_every_module_with_unit_tests_has_a_mutant():
    mutated = {Path(path).stem for path, *_ in _harness().MUTANTS}
    for module in ("quaternion", "signal", "components", "shifter", "cli", "jones"):
        assert module in mutated, module


def test_a_failing_test_id_with_spaces_is_read_whole():
    # -rfE lines with and without a reason; an id is cut only at " - "
    summary = ("FAILED tests/t.py::test_a[short signal not unit] - AssertionError: a - b\n"
               "ERROR tests/t.py::test_b[x y]\n"
               "1 failed, 1 error in 0.01s\n")
    assert _harness()._FAILED.findall(summary) == [
        "tests/t.py::test_a[short signal not unit]", "tests/t.py::test_b[x y]"]
