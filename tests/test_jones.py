import ast
import pathlib
import random

import polquat
from polquat import (
    I,
    J,
    K,
    ONE,
    PartialPolarizer,
    Waveplate,
)
from polquat.jones import (
    is_waveplate_matrix,
    oracle_apply,
    oracle_polarizer,
    quat_to_matrix,
)
from polquat.checks import _rand_quat, _rand_unit
from polquat.signal import JonesVector


def test_basis_images():
    # the embedding of the module docstring, h the scalar imaginary unit
    assert quat_to_matrix(ONE) == ((1, 0), (0, 1))
    assert quat_to_matrix(I) == ((1j, 0), (0, -1j))
    assert quat_to_matrix(J) == ((0, -1), (1, 0))
    assert quat_to_matrix(K) == ((0, 1j), (1j, 0))


def test_determinant_is_norm_squared():
    rng = random.Random(61)
    for _ in range(200):
        q = _rand_quat(rng)
        (a, b), (c, d) = quat_to_matrix(q)
        det = a * d - b * c
        assert abs(det - q.norm_sq()) <= 1e-12 * max(1.0, q.norm_sq())


def test_projector_is_not_a_waveplate_matrix():
    assert not is_waveplate_matrix(((1.0, 0.0), (0.0, 0.0)))


def test_oracle_apply():
    out = oracle_apply(JonesVector(1, 0), Waveplate(I))
    assert out.ex == 1j and out.ey == 0
    v = JonesVector(0.3 - 0.2j, 1.1j)
    out = oracle_apply(v, Waveplate(ONE))
    assert out.ex == v.ex and out.ey == v.ey


def test_oracle_polarizer():
    ideal = PartialPolarizer(ONE, 0.0)
    out = oracle_polarizer(JonesVector(1, 1), ideal)
    assert abs(out.ex - 1) <= 1e-15 and abs(out.ey) <= 1e-15
    pol = PartialPolarizer(_rand_unit(random.Random(65)), 1.0)
    v = JonesVector(0.4 + 0.1j, -0.7j)
    out = oracle_polarizer(v, pol)
    assert abs(out.ex - v.ex) <= 1e-12 and abs(out.ey - v.ey) <= 1e-12


_SRC = pathlib.Path(polquat.__file__).parent
_PRODUCTION = ("quaternion", "signal", "components", "shifter", "__init__")

# (module, imported module) pairs that must not exist.  The oracle exists to
# cross-check production results; importing it from a production path would
# defeat the differential test.  The command line only parses and formats, so
# no library module, nor the checks it runs, may depend on it.
_FORBIDDEN_EDGES = (
    [(name, "polquat.jones") for name in _PRODUCTION]
    + [(path.stem, "polquat.cli") for path in sorted(_SRC.glob("*.py"))
       if path.stem not in ("__main__", "cli")])


def _imports(name: str) -> set:
    """The dotted modules polquat/<name>.py imports anywhere in its body;
    relative imports resolve against the package, and `from M import x`
    counts both M and M.x."""
    found = set()
    for node in ast.walk(ast.parse((_SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["polquat", base]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_no_module_imports_across_a_forbidden_edge():
    # the allowed edges are seen, so an empty list below is not a blind parser
    assert "polquat.cli" in _imports("__main__") and "polquat.jones" in _imports("checks")
    crossed = [(name, target) for name, target in _FORBIDDEN_EDGES if target in _imports(name)]
    assert crossed == []
