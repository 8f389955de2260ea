import ast
import pathlib

import numpy as np

import polquat
from polquat import (
    I,
    J,
    K,
    ONE,
    PartialPolarizer,
    Waveplate,
    compose,
    qwp,
    to_jones,
)
from polquat.jones import (
    M_I,
    M_J,
    is_waveplate_matrix,
    jones_column,
    oracle_apply,
    oracle_polarizer,
    quat_to_matrix,
)
from polquat.signal import JonesVector
from util import rand_quat, rand_unit


def test_basis_images():
    assert np.array_equal(quat_to_matrix(ONE), np.eye(2, dtype=complex))
    assert np.array_equal(quat_to_matrix(K), np.array([[0, 1j], [1j, 0]]))
    assert np.array_equal(quat_to_matrix(I), M_I)
    assert np.array_equal(quat_to_matrix(J), M_J)


def test_anti_homomorphism_on_basis():
    units = (ONE, I, J, K)
    for a in units:
        for b in units:
            lhs = quat_to_matrix(a * b)
            rhs = np.array(quat_to_matrix(b)) @ np.array(quat_to_matrix(a))
            assert np.allclose(lhs, rhs, atol=1e-15)
    assert np.allclose(quat_to_matrix(K), M_J @ M_I, atol=1e-15)


def test_determinant_is_norm_squared():
    rng = np.random.default_rng(61)
    for _ in range(200):
        q = rand_quat(rng)
        det = np.linalg.det(quat_to_matrix(q))
        assert abs(det - q.norm_sq()) <= 1e-12 * max(1.0, q.norm_sq())


def test_projector_is_not_a_waveplate_matrix():
    assert not is_waveplate_matrix(np.diag([1.0, 0.0]))


def test_jones_column_equals_to_jones_exactly():
    rng = np.random.default_rng(63)
    assert jones_column(ONE) == JonesVector(1 + 0j, 0j)
    assert jones_column(J) == JonesVector(0j, 1 + 0j)
    for _ in range(200):
        q = rand_quat(rng)
        a = jones_column(q)
        b = to_jones(q)
        assert a.ex == b.ex and a.ey == b.ey


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
    pol = PartialPolarizer(rand_unit(np.random.default_rng(65)), 1.0)
    v = JonesVector(0.4 + 0.1j, -0.7j)
    out = oracle_polarizer(v, pol)
    assert abs(out.ex - v.ex) <= 1e-12 and abs(out.ey - v.ey) <= 1e-12


def test_composed_plates_stay_in_waveplate_class():
    rng = np.random.default_rng(67)
    for _ in range(100):
        stack = [Waveplate(rand_unit(rng)) for _ in range(4)]
        m = quat_to_matrix(compose(stack).q)
        assert is_waveplate_matrix(m)
        assert abs(np.linalg.det(m) - 1.0) <= 1e-12
    m = quat_to_matrix(compose([qwp(0.2), qwp(1.1)]).q)
    assert is_waveplate_matrix(m)


def _is_oracle_module(dotted: str) -> bool:
    return dotted == "jones" or dotted.endswith(".jones")


def test_production_modules_never_import_the_oracle():
    # the oracle exists to cross-check production results; importing it from
    # a production path would defeat the differential test
    src = pathlib.Path(polquat.__file__).parent
    for name in ("quaternion", "signal", "components", "shifter", "__init__"):
        tree = ast.parse((src / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not _is_oracle_module(node.module or ""), \
                    f"{name} imports the oracle"
                if (node.module or "") in ("", "polquat") and node.level <= 1:
                    assert all(not _is_oracle_module(a.name) for a in node.names), \
                        f"{name} imports the oracle"
            elif isinstance(node, ast.Import):
                assert all(not _is_oracle_module(a.name) for a in node.names), \
                    f"{name} imports the oracle"
