"""Shared helpers for the test suite."""

import numpy as np

from polquat import Quaternion


def rand_quat(rng: np.random.Generator, scale: float = 1.0) -> Quaternion:
    return Quaternion(*(float(scale * x) for x in rng.normal(size=4)))


def rand_unit(rng: np.random.Generator) -> Quaternion:
    while True:
        q = rand_quat(rng)
        if q.norm() > 1e-3:
            return q.normalized()


def rand_unit_vector(rng: np.random.Generator) -> Quaternion:
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return Quaternion(0.0, *(float(x / n) for x in v))

