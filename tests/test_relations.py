"""Rotation and reflection relations of the verdict, on fixed cases.

The two circle families are invariant under the plane's symmetries, so a
verdict must be too, with no closed form needed:

- rotation: with rot = -conj(p), which sends p to -1, f(z rot) at the
  pencil point p has the class of f at -1;
- reflection: conj(f(conj z)) at conj(p) has the class of f at p.

Cross-consistency builds its circles in the caller's frame, as the sweeps
do, so these relations also guard that frame.  A case that breaks a
relation is marked ``xfail(strict=True)`` with the ROADMAP item that fixes
it; no relation is loosened.
"""

import cmath
import functools

import numpy as np
import pytest

from morera.analysis import PipelineConfig, verdict
from morera.funczoo import builtin, builtin_names


def _z(z):
    return np.asarray(z, dtype=complex)


FUNCTIONS = {name: builtin(name).oracle for name in builtin_names()}
FUNCTIONS.update(
    {
        "(1+z)^1.5": lambda z: (1.0 + _z(z)) ** 1.5,
        "z^120": lambda z: _z(z) ** 120,
        "sqrt(1.02-z)": lambda z: np.sqrt(1.02 - _z(z)),
        "exp(z)+1e-3*zbar": lambda z: np.exp(_z(z)) + 1e-3 * np.conj(_z(z)),
    }
)


@functools.lru_cache(maxsize=None)
def classification(name: str, transform: str, p: complex) -> str:
    """The verdict class of the named function at the pencil point ``p``,
    rotated by -conj(``p``), reflected, or as given (``transform``)."""
    f = FUNCTIONS[name]
    if transform == "rotated":
        rot = -p.conjugate()
        g = lambda z: f(_z(z) * rot)
    elif transform == "reflected":
        g = lambda z: np.conj(f(np.conj(_z(z))))
    else:
        g = f
    return verdict(g, PipelineConfig(p=p)).classification


@pytest.mark.parametrize("p", [1j, cmath.exp(2.1j)], ids=["p=i", "p=exp(2.1i)"])
@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_rotation(name, p):
    assert classification(name, "rotated", p) == classification(name, "given", -1 + 0j)


@pytest.mark.parametrize("p", [-1 + 0j, 1j], ids=["p=-1", "p=i"])
@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_reflection(name, p):
    assert classification(name, "reflected", p.conjugate()) == classification(name, "given", p)
