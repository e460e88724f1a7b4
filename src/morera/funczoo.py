"""Built-in test functions with closed-form ground truth.

Each entry bundles an oracle (accepting scalars or numpy arrays), a coarse
classification, a predicate saying from which circles the function extends
holomorphically, and the closed-form extension where one is known.  The star
of the registry is ``counterexample``: z^2 / conj(z) (with value 0 at the
origin) extends holomorphically from every circle whose closed disc contains
the origin, yet is nowhere holomorphic.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ._record import Record
from .errors import UnknownFunctionError
from .geometry import Circle

# Circles with ||a| - r| below this are treated as passing through the
# origin, where the counterexample's closed form simplifies but is
# numerically touchy (flagged in reports).
ORIGIN_BOUNDARY_TOL = 1e-12


def _as_oracle(fn):
    """Wrap an array-valued implementation so scalars in give scalars out, and
    poles and overflows give inf or NaN without a warning (sampling rejects them)."""

    def oracle(z):
        arr = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            out = fn(arr)
        if not isinstance(z, np.ndarray):
            return complex(out)
        return out

    oracle.__name__ = fn.__name__
    return oracle


@_as_oracle
def _poly3(z):
    return z**3 - 2.0


@_as_oracle
def _expz(z):
    return np.exp(z)


@_as_oracle
def _rational(z):
    return 1.0 / (z - 2.0)


@_as_oracle
def _counterexample(z):
    return np.where(z == 0, 0.0 + 0.0j, z**2 / np.conj(z))


@_as_oracle
def _conjugate(z):
    return np.conj(z)


@_as_oracle
def _absq(z):
    return (np.abs(z) ** 2).astype(complex)


@_as_oracle
def _radial_smooth(z):
    # exp(-1/(1 - |z|^2)) inside the disc, continuously 0 on the boundary.
    r2 = np.abs(z) ** 2
    return np.where(r2 >= 1.0, 0.0 + 0.0j, np.exp(-1.0 / (1.0 - r2)).astype(complex))


class ClosedFormExtension(Record):
    """A known holomorphic extension from one circle, with a sensitivity note."""

    fn: Callable[[complex], complex]
    boundary_case: bool = False  # circle passes through the origin


class ZooEntry(Record):
    """A builtin test function: its oracle and its known classification."""

    name: str
    oracle: Callable[[complex], complex]
    classification: str  # holomorphic | counterexample | non-extendable | radial

    def extendable_from(self, circle: Circle) -> bool:
        """Ground-truth extendability of this function from ``circle``."""
        a, r = circle.center, circle.radius
        if self.classification == "holomorphic":
            return True
        if self.name == "counterexample":
            return abs(a) <= r + ORIGIN_BOUNDARY_TOL
        if self.classification == "radial":
            # Radial functions have constant trace only on centered circles.
            return abs(a) <= ORIGIN_BOUNDARY_TOL
        return False

    def extension_for(self, circle: Circle) -> Optional[ClosedFormExtension]:
        """Closed-form extension from ``circle`` where known, else None."""
        a, r = circle.center, circle.radius
        if self.classification == "holomorphic":
            return ClosedFormExtension(self.oracle)
        if self.name == "counterexample":
            if abs(a) <= ORIGIN_BOUNDARY_TOL:
                return ClosedFormExtension(lambda z: z**3 / r**2)
            if abs(abs(a) - r) <= ORIGIN_BOUNDARY_TOL:
                abar = a.conjugate()
                return ClosedFormExtension(lambda z: z * (z - a) / abar, boundary_case=True)
            if abs(a) < r:
                abar = a.conjugate()
                return ClosedFormExtension(lambda z: z**2 * (z - a) / (abar * (z - a) + r**2))
            return None
        if self.name == "absq":
            if abs(a) <= ORIGIN_BOUNDARY_TOL:
                return ClosedFormExtension(lambda z: complex(r**2) + 0.0 * z)
            return None
        if self.name == "radial-smooth":
            if abs(a) <= ORIGIN_BOUNDARY_TOL:
                value = 0.0 if r >= 1.0 else math.exp(-1.0 / (1.0 - r**2))
                return ClosedFormExtension(lambda z: complex(value) + 0.0 * z)
            return None
        return None


_REGISTRY = {
    "poly3": ZooEntry("poly3", _poly3, "holomorphic"),
    "expz": ZooEntry("expz", _expz, "holomorphic"),
    "rational": ZooEntry("rational", _rational, "holomorphic"),
    "counterexample": ZooEntry("counterexample", _counterexample, "counterexample"),
    "conjugate": ZooEntry("conjugate", _conjugate, "non-extendable"),
    "absq": ZooEntry("absq", _absq, "radial"),
    "radial-smooth": ZooEntry("radial-smooth", _radial_smooth, "radial"),
}


def builtin(name: str) -> ZooEntry:
    """Look up a built-in test function by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownFunctionError(f"unknown built-in function {name!r}; known: {known}") from None


def builtin_names() -> list[str]:
    return sorted(_REGISTRY)


def holomorphic_members() -> list[ZooEntry]:
    return [e for e in _REGISTRY.values() if e.classification == "holomorphic"]


def counterexample_pole(a: complex, r: float) -> Optional[complex]:
    """Pole of the counterexample's extension candidate from circle (a, r).

    On the circle, conj(z) = conj(a) + r^2/(z - a), so z^2/conj(z) continues
    as z^2 (z - a) / (conj(a)(z - a) + r^2), with a pole at a - r^2/conj(a).
    For a = 0 the candidate z^3/r^2 is entire and None is returned.  The
    function extends from the circle iff the pole is not strictly inside,
    i.e. iff |a| <= r (the closed disc contains the origin).
    """
    a = complex(a)
    if a == 0:
        return None
    return a - r**2 / a.conjugate()
