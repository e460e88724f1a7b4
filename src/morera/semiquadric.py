"""Semiquadric graphs attached to circles, and their intersection geometry.

To the circle with center a and radius r we attach the complex curve

    {(z, w) : (z - a)(w - conj(a)) = r^2,  0 < |z - a| < r}

whose boundary values satisfy w = conj(z) on the circle itself.  The fiber
map z -> conj(a) + r^2/(z - a) realizes the holomorphic extension problem in
the second coordinate; over the center the fiber escapes to infinity, which
is represented by an explicit marker rather than a huge float.

Two such graphs over distinct centers meet iff one of their circles strictly
surrounds the other; for the centered family (center 0, radius R) against the
pencil family (center t, radius t + 1) this is the condition R < 2t + 1, and
the single intersection point has real positive coordinates.
"""

from __future__ import annotations

import cmath
import math
from typing import Union

from ._record import Record
from .errors import (
    DomainError,
    NoIntersectionError,
    NotOnPencilError,
    ParameterDomainError,
    SingularFiberError,
)
from .geometry import Circle, surrounds

# |Im t| above this in the recovered pencil parameter means the pair (z, w)
# does not sit on any pencil semiquadric.
PENCIL_IMAG_TOL = 1e-8
# Residual tolerance for membership checks of intersection points.
MEMBERSHIP_TOL = 1e-10


class PointAtInfinity:
    """Singleton marker for the fiber value over a semiquadric's center."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = PointAtInfinity()

FiberValue = Union[complex, PointAtInfinity]


def is_infinity(w: FiberValue) -> bool:
    return w is INFINITY


class Semiquadric(Record):
    """Parameters (a, r) of the graph attached to circle bD(a, r)."""

    a: complex
    r: float

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "r", float(self.r))
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ParameterDomainError(f"semiquadric radius must be > 0, got {self.r!r}")

    @property
    def circle(self) -> Circle:
        return Circle(self.a, self.r)

    @classmethod
    def centered(cls, radius: float) -> "Semiquadric":
        return cls(0.0, radius)

    @classmethod
    def pencil(cls, t: float) -> "Semiquadric":
        return cls(complex(t, 0.0), t + 1.0)


class QuadricPoint(Record):
    """A point (z, w) of a semiquadric; ``w`` may be the infinity marker."""

    z: complex
    w: FiberValue

    def residual(self, q: Semiquadric) -> float:
        """Relative defect of the defining equation (z-a)(w-conj(a)) = r^2."""
        if is_infinity(self.w):
            return abs(self.z - q.a)  # the infinite fiber sits exactly over a
        return abs((self.z - q.a) * (self.w - q.a.conjugate()) - q.r**2) / q.r**2


def fiber_w(q: Semiquadric, z: complex) -> FiberValue:
    """Second coordinate of the semiquadric point over ``z``.

    Returns conj(a) + r^2/(z - a) for z in the closed disc, the infinity
    marker over the center, and exactly conj(z) on the circle itself.
    """
    z = complex(z)
    d = z - q.a
    if abs(d) > q.r * (1.0 + 1e-12):
        raise DomainError(f"z = {z} outside the closed disc of {q.circle}")
    if d == 0:
        return INFINITY
    return q.a.conjugate() + q.r**2 / d


def quadrics_intersect(q1: Semiquadric, q2: Semiquadric) -> bool:
    """Whether two distinct semiquadrics intersect.

    True iff the centers differ and one circle strictly surrounds the other;
    circles that merely touch (internally tangent, like any two pencil
    members at -1) do not count, so each family stays pairwise disjoint.
    """
    if q1.a == q2.a and q1.r == q2.r:
        raise ParameterDomainError("intersection test requires two distinct semiquadrics")
    if q1.a == q2.a:
        return False
    c1, c2 = q1.circle, q2.circle
    return surrounds(c1, c2) or surrounds(c2, c1)


def family_intersection_point(R: float, t: float) -> QuadricPoint:
    """The unique intersection of the centered graph (0, R) with the pencil graph (t, t+1).

    Exists iff 0 < R < 2t + 1 (which forces -1/2 < t < 0).  The z-coordinate
    solves t z^2 + (2t + 1 - R^2) z + t R^2 = 0; of the two roots exactly one
    satisfies both membership constraints 0 < |z| < R and 0 < |z - t| < t + 1,
    and both coordinates of the returned point are real and positive.
    """
    R = float(R)
    t = float(t)
    if not R > 0.0:
        raise ParameterDomainError(f"centered-family radius must be positive, got {R}")
    if not R < 2.0 * t + 1.0:
        raise NoIntersectionError(
            f"graphs (0, {R}) and ({t}, {t + 1}) are disjoint: R >= 2t+1 = {2 * t + 1}"
        )
    if t == 0.0:
        # Both circles are centered at the origin; distinct concentric
        # circles never surround each other in the strict sense used here.
        raise NoIntersectionError("pencil parameter t = 0 gives a graph concentric with the centered family")
    # Both roots in closed form, the smaller one as c/q so that it does not
    # cancel; np.roots would call LAPACK for them.
    a, b, c = t, 2.0 * t + 1.0 - R**2, t * R**2
    q = -0.5 * (b + math.copysign(1.0, b) * cmath.sqrt(b * b - 4.0 * a * c))
    admissible = []
    for z in (q / a, c / q):
        if not 0.0 < abs(z) < R:
            continue
        if not 0.0 < abs(z - t) < t + 1.0:
            continue
        admissible.append(z)
    if len(admissible) != 1:
        raise NoIntersectionError(
            f"expected exactly one admissible root for (R, t) = ({R}, {t}), got {admissible}"
        )
    z = admissible[0]
    w = t + (t + 1.0) ** 2 / (z - t)
    point = QuadricPoint(z, w)
    centered = Semiquadric.centered(R)
    pencil = Semiquadric.pencil(t)
    if point.residual(centered) > MEMBERSHIP_TOL or point.residual(pencil) > MEMBERSHIP_TOL:
        raise NoIntersectionError(
            f"intersection candidate {point} violates a defining equation beyond {MEMBERSHIP_TOL}"
        )
    return point


def invert_pencil_fiber(z: complex, w: complex) -> float:
    """Pencil parameter t for which (z, w) sits on the graph (t, t+1).

    Solves w = t + (t+1)^2/(z - t), i.e. w (z - t) = (z + 2) t + 1, giving
    t = (w z - 1)/(w + z + 2).  The solution must come out real (within
    1e-8); otherwise the point is not on any pencil semiquadric.
    """
    z = complex(z)
    w = complex(w)
    denom = w + z + 2.0
    if abs(denom) < 1e-14:
        raise SingularFiberError(f"fiber inversion singular at w + z + 2 = 0 (z = {z}, w = {w})")
    t = (w * z - 1.0) / denom
    if abs(t.imag) > PENCIL_IMAG_TOL:
        raise NotOnPencilError(
            f"(z, w) = ({z}, {w}) is not on a pencil graph: parameter {t} is not real"
        )
    return t.real
