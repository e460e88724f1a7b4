"""Circles, the pencil of circles tangent at a boundary point, and tangent-circle geometry.

All points are complex numbers.  The pencil is normalized so that its common
boundary point is -1: its members are the circles with center t on the real
axis and radius t + 1, for t in [-1 + tau, 0].  Every member passes through
-1 and is contained in the closed unit disc.  The pencil through a general
boundary point p is its image under the rotation z -> -p z, which sends -1 to p.
"""

from __future__ import annotations

import cmath
import math

from ._record import Record
from .errors import ConfigError, DegenerateInputError, DomainError, ParameterDomainError

# Inputs closer than this to the real axis are rejected by tangent-circle
# operations: the tangent circle's radius blows up like 1/Im z.
EPS_GEOM = 1e-9

# Default radius floor of the pencil family (must stay below 1/2 so the
# smallest pencil circle misses the smallest centered circles).
DEFAULT_TAU = 0.25


def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParameterDomainError(f"{what} must have finite components, got {z!r}")
    return z


def require_boundary_point(p: complex) -> complex:
    """``p`` as a complex number, checked to be finite and within 1e-12 of the unit circle."""
    p = _require_finite(p, "boundary point")
    if abs(abs(p) - 1.0) > 1e-12:
        raise ConfigError(f"pencil boundary point must lie on the unit circle, got |p| = {abs(p)}")
    return p


def require_tau(tau: float) -> None:
    """Raise :class:`ConfigError` unless the pencil radius floor ``tau`` lies in (0, 1/2)."""
    if not 0.0 < tau < 0.5:
        raise ConfigError(f"tau must lie in (0, 1/2), got {tau}")


class Circle(Record):
    """A circle in the plane: ``center`` plus a strictly positive ``radius``."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _require_finite(self.center, "circle center"))
        object.__setattr__(self, "radius", float(self.radius))
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ParameterDomainError(f"circle radius must be > 0, got {self.radius!r}")

    def point(self, theta: float) -> complex:
        """Point at angle ``theta`` (radians) measured from the center."""
        return self.center + self.radius * cmath.exp(1j * theta)

    def boundary_distance(self, z: complex) -> float:
        """Unsigned distance from ``z`` to the circle itself."""
        return abs(abs(z - self.center) - self.radius)


class Arc(Record):
    """Circular arc, parametrized by angle from the circle's center.

    The arc runs from ``angle_start`` to ``angle_end`` sweeping in the sense
    of ``direction`` (+1 counterclockwise, -1 clockwise).  ``angle_start`` is
    stored canonically in (-pi, pi]; ``angle_end`` may exceed that interval so
    that ``angle_end - angle_start`` is the signed sweep.
    """

    circle: Circle
    angle_start: float
    angle_end: float
    direction: int

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ParameterDomainError("arc direction must be +1 or -1")
        sweep = (self.angle_end - self.angle_start) * self.direction
        if not sweep > 0.0:
            raise ParameterDomainError("arc must have positive length")

    @property
    def sweep(self) -> float:
        """Unsigned angular extent of the arc."""
        return abs(self.angle_end - self.angle_start)

    @property
    def start(self) -> complex:
        return self.circle.point(self.angle_start)

    @property
    def end(self) -> complex:
        return self.circle.point(self.angle_end)

    def point(self, s: float) -> complex:
        """Point at fraction ``s`` in [0, 1] along the arc."""
        return self.circle.point(self.angle_start + s * (self.angle_end - self.angle_start))


class PencilConfig(Record):
    """Pencil family through boundary point ``p`` with radius floor ``tau``."""

    p: complex
    tau: float

    def __post_init__(self):
        p = require_boundary_point(self.p)
        object.__setattr__(self, "p", p / abs(p))
        object.__setattr__(self, "tau", float(self.tau))
        require_tau(self.tau)


def pencil_circle(t: float, tau: float = 0.0) -> Circle:
    """Pencil member with parameter ``t``: center t, radius t + 1.

    Defined for -1 + tau <= t <= 0 (``tau`` = 0 admits every nondegenerate
    member).  The returned circle passes through -1 and stays inside the
    closed unit disc.
    """
    t = float(t)
    if not (-1.0 + tau <= t <= 0.0):
        raise ParameterDomainError(f"pencil parameter {t} outside [{-1.0 + tau}, 0]")
    if t + 1.0 <= 0.0:
        raise ParameterDomainError(f"pencil parameter {t} gives a degenerate circle")
    return Circle(complex(t, 0.0), t + 1.0)


def pencil_param(z: complex) -> float:
    """Parameter t of the pencil circle through ``z``.

    Solves |z - t| = t + 1 for real t, which gives
    t = (|z|^2 - 1) / (2 (Re z + 1)).  Requires z in the closed unit disc and
    z != -1 (every pencil member passes through -1).
    """
    z = _require_finite(z, "z")
    if abs(z) > 1.0 + 1e-12:
        raise DomainError(f"z = {z} lies outside the closed unit disc")
    denom = 2.0 * (z.real + 1.0)
    if abs(denom) < 1e-15:
        raise DegenerateInputError("z = -1 lies on every pencil circle; parameter undefined")
    return (abs(z) ** 2 - 1.0) / denom


def tangent_circle(z: complex) -> Circle:
    """Circle through conj(z), 1/z and -1, tangent to the real axis at -1.

    Its center is -1 - i |z+1|^2 / (2 Im z), so Re(center) = -1 exactly and
    the radius is |z+1|^2 / (2 |Im z|).  Undefined for real z (the three
    points collapse onto the real axis) and for z = -1.
    """
    z = _require_finite(z, "z")
    if abs(z + 1.0) < EPS_GEOM:
        raise DegenerateInputError("tangent circle undefined at z = -1")
    if abs(z.imag) < EPS_GEOM:
        raise DegenerateInputError(
            f"tangent circle degenerates to the real line for |Im z| < {EPS_GEOM}"
        )
    h = abs(z + 1.0) ** 2 / (2.0 * z.imag)
    return Circle(complex(-1.0, -h), abs(h))


def _rebase_angle(angle: float, excluded: float) -> float:
    """Angle measured from ``excluded``, wrapped into (0, 2*pi)."""
    a = (angle - excluded) % (2.0 * math.pi)
    return a if a > 0.0 else 2.0 * math.pi


def arc_lambda(z: complex, tau: float | None = None) -> Arc:
    """Arc of ``tangent_circle(z)`` with endpoints conj(z) and 1/z avoiding -1.

    The two endpoints split the tangent circle into two arcs; exactly one of
    them misses the tangency point -1, and that is the one returned.  The arc
    is always stored counterclockwise, running from 1/z to conj(z) when
    Im z > 0 and from conj(z) to 1/z when Im z < 0; traversed that way it is
    the curved portion of the positively oriented fiber curve of ``z``.

    Passing ``tau`` additionally checks it with :func:`require_tau` and
    validates that ``z`` is admissible for that pencil floor (see
    :func:`in_admissible_region`).
    """
    if tau is not None:
        require_tau(tau)
    z = _require_finite(z, "z")
    if abs(z) >= 1.0:
        raise DegenerateInputError(
            f"|z| = {abs(z)} >= 1: endpoints conj(z) and 1/z coincide, arc degenerates"
        )
    if tau is not None and not in_admissible_region(z, tau):
        raise DomainError(f"z = {z} outside the admissible region for tau = {tau}")
    circle = tangent_circle(z)  # rejects real z and z = -1
    c = circle.center
    excluded = math.pi / 2.0 if z.imag > 0 else -math.pi / 2.0  # angle of -1 seen from c
    if z.imag > 0:
        start, end = 1.0 / z, z.conjugate()
    else:
        start, end = z.conjugate(), 1.0 / z
    phi_start = _rebase_angle(cmath.phase(start - c), excluded)
    phi_end = _rebase_angle(cmath.phase(end - c), excluded)
    sweep = phi_end - phi_start
    if not sweep > 0.0:
        raise DegenerateInputError(f"arc through conj(z) and 1/z degenerates for z = {z}")
    angle_start = cmath.phase(start - c)
    return Arc(circle, angle_start, angle_start + sweep, +1)


def surrounds(inner: Circle, outer: Circle, *, tangency_tol: float = 0.0) -> bool:
    """Whether the closed disc of ``inner`` lies inside the open disc of ``outer``.

    The default test is strict: |center distance| + r_inner < r_outer, so a
    circle never surrounds itself and internal tangency does not count.  A
    positive ``tangency_tol`` declares internally tangent pairs (the pencil
    family all touches at -1) nested by radius, which is how the pencil is
    ordered; the strict default is the one the semiquadric intersection
    criterion relies on.
    """
    dist = abs(inner.center - outer.center)
    if tangency_tol > 0.0:
        gap = outer.radius - inner.radius - dist
        scale = max(inner.radius, outer.radius, 1.0)
        if abs(gap) <= tangency_tol * scale:
            return inner.radius < outer.radius
    return dist + inner.radius < outer.radius


def in_admissible_region(z: complex, tau: float = DEFAULT_TAU) -> bool:
    """Admissible base points for fiber-curve constructions.

    A point qualifies iff it lies in the open unit disc, strictly outside the
    closed disc bounded by the smallest pencil member (center tau - 1, radius
    tau), and off the real segment [0, 1].  Equivalently, the pencil circle
    through z exists within the family: pencil_param(z) > -1 + tau.
    """
    z = complex(z)
    if not abs(z) < 1.0:
        return False
    if not abs(z - (tau - 1.0)) > tau:
        return False
    if z.imag == 0.0 and 0.0 <= z.real <= 1.0:
        return False
    return True
