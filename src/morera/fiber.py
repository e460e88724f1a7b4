"""Fiber curves over base points, the regions they bound, and Cauchy transforms.

For an admissible non-real base point z, the fiber curve M_z is a simple
closed curve in the w-plane made of two smooth pieces:

* the radial segment {R^2/z : |z| <= R <= 1}, which is the straight segment
  from conj(z) to 1/z, each point owned by the centered circle of radius R;
* the arc of the tangent circle of z from 1/z back to conj(z) avoiding -1,
  swept by the pencil parameter t between 0 and the parameter of the pencil
  circle through z, each point owned by the pencil circle of that t.

The curve is oriented positively (winding +1) around the bounded region D_z.
Along it lives the fiberwise extension F(z, w): the value at z of the
holomorphic extension of the tested function from the circle owning w.  The
Cauchy transform (1/2 pi i) * integral of F(z, w)/(w - W) dw vanishes for W
outside the closed region and reproduces the fiberwise extension inside;
the plain fiber integral of F is a holomorphic function of z.

Quadrature is composite Gauss-Legendre per smooth piece in the natural
parameters (R on the segment, t on the arc), with node counts doubled until
two successive refinements agree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import extension as ext
from .errors import (
    CurveProximityError,
    DegenerateInputError,
    DomainError,
    ExtensionFailureError,
    InconclusiveError,
    MoreraError,
)
from .geometry import (
    DEFAULT_TAU,
    EPS_GEOM,
    Arc,
    Circle,
    arc_lambda,
    in_admissible_region,
    pencil_circle,
    pencil_param,
)
from .semiquadric import invert_pencil_fiber

# Proximity guard: points closer to the curve than this fraction of its
# diameter cannot be classified or used as Cauchy-kernel poles.
CURVE_PROXIMITY_FACTOR = 1e-6
# Two successive quadrature refinements must agree to this tolerance.
QUAD_REFINE_TOL = 1e-8
MAX_REFINEMENTS = 3
# |Im(w*z)| above this disqualifies w from the segment branch of eval_F.
SEGMENT_IMAG_TOL = 1e-9
# Default quadrature size (total nodes over both pieces) and per-panel order.
DEFAULT_NODES = 512
_PANEL_ORDER = 16
# Gauss-Legendre nodes and weights of one panel on [-1, 1].
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(_PANEL_ORDER)

Oracle = Callable[[complex], complex]


def _composite_gauss(a: float, b: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on the oriented interval [a, b]."""
    panels = max(1, int(math.ceil(n_nodes / _PANEL_ORDER)))
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * _PANEL_X[None, :]).ravel()
    weights = (half[:, None] * _PANEL_W[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class FiberCurve:
    """Oriented closed curve M_z with its quadrature nodes.

    ``nodes_w`` are positions on the curve, ``nodes_dw`` the complex
    quadrature weights such that a contour integral of h is approximately
    sum(h(nodes_w) * nodes_dw); ``nodes_piece`` is 0 on the segment and 1 on
    the arc, and ``nodes_param`` stores the owning-circle parameter (centered
    radius R on the segment, pencil parameter t on the arc).
    """

    z: complex
    segment: tuple[complex, complex]  # (conj(z), 1/z)
    arc: Arc
    t_min: float
    orientation: int
    nodes_w: np.ndarray
    nodes_dw: np.ndarray
    nodes_piece: np.ndarray
    nodes_param: np.ndarray

    @property
    def diameter(self) -> float:
        re = self.nodes_w.real
        im = self.nodes_w.imag
        return math.hypot(re.max() - re.min(), im.max() - im.min())

    @property
    def proximity_guard(self) -> float:
        return CURVE_PROXIMITY_FACTOR * self.diameter

    def distance(self, W: complex) -> float:
        """Exact distance from ``W`` to the curve trace."""
        return min(
            _segment_distance(W, self.segment[0], self.segment[1]),
            _arc_distance(W, self.arc),
        )

    def winding(self, W: complex) -> int:
        return winding_number(self, W)

    def polyline(self, per_piece: int = 256) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """Dense samples per piece, in traversal order: (name, params, points)."""
        a, b = (abs(self.z), 1.0) if self.z.imag > 0 else (1.0, abs(self.z))
        rs = np.linspace(a, b, per_piece)
        seg = rs**2 / self.z
        t_lo, t_hi = (0.0, self.t_min) if self.z.imag > 0 else (self.t_min, 0.0)
        ts = np.linspace(t_lo, t_hi, per_piece)
        arc = ((self.z + 2.0) * ts + 1.0) / (self.z - ts)
        if self.z.imag > 0:
            return [("segment", rs, seg), ("arc", ts, arc)]
        return [("arc", ts, arc), ("segment", rs, seg)]


def _segment_distance(W: complex, a: complex, b: complex) -> float:
    d = b - a
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(W - a)
    s = ((W - a) * d.conjugate()).real / denom
    s = min(1.0, max(0.0, s))
    return abs(W - (a + s * d))


def _arc_distance(W: complex, arc: Arc) -> float:
    c = arc.circle.center
    rho = arc.circle.radius
    u = W - c
    phi = cmath.phase(u)
    lo, hi = arc.angle_start, arc.angle_end
    if lo > hi:
        lo, hi = hi, lo
    for k in (-1, 0, 1):
        if lo <= phi + 2.0 * math.pi * k <= hi:
            return abs(abs(u) - rho)
    return min(abs(W - arc.start), abs(W - arc.end))


def fiber_curve(z: complex, nodes_per_piece: int = DEFAULT_NODES // 2, tau: float = DEFAULT_TAU) -> FiberCurve:
    """Build the positively oriented fiber curve of ``z``.

    ``z`` must be admissible (open unit disc, outside the closed disc of the
    smallest pencil member, off [0, 1]) and non-real; for real base points the
    fiber is the extended real line and has no bounded representation.
    """
    z = complex(z)
    if abs(z.imag) < EPS_GEOM:
        raise DegenerateInputError(
            "fiber over a real base point is the extended real line, not a closed curve"
        )
    if not in_admissible_region(z, tau):
        raise DomainError(f"z = {z} outside the admissible region for tau = {tau}")
    t_min = pencil_param(z)
    arc = arc_lambda(z)
    zbar = z.conjugate()
    inv = 1.0 / z

    if z.imag > 0:
        r_lo, r_hi = abs(z), 1.0
        t_lo, t_hi = 0.0, t_min
    else:
        r_lo, r_hi = 1.0, abs(z)
        t_lo, t_hi = t_min, 0.0

    rs, wr = _composite_gauss(r_lo, r_hi, nodes_per_piece)
    seg_w = rs**2 / z
    seg_dw = (2.0 * rs / z) * wr

    ts, wt = _composite_gauss(t_lo, t_hi, nodes_per_piece)
    arc_w = ((z + 2.0) * ts + 1.0) / (z - ts)
    arc_dw = ((z + 1.0) ** 2 / (z - ts) ** 2) * wt

    if z.imag > 0:
        nodes_w = np.concatenate([seg_w, arc_w])
        nodes_dw = np.concatenate([seg_dw, arc_dw])
        nodes_piece = np.concatenate([np.zeros_like(rs, dtype=int), np.ones_like(ts, dtype=int)])
        nodes_param = np.concatenate([rs, ts])
    else:
        nodes_w = np.concatenate([arc_w, seg_w])
        nodes_dw = np.concatenate([arc_dw, seg_dw])
        nodes_piece = np.concatenate([np.ones_like(ts, dtype=int), np.zeros_like(rs, dtype=int)])
        nodes_param = np.concatenate([ts, rs])

    curve = FiberCurve(z, (zbar, inv), arc, t_min, +1, nodes_w, nodes_dw, nodes_piece, nodes_param)
    # Orientation self-check: the signed area (1/2i) * contour integral of
    # conj(w) dw must come out positive.
    area = float(np.sum(np.conj(nodes_w) * nodes_dw).imag) / 2.0
    if not area > 0.0:
        raise MoreraError(f"internal error: fiber curve of {z} is not positively oriented (area {area})")
    return curve


def winding_number(curve: FiberCurve, W: complex) -> int:
    """Winding number of the curve about ``W`` (exact piecewise computation).

    The straight segment contributes the principal argument of the endpoint
    ratio; the arc is subdivided finely enough, relative to its distance from
    ``W``, that each sub-chord's principal argument equals the continuous
    argument change along it.
    """
    W = complex(W)
    d = curve.distance(W)
    if d < curve.proximity_guard:
        raise CurveProximityError(
            f"W = {W} is within {curve.proximity_guard:.3e} of the fiber curve; membership ambiguous"
        )
    z = curve.z
    zbar, inv = curve.segment
    if z.imag > 0:
        seg_a, seg_b = zbar, inv
    else:
        seg_a, seg_b = inv, zbar
    total = cmath.phase((seg_b - W) / (seg_a - W))

    arc = curve.arc
    rho = arc.circle.radius
    sweep = arc.sweep
    d_arc = _arc_distance(W, arc)
    n_sub = int(min(200000, max(8, math.ceil(2.0 * rho * sweep / (math.pi * d_arc)))))
    thetas = np.linspace(arc.angle_start, arc.angle_end, n_sub + 1)
    pts = arc.circle.center + rho * np.exp(1j * thetas)
    ratios = (pts[1:] - W) / (pts[:-1] - W)
    total += float(np.sum(np.angle(ratios)))

    winding = total / (2.0 * math.pi)
    rounded = round(winding)
    if abs(winding - rounded) > 0.25:
        raise CurveProximityError(f"winding number about {W} did not converge: {winding}")
    return int(rounded)


def region_contains(curve: FiberCurve, W: complex) -> bool:
    """Whether ``W`` lies in the bounded region enclosed by the curve."""
    return abs(winding_number(curve, W)) == 1


@dataclass(frozen=True)
class RegionD:
    """The bounded region enclosed by a fiber curve, queried by winding number."""

    curve: FiberCurve

    def contains(self, W: complex) -> bool:
        return region_contains(self.curve, W)


def _leaf_value(f: Oracle, z: complex, circle: Circle, name: str, samples: int, tol: float) -> complex:
    data, result, inconclusive = ext.analyze_with_refinement(f, circle, tol, samples)
    if inconclusive:
        raise InconclusiveError(
            f"extendability from {name} is undecided: aliased at {data.sample_count} samples",
            circle=circle,
        )
    if not result.passes:
        raise ExtensionFailureError(
            f"f does not extend holomorphically from {name} "
            f"(negative energy {data.tail_energy_negative:.3e})",
            circle=circle,
        )
    return ext.evaluate_extension(data, z, result)


def eval_on_segment_leaf(
    f: Oracle, z: complex, R: float, samples: int = ext.DEFAULT_SAMPLES, tol: float = ext.DEFAULT_MORERA_TOL
) -> complex:
    """Extension of ``f`` from the centered circle of radius R, evaluated at z."""
    circle = Circle(0.0, R)
    return _leaf_value(f, z, circle, str(circle), samples, tol)


def eval_on_arc_leaf(
    f: Oracle, z: complex, t: float, samples: int = ext.DEFAULT_SAMPLES, tol: float = ext.DEFAULT_MORERA_TOL
) -> complex:
    """Extension of ``f`` from the pencil circle of parameter t, evaluated at z."""
    return _leaf_value(f, z, pencil_circle(t), f"pencil circle t = {t}", samples, tol)


def eval_F(
    f: Oracle,
    z: complex,
    w: complex,
    samples: int = ext.DEFAULT_SAMPLES,
    tol: float = ext.DEFAULT_MORERA_TOL,
) -> complex:
    """Fiberwise extension F(z, w) for a point ``w`` on the fiber curve of ``z``.

    Recovers which circle owns ``w``: on the segment, w * z = R^2 is real with
    R between |z| and 1; otherwise the pencil parameter is recovered by
    inverting the fiber map.  At the two shared endpoints both recoveries are
    valid and agree.
    """
    z = complex(z)
    w = complex(w)
    p = w * z
    if abs(p.imag) <= SEGMENT_IMAG_TOL and p.real > 0.0:
        R = math.sqrt(p.real)
        slack = 1e-7
        if abs(z) * (1.0 - slack) <= R <= 1.0 + slack:
            R = min(1.0, max(abs(z), R))
            return eval_on_segment_leaf(f, z, R, samples, tol)
    t = invert_pencil_fiber(z, w)  # raises NotOnPencilError for w off the curve
    t_min = pencil_param(z)
    slack = 1e-7
    if not (t_min - slack <= t <= slack):
        raise DomainError(
            f"w = {w} is on no piece of the fiber curve of z = {z} (recovered t = {t})"
        )
    t = min(0.0, max(t_min, t))
    return eval_on_arc_leaf(f, z, t, samples, tol)


def _piece_values(
    f: Oracle, z: complex, centers: np.ndarray, radii: np.ndarray, samples: int, tol: float, kind: str
) -> np.ndarray:
    """Extensions of ``f`` from the circles owning one piece's nodes, all at ``z``.

    One :func:`extension.analyze_batch` call; a circle that fails the test
    (or stays aliased at the sample cap) aborts the piece, naming the circle.
    """
    batch = ext.analyze_batch(f, centers, radii, tol, samples)
    batch.require_extensions(
        lambda i: f"the {kind} circle (center {batch.centers[i]}, radius {batch.radii[i]}) "
        "met along the fiber curve"
    )
    return batch.evaluate(np.full(centers.shape, z))


@lru_cache(maxsize=64)
def _fiber_values(
    f: Oracle, z: complex, nodes_per_piece: int, samples: int, tol: float, tau: float
) -> tuple[FiberCurve, np.ndarray]:
    # One batch per piece; the first piece's batch is released (on return
    # from _piece_values) before the second piece is sampled.
    curve = fiber_curve(z, nodes_per_piece, tau)
    values = np.empty_like(curve.nodes_w)
    seg = curve.nodes_piece == 0
    rs = curve.nodes_param[seg]
    values[seg] = _piece_values(f, z, np.zeros(rs.shape, dtype=complex), rs, samples, tol, "centered")
    arc = curve.nodes_piece == 1
    ts = curve.nodes_param[arc]
    values[arc] = _piece_values(f, z, ts.astype(complex), ts + 1.0, samples, tol, "pencil")
    return curve, values


def _contour_sum(curve: FiberCurve, values: np.ndarray, W: complex | None) -> complex:
    if W is None:
        return complex(np.sum(values * curve.nodes_dw))
    kernel = values / (curve.nodes_w - W)
    return complex(np.sum(kernel * curve.nodes_dw) / (2.0j * math.pi))


def _refined_transform(
    f: Oracle,
    z: complex,
    W: complex | None,
    nodes: int,
    samples: int,
    tol: float,
    tau: float,
) -> complex:
    per_piece = max(_PANEL_ORDER, nodes // 2)
    curve, values = _fiber_values(f, z, per_piece, samples, tol, tau)
    if W is not None:
        guard = curve.proximity_guard
        d = curve.distance(W)
        if d < guard:
            raise CurveProximityError(
                f"W = {W} is within {guard:.3e} of the fiber curve of z = {z}; "
                "move W or refine the curve"
            )
    current = _contour_sum(curve, values, W)
    for _ in range(MAX_REFINEMENTS):
        per_piece *= 2
        curve, values = _fiber_values(f, z, per_piece, samples, tol, tau)
        refined = _contour_sum(curve, values, W)
        if abs(refined - current) < QUAD_REFINE_TOL:
            return refined
        current = refined
    raise MoreraError(
        f"contour quadrature over the fiber curve of z = {z} failed to converge "
        f"to {QUAD_REFINE_TOL} within {MAX_REFINEMENTS} refinements"
    )


def cauchy_transform(
    f: Oracle,
    z: complex,
    W: complex,
    nodes: int = DEFAULT_NODES,
    samples: int = ext.DEFAULT_SAMPLES,
    tol: float = ext.DEFAULT_MORERA_TOL,
    tau: float = DEFAULT_TAU,
) -> complex:
    """Cauchy transform (1/2 pi i) * integral over M_z of F(z, w)/(w - W) dw.

    For admissible functions this vanishes when ``W`` is outside the closed
    region bounded by the curve and reproduces the fiberwise holomorphic
    extension at ``W`` inside.  ``nodes`` is the total initial node count
    across both pieces; it is doubled until two refinements agree.
    """
    return _refined_transform(f, complex(z), complex(W), nodes, samples, tol, tau)


def fiber_integral(
    f: Oracle,
    z: complex,
    nodes: int = DEFAULT_NODES,
    samples: int = ext.DEFAULT_SAMPLES,
    tol: float = ext.DEFAULT_MORERA_TOL,
    tau: float = DEFAULT_TAU,
) -> complex:
    """Plain contour integral of F(z, w) dw over the fiber curve of ``z``.

    As a function of ``z`` this is holomorphic wherever ``f`` is admissible;
    for functions extending from every circle met by the curve it is zero up
    to quadrature error.
    """
    return _refined_transform(f, complex(z), None, nodes, samples, tol, tau)
