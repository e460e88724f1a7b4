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

F is a smooth function of each piece's natural parameter (R on the segment,
t on the arc), and a constant one for holomorphic f.  It is represented per
piece by a Chebyshev series: the extension is computed from the circles of
nested Chebyshev-Lobatto parameters (17, 33, ... up to 257 points) until the
series' tail coefficients stop mattering, so only those circles are tested
and sampled; both pieces are refined in lockstep, one kernel pass a level.
Quadrature is composite Gauss-Legendre per piece in the same parameters,
with node counts doubled until two successive refinements agree, starting
from the curve's own nodes; every level reads its node values from the
series.  The Cauchy transform subtracts a constant c (F at the node nearest
W) from the integrand and adds c * ind(W) back, so the near-singular part
of the kernel only ever meets F - c.  The series also bound how far F
strays from any of its values along the whole curve, a priori: a W whose
bound on the subtracted integral is within the quadrature tolerance gets
c * ind(W) with no quadrature level, and a fiber integral whose bound is
within it is 0 (for holomorphic f, where F is constant, both hold almost
everywhere).  A table of many W locates each of them once, in one array
pass (inside D_z, outside, or within the proximity guard of the curve),
integrates only those beyond the guard and not certified, and forms their
kernels block by block in buffers allocated once per table, never kept
between calls; a single transform is the table of one W.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np

from . import extension as ext
from ._record import Record, record
from .errors import (
    ConfigError,
    CurveProximityError,
    DegenerateInputError,
    DomainError,
    InconclusiveError,
    MoreraError,
)
from .geometry import (
    DEFAULT_TAU,
    EPS_GEOM,
    Arc,
    _require_finite,
    arc_lambda,
    in_admissible_region,
    pencil_param,
    require_tau,
)
from .semiquadric import invert_pencil_fiber

# Proximity guard: points closer to the curve than this fraction of its
# diameter cannot be classified or used as Cauchy-kernel poles.
CURVE_PROXIMITY_FACTOR = 1e-6
# Two successive quadrature refinements must agree to this tolerance, times
# the largest |F| sampled where that exceeds 1 (see _FiberField.tolerance).
QUAD_REFINE_TOL = 1e-8
MAX_REFINEMENTS = 3
# |Im(w*z)| above this disqualifies w from the segment branch of eval_F.
SEGMENT_IMAG_TOL = 1e-9
# Default quadrature size (total nodes over both pieces) and per-panel order.
DEFAULT_NODES = 512
_PANEL_ORDER = 16
# Gauss-Legendre nodes and weights of one panel on [-1, 1], ascending: the
# values numpy.polynomial.legendre.leggauss(16) returns, bit for bit, which
# are exactly symmetric about 0.  Literals spare every import of morera the
# load of numpy.polynomial.
_GAUSS_X = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GAUSS_W = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)
_PANEL_X = np.array([-x for x in reversed(_GAUSS_X)] + list(_GAUSS_X))
_PANEL_W = np.array(list(reversed(_GAUSS_W)) + list(_GAUSS_W))
# F(z, .) is sampled per piece on nested Chebyshev-Lobatto grids of 17, 33,
# ... up to 257 points, doubled until the last quarter of the series'
# coefficients falls below _CHEB_CHOP times the piece's scale.  The scale is
# max|F|, but at least _CHEB_FLOOR times the largest root-mean-square of f
# on a sampled circle: the extension's round-off is about 1e-15 of the
# latter, so an F that nearly vanishes (z^100 near 0) chops on noise.
_CHEB_START = 17
_CHEB_MAX = 257
_CHEB_CHOP = 1e-10
_CHEB_FLOOR = 1e-3
# Cauchy kernels of many W are formed in row blocks of about this many
# entries: 256 KiB a complex block, so a block's buffers stay in cache.
_BLOCK_ELEMENTS = 1 << 14

Oracle = Callable[[complex], complex]


def _panel_count(n_nodes: int) -> int:
    """Gauss panels of a composite rule asked for ``n_nodes`` nodes: enough for them, at least one."""
    return max(1, int(math.ceil(n_nodes / _PANEL_ORDER)))


def _composite_gauss(a: float, b: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on the oriented interval [a, b]."""
    panels = _panel_count(n_nodes)
    # np.linspace's own arithmetic, bit for bit, without its Python overhead.
    edges = np.arange(panels + 1.0) * ((b - a) / panels) + a
    edges[-1] = b
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * _PANEL_X[None, :]).ravel()
    weights = (half[:, None] * _PANEL_W[None, :]).ravel()
    return nodes, weights


@record
class FiberCurve(Record):
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

    @cached_property
    def diameter(self) -> float:
        re = self.nodes_w.real
        im = self.nodes_w.imag
        return math.hypot(re.max() - re.min(), im.max() - im.min())

    @property
    def proximity_guard(self) -> float:
        return CURVE_PROXIMITY_FACTOR * self.diameter

    def distance(self, W: complex) -> float:
        """Exact distance from ``W`` to the curve trace."""
        return float(self.distances(np.array([complex(W)]))[0])

    def distances(self, Ws: np.ndarray) -> np.ndarray:
        """Exact distances from the points ``Ws`` to the curve trace.

        The nearer of the segment (the foot of the perpendicular clamped to
        its ends) and the arc (the radial gap where ``W``'s angle about the
        circle's center lies within the arc's sweep, else the nearer end).
        """
        Ws = np.asarray(Ws, dtype=complex)
        a, b = self.segment
        d = b - a
        u = Ws - a
        s = np.clip((u.real * d.real + u.imag * d.imag) / abs(d) ** 2, 0.0, 1.0)
        segment = _modulus(Ws - (a + s * d))

        arc = self.arc
        v = Ws - arc.circle.center
        phi = np.arctan2(v.imag, v.real)
        lo, hi = sorted((arc.angle_start, arc.angle_end))
        within = np.zeros(Ws.shape, dtype=bool)
        for k in (-1, 0, 1):
            shifted = phi + 2.0 * math.pi * k
            within |= (lo <= shifted) & (shifted <= hi)
        ends = np.minimum(_modulus(Ws - arc.start), _modulus(Ws - arc.end))
        return np.minimum(segment, np.where(within, np.abs(_modulus(v) - arc.circle.radius), ends))

    def polyline(self, per_piece: int = 256) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """Dense samples per piece, in traversal order: (name, params, points)."""
        pieces = []
        for name, start, end in _traversal(self.z, self.t_min):
            params = np.linspace(start, end, per_piece)
            pieces.append((name, params, _piece_map(name, self.z, params)[0]))
        return pieces


def _modulus(u: np.ndarray) -> np.ndarray:
    """|u| for complex ``u``, bit for bit as Python's ``abs`` gives it.

    numpy's complex absolute value (like its complex product, which is why
    the classification spells products out in real arithmetic) may differ
    from Python's in the last bit, and next to the curve the radial gap
    |u| - rho magnifies such a difference.
    """
    return np.hypot(u.real, u.imag)


def _traversal(z: complex, t_min: float) -> tuple:
    """The curve's pieces in traversal order: (name, start, end) in each piece's parameter.

    With Im z > 0 the segment runs in R from |z| to 1, then the arc in t from
    0 to t_min; with Im z < 0 the arc comes first and both run backwards.
    """
    if z.imag > 0:
        return (("segment", abs(z), 1.0), ("arc", 0.0, t_min))
    return (("arc", t_min, 0.0), ("segment", 1.0, abs(z)))


def _piece_map(name: str, z: complex, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points of a piece at its parameters, and their derivatives dw/dparam.

    w = R^2/z on the segment and w = ((z + 2) t + 1)/(z - t) on the arc.
    """
    if name == "segment":
        return params**2 / z, 2.0 * params / z
    return ((z + 2.0) * params + 1.0) / (z - params), (z + 1.0) ** 2 / (z - params) ** 2


def _quadrature(z: complex, t_min: float, per_piece: int) -> tuple:
    """Composite Gauss nodes of both pieces in traversal order.

    Returns (w, dw, piece, param): positions, complex weights, piece index
    (0 segment, 1 arc) and owning-circle parameter of every node.
    """
    parts = []
    for name, start, end in _traversal(z, t_min):
        params, weights = _composite_gauss(start, end, per_piece)
        w, speed = _piece_map(name, z, params)
        parts.append((w, speed * weights, np.full(params.shape, 0 if name == "segment" else 1), params))
    return tuple(np.concatenate(column) for column in zip(*parts))


def fiber_curve(z: complex, nodes_per_piece: int = DEFAULT_NODES // 2, tau: float = DEFAULT_TAU) -> FiberCurve:
    """Build the positively oriented fiber curve of ``z``.

    ``tau`` must lie in (0, 1/2), ``nodes_per_piece`` be at least 1, and ``z``
    be finite, admissible (open unit disc, outside the closed disc of the
    smallest pencil member, off [0, 1]) and non-real; for real base points the
    fiber is the extended real line and has no bounded representation.
    """
    require_tau(tau)
    _require_nodes(nodes_per_piece)
    z = _require_finite(z, "z")
    if abs(z.imag) < EPS_GEOM:
        raise DegenerateInputError(
            "fiber over a real base point is the extended real line, not a closed curve"
        )
    if not in_admissible_region(z, tau):
        raise DomainError(f"z = {z} outside the admissible region for tau = {tau}")
    t_min = pencil_param(z)
    nodes_w, nodes_dw, nodes_piece, nodes_param = _quadrature(z, t_min, nodes_per_piece)
    curve = FiberCurve(
        z, (z.conjugate(), 1.0 / z), arc_lambda(z), t_min, +1, nodes_w, nodes_dw, nodes_piece, nodes_param
    )
    # Orientation self-check: the signed area (1/2i) * contour integral of
    # conj(w) dw must come out positive.
    area = float(np.sum(np.conj(nodes_w) * nodes_dw).imag) / 2.0
    if not area > 0.0:
        raise MoreraError(f"internal error: fiber curve of {z} is not positively oriented (area {area})")
    return curve


def _locations(curve: FiberCurve, Ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the points ``Ws`` lie (1 inside D_z, 0 outside, -1 within the proximity guard), and their distances.

    The segment is a chord of the arc's circle, so D_z is that disc cut by
    the chord's line: ``W`` is inside iff it lies in the open disc and on the
    same side of the chord as the arc's midpoint.  A ``W`` closer to the
    curve than its proximity guard (by :meth:`FiberCurve.distances`, which
    are returned too) cannot be classified and gets -1; the first
    non-finite ``W`` raises :class:`ParameterDomainError`.
    """
    Ws = np.asarray(Ws, dtype=complex)
    if not np.isfinite(Ws).all():
        _require_finite(Ws[~np.isfinite(Ws)][0], "W")
    circle = curve.arc.circle
    a, b = curve.segment
    chord = (b - a).conjugate()
    u = Ws - a
    side = chord.real * u.imag + chord.imag * u.real  # Im(chord * (W - a))
    arc_side = (chord * (curve.arc.point(0.5) - a)).imag
    inside = (_modulus(Ws - circle.center) < circle.radius) & ((side > 0.0) == (arc_side > 0.0))
    distances = curve.distances(Ws)
    return np.where(distances < curve.proximity_guard, -1, np.where(inside, curve.orientation, 0)), distances


def winding_numbers(curve: FiberCurve, Ws: np.ndarray) -> np.ndarray:
    """Winding numbers of the curve about the points ``Ws``: 1 inside D_z, 0 outside.

    The points are located by :func:`_locations`; the first ``W`` within the
    proximity guard of the curve raises :class:`CurveProximityError`.
    """
    Ws = np.asarray(Ws, dtype=complex)
    locations = _locations(curve, Ws)[0]
    near = np.flatnonzero(locations < 0)
    if near.size:
        raise _proximity_error(curve, complex(Ws[near[0]]))
    return locations


def _proximity_error(curve: FiberCurve, W: complex) -> CurveProximityError:
    return CurveProximityError(
        f"W = {W} is within {curve.proximity_guard:.3e} of the fiber curve; membership ambiguous"
    )


def winding_number(curve: FiberCurve, W: complex) -> int:
    """Winding number of the curve about ``W``: 1 inside D_z, 0 outside (see :func:`winding_numbers`)."""
    return int(winding_numbers(curve, np.array([complex(W)]))[0])


def region_contains(curve: FiberCurve, W: complex) -> bool:
    """Whether ``W`` lies in the bounded region enclosed by the curve."""
    return abs(winding_number(curve, W)) == 1


@record
class RegionD(Record):
    """The bounded region enclosed by a fiber curve, queried by winding number."""

    curve: FiberCurve

    def contains(self, W: complex) -> bool:
        return region_contains(self.curve, W)


def _leaf_value(f: Oracle, z: complex, name: str, param: float, samples: int, tol: float) -> complex:
    """Extension of ``f`` at z from the circle owning ``param`` on piece ``name`` (see :func:`_piece_circles`)."""
    values, _ = _circle_values(f, z, [_piece_circles(name, np.array([param]))], samples, tol)
    return complex(values[0])


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
            return _leaf_value(f, z, "segment", R, samples, tol)
    t = invert_pencil_fiber(z, w)  # raises NotOnPencilError for w off the curve
    t_min = pencil_param(z)
    slack = 1e-7
    if not (t_min - slack <= t <= slack):
        raise DomainError(
            f"w = {w} is on no piece of the fiber curve of z = {z} (recovered t = {t})"
        )
    t = min(0.0, max(t_min, t))
    return _leaf_value(f, z, "arc", t, samples, tol)


def _circle_values(f: Oracle, z: complex, groups: list, samples: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Extensions of ``f`` at ``z`` from the circles of several groups, in one kernel pass.

    ``groups`` holds (centers, radii, kind) triples, ``kind`` naming their
    circles (``centered`` or ``pencil``).  One :func:`extension.analyze_batch`
    call takes every circle, in the order given: an exception of the oracle
    raises from it, then the first circle that fails the test, else the
    first undecided one, raises naming the circle.  Returns the
    extensions and the root-mean-square of ``f`` on each circle, the scale of
    the round-off in its extension.
    """
    kinds = [kind for centers, _, kind in groups for _ in range(centers.size)]
    batch = ext.analyze_batch(
        f, np.concatenate([c for c, _, _ in groups]), np.concatenate([r for _, r, _ in groups]), tol, samples
    )
    batch.require_extensions(
        lambda i: f"the {kinds[i]} circle (center {batch.centers[i]}, radius {batch.radii[i]}) "
        "met along the fiber curve"
    )
    return batch.evaluate(np.full(batch.samples.shape, z)), np.sqrt(batch.total_energy)


def _piece_circles(name: str, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """The circles owning a piece's parameters, with their kind.

    Centered circles of radius R on the segment, pencil circles of
    parameter t on the arc.
    """
    if name == "segment":
        return np.zeros(params.shape, dtype=complex), params, "centered"
    return params.astype(complex), params + 1.0, "pencil"


def _lobatto(lo: float, hi: float, n: int) -> np.ndarray:
    """The n + 1 Chebyshev-Lobatto points of [lo, hi], from hi down to lo."""
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(n + 1) / n)


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients of the Chebyshev interpolant through values at cos(pi j / n), j = 0..n."""
    n = values.size - 1
    coefficients = np.fft.fft(np.concatenate([values, values[-2:0:-1]]))[: n + 1] / n
    coefficients[0] /= 2.0
    coefficients[n] /= 2.0
    return coefficients


def _chebval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Sum of ``c[k] * T_k(x)`` by Clenshaw's recurrence.

    The operations, operand shapes and order are those of
    ``numpy.polynomial.chebyshev.chebval`` for a 1-D ``c``, so the result
    matches it bit for bit.
    """
    c = c.reshape(c.shape + (1,) * x.ndim)
    if len(c) == 1:
        return c[0] + 0 * x
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for ck in c[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


@record
class _PieceSeries(Record):
    """Chebyshev series of F(z, .) in one piece's parameter over [lo, hi].

    ``tail`` is the largest coefficient in the last quarter and ``scale``
    the largest |F| sampled (at least ``_CHEB_FLOOR`` times the largest
    root-mean-square of f on a sampled circle); the series is resolved when
    the tail is at most ``QUAD_REFINE_TOL * scale``.
    """

    name: str
    lo: float
    hi: float
    coefficients: np.ndarray
    tail: float
    scale: float

    @property
    def symbol(self) -> str:
        return "R" if self.name == "segment" else "t"

    def __call__(self, params: np.ndarray) -> np.ndarray:
        x = (2.0 * params - (self.lo + self.hi)) / (self.hi - self.lo)
        return _chebval(x, self.coefficients)

    def require_resolved(self, z: complex) -> None:
        """Raise :class:`InconclusiveError` naming the piece unless its tail is within tolerance."""
        if not self.tail <= QUAD_REFINE_TOL * self.scale:
            raise InconclusiveError(
                f"the fiberwise extension along the {self.name} of the fiber curve of z = {z} "
                f"({self.symbol} from {self.lo!r} to {self.hi!r}) is unresolved: its Chebyshev "
                f"tail is {self.tail:.3e} against a scale of {self.scale:.3e} at "
                f"{self.coefficients.size} points"
            )


def _fiber_series(f: Oracle, z: complex, spans, samples: int, tol: float) -> list[_PieceSeries]:
    """Chebyshev series of F(z, .) on each span (name, lo, hi), refined in lockstep.

    The segment's circles are centered with radius R, the arc's are the
    pencil circles of parameter t.  Each level analyses, in one
    :func:`_circle_values` pass, the new Lobatto circles of every span not
    yet resolved, in the order given: all 17 at the first level, then the
    odd-index circles of 33, 65, ... points.  A span drops out once the last
    quarter of its coefficients is at most ``_CHEB_CHOP`` times its scale,
    or at ``_CHEB_MAX`` points.
    """
    n = _CHEB_START - 1
    new_points = slice(None)
    values = [None] * len(spans)
    scales = [0.0] * len(spans)
    series = [None] * len(spans)
    pending = list(range(len(spans)))
    while pending:
        grids = [_lobatto(spans[i][1], spans[i][2], n)[new_points] for i in pending]
        circles = [_piece_circles(spans[i][0], grid) for i, grid in zip(pending, grids)]
        new, rms = _circle_values(f, z, circles, samples, tol)
        start = 0
        for i, grid in zip(pending, grids):
            rows = slice(start, start + grid.size)
            start = rows.stop
            scales[i] = max(scales[i], float(np.abs(new[rows]).max()), _CHEB_FLOOR * float(rms[rows].max()))
            if values[i] is None:
                values[i] = new[rows]
            else:
                merged = np.empty(n + 1, dtype=complex)
                merged[0::2], merged[1::2] = values[i], new[rows]
                values[i] = merged
            coefficients = _chebyshev_coefficients(values[i])
            tail = float(np.abs(coefficients[-((n + 1) // 4) :]).max())
            if tail <= _CHEB_CHOP * scales[i] or n + 1 >= _CHEB_MAX:
                series[i] = _PieceSeries(*spans[i], coefficients, tail, scales[i])
        pending = [i for i in pending if series[i] is None]
        n *= 2
        new_points = slice(1, None, 2)
    return series


class _FiberField:
    """F(z, .) along the fiber curve of z, one Chebyshev series per piece.

    Built once per (f, z, samples, tol, tau): every quadrature level reads its
    node values from the series, so refining the quadrature costs no oracle
    call.  Both pieces' series are refined in lockstep (see
    :func:`_fiber_series`), so errors come by level, then by piece, the
    segment first: within a level an exception of the oracle raises first,
    then a circle that fails the extendability test
    (:class:`ExtensionFailureError`), then an undecided one.
    Only when no circle raises does a piece whose series did not resolve
    raise :class:`InconclusiveError` naming the piece and its parameter
    range.  Contour sums are judged against ``tolerance``,
    ``QUAD_REFINE_TOL`` times the largest piece scale where that exceeds 1,
    as the series are: rounding alone reaches 1e-8 once |F| nears 1e8.
    """

    def __init__(self, f: Oracle, curve: FiberCurve, samples: int, tol: float):
        self.curve = curve
        z = curve.z
        self.pieces = tuple(_fiber_series(f, z, (("segment", abs(z), 1.0), ("arc", curve.t_min, 0.0)), samples, tol))
        for piece in self.pieces:
            piece.require_resolved(z)
        self.tolerance = QUAD_REFINE_TOL * max(1.0, *(piece.scale for piece in self.pieces))

    def level(self, per_piece: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, weights and F values of the composite Gauss rule with ``per_piece`` nodes a piece.

        At the curve's own panel count these are the curve's nodes.
        """
        curve = self.curve
        # A fresh level's arrays cost page faults in a cold process; the curve's are already touched.
        if 2 * _panel_count(per_piece) * _PANEL_ORDER == curve.nodes_w.size:
            w, dw, piece, param = curve.nodes_w, curve.nodes_dw, curve.nodes_piece, curve.nodes_param
        else:
            w, dw, piece, param = _quadrature(curve.z, curve.t_min, per_piece)
        values = np.empty_like(w)
        for index, series in enumerate(self.pieces):
            mask = piece == index
            values[mask] = series(param[mask])
        return w, dw, values

    @cached_property
    def variation(self) -> float:
        """A bound on the contour integral of |F - c| |dw| for every value c of F, rounding included.

        On [-1, 1], where |T_k| <= 1, a piece's series a_0 + sum a_k T_k
        takes its values in the disc of centre a_0 and radius
        r = sum_{k >= 1} |a_k|.  Clenshaw's recurrence
        b_k = a_k + 2x b_{k+1} - b_{k+2}, whose b_k for k >= 1 are at most
        n r (n the degree, as |U_m| <= m + 1 on [-1, 1]), rounds each step
        by about eps times its operands, and a step's error reaches the sum
        at most k + 1 times over: to first order in eps a computed value
        lies within eps (2 |a_0| + 3 n^3 r) of the series', so each disc is
        widened by that much.  Any two values of F
        along the curve, computed or exact, then differ by at most the
        spread of the two discs, and the curve's length
        L = |1/z - conj(z)| + rho * sweep bounds the integral of |dw|.
        """
        eps = np.finfo(float).eps
        discs = []
        for piece in self.pieces:
            a = piece.coefficients
            r = float(np.abs(a[1:]).sum())
            discs.append((complex(a[0]), r + eps * (2.0 * abs(a[0]) + 3.0 * (a.size - 1) ** 3 * r)))
        (a_segment, r_segment), (a_arc, r_arc) = discs
        spread = max(2.0 * r_segment, 2.0 * r_arc, abs(a_segment - a_arc) + r_segment + r_arc)
        start, end = self.curve.segment
        arc = self.curve.arc
        return spread * (abs(end - start) + arc.circle.radius * arc.sweep)

    def _refine(
        self, per_piece: int, first: tuple, result: np.ndarray, rows: np.ndarray, sums: Callable, where: Callable
    ) -> np.ndarray:
        """``result`` with the contour sums of ``rows`` set, node counts doubled until two successive levels agree.

        ``sums(w, dw, values, rows)`` gives the sums of ``rows`` at one level;
        only rows that have not yet agreed go on to the next level.  The first
        row still apart after ``MAX_REFINEMENTS`` doublings, in the order
        given, raises, named by ``where(row)``.
        """
        current = sums(*first, rows)
        for _ in range(MAX_REFINEMENTS):
            per_piece *= 2
            refined = sums(*self.level(per_piece), rows)
            change = np.abs(refined - current)
            done = change < self.tolerance
            result[rows[done]] = refined[done]
            rows, current, change = rows[~done], refined[~done], change[~done]
            if not rows.size:
                return result
        raise MoreraError(
            f"contour quadrature over the fiber curve of z = {self.curve.z} failed to converge "
            f"to {self.tolerance} within {MAX_REFINEMENTS} refinements at {where(int(rows[0]))}: "
            f"the last two sums differ by {change[0]:.3e}"
        )

    def transforms(self, Ws: np.ndarray, windings: np.ndarray, distances: np.ndarray, nodes: int) -> np.ndarray:
        """Cauchy transforms at points ``Ws`` beyond the proximity guard, with their winding numbers and distances.

        Singularity subtraction: Theta(W) = (1/2 pi i) * integral of
        (F - c)/(w - W) dw + c * ind(W) holds for any constant c.  With c the
        value at the first level's node nearest W the integrand stays small
        where the kernel is large; c is fixed for every level.  The
        subtracted integral is at most ``variation`` / (2 pi d(W)) in
        modulus, d(W) the distance from W to the curve, so a W where that is
        within ``tolerance`` gets c * ind(W), certified, and builds no
        level.  Every other W has its levels doubled until two agree; the
        (W x nodes) kernels are taken in row blocks of about
        ``_BLOCK_ELEMENTS`` entries, all formed in the same three buffers
        (kernel, denominator, node distances), allocated once per call and
        sized for the finest level; no buffer outlives the call.
        """
        Ws = np.asarray(Ws, dtype=complex)
        per_piece = max(_PANEL_ORDER, nodes // 2)
        first = self.level(per_piece)
        w0, _, values0 = first
        # Fresh kernel temporaries per block and level would each cost an allocation and page faults.
        # Doubling the nodes per piece at most doubles each level's size.
        size = max(_BLOCK_ELEMENTS, w0.size << MAX_REFINEMENTS)
        kernel = np.empty(size, dtype=complex)
        denominator = np.empty(size, dtype=complex)
        distance = np.empty(size)

        def view(buffer, rows, n):
            """The first rows x n entries of a flat buffer, as a matrix."""
            return buffer[: rows * n].reshape(rows, n)

        step = max(1, _BLOCK_ELEMENTS // w0.size)
        c = np.empty_like(Ws)
        for s in range(0, Ws.size, step):
            block = Ws[s : s + step, None]
            gap = np.subtract(w0, block, out=view(denominator, block.size, w0.size))
            c[s : s + step] = values0[np.argmin(np.abs(gap, out=view(distance, block.size, w0.size)), axis=1)]
        jump = c * np.asarray(windings)

        def sums(w, dw, values, rows):
            out = np.empty(rows.size, dtype=complex)
            step = max(1, _BLOCK_ELEMENTS // w.size)
            for s in range(0, rows.size, step):
                block = rows[s : s + step]
                kernel_block = np.subtract(values, c[block, None], out=view(kernel, block.size, w.size))
                kernel_block /= np.subtract(w, Ws[block, None], out=view(denominator, block.size, w.size))
                kernel_block *= dw
                out[s : s + step] = np.sum(kernel_block, axis=1)
            return out / (2.0j * math.pi) + jump[rows]

        def where(row):
            return f"W = {complex(Ws[row])} ({distances[row] / self.curve.diameter:.2e} x diameter from the curve)"

        # c * 0 keeps the signs of c's parts; adding 0.0 makes a certified outside W read 0.0, not -0.0.
        result = jump + 0.0
        rows = np.flatnonzero(self.variation > 2.0 * math.pi * self.tolerance * distances)
        if not rows.size:
            return result
        return self._refine(per_piece, first, result, rows, sums, where)

    def integral(self, nodes: int) -> complex:
        """Plain contour integral of F dw.

        It equals the integral of (F - c) dw for any constant c, at most
        ``variation`` in modulus, so it is 0 when that is within
        ``tolerance``; else levels are doubled until two agree.
        """
        if self.variation <= self.tolerance:
            return 0j
        per_piece = max(_PANEL_ORDER, nodes // 2)

        def sums(w, dw, values, rows):
            return np.full(rows.size, np.sum(values * dw))

        result = np.empty(1, dtype=complex)
        self._refine(per_piece, self.level(per_piece), result, np.arange(1), sums, lambda row: "the fiber integral")
        return complex(result[0])


def _require_nodes(nodes: int) -> None:
    if not nodes >= 1:
        raise ConfigError(f"quadrature node count must be at least 1, got {nodes}")


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
    across both pieces of a ``W`` not certified a priori; it is doubled
    until two refinements agree.  This is :func:`cauchy_table` at one point,
    except that a ``W`` within the proximity guard raises
    :class:`CurveProximityError` (see :func:`winding_numbers`), with F not
    sampled.
    """
    curve = fiber_curve(complex(z), tau=tau)
    W = complex(W)
    locations, values = cauchy_table(f, curve, [W], nodes, samples, tol)
    if locations[0] < 0:
        raise _proximity_error(curve, W)
    return complex(values[0])


def cauchy_table(
    f: Oracle,
    curve: FiberCurve,
    Ws,
    nodes: int = DEFAULT_NODES,
    samples: int = ext.DEFAULT_SAMPLES,
    tol: float = ext.DEFAULT_MORERA_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Locations and Cauchy transforms along ``curve`` at many points ``Ws``, sampling F once.

    Each W is located once (:func:`_locations`: 1 inside D_z, 0 outside, -1
    within the proximity guard, with its distance from the curve).  A
    near-curve W is never integrated and gets NaN; every other W gets
    :func:`cauchy_transform`'s value, certified from its distance or
    integrated (see :meth:`_FiberField.transforms`).  When no W lies beyond
    the guard, F is not sampled.  A W whose quadrature does not converge
    raises, the first in the order given.
    """
    _require_nodes(nodes)
    Ws = np.asarray(Ws, dtype=complex)
    locations, distances = _locations(curve, Ws)
    values = np.full(Ws.shape, np.nan, dtype=complex)
    far = locations >= 0
    if far.any():
        values[far] = _FiberField(f, curve, samples, tol).transforms(Ws[far], locations[far], distances[far], nodes)
    return locations, values


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
    to quadrature error, and exactly 0 when F's series bound it within
    the quadrature tolerance (see :meth:`_FiberField.integral`), as for every
    holomorphic ``f``.
    """
    _require_nodes(nodes)
    return _FiberField(f, fiber_curve(complex(z), tau=tau), samples, tol).integral(nodes)
