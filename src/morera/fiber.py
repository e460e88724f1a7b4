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
and sampled (each from the kernel's one start of 256 samples, as every circle
is); both pieces are refined in lockstep, one kernel pass a level.
Quadrature is composite Gauss-Legendre per piece in the same parameters,
with node counts doubled until two successive refinements agree; every
level reads its node values from the series.  The series also bound how
far F strays from the segment series' constant term a_0 along the whole
curve, a priori: a W whose bound on the integral of (F - a_0)/(w - W) dw
is within the quadrature tolerance gets a_0 * ind(W) with no quadrature
node, and a fiber integral whose bound is within it is 0 (for holomorphic
f, where F is constant, both hold almost everywhere).  Only the other W
build levels, and each subtracts a constant c (F at the first level's node
nearest W) from the integrand and adds c * ind(W) back, so the
near-singular part of the kernel only ever meets F - c.  A table of many W
locates each of them once, in one array pass (inside D_z, outside, or
within the proximity guard of the curve), integrates only those beyond the
guard and not certified, and forms their kernels block by block, naming
any W whose levels never agree; a single transform is the table of one W.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np

from . import extension as ext
from ._record import Record
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
# the larger piece scale where that exceeds 1 (see _FiberField.tolerance).
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
# entries: 256 KiB a complex block, so a block's temporaries stay in cache.
_BLOCK_ELEMENTS = 1 << 14

Oracle = Callable[[complex], complex]


def _composite_gauss(a: float, b: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on the oriented interval [a, b].

    The rule has enough panels for ``n_nodes`` nodes, at least one.
    """
    panels = max(1, int(math.ceil(n_nodes / _PANEL_ORDER)))
    # np.linspace's own arithmetic, bit for bit, without its Python overhead.
    edges = np.arange(panels + 1.0) * ((b - a) / panels) + a
    edges[-1] = b
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * _PANEL_X[None, :]).ravel()
    weights = (half[:, None] * _PANEL_W[None, :]).ravel()
    return nodes, weights


class FiberCurve(Record):
    """The positively oriented closed curve M_z: the segment from conj(z) to 1/z and an arc of z's tangent circle.

    ``t_min`` is the pencil parameter of the circle through ``z``, where the arc ends.  The exact
    ``bounds`` and their diagonal, the ``diameter``, size the curve, which holds no quadrature nodes.
    """

    z: complex
    segment: tuple[complex, complex]  # (conj(z), 1/z)
    arc: Arc
    t_min: float

    @cached_property
    def bounds(self) -> tuple[float, float, float, float]:
        """(re_min, re_max, im_min, im_max), reached at the segment's ends or the arc's points at multiples of pi/2."""
        arc = self.arc
        quarters = range(math.ceil(arc.angle_start / (math.pi / 2.0)), math.floor(arc.angle_end / (math.pi / 2.0)) + 1)
        points = [*self.segment, *(arc.circle.point(k * math.pi / 2.0) for k in quarters)]
        re, im = [w.real for w in points], [w.imag for w in points]
        return min(re), max(re), min(im), max(im)

    @cached_property
    def diameter(self) -> float:
        """The diagonal of :attr:`bounds`."""
        return math.hypot(self.bounds[1] - self.bounds[0], self.bounds[3] - self.bounds[2])

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
        within = np.zeros(Ws.shape, dtype=bool)
        for k in (-1, 0, 1):
            shifted = phi + 2.0 * math.pi * k
            within |= (arc.angle_start <= shifted) & (shifted <= arc.angle_end)
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


def fiber_curve(z: complex, *, tau: float = DEFAULT_TAU) -> FiberCurve:
    """Build the positively oriented fiber curve of ``z``: its segment and its arc, in closed form.

    ``tau`` must lie in (0, 1/2), and ``z`` be finite, admissible (open unit
    disc, outside the closed disc of the smallest pencil member, off [0, 1])
    and non-real; for real base points the fiber is the extended real line
    and has no bounded representation.
    """
    require_tau(tau)
    z = _require_finite(z, "z")
    if abs(z.imag) < EPS_GEOM:
        raise DegenerateInputError(
            "fiber over a real base point is the extended real line, not a closed curve"
        )
    if not in_admissible_region(z, tau):
        raise DomainError(f"z = {z} outside the admissible region for tau = {tau}")
    return FiberCurve(z, (z.conjugate(), 1.0 / z), arc_lambda(z), pencil_param(z))


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
    return np.where(distances < curve.proximity_guard, -1, np.where(inside, 1, 0)), distances


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
    return winding_number(curve, W) == 1


class RegionD(Record):
    """The bounded region enclosed by a fiber curve, queried by winding number."""

    curve: FiberCurve

    def contains(self, W: complex) -> bool:
        return region_contains(self.curve, W)


def _leaf_value(f: Oracle, z: complex, name: str, param: float, tol: float) -> complex:
    """Extension of ``f`` at z from the circle owning ``param`` on piece ``name`` (see :func:`_piece_circles`)."""
    values, _ = _circle_values(f, z, [_piece_circles(name, np.array([param]))], tol)
    return complex(values[0])


def eval_F(
    f: Oracle,
    z: complex,
    w: complex,
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
            return _leaf_value(f, z, "segment", R, tol)
    t = invert_pencil_fiber(z, w)  # raises NotOnPencilError for w off the curve
    t_min = pencil_param(z)
    slack = 1e-7
    if not (t_min - slack <= t <= slack):
        raise DomainError(
            f"w = {w} is on no piece of the fiber curve of z = {z} (recovered t = {t})"
        )
    t = min(0.0, max(t_min, t))
    return _leaf_value(f, z, "arc", t, tol)


def _circle_values(f: Oracle, z: complex, groups: list, tol: float) -> tuple[np.ndarray, np.ndarray]:
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
        f, np.concatenate([c for c, _, _ in groups]), np.concatenate([r for _, r, _ in groups]), tol
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


def _fiber_series(f: Oracle, z: complex, spans, tol: float) -> list[_PieceSeries]:
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
        new, rms = _circle_values(f, z, circles, tol)
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

    Built once per (f, z, tol, tau): every quadrature level reads its
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

    def __init__(self, f: Oracle, curve: FiberCurve, tol: float):
        self.curve = curve
        z = curve.z
        self.pieces = tuple(_fiber_series(f, z, (("segment", abs(z), 1.0), ("arc", curve.t_min, 0.0)), tol))
        for piece in self.pieces:
            piece.require_resolved(z)
        self.tolerance = QUAD_REFINE_TOL * max(1.0, *(piece.scale for piece in self.pieces))

    def level(self, per_piece: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, weights and F values of the composite Gauss rule with ``per_piece`` nodes a piece.

        Contour sums take their sign from the nodes' order, so a level whose signed area
        (1/2i) * sum of conj(w) dw is not positive raises :class:`MoreraError`."""
        w, dw, piece, param = _quadrature(self.curve.z, self.curve.t_min, per_piece)
        area = float(np.sum(np.conj(w) * dw).imag) / 2.0
        if not area > 0.0:
            raise MoreraError(f"internal error: fiber curve of {self.curve.z} is not positively oriented (area {area})")
        values = np.empty_like(w)
        for index, series in enumerate(self.pieces):
            mask = piece == index
            values[mask] = series(param[mask])
        return w, dw, values

    @cached_property
    def variation(self) -> float:
        """A bound on the contour integral of |F - c| |dw|, rounding included, for c = a_0 or any value of F.

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
        spread of the two discs, and so does a value and the segment's
        centre a_0, which lies in the segment's disc; the curve's length
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
    ) -> list[str]:
        """Set the contour sums of ``rows`` in ``result``, node counts doubled until two successive levels agree.

        ``sums(w, dw, values, rows)`` gives the sums of ``rows`` at one level;
        only rows that have not yet agreed go on to the next level.  Rows
        still apart after ``MAX_REFINEMENTS`` doublings are set to NaN; the
        messages returned name each, in the order given, by ``where(row)``.
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
                return []
        result[rows] = np.nan
        return [
            f"contour quadrature over the fiber curve of z = {self.curve.z} failed to converge to {self.tolerance} "
            f"within {MAX_REFINEMENTS} refinements at {where(row)}: the last two sums differ by {apart:.3e}"
            for row, apart in zip(rows.tolist(), change.tolist())
        ]

    def transforms(self, Ws: np.ndarray, windings: np.ndarray, distances: np.ndarray, nodes: int) -> tuple:
        """Cauchy transforms and :meth:`_refine`'s messages at ``Ws`` beyond the guard, given windings and distances.

        Singularity subtraction: Theta(W) = (1/2 pi i) * integral of
        (F - c)/(w - W) dw + c * ind(W) holds for any constant c.  The
        subtracted integral is at most ``variation`` / (2 pi d(W)) in
        modulus when c is the segment series' constant term a_0, d(W) the
        distance from W to the curve, so a W where that is within
        ``tolerance`` gets a_0 * ind(W), certified, with no quadrature node.
        Only the other W build levels: each takes c from the first level's
        node nearest it, so the integrand stays small where the kernel is
        large, and has its levels doubled until two agree.  The
        (W x nodes) kernels are formed in row blocks of about
        ``_BLOCK_ELEMENTS`` entries.
        """
        Ws = np.asarray(Ws, dtype=complex)
        windings = np.asarray(windings)
        # Adding 0.0 turns a -0.0 part of a_0 * ind(W) into 0.0.
        result = self.pieces[0].coefficients[0] * windings + 0.0
        rows = np.flatnonzero(self.variation > 2.0 * math.pi * self.tolerance * distances)
        if not rows.size:
            return result, []
        per_piece = max(_PANEL_ORDER, nodes // 2)
        first = self.level(per_piece)
        w0, _, values0 = first
        c = np.zeros_like(Ws)
        step = max(1, _BLOCK_ELEMENTS // w0.size)
        for s in range(0, rows.size, step):
            block = rows[s : s + step]
            c[block] = values0[np.argmin(np.abs(w0 - Ws[block, None]), axis=1)]
        jump = c * windings

        def sums(w, dw, values, rows):
            out = np.empty(rows.size, dtype=complex)
            step = max(1, _BLOCK_ELEMENTS // w.size)
            for s in range(0, rows.size, step):
                block = rows[s : s + step]
                out[s : s + step] = np.sum((values - c[block, None]) / (w - Ws[block, None]) * dw, axis=1)
            return out / (2.0j * math.pi) + jump[rows]

        def where(row):
            return f"W = {complex(Ws[row])} ({distances[row] / self.curve.diameter:.2e} x diameter from the curve)"

        return result, self._refine(per_piece, first, result, rows, sums, where)

    def integral(self, nodes: int) -> complex:
        """Plain contour integral of F dw.

        It equals the integral of (F - c) dw for any constant c, at most
        ``variation`` in modulus, so it is 0 when that is within
        ``tolerance``; else levels are doubled until two agree, or it raises
        :meth:`_refine`'s message as a :class:`MoreraError`.
        """
        if self.variation <= self.tolerance:
            return 0j
        per_piece = max(_PANEL_ORDER, nodes // 2)

        def sums(w, dw, values, rows):
            return np.full(rows.size, np.sum(values * dw))

        result = np.empty(1, dtype=complex)
        first = self.level(per_piece)
        failures = self._refine(per_piece, first, result, np.arange(1), sums, lambda row: "the fiber integral")
        if failures:
            raise MoreraError(failures[0])
        return complex(result[0])


def _require_nodes(nodes: int) -> None:
    if not nodes >= 1:
        raise ConfigError(f"quadrature node count must be at least 1, got {nodes}")


def cauchy_transform(
    f: Oracle,
    z: complex,
    W: complex,
    nodes: int = DEFAULT_NODES,
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
    sampled, and a ``W`` whose quadrature does not converge raises
    :class:`MoreraError` with the table's message.
    """
    curve = fiber_curve(complex(z), tau=tau)
    W = complex(W)
    locations, values, failures = cauchy_table(f, curve, [W], nodes, tol)
    if locations[0] < 0:
        raise _proximity_error(curve, W)
    if failures:
        raise MoreraError(failures[0])
    return complex(values[0])


def cauchy_table(
    f: Oracle,
    curve: FiberCurve,
    Ws,
    nodes: int = DEFAULT_NODES,
    tol: float = ext.DEFAULT_MORERA_TOL,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Locations and Cauchy transforms along ``curve`` at many points ``Ws``, sampling F once.

    Each W is located once (:func:`_locations`: 1 inside D_z, 0 outside, -1
    within the proximity guard, with its distance from the curve).  A
    near-curve W is never integrated and gets NaN; every other W gets
    :func:`cauchy_transform`'s value, certified from its distance or
    integrated (see :meth:`_FiberField.transforms`).  When no W lies beyond
    the guard, F is not sampled.  A W whose quadrature does not converge
    keeps its location and gets NaN, and the third item holds one message
    naming each such W, in the order given.
    """
    _require_nodes(nodes)
    Ws = np.asarray(Ws, dtype=complex)
    locations, distances = _locations(curve, Ws)
    values = np.full(Ws.shape, np.nan, dtype=complex)
    failures = []
    far = locations >= 0
    if far.any():
        values[far], failures = _FiberField(f, curve, tol).transforms(Ws[far], locations[far], distances[far], nodes)
    return locations, values, failures


def fiber_integral(
    f: Oracle,
    z: complex,
    nodes: int = DEFAULT_NODES,
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
    return _FiberField(f, fiber_curve(complex(z), tau=tau), tol).integral(nodes)
