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
and sampled.  Quadrature is composite Gauss-Legendre per piece in the same
parameters, with node counts doubled until two successive refinements
agree; every level reads its node values from the series.  The Cauchy
transform subtracts a constant c (F at the node nearest W) from the
integrand and adds c * ind(W) back, so the near-singular part of the kernel
only ever meets F - c.  A table of many W classifies them in one array pass
(distances and winding numbers) and forms their kernels block by block in
buffers allocated once per table, never kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import extension as ext
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


def _modulus(u: np.ndarray) -> np.ndarray:
    """|u| for complex ``u``, bit for bit as Python's ``abs`` gives it.

    numpy's complex absolute value (like its complex product, which is why
    the classification spells products out in real arithmetic) may differ
    from Python's in the last bit, and next to the curve the radial gap
    |u| - rho magnifies such a difference.
    """
    return np.hypot(u.real, u.imag)


def _quadrature(z: complex, t_min: float, per_piece: int) -> tuple:
    """Composite Gauss nodes of both pieces in traversal order.

    Returns (w, dw, piece, param): positions, complex weights, piece index
    (0 segment, 1 arc) and owning-circle parameter of every node.
    """
    if z.imag > 0:
        r_lo, r_hi = abs(z), 1.0
        t_lo, t_hi = 0.0, t_min
    else:
        r_lo, r_hi = 1.0, abs(z)
        t_lo, t_hi = t_min, 0.0

    rs, wr = _composite_gauss(r_lo, r_hi, per_piece)
    seg_w = rs**2 / z
    seg_dw = (2.0 * rs / z) * wr

    ts, wt = _composite_gauss(t_lo, t_hi, per_piece)
    arc_w = ((z + 2.0) * ts + 1.0) / (z - ts)
    arc_dw = ((z + 1.0) ** 2 / (z - ts) ** 2) * wt

    seg = (seg_w, seg_dw, np.zeros(rs.shape, dtype=int), rs)
    arc = (arc_w, arc_dw, np.ones(ts.shape, dtype=int), ts)
    first, second = (seg, arc) if z.imag > 0 else (arc, seg)
    return tuple(np.concatenate([a, b]) for a, b in zip(first, second))


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


def winding_numbers(curve: FiberCurve, Ws: np.ndarray) -> np.ndarray:
    """Winding numbers of the curve about the points ``Ws``: 1 inside D_z, 0 outside.

    The segment is a chord of the arc's circle, so D_z is that disc cut by
    the chord's line: ``W`` is inside iff it lies in the open disc and on the
    same side of the chord as the arc's midpoint.  The first ``W`` within the
    proximity guard of the curve raises :class:`CurveProximityError`.
    """
    Ws = np.asarray(Ws, dtype=complex)
    near = np.flatnonzero(curve.distances(Ws) < curve.proximity_guard)
    if near.size:
        raise CurveProximityError(
            f"W = {complex(Ws[near[0]])} is within {curve.proximity_guard:.3e} of the fiber curve; "
            "membership ambiguous"
        )
    circle = curve.arc.circle
    a, b = curve.segment
    chord = (b - a).conjugate()
    u = Ws - a
    side = chord.real * u.imag + chord.imag * u.real  # Im(chord * (W - a))
    arc_side = (chord * (curve.arc.point(0.5) - a)).imag
    inside = (_modulus(Ws - circle.center) < circle.radius) & ((side > 0.0) == (arc_side > 0.0))
    return np.where(inside, curve.orientation, 0)


def winding_number(curve: FiberCurve, W: complex) -> int:
    """Winding number of the curve about ``W``: 1 inside D_z, 0 outside (see :func:`winding_numbers`)."""
    return int(winding_numbers(curve, np.array([complex(W)]))[0])


def region_contains(curve: FiberCurve, W: complex) -> bool:
    """Whether ``W`` lies in the bounded region enclosed by the curve."""
    return abs(winding_number(curve, W)) == 1


@dataclass(frozen=True)
class RegionD:
    """The bounded region enclosed by a fiber curve, queried by winding number."""

    curve: FiberCurve

    def contains(self, W: complex) -> bool:
        return region_contains(self.curve, W)


def eval_on_segment_leaf(
    f: Oracle, z: complex, R: float, samples: int = ext.DEFAULT_SAMPLES, tol: float = ext.DEFAULT_MORERA_TOL
) -> complex:
    """Extension of ``f`` from the centered circle of radius R, evaluated at z."""
    circle = Circle(0.0, R)
    values, _ = _piece_values(f, z, np.array([circle.center]), np.array([circle.radius]), samples, tol, "centered")
    return complex(values[0])


def eval_on_arc_leaf(
    f: Oracle, z: complex, t: float, samples: int = ext.DEFAULT_SAMPLES, tol: float = ext.DEFAULT_MORERA_TOL
) -> complex:
    """Extension of ``f`` from the pencil circle of parameter t, evaluated at z."""
    circle = pencil_circle(t)
    values, _ = _piece_values(f, z, np.array([circle.center]), np.array([circle.radius]), samples, tol, "pencil")
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
) -> tuple[np.ndarray, np.ndarray]:
    """Extensions of ``f`` from the given circles of one piece, all at ``z``.

    One :func:`extension.analyze_batch` call; a circle that fails the test
    (or stays aliased at the sample cap) aborts the piece, naming the circle.
    Also returns the root-mean-square of ``f`` on each circle, the scale of
    the round-off in its extension.
    """
    batch = ext.analyze_batch(f, centers, radii, tol, samples)
    batch.require_extensions(
        lambda i: f"the {kind} circle (center {batch.centers[i]}, radius {batch.radii[i]}) "
        "met along the fiber curve"
    )
    return batch.evaluate(np.full(centers.shape, z)), np.sqrt(batch.total_energy)


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


@dataclass(frozen=True)
class _PieceSeries:
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
        return np.polynomial.chebyshev.chebval(x, self.coefficients)

    def require_resolved(self, z: complex) -> None:
        """Raise :class:`InconclusiveError` naming the piece unless its tail is within tolerance."""
        if not self.tail <= QUAD_REFINE_TOL * self.scale:
            raise InconclusiveError(
                f"the fiberwise extension along the {self.name} of the fiber curve of z = {z} "
                f"({self.symbol} from {self.lo!r} to {self.hi!r}) is unresolved: its Chebyshev "
                f"tail is {self.tail:.3e} against a scale of {self.scale:.3e} at "
                f"{self.coefficients.size} points"
            )


def _piece_series(
    f: Oracle, z: complex, name: str, lo: float, hi: float, samples: int, tol: float
) -> _PieceSeries:
    """Sample F on nested Lobatto grids of the piece until its series chops.

    The segment's circles are centered with radius R, the arc's are the
    pencil circles of parameter t.  Each doubling analyses only the new
    (odd-index) circles.  Stops once the last quarter of the coefficients is
    at most ``_CHEB_CHOP`` times the scale, or at ``_CHEB_MAX`` points.
    """

    def values_at(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if name == "segment":
            return _piece_values(f, z, np.zeros(params.shape, dtype=complex), params, samples, tol, "centered")
        return _piece_values(f, z, params.astype(complex), params + 1.0, samples, tol, "pencil")

    n = _CHEB_START - 1
    values, rms = values_at(_lobatto(lo, hi, n))
    scale = max(float(np.abs(values).max()), _CHEB_FLOOR * float(rms.max()))
    while True:
        coefficients = _chebyshev_coefficients(values)
        tail = float(np.abs(coefficients[-((n + 1) // 4) :]).max())
        if tail <= _CHEB_CHOP * scale or n + 1 >= _CHEB_MAX:
            return _PieceSeries(name, lo, hi, coefficients, tail, scale)
        n *= 2
        new, rms = values_at(_lobatto(lo, hi, n)[1::2])
        scale = max(scale, float(np.abs(new).max()), _CHEB_FLOOR * float(rms.max()))
        merged = np.empty(n + 1, dtype=complex)
        merged[0::2] = values
        merged[1::2] = new
        values = merged


class _FiberField:
    """F(z, .) along the fiber curve of z, one Chebyshev series per piece.

    Built once per (f, z, samples, tol, tau): every quadrature level reads its
    node values from the series, so refining the quadrature costs no oracle
    call.  A circle that fails the extendability test raises
    :class:`ExtensionFailureError` from whichever piece meets it; only when
    none does, a piece whose series did not resolve raises
    :class:`InconclusiveError` naming the piece and its parameter range.
    """

    def __init__(self, f: Oracle, curve: FiberCurve, samples: int, tol: float):
        self.curve = curve
        z = curve.z
        self.pieces = (
            _piece_series(f, z, "segment", abs(z), 1.0, samples, tol),
            _piece_series(f, z, "arc", curve.t_min, 0.0, samples, tol),
        )
        for piece in self.pieces:
            piece.require_resolved(z)

    def level(self, per_piece: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, weights and F values of the composite Gauss rule with ``per_piece`` nodes a piece."""
        w, dw, piece, param = _quadrature(self.curve.z, self.curve.t_min, per_piece)
        values = np.empty_like(w)
        for index, series in enumerate(self.pieces):
            mask = piece == index
            values[mask] = series(param[mask])
        return w, dw, values

    def _refine(self, per_piece: int, first: tuple, count: int, sums: Callable, where: Callable) -> np.ndarray:
        """``count`` contour sums, node counts doubled until two successive levels agree.

        ``sums(w, dw, values, rows)`` gives the sums of ``rows`` at one level;
        only rows that have not yet agreed go on to the next level.  The first
        row still apart after ``MAX_REFINEMENTS`` doublings raises, named by
        ``where(row)``.
        """
        rows = np.arange(count)
        current = sums(*first, rows)
        result = np.empty(count, dtype=complex)
        for _ in range(MAX_REFINEMENTS):
            per_piece *= 2
            refined = sums(*self.level(per_piece), rows)
            change = np.abs(refined - current)
            done = change < QUAD_REFINE_TOL
            result[rows[done]] = refined[done]
            rows, current, change = rows[~done], refined[~done], change[~done]
            if not rows.size:
                return result
        raise MoreraError(
            f"contour quadrature over the fiber curve of z = {self.curve.z} failed to converge "
            f"to {QUAD_REFINE_TOL} within {MAX_REFINEMENTS} refinements at {where(int(rows[0]))}: "
            f"the last two sums differ by {change[0]:.3e}"
        )

    def transforms(self, Ws: np.ndarray, windings: np.ndarray, nodes: int) -> np.ndarray:
        """Cauchy transforms at points ``Ws`` beyond the proximity guard, with their winding numbers.

        Singularity subtraction: Theta(W) = (1/2 pi i) * integral of
        (F - c)/(w - W) dw + c * ind(W) holds for any constant c.  With c the
        value at the first level's node nearest W the integrand stays small
        where the kernel is large; c is fixed for every level.  The
        (W x nodes) kernels are taken in row blocks of about
        ``_BLOCK_ELEMENTS`` entries, all formed in the same three buffers
        (kernel, denominator, node distances), allocated once per call and
        sized for the finest level; no buffer outlives the call.
        """
        Ws = np.asarray(Ws, dtype=complex)
        per_piece = max(_PANEL_ORDER, nodes // 2)
        first = self.level(per_piece)
        w0, _, values0 = first
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
            W = complex(Ws[row])
            return f"W = {W} ({self.curve.distance(W) / self.curve.diameter:.2e} x diameter from the curve)"

        return self._refine(per_piece, first, Ws.size, sums, where)

    def integral(self, nodes: int) -> complex:
        """Plain contour integral of F dw."""
        per_piece = max(_PANEL_ORDER, nodes // 2)

        def sums(w, dw, values, rows):
            return np.full(rows.size, np.sum(values * dw))

        result = self._refine(per_piece, self.level(per_piece), 1, sums, lambda row: "the fiber integral")
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
    across both pieces; it is doubled until two refinements agree.
    """
    z = complex(z)
    W = complex(W)
    curve = fiber_curve(z, tau=tau)
    guard = curve.proximity_guard
    if curve.distance(W) < guard:
        raise CurveProximityError(
            f"W = {W} is within {guard:.3e} of the fiber curve of z = {z}; "
            "move W or refine the curve"
        )
    return complex(cauchy_table(f, curve, [W], [winding_number(curve, W)], nodes, samples, tol)[0])


def cauchy_table(
    f: Oracle,
    curve: FiberCurve,
    Ws,
    windings,
    nodes: int = DEFAULT_NODES,
    samples: int = ext.DEFAULT_SAMPLES,
    tol: float = ext.DEFAULT_MORERA_TOL,
) -> np.ndarray:
    """Cauchy transforms along ``curve`` at many points ``Ws``, sampling F once.

    Every W must lie beyond the proximity guard and come with its winding
    number.  Equals :func:`cauchy_transform` at each W; a W whose quadrature
    does not converge raises, the first in the order given.
    """
    _require_nodes(nodes)
    field = _FiberField(f, curve, samples, tol)
    return field.transforms(np.asarray(Ws, dtype=complex), np.asarray(windings), nodes)


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
    _require_nodes(nodes)
    return _FiberField(f, fiber_curve(complex(z), tau=tau), samples, tol).integral(nodes)
