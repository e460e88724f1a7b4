import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morera import extension, fiber
from morera.cli import main
from morera.errors import (
    ConfigError,
    CurveProximityError,
    DegenerateInputError,
    DomainError,
    ExtensionFailureError,
    InconclusiveError,
    MoreraError,
)
from morera.fiber import (
    RegionD,
    _FiberField,
    _piece_series,
    _piece_values,
    cauchy_transform,
    eval_F,
    eval_on_arc_leaf,
    eval_on_segment_leaf,
    fiber_curve,
    fiber_integral,
    region_contains,
    winding_number,
)
from morera.funczoo import builtin, holomorphic_members
from morera.geometry import in_admissible_region
from morera.gridio import GridFunction

# Admissible, comfortably non-real base points for property tests.
admissible_points = st.builds(
    lambda r, th: r * cmath.exp(1j * th),
    st.floats(0.15, 0.9),
    st.floats(0.0, 2.0 * math.pi),
).filter(lambda z: abs(z.imag) > 0.05 and in_admissible_region(z))


def off_curve(curve, piece, s, offset):
    """The point at fraction ``s`` along one piece, moved ``offset`` along the
    normal (positive toward the inside of the region)."""
    if piece == "segment":
        a, b = curve.segment
        p = a + s * (b - a)
        n = 1j * (b - a) / abs(b - a)
        if ((curve.arc.point(0.5) - p) * n.conjugate()).real < 0.0:
            n = -n
    else:
        p = curve.arc.point(s)
        n = (curve.arc.circle.center - p) / abs(curve.arc.circle.center - p)
    return complex(p + offset * n)


def reference_segment_distance(W, a, b):
    """Scalar distance from W to the segment [a, b] (the library's former code)."""
    d = b - a
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(W - a)
    s = ((W - a) * d.conjugate()).real / denom
    s = min(1.0, max(0.0, s))
    return abs(W - (a + s * d))


def reference_arc_distance(W, arc):
    """Scalar distance from W to a circular arc (the library's former code)."""
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


def reference_distance(curve, W):
    return min(reference_segment_distance(W, *curve.segment), reference_arc_distance(W, curve.arc))


def reference_closed_form_winding(curve, W):
    """Scalar chord-and-disc winding number (the library's former code, without the guard)."""
    circle = curve.arc.circle
    a, b = curve.segment
    chord = (b - a).conjugate()
    side = (chord * (W - a)).imag
    arc_side = (chord * (curve.arc.point(0.5) - a)).imag
    inside = abs(W - circle.center) < circle.radius and (side > 0.0) == (arc_side > 0.0)
    return curve.orientation if inside else 0


def reference_winding(curve, W):
    """Winding number by summing principal arguments along the curve.

    The straight segment contributes the principal argument of the endpoint
    ratio; the arc is subdivided finely enough, relative to its distance from
    ``W``, that each sub-chord's principal argument equals the continuous
    argument change along it.
    """
    z = curve.z
    zbar, inv = curve.segment
    seg_a, seg_b = (zbar, inv) if z.imag > 0 else (inv, zbar)
    total = cmath.phase((seg_b - W) / (seg_a - W))
    arc = curve.arc
    rho = arc.circle.radius
    d_arc = reference_arc_distance(W, arc)
    n_sub = int(min(200000, max(8, math.ceil(2.0 * rho * arc.sweep / (math.pi * d_arc)))))
    thetas = np.linspace(arc.angle_start, arc.angle_end, n_sub + 1)
    pts = arc.circle.center + rho * np.exp(1j * thetas)
    total += float(np.sum(np.angle((pts[1:] - W) / (pts[:-1] - W))))
    winding = total / (2.0 * math.pi)
    assert abs(winding - round(winding)) < 0.25
    return int(round(winding))


def reference_node_values(f, curve, samples=256, tol=1e-8):
    """F at every quadrature node of ``curve``, each node's circle analysed on
    its own: the per-node evaluation the Chebyshev series replaced."""
    z = curve.z
    values = np.empty_like(curve.nodes_w)
    seg = curve.nodes_piece == 0
    rs = curve.nodes_param[seg]
    values[seg] = _piece_values(f, z, np.zeros(rs.shape, dtype=complex), rs, samples, tol, "centered")[0]
    arc = curve.nodes_piece == 1
    ts = curve.nodes_param[arc]
    values[arc] = _piece_values(f, z, ts.astype(complex), ts + 1.0, samples, tol, "pencil")[0]
    return values


def interior_probe(curve):
    """A point inside the region (polyline mean, verified by winding)."""
    pts = np.concatenate([p for _, _, p in curve.polyline(128)])
    w = complex(pts.mean())
    assert region_contains(curve, w)
    return w


class TestFiberCurve:
    def test_half_i_geometry(self):
        c = fiber_curve(0.5j)
        assert c.segment == (-0.5j, -2j)
        assert c.arc.circle.center == pytest.approx(-1 - 1.25j)
        assert c.arc.circle.radius == pytest.approx(1.25)
        assert c.orientation == 1

    def test_real_base_point_degenerate(self):
        with pytest.raises(DegenerateInputError):
            fiber_curve(0.2)
        with pytest.raises(DegenerateInputError):
            fiber_curve(-0.3)

    def test_outside_admissible_region(self):
        with pytest.raises(DomainError):
            fiber_curve(-0.75 + 0.1j, tau=0.25)  # inside the excluded disc
        with pytest.raises(DomainError):
            fiber_curve(1.2j)

    @given(admissible_points)
    @settings(max_examples=60, deadline=None)
    def test_closure(self, z):
        c = fiber_curve(z, nodes_per_piece=32)
        zbar, inv = c.segment
        assert abs(c.arc.start - (inv if z.imag > 0 else zbar)) < 1e-12 * max(1.0, abs(inv))
        assert abs(c.arc.end - (zbar if z.imag > 0 else inv)) < 1e-12 * max(1.0, abs(inv))

    @given(admissible_points)
    @settings(max_examples=60, deadline=None)
    def test_segment_parametrization_is_affine_segment(self, z):
        # {R^2/z : |z| <= R <= 1} must equal the straight segment from
        # conj(z) to 1/z.
        rs = np.linspace(abs(z), 1.0, 64)
        pts = rs**2 / z
        s = (rs**2 - abs(z) ** 2) / (1.0 - abs(z) ** 2)
        affine = z.conjugate() + s * (1.0 / z - z.conjugate())
        assert np.abs(pts - affine).max() < 1e-12

    @given(admissible_points)
    @settings(max_examples=40, deadline=None)
    def test_winding_is_orientation(self, z):
        c = fiber_curve(z, nodes_per_piece=64)
        assert winding_number(c, interior_probe(c)) == c.orientation == 1

    def test_shrinking_toward_boundary(self):
        # diameter of M_z <= C (1 - |z|) along rays toward the boundary
        for angle in (0.6, 1.2, 2.2, -0.9, -2.5):
            direction = cmath.exp(1j * angle)
            base = fiber_curve(0.8 * direction)
            c0 = base.diameter / (1 - 0.8)
            for rad in (0.9, 0.95, 0.99):
                c = fiber_curve(rad * direction)
                assert c.diameter <= 3.0 * c0 * (1 - rad)

    def test_diameter_computed_once(self):
        c = fiber_curve(0.4 + 0.3j)
        re, im = c.nodes_w.real, c.nodes_w.imag
        assert c.diameter == math.hypot(re.max() - re.min(), im.max() - im.min())
        assert vars(c)["diameter"] == c.diameter

    def test_polyline_matches_nodes(self):
        c = fiber_curve(0.4 + 0.3j)
        pieces = dict((name, pts) for name, _, pts in c.polyline(64))
        assert set(pieces) == {"segment", "arc"}
        assert c.distance(complex(pieces["arc"][10])) < 1e-12


class TestRegionMembership:
    def test_named_points(self):
        c = fiber_curve(0.5j)
        assert region_contains(c, 0.1 - 1.25j) is True
        assert region_contains(c, -1.0) is False
        assert region_contains(c, 5.0) is False

    def test_region_object(self):
        c = fiber_curve(0.5j)
        assert RegionD(c).contains(0.1 - 1.25j)

    def test_point_on_curve_ambiguous(self):
        c = fiber_curve(0.5j)
        with pytest.raises(CurveProximityError):
            region_contains(c, -1.0j)  # on the segment

    @given(
        admissible_points,
        st.sampled_from(("segment", "arc")),
        st.floats(0.01, 0.99),
        st.floats(-5.0, 0.5),
        st.sampled_from((-1.0, 1.0)),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_closed_form_matches_argument_sum(self, z, piece, s, log_fraction, side):
        # Points from 1e-5 up to about 3 diameters off either piece, on
        # both sides.
        c = fiber_curve(z, nodes_per_piece=32)
        W = off_curve(c, piece, s, side * 10.0**log_fraction * c.diameter)
        assume(c.distance(W) >= 2.0 * c.proximity_guard)
        assert winding_number(c, W) == reference_winding(c, W)

    @given(admissible_points)
    @settings(max_examples=40, deadline=None)
    def test_far_points_outside(self, z):
        c = fiber_curve(z, nodes_per_piece=32)
        assert not region_contains(c, 10.0 + 3.0j)


class TestEvalF:
    def test_holomorphic_constant_along_curve(self):
        f = builtin("poly3").oracle
        z = 0.5j
        c = fiber_curve(z)
        expected = f(z)
        for w in (c.segment[0], c.segment[1], 0.2 - 0.9j, 0.25 - 1.25j):
            assert eval_F(f, z, w) == pytest.approx(expected, abs=1e-9)

    def test_radial_function_on_segment_endpoint(self):
        f = builtin("absq").oracle
        value = eval_F(f, 0.5j, -0.5j)  # owning circle radius 0.5, constant 0.25
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_endpoint_branch_agreement(self):
        f = builtin("expz").oracle
        z = 0.5j
        # w = 1/z: centered branch R = 1 vs pencil branch t = 0
        seg = eval_on_segment_leaf(f, z, 1.0)
        arc = eval_on_arc_leaf(f, z, 0.0)
        assert abs(seg - arc) < 1e-9
        # w = conj(z): centered branch R = |z| vs pencil branch t = t(z)
        from morera.geometry import pencil_param

        seg2 = eval_on_segment_leaf(f, z, abs(z))
        arc2 = eval_on_arc_leaf(f, z, pencil_param(z))
        assert abs(seg2 - arc2) < 1e-9

    def test_morera_failure_names_circle(self):
        f = builtin("absq").oracle  # fails every pencil circle with t != 0
        with pytest.raises(ExtensionFailureError) as err:
            eval_F(f, 0.5j, 0.2 - 0.9j)  # arc point owned by t = -0.25
        assert err.value.circle is not None
        assert err.value.circle.center == pytest.approx(-0.25)

    def test_off_curve_rejected(self):
        from morera.errors import NotOnPencilError

        f = builtin("poly3").oracle
        with pytest.raises(NotOnPencilError):
            eval_F(f, 0.5j, 0.5 - 3.0j)  # on neither piece, no pencil parameter
        with pytest.raises(DomainError):
            eval_F(f, 0.5j, -1.0)  # on the tangent circle but beyond the arc (t = -1)


class TestCauchyTransform:
    @pytest.mark.parametrize("nodes", [0, -5])
    def test_node_count_below_one_rejected(self, nodes):
        f = builtin("poly3").oracle
        curve = fiber_curve(0.5j)
        with pytest.raises(ConfigError, match="node count"):
            fiber_integral(f, 0.5j, nodes)
        with pytest.raises(ConfigError, match="node count"):
            fiber.cauchy_table(f, curve, [5.0], [0], nodes)
        with pytest.raises(ConfigError, match="node count"):
            cauchy_transform(f, 0.5j, 0.1, nodes=nodes)

    def test_outside_vanishes(self):
        f = builtin("poly3").oracle
        assert abs(cauchy_transform(f, 0.5j, 5.0)) < 1e-10

    def test_inside_reproduces(self):
        f = builtin("poly3").oracle
        assert cauchy_transform(f, 0.5j, 0.1 - 1.25j) == pytest.approx(f(0.5j), abs=1e-10)

    def test_zero_function(self):
        f = lambda z: 0.0 * np.asarray(z, dtype=complex)
        assert cauchy_transform(f, 0.5j, 0.1 - 1.25j) == 0.0
        assert cauchy_transform(f, 0.5j, 7.0) == 0.0

    def test_near_curve_rejected(self):
        f = builtin("poly3").oracle
        curve = fiber_curve(0.5j)
        on_curve = complex(curve.nodes_w[len(curve.nodes_w) // 3])
        with pytest.raises(CurveProximityError):
            cauchy_transform(f, 0.5j, on_curve)

    def test_dichotomy_all_holomorphic_members(self):
        rng = np.random.default_rng(2)
        zs = [0.5j, -0.2 + 0.5j, 0.3 - 0.4j, -0.35j]
        for entry in holomorphic_members():
            for z in zs:
                curve = fiber_curve(z)
                inside = interior_probe(curve)
                assert abs(cauchy_transform(entry.oracle, z, inside) - entry.oracle(z)) < 1e-6
                for _ in range(5):
                    W = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    if curve.distance(W) < 0.05 or region_contains(curve, W):
                        continue
                    assert abs(cauchy_transform(entry.oracle, z, W)) < 1e-6

    def test_counterexample_reproduces_fiber_extension(self):
        # For z^2/conj(z) the fiberwise extension is z^2/w on every leaf, so
        # the transform must reproduce z^2/W inside the region.
        f = builtin("counterexample").oracle
        z = -0.2 + 0.5j
        curve = fiber_curve(z)
        W = interior_probe(curve)
        assert cauchy_transform(f, z, W) == pytest.approx(z**2 / W, abs=1e-9)
        assert abs(cauchy_transform(f, z, 4.0 - 1.0j)) < 1e-9

    @pytest.mark.parametrize("name", ["poly3", "expz", "rational"])
    def test_dichotomy_near_the_curve(self, name):
        f = builtin(name).oracle
        for z in (0.5j, -0.2 + 0.5j, 0.3 - 0.4j):
            curve = fiber_curve(z)
            for piece in ("segment", "arc"):
                for fraction in (1e-5, 1e-4, 1e-3, 1e-2):
                    for side in (1.0, -1.0):
                        W = off_curve(curve, piece, 0.5, side * fraction * curve.diameter)
                        assert region_contains(curve, W) is (side > 0)
                        expected = f(z) if side > 0 else 0.0
                        assert abs(cauchy_transform(f, z, W) - expected) < 1e-6, (z, piece, fraction, side)

    @pytest.mark.parametrize("name", ["poly3", "expz", "rational"])
    def test_holomorphic_table_stops_at_first_refinement(self, name, capsys, monkeypatch):
        # F(z, .) is constant, so each piece's series chops at the first
        # Lobatto grid: one oracle call per piece, however many W the table
        # has.  Every W converges at the first refinement, so the table
        # builds the curve's nodes and two quadrature levels.
        calls = []
        levels = []
        oracle_values = extension.oracle_values
        quadrature = fiber._quadrature

        def counted(f, points, check=True):
            calls.append(np.size(points))
            return oracle_values(f, points, check)

        def counted_levels(z, t_min, per_piece):
            levels.append(per_piece)
            return quadrature(z, t_min, per_piece)

        monkeypatch.setattr(extension, "oracle_values", counted)
        monkeypatch.setattr(fiber, "_quadrature", counted_levels)
        for z in ("-0.2+0.5i", "0.5i", "0.3-0.4i"):
            counts = []
            for w_count in ("3", "15"):
                calls.clear()
                levels.clear()
                assert main(["theta", "--builtin", name, "--z", z, "--w-count", w_count]) == 0
                capsys.readouterr()
                assert len(calls) == 2, (z, w_count)
                assert sum(calls) <= 2 * 33 * 256, (z, w_count)
                assert levels == [256, 256, 512], (z, w_count)
                counts.append(list(calls))
            assert counts[0] == counts[1], z

    def test_table_output_is_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["theta", "--builtin", "counterexample", "--z", "-0.2+0.5i", "--w-count", "9"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_table_matches_single_transforms(self, capsys):
        f = builtin("counterexample").oracle
        z = -0.2 + 0.5j
        assert main(["theta", "--builtin", "counterexample", "--z", "-0.2+0.5i", "--w-count", "5"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        for row in rows:
            if row[2] == "near-curve":
                continue
            W = complex(float(row[0]), float(row[1]))
            value = complex(float(row[3]), float(row[4]))
            assert value == cauchy_transform(f, z, W), W

    @pytest.mark.parametrize("z", [-0.2 + 0.5j, 0.5j, 0.3 - 0.4j, -0.05 - 0.3j])
    def test_counterexample_closed_form(self, z):
        # F(z, w) = z^2/w on both pieces (segment: z^3/R^2 with R^2 = w z;
        # arc: z^2 (z - t)/((z + 2) t + 1) = z^2/w), so by partial fractions
        # Theta(W) = (z^2/W) (ind W - ind 0).  At -0.05-0.3i the arc's
        # series runs to the 257-point cap.
        f = builtin("counterexample").oracle
        curve = fiber_curve(z)
        ind0 = winding_number(curve, 0.0)

        def closed_form(W):
            return z**2 / W * (winding_number(curve, W) - ind0)

        for W in (3.0 + 1.0j, -2.0 - 2.0j, 0.1 + 4.0j, interior_probe(curve)):
            assert abs(cauchy_transform(f, z, W) - closed_form(W)) < 1e-9, W
        for piece in ("segment", "arc"):
            for s in (0.25, 0.5, 0.75):
                for side in (1.0, -1.0):
                    W = off_curve(curve, piece, s, side * 1e-2 * curve.diameter)
                    assert abs(cauchy_transform(f, z, W) - closed_form(W)) < 1e-9, (piece, s, side)
                    # 3e-3 x diameter off, panels are too coarse for some W
                    # (there is no adaptive refinement near W): those must
                    # raise the non-convergence error, never a wrong value.
                    W = off_curve(curve, piece, s, side * 3e-3 * curve.diameter)
                    try:
                        value = cauchy_transform(f, z, W)
                    except MoreraError as err:
                        assert "failed to converge" in str(err), (piece, s, side)
                        continue
                    assert abs(value - closed_form(W)) < 1e-9, (piece, s, side)

    def test_counterexample_near_the_curve(self):
        # Subtracting F at the nearest node lets a non-constant F converge
        # 3e-3 x diameter off the segment, where the plain sum does not.
        # (Off the arc of -0.2+0.5i it still fails at that distance.)
        f = builtin("counterexample").oracle
        for z in (-0.2 + 0.5j, 0.5j, 0.3 - 0.4j):
            curve = fiber_curve(z)
            for side in (1.0, -1.0):
                W = off_curve(curve, "segment", 0.5, side * 3e-3 * curve.diameter)
                expected = z**2 / W if side > 0 else 0.0
                assert abs(cauchy_transform(f, z, W) - expected) < 1e-9, (z, side)

    def test_nonconvergence_names_the_point(self):
        # A non-constant F still defeats the quadrature very near the curve.
        f = builtin("counterexample").oracle
        z = 0.3 - 0.4j
        curve = fiber_curve(z)
        for side in (1.0, -1.0):
            W = off_curve(curve, "segment", 0.5, side * 6e-5 * curve.diameter)
            with pytest.raises(MoreraError) as err:
                cauchy_transform(f, z, W)
            assert type(err.value) is MoreraError
            message = str(err.value)
            assert f"W = {W}" in message
            assert "6.00e-05 x diameter" in message
            assert "last two sums differ by" in message

    def test_liouville_proxy(self):
        # For holomorphic f the fiberwise extension does not depend on w.
        f = builtin("rational").oracle
        z = 0.3 + 0.35j
        curve = fiber_curve(z)
        values = [eval_F(f, z, complex(w)) for w in curve.nodes_w[::64]]
        spread = max(abs(a - b) for a in values for b in values)
        assert spread < 1e-8


def theta_grid(curve, count, pad):
    """The W grid of ``morera theta`` (rows in y, columns in x)."""
    re, im = curve.nodes_w.real, curve.nodes_w.imag
    pad *= curve.diameter
    xs = np.linspace(re.min() - pad, re.max() + pad, count)
    ys = np.linspace(im.min() - pad, im.max() + pad, count)
    return np.array([complex(x, y) for y in ys for x in xs])


# Test points relative to a curve: (kind, u, v, side, piece), u and v in [0, 1].
probe_points = st.tuples(
    st.sampled_from(["box", "chord", "end", "guard"]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from(["segment", "arc"]),
)


def probe_point(curve, kind, u, v, side, piece):
    a, b = curve.segment
    if kind == "box":  # anywhere within a diameter of the curve
        lo = complex(curve.nodes_w.real.min(), curve.nodes_w.imag.min()) - curve.diameter * (1 + 1j)
        return lo + 3.0 * curve.diameter * complex(u, v)
    if kind == "chord":  # on the chord's line, beyond its ends too
        return a + (3.0 * u - 1.0) * (b - a)
    if kind == "end":  # 1e-9 to 1e-1 diameters from either shared end, any direction
        end = a if side > 0 else b
        return end + curve.diameter * 10.0 ** (-9.0 + 8.0 * u) * cmath.exp(2j * math.pi * v)
    # just either side of the proximity guard, off either piece
    offset = curve.proximity_guard * (1.0 + (2.0 * v - 1.0) * 1e-6)
    return off_curve(curve, piece, 0.02 + 0.96 * u, side * offset)


class TestBatchedClassification:
    @settings(max_examples=150, deadline=None)
    @given(admissible_points, st.lists(probe_points, min_size=1, max_size=12), st.integers(1, 21))
    def test_matches_scalar_formulas(self, z, probes, count):
        curve = fiber_curve(z)
        Ws = np.array([probe_point(curve, *probe) for probe in probes])
        distances = curve.distances(Ws)
        for W, d in zip(Ws.tolist(), distances.tolist()):
            expected = reference_distance(curve, W)
            assert abs(d - expected) <= 1e-15 * expected, W
            assert (d < curve.proximity_guard) == (expected < curve.proximity_guard), W
        far = np.array([W for W in Ws.tolist() if reference_distance(curve, W) >= curve.proximity_guard])
        windings = fiber.winding_numbers(curve, far)
        assert windings.tolist() == [reference_closed_form_winding(curve, W) for W in far.tolist()]
        if far.size < Ws.size:
            with pytest.raises(CurveProximityError):
                fiber.winding_numbers(curve, Ws)
        # The near-curve rows of a theta table.
        grid = theta_grid(curve, count, 0.75)
        near = [reference_distance(curve, W) < curve.proximity_guard for W in grid.tolist()]
        assert (curve.distances(grid) < curve.proximity_guard).tolist() == near

    def test_scalar_wrappers_keep_the_guard(self):
        curve = fiber_curve(0.5j)
        W = off_curve(curve, "arc", 0.3, 0.5 * curve.proximity_guard)
        assert curve.distance(W) == reference_distance(curve, W)
        with pytest.raises(CurveProximityError, match="membership ambiguous"):
            winding_number(curve, W)


class TestKernelBlocking:
    @pytest.mark.parametrize("name", ["poly3", "counterexample"])
    @pytest.mark.parametrize("z", [0.5j, -0.2 + 0.5j])
    def test_block_size_does_not_change_a_bit(self, name, z, monkeypatch):
        f = builtin(name).oracle
        curve = fiber_curve(z)
        grid = theta_grid(curve, 9, 0.75)
        Ws = grid[curve.distances(grid) >= curve.proximity_guard]
        windings = fiber.winding_numbers(curve, Ws)
        tables = []
        for elements in (1 << 10, fiber._BLOCK_ELEMENTS, 1 << 18):
            monkeypatch.setattr(fiber, "_BLOCK_ELEMENTS", elements)
            tables.append(fiber.cauchy_table(f, curve, Ws, windings))
        assert all(np.array_equal(tables[0], table) for table in tables[1:])

        # The same levels with the kernel formed out of place over all W at once.
        field = _FiberField(f, curve, extension.DEFAULT_SAMPLES, extension.DEFAULT_MORERA_TOL)
        per_piece = fiber.DEFAULT_NODES // 2
        w, dw, values = field.level(per_piece)
        c = values[np.argmin(np.abs(w - Ws[:, None]), axis=1)]

        def level(w, dw, values):
            return np.sum((values - c[:, None]) / (w - Ws[:, None]) * dw, axis=1) / (2.0j * math.pi) + c * windings

        previous = level(w, dw, values)
        expected = np.empty_like(previous)
        done = np.zeros(Ws.shape, dtype=bool)
        for _ in range(fiber.MAX_REFINEMENTS):
            per_piece *= 2
            current = level(*field.level(per_piece))
            agreed = ~done & (np.abs(current - previous) < fiber.QUAD_REFINE_TOL)
            expected[agreed] = current[agreed]
            done |= agreed
            previous = current
        assert done.all()
        assert np.array_equal(tables[0], expected)


class TestFiberSeries:
    @pytest.mark.parametrize("name", ["poly3", "expz", "rational", "counterexample"])
    def test_matches_per_node_values(self, name):
        f = builtin(name).oracle
        for z in (0.5j, -0.2 + 0.5j, 0.3 - 0.4j, -0.35j):
            field = _FiberField(f, fiber_curve(z), 256, 1e-8)
            for per_piece in (256, 512):
                curve = fiber_curve(z, per_piece)
                w, dw, values = field.level(per_piece)
                assert np.array_equal(w, curve.nodes_w) and np.array_equal(dw, curve.nodes_dw)
                expected = reference_node_values(f, curve)
                assert np.abs(values - expected).max() <= 1e-12 * np.abs(expected).max(), (z, per_piece)

    def test_grid_source_matches_per_node_values(self):
        # Extendability thresholds are inflated x10 for grid sources, as the
        # CLI does; interpolation noise in F is about 1e-11.
        f = builtin("rational").oracle
        radii = np.linspace(0.0, 1.0, 64)
        thetas = 2.0 * np.pi * np.arange(128) / 128
        grid = GridFunction(radii, thetas, f(radii[:, None] * np.exp(1j * thetas)[None, :]))
        for z in (0.5j, -0.2 + 0.5j, 0.3 - 0.4j):
            curve = fiber_curve(z)
            _, _, values = _FiberField(grid, curve, 256, 1e-7).level(256)
            expected = reference_node_values(grid, curve, tol=1e-7)
            assert np.abs(values - expected).max() <= 1e-9 * np.abs(expected).max(), z

    def test_holomorphic_series_chops_at_first_grid(self):
        for name in ("poly3", "expz", "rational"):
            field = _FiberField(builtin(name).oracle, fiber_curve(-0.2 + 0.5j), 256, 1e-8)
            assert [piece.coefficients.size for piece in field.pieces] == [17, 17], name

    def test_kinked_piece_is_unresolved(self):
        # F = |R - 0.7| on the segment has a kink, so its Chebyshev tail
        # decays only algebraically and is still far above tolerance at the
        # 257-point cap.
        f = lambda p: np.abs(np.abs(p) - 0.7)
        series = _piece_series(f, 0.5j, "segment", 0.5, 1.0, 256, 1e-8)
        assert series.coefficients.size == 257
        with pytest.raises(InconclusiveError, match=r"along the segment .*\(R from 0\.5 to 1\.0\) is unresolved"):
            series.require_resolved(0.5j)
        # The pencil circles of the arc fail the extendability test, which
        # takes precedence over the unresolved segment.
        with pytest.raises(ExtensionFailureError):
            fiber_integral(f, 0.5j)


class TestFiberIntegral:
    def test_holomorphic_vanishes(self):
        assert abs(fiber_integral(builtin("poly3").oracle, 0.5j)) < 1e-10

    def test_constant_vanishes(self):
        one = lambda z: np.ones_like(np.asarray(z, dtype=complex))
        for z in (0.5j, -0.4 - 0.3j, 0.2 + 0.6j):
            assert abs(fiber_integral(one, z)) < 1e-12

    def test_counterexample_vanishes_where_admissible(self):
        assert abs(fiber_integral(builtin("counterexample").oracle, -0.2 + 0.5j)) < 1e-10

    def test_high_degree_polynomial_vanishes(self):
        # z^100 aliases at 256 samples on the outer leaves; they refine.
        f = lambda z: np.asarray(z, dtype=complex) ** 100
        assert abs(fiber_integral(f, 0.5j)) < 1e-10
        inside = fiber_curve(0.5j)
        W = interior_probe(inside)
        assert abs(cauchy_transform(f, 0.5j, W) - (0.5j) ** 100) < 1e-12
        assert eval_F(f, 0.5j, -2j) == pytest.approx((0.5j) ** 100, abs=1e-15)

    def test_absq_fails_on_pencil_leaves(self):
        with pytest.raises(ExtensionFailureError):
            fiber_integral(builtin("absq").oracle, 0.5j)

    def test_holomorphy_in_z_by_finite_differences(self):
        # d/d(conj z) of z -> fiber integral must vanish: a small version of
        # the acceptance criterion, on a 3x3 stencil.
        f = builtin("counterexample").oracle
        center = -0.2 + 0.5j
        h = 0.01
        g = {}
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                zz = center + h * (dx + 1j * dy)
                g[(dx, dy)] = fiber_integral(f, zz, nodes=256)
        dbar = ((g[(1, 0)] - g[(-1, 0)]) + 1j * (g[(0, 1)] - g[(0, -1)])) / (4 * h)
        assert abs(dbar) < 1e-6
