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
    ParameterDomainError,
)
from morera.fiber import (
    RegionD,
    _circle_values,
    _FiberField,
    _fiber_series,
    cauchy_transform,
    eval_F,
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
    values[seg] = _circle_values(f, z, [(np.zeros(rs.shape, dtype=complex), rs, "centered")], samples, tol)[0]
    arc = curve.nodes_piece == 1
    ts = curve.nodes_param[arc]
    values[arc] = _circle_values(f, z, [(ts.astype(complex), ts + 1.0, "pencil")], samples, tol)[0]
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

    @pytest.mark.parametrize("tau", [0.0, 0.6, -3.0])
    @pytest.mark.parametrize(
        "build",
        [
            lambda tau: fiber_curve(0.5j, tau=tau),
            lambda tau: cauchy_transform(builtin("poly3").oracle, 0.5j, 0.0, tau=tau),
            lambda tau: fiber_integral(builtin("poly3").oracle, 0.5j, tau=tau),
        ],
        ids=["fiber_curve", "cauchy_transform", "fiber_integral"],
    )
    def test_tau_outside_range_rejected(self, build, tau):
        with pytest.raises(ConfigError) as info:
            build(tau)
        assert str(info.value) == f"tau must lie in (0, 1/2), got {tau}"

    @pytest.mark.parametrize("z", [complex("nan"), complex(0.1, math.nan), complex(math.inf, 0.5)])
    def test_non_finite_base_point_rejected(self, z):
        with pytest.raises(ParameterDomainError) as info:
            fiber_curve(z)
        assert str(info.value) == f"z must have finite components, got {z!r}"

    @pytest.mark.parametrize("nodes", [0, -3])
    def test_node_count_below_one_rejected(self, nodes):
        with pytest.raises(ConfigError) as info:
            fiber_curve(0.5j, nodes_per_piece=nodes)
        assert str(info.value) == f"quadrature node count must be at least 1, got {nodes}"

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

    @pytest.mark.parametrize("W", [complex("nan"), complex(0.1, math.inf), complex(-math.inf, 0.0)])
    def test_non_finite_point_rejected(self, W):
        with pytest.raises(ParameterDomainError) as info:
            region_contains(fiber_curve(0.5j), W)
        assert str(info.value) == f"W must have finite components, got {W!r}"

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
        seg = fiber._leaf_value(f, z, "segment", 1.0, 256, 1e-8)
        arc = fiber._leaf_value(f, z, "arc", 0.0, 256, 1e-8)
        assert abs(seg - arc) < 1e-9
        # w = conj(z): centered branch R = |z| vs pencil branch t = t(z)
        from morera.geometry import pencil_param

        seg2 = fiber._leaf_value(f, z, "segment", abs(z), 256, 1e-8)
        arc2 = fiber._leaf_value(f, z, "arc", pencil_param(z), 256, 1e-8)
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
            fiber.cauchy_table(f, curve, [5.0], nodes)
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
        # With the message winding_numbers gives, and before F is sampled.
        def unsampled(z):
            raise AssertionError("F was sampled")

        curve = fiber_curve(0.5j)
        on_curve = complex(curve.nodes_w[len(curve.nodes_w) // 3])
        with pytest.raises(CurveProximityError, match="membership ambiguous") as info:
            cauchy_transform(unsampled, 0.5j, on_curve)
        with pytest.raises(CurveProximityError) as expected:
            fiber.winding_numbers(curve, [on_curve])
        assert str(info.value) == str(expected.value)

    def test_non_finite_point_rejected(self):
        with pytest.raises(ParameterDomainError, match=r"W must have finite components, got \(inf\+0j\)"):
            cauchy_transform(builtin("poly3").oracle, 0.5j, complex("inf"))

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
    def test_holomorphic_table_builds_only_the_curves_level(self, name, capsys, monkeypatch):
        # F(z, .) is constant, so each piece's series chops at the first
        # Lobatto grid, and both pieces' grids share one oracle call, however
        # many W the table has.  Every W of the default grid is certified,
        # so the table builds the curve's nodes, reads c from them and
        # builds no quadrature level beyond them.
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
                assert len(calls) == 1, (z, w_count)
                assert sum(calls) <= 2 * 33 * 256, (z, w_count)
                assert levels == [256], (z, w_count)
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
        expected = [
            -1 if reference_distance(curve, W) < curve.proximity_guard else reference_closed_form_winding(curve, W)
            for W in Ws.tolist()
        ]
        assert fiber._locations(curve, Ws)[0].tolist() == expected
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


class TestCauchyTable:
    @pytest.mark.parametrize(
        "name, z, pad",
        [("poly3", 0.5j, 0.0), ("rational", 0.3 - 0.4j, 0.0), ("counterexample", -0.2 + 0.5j, 0.75)],
    )
    def test_locates_each_point_itself(self, name, z, pad):
        # The grid of `theta --w-pad 0` holds near-curve points, and so does
        # a quadrature node; the table must locate them itself and leave
        # them unintegrated, and agree with single transforms elsewhere.
        # (A non-constant F does not converge next to the curve, so the
        # counterexample gets the default padding.)
        f = builtin(name).oracle
        curve = fiber_curve(z)
        node = complex(curve.nodes_w[len(curve.nodes_w) // 3])
        Ws = np.concatenate([theta_grid(curve, 5, pad), [node, interior_probe(curve), 4.0 - 1.0j]])
        locations, values = fiber.cauchy_table(f, curve, Ws)
        near = curve.distances(Ws) < curve.proximity_guard
        assert near[-3]
        assert locations[near].tolist() == [-1] * int(near.sum())
        assert np.isnan(values[near]).all()
        far = Ws[~near]
        assert locations[~near].tolist() == fiber.winding_numbers(curve, far).tolist()
        assert locations[-2:].tolist() == [1, 0]
        for W, value in zip(far.tolist(), values[~near].tolist()):
            assert value == cauchy_transform(f, z, W), W

    def test_non_finite_point_rejected_before_sampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fiber._FiberField, "__init__", lambda *args: calls.append(args))
        with pytest.raises(ParameterDomainError) as info:
            fiber.cauchy_table(builtin("poly3").oracle, fiber_curve(0.5j), [5.0, complex("nan"), complex("inf")])
        assert str(info.value) == "W must have finite components, got (nan+0j)" and not calls

    def test_near_points_are_never_integrated(self, monkeypatch):
        curve = fiber_curve(0.5j)
        calls = []
        monkeypatch.setattr(fiber._FiberField, "__init__", lambda *args: calls.append(args))
        locations, values = fiber.cauchy_table(builtin("poly3").oracle, curve, curve.nodes_w[:4])
        assert locations.tolist() == [-1] * 4 and np.isnan(values).all() and not calls


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
            tables.append(fiber.cauchy_table(f, curve, Ws)[1])
        assert all(np.array_equal(tables[0], table) for table in tables[1:])

        # The same certificate and levels with the kernel formed out of place
        # over all W at once.  A constant F certifies every W of this grid, a
        # non-constant one none.
        field = _FiberField(f, curve, extension.DEFAULT_SAMPLES, extension.DEFAULT_MORERA_TOL)
        per_piece = fiber.DEFAULT_NODES // 2
        w, dw, values = field.level(per_piece)
        c = values[np.argmin(np.abs(w - Ws[:, None]), axis=1)]
        certified = field.variation <= 2.0 * math.pi * fiber.QUAD_REFINE_TOL * curve.distances(Ws)
        assert certified.all() if name == "poly3" else not certified.any()

        def level(w, dw, values):
            return np.sum((values - c[:, None]) / (w - Ws[:, None]) * dw, axis=1) / (2.0j * math.pi) + c * windings

        previous = level(w, dw, values)
        expected = np.where(certified, c * windings, previous)
        done = certified.copy()
        for _ in range(fiber.MAX_REFINEMENTS):
            per_piece *= 2
            current = level(*field.level(per_piece))
            agreed = ~done & (np.abs(current - previous) < fiber.QUAD_REFINE_TOL)
            expected[agreed] = current[agreed]
            done |= agreed
            previous = current
        assert done.all()
        assert np.array_equal(tables[0], expected)


CERTIFICATE_BASE_POINTS = [-0.2 + 0.5j, 0.5j, 0.3 - 0.4j, -0.05 - 0.3j]


def certificate_probes(curve):
    """W from 1e-5 to 1e-1 diameters off both sides of each piece, and a 15 x 15 theta grid."""
    probes = [
        off_curve(curve, piece, s, side * fraction * curve.diameter)
        for piece in ("segment", "arc")
        for s in (0.25, 0.5, 0.75)
        for fraction in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
        for side in (1.0, -1.0)
    ]
    return np.concatenate([probes, theta_grid(curve, 15, 0.75)])


def uncertified(monkeypatch, call, *args):
    """``call(*args)`` with no W and no fiber integral certified: every one runs the quadrature levels."""
    with monkeypatch.context() as patch:
        patch.setattr(fiber._FiberField, "variation", math.inf)
        return call(*args)


def outcome(call, *args):
    """What ``call(*args)`` gives, bit for bit: the bytes of its arrays and the repr of its
    numbers, or the type and message of the error it raises."""
    try:
        result = call(*args)
    except MoreraError as err:
        return type(err).__name__, str(err)
    parts = result if isinstance(result, tuple) else (result,)
    return tuple(part.tobytes() if isinstance(part, np.ndarray) else repr(part) for part in parts)


class TestCertificate:
    @pytest.mark.parametrize("name", ["poly3", "expz", "rational"])
    @pytest.mark.parametrize("z", CERTIFICATE_BASE_POINTS)
    def test_certified_values_are_within_tolerance(self, name, z, monkeypatch):
        # F is constant, so every W beyond the proximity guard is certified
        # and gets c * ind(W); the quadrature levels give the same to 1e-8.
        f = builtin(name).oracle
        curve = fiber_curve(z)
        Ws = certificate_probes(curve)
        locations, values = fiber.cauchy_table(f, curve, Ws)
        far = locations >= 0
        field = _FiberField(f, curve, extension.DEFAULT_SAMPLES, extension.DEFAULT_MORERA_TOL)
        assert (field.variation <= 2.0 * math.pi * fiber.QUAD_REFINE_TOL * curve.distances(Ws[far])).all()
        reference = uncertified(monkeypatch, fiber.cauchy_table, f, curve, Ws)[1]
        assert np.abs(values[far] - reference[far]).max() <= fiber.QUAD_REFINE_TOL
        assert np.abs(values[far] - np.where(locations[far] > 0, f(z), 0.0)).max() < 1e-10

    @pytest.mark.parametrize("name", ["counterexample", "absq"])
    @pytest.mark.parametrize("z", CERTIFICATE_BASE_POINTS)
    def test_non_constant_F_is_never_certified(self, name, z, monkeypatch):
        # The counterexample's F varies by order 1 along the curve, and absq
        # fails on a Lobatto circle: tables and fiber integrals, errors
        # included, are the quadrature's bit for bit.
        f = builtin(name).oracle
        curve = fiber_curve(z)
        Ws = certificate_probes(curve)
        for call, args in ((fiber.cauchy_table, (f, curve, Ws)), (fiber_integral, (f, z))):
            assert outcome(call, *args) == uncertified(monkeypatch, outcome, call, *args), call
        if name == "absq":
            return
        # W by W, since a table stops at its first unconverged W.
        field, reference = (
            _FiberField(f, curve, extension.DEFAULT_SAMPLES, extension.DEFAULT_MORERA_TOL) for _ in range(2)
        )
        reference.variation = math.inf
        locations, distances = fiber._locations(curve, Ws)
        assert field.variation > 2.0 * math.pi * fiber.QUAD_REFINE_TOL * distances.max()
        for i in np.flatnonzero(locations >= 0).tolist():
            args = (Ws[i : i + 1], locations[i : i + 1], distances[i : i + 1], fiber.DEFAULT_NODES)
            assert outcome(field.transforms, *args) == outcome(reference.transforms, *args), Ws[i]

    def test_large_holomorphic_F_is_certified_near_the_curve(self, monkeypatch):
        # The certificate is relative to the size of F: a large constant F
        # has a larger rounding bound, and a tolerance as much larger, so W
        # within 1e-5 diameters of the curve are still certified, build no
        # quadrature level, and match f(z) or 0 to 1e-8 relative.
        f = lambda z: 1e4 * builtin("poly3").oracle(z)
        z = -0.2 + 0.5j
        curve = fiber_curve(z)
        Ws = np.array(
            [
                off_curve(curve, piece, 0.5, side * fraction * curve.diameter)
                for piece in ("segment", "arc")
                for fraction in (1e-5, 1e-4)
                for side in (1.0, -1.0)
            ]
        )
        field = _FiberField(f, curve, extension.DEFAULT_SAMPLES, extension.DEFAULT_MORERA_TOL)
        assert field.tolerance > fiber.QUAD_REFINE_TOL
        assert (field.variation <= 2.0 * math.pi * field.tolerance * curve.distances(Ws)).all()
        monkeypatch.setattr(fiber, "_quadrature", lambda *args: pytest.fail("a quadrature level was built"))
        locations, values = fiber.cauchy_table(f, curve, Ws)
        assert sorted(set(locations.tolist())) == [0, 1]
        assert np.abs(values - np.where(locations > 0, f(z), 0.0)).max() <= 1e-8 * abs(f(z))

    def test_no_theta_cell_reads_negative_zero(self, capsys):
        # c * 0 keeps the signs of c's parts: a certified outside W must
        # still print 0.0.  Some inside values here have a negative part.
        negative = False
        for name in ("poly3", "expz", "rational"):
            for z in ("-0.2+0.5i", "0.5i", "0.3-0.4i"):
                assert main(["theta", "--builtin", name, "--z", z, "--w-count", "7"]) == 0
                rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
                assert not [cell for row in rows for cell in row if cell == "-0.0"], (name, z)
                negative |= any(float(row[3]) < 0.0 or float(row[4]) < 0.0 for row in rows if row[2] == "inside")
        assert negative

    @pytest.mark.parametrize("entry", holomorphic_members(), ids=lambda entry: entry.name)
    def test_holomorphic_fiber_integral_is_zero_without_levels(self, entry, monkeypatch):
        levels = []
        quadrature = fiber._quadrature

        def counted_levels(z, t_min, per_piece):
            levels.append(per_piece)
            return quadrature(z, t_min, per_piece)

        monkeypatch.setattr(fiber, "_quadrature", counted_levels)
        for z in CERTIFICATE_BASE_POINTS:
            levels.clear()
            value = fiber_integral(entry.oracle, z)
            assert type(value) is complex and repr(value) == "0j", z
            assert levels == [fiber.DEFAULT_NODES // 2], z


class TestNumericalRules:
    """fiber's in-house rules equal the numpy.polynomial ones they replace, bit for bit."""

    def test_gauss_rule_is_leggauss_16(self):
        x, w = np.polynomial.legendre.leggauss(16)
        assert fiber._PANEL_X.tobytes() == x.tobytes() and fiber._PANEL_W.tobytes() == w.tobytes()

    @pytest.mark.parametrize("length", [1, 2, 3, 17, 257])
    def test_clenshaw_is_chebval(self, length):
        rng = np.random.default_rng(length)
        c = rng.standard_normal(length) * 1e3 + 1j * rng.standard_normal(length)
        for x in (rng.uniform(-1.0, 1.0, 300), np.array([-1.0, -0.0, 0.0, 1.0]), rng.uniform(-1.0, 1.0, 1)):
            expected = np.polynomial.chebyshev.chebval(x, c)
            got = fiber._chebval(x, c)
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
            assert got.tobytes() == expected.tobytes()


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
        # At the default --morera-tol, which the CLI runs a grid source at;
        # interpolation noise in F is about 1e-11.
        f = builtin("rational").oracle
        radii = np.linspace(0.0, 1.0, 64)
        thetas = 2.0 * np.pi * np.arange(128) / 128
        grid = GridFunction(radii, thetas, f(radii[:, None] * np.exp(1j * thetas)[None, :]))
        tol = extension.DEFAULT_MORERA_TOL
        for z in (0.5j, -0.2 + 0.5j, 0.3 - 0.4j):
            curve = fiber_curve(z)
            _, _, values = _FiberField(grid, curve, 256, tol).level(256)
            expected = reference_node_values(grid, curve, tol=tol)
            assert np.abs(values - expected).max() <= 1e-9 * np.abs(expected).max(), z

    @pytest.mark.parametrize("name", ["poly3", "expz", "rational", "counterexample"])
    def test_lockstep_series_match_standalone_series(self, name):
        # Both pieces are refined in one kernel pass a level; every bit of
        # each series must be what the piece gives on its own.  The
        # counterexample's pieces double, so the doublings are covered too.
        f = builtin(name).oracle
        for z in (0.5j, -0.2 + 0.5j, 0.3 - 0.4j, -0.35j):
            curve = fiber_curve(z)
            field = _FiberField(f, curve, 256, 1e-8)
            spans = (("segment", abs(z), 1.0), ("arc", curve.t_min, 0.0))
            for piece, span in zip(field.pieces, spans):
                (alone,) = _fiber_series(f, z, [span], 256, 1e-8)
                assert piece.name == span[0] and (piece.lo, piece.hi) == span[1:]
                assert np.array_equal(piece.coefficients, alone.coefficients), (z, span[0])
                assert piece.tail == alone.tail and piece.scale == alone.scale, (z, span[0])

    def test_first_level_is_the_curves_nodes(self):
        curve = fiber_curve(-0.2 + 0.5j)
        field = _FiberField(builtin("poly3").oracle, curve, 256, 1e-8)
        # 250 nodes a piece need the same 16 panels as the curve's 256.
        for per_piece in (256, 250):
            w, dw, _ = field.level(per_piece)
            assert w is curve.nodes_w and dw is curve.nodes_dw
        w, _, _ = field.level(512)
        assert w.size == 1024 and np.array_equal(w, fiber_curve(-0.2 + 0.5j, 512).nodes_w)

    @pytest.mark.parametrize(
        "name, z, message",
        [
            (
                "conjugate",
                "0.5i",
                "error: f does not extend holomorphically from the centered circle (center 0j, radius 1.0) "
                "met along the fiber curve (negative energy 1.000e+00, 256 samples)\n",
            ),
            (
                "absq",
                "-0.2+0.5i",
                "error: f does not extend holomorphically from the pencil circle "
                "(center (-0.004263265910533248+0j), radius 0.9957367340894667) "
                "met along the fiber curve (negative energy 1.802e-05, 256 samples)\n",
            ),
        ],
    )
    def test_failing_circle_is_named_by_its_piece(self, name, z, message, capsys):
        # conj fails on both pieces and the segment's centered circle is
        # named; |z|^2 passes the centered circles and a pencil one is named.
        assert main(["theta", "--builtin", name, "--z", z]) == 2
        assert capsys.readouterr().err == message

    def test_segment_errors_come_before_arc_errors(self):
        def conjugate(w):
            return np.conj(w)

        with pytest.raises(ExtensionFailureError, match="the centered circle") as failure:
            fiber_integral(conjugate, 0.3 - 0.4j)
        assert "pencil" not in str(failure.value)

        def undefined(w):
            return np.full(np.shape(w), np.nan + 0j)

        # Every circle is undecided; the segment's first, of radius 1, is named.
        with pytest.raises(InconclusiveError) as undecided:
            fiber_integral(undefined, 0.5j)
        assert str(undecided.value).startswith(
            "f is undecided (oracle returned non-finite value (nan+0j) at theta = 0.0) "
            "from the centered circle (center 0j, radius 1.0)"
        )

    def test_holomorphic_series_chops_at_first_grid(self):
        for name in ("poly3", "expz", "rational"):
            field = _FiberField(builtin(name).oracle, fiber_curve(-0.2 + 0.5j), 256, 1e-8)
            assert [piece.coefficients.size for piece in field.pieces] == [17, 17], name

    def test_kinked_piece_is_unresolved(self):
        # F = |R - 0.7| on the segment has a kink, so its Chebyshev tail
        # decays only algebraically and is still far above tolerance at the
        # 257-point cap.
        f = lambda p: np.abs(np.abs(p) - 0.7)
        (series,) = _fiber_series(f, 0.5j, [("segment", 0.5, 1.0)], 256, 1e-8)
        assert series.coefficients.size == 257
        with pytest.raises(InconclusiveError, match=r"along the segment .*\(R from 0\.5 to 1\.0\) is unresolved"):
            series.require_resolved(0.5j)
        # The pencil circles of the arc fail the extendability test, which
        # takes precedence over the unresolved segment.
        with pytest.raises(ExtensionFailureError):
            fiber_integral(f, 0.5j)

    @pytest.mark.parametrize(
        "name, z, calls",
        [
            ("poly3", 0.5j, 1),
            ("expz", -0.2 + 0.5j, 1),
            ("rational", 0.3 - 0.4j, 1),
            # Both pieces double once, in one pass.
            ("counterexample", 0.5j, 2),
            # The arc's pencil circles fail at the first level, before the
            # segment's series (which alone would need three more) doubles.
            # The first to fail is the one nearest t = 0, where |f| stays
            # below about 1e-30: the test is relative, so it is judged by
            # its shape however small it is.
            ("radial-smooth", 0.5j, 1),
        ],
    )
    def test_one_oracle_call_per_level(self, name, z, calls):
        oracle = builtin(name).oracle
        count = [0]

        def f(w):
            count[0] += 1
            return oracle(w)

        try:
            fiber_integral(f, z)
        except ExtensionFailureError as exc:
            assert name == "radial-smooth"
            assert str(exc) == (
                "f does not extend holomorphically from the pencil circle "
                "(center (-0.0036027599243942943+0j), radius 0.9963972400756057) "
                "met along the fiber curve (negative energy 6.972e-63, 256 samples)"
            )
        assert count[0] == calls

    def test_errors_come_by_level_before_piece(self):
        # On the first level's centered circles f is |R - 0.7|, which
        # extends but kinks in R, so the segment's series doubles; on every
        # other circle f is conj(w).  The pencil circles of the first level
        # fail, and they are named before the centered circles of the
        # segment's first doubling.  The oracle gets one circle a row.
        first_radii = 0.75 + 0.25 * np.cos(np.pi * np.arange(17) / 16)

        def f(w):
            w = np.asarray(w, dtype=complex)
            r = np.abs(w)
            centered = np.abs(w.mean(axis=-1, keepdims=True)) < 1e-12
            first = centered & (np.abs(r[..., :1, None] - first_radii) < 1e-12).any(axis=-1)
            return np.where(first, np.abs(r - 0.7), np.conj(w))

        with pytest.raises(ExtensionFailureError, match="from the pencil circle") as failure:
            fiber_integral(f, 0.5j)
        assert failure.value.circle.center != 0.0

    def test_failure_beats_an_earlier_piece_aliased_at_the_cap(self):
        # On centered circles f is exp(i (N/4 + 1) theta) at N samples, which
        # trips the aliasing guard at every N up to the cap; on pencil
        # circles f is conj(w), which fails at the first N.  Within the first
        # level the arc's failure comes before the segment's undecided rows.
        def f(w):
            w = np.asarray(w, dtype=complex)
            centered = np.abs(w.mean(axis=-1, keepdims=True)) < 1e-12
            return np.where(centered, (w / np.abs(w)) ** (w.shape[-1] // 4 + 1), np.conj(w))

        with pytest.raises(ExtensionFailureError, match="from the pencil circle .* 256 samples"):
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
