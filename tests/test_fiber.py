import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morera.errors import (
    CurveProximityError,
    DegenerateInputError,
    DomainError,
    ExtensionFailureError,
)
from morera.fiber import (
    RegionD,
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

# Admissible, comfortably non-real base points for property tests.
admissible_points = st.builds(
    lambda r, th: r * cmath.exp(1j * th),
    st.floats(0.15, 0.9),
    st.floats(0.0, 2.0 * math.pi),
).filter(lambda z: abs(z.imag) > 0.05 and in_admissible_region(z))


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

    def test_liouville_proxy(self):
        # For holomorphic f the fiberwise extension does not depend on w.
        f = builtin("rational").oracle
        z = 0.3 + 0.35j
        curve = fiber_curve(z)
        values = [eval_F(f, z, complex(w)) for w in curve.nodes_w[::64]]
        spread = max(abs(a - b) for a in values for b in values)
        assert spread < 1e-8


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
