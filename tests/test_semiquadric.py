import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morera.errors import (
    DomainError,
    NoIntersectionError,
    NotOnPencilError,
    ParameterDomainError,
    SingularFiberError,
)
from morera.geometry import pencil_param
from morera.semiquadric import (
    QuadricPoint,
    Semiquadric,
    family_intersection_point,
    fiber_w,
    invert_pencil_fiber,
    is_infinity,
    quadrics_intersect,
)


class TestFiberW:
    def test_simple_value(self):
        assert fiber_w(Semiquadric(0, 0.5), 0.25) == pytest.approx(1.0)

    def test_cross_checked_value(self):
        assert fiber_w(Semiquadric(-0.25, 0.75), 0.5j) == pytest.approx(0.2 - 0.9j)

    def test_boundary_identity_unit_circle(self):
        q = Semiquadric(0, 1.0)
        for theta in np.linspace(0, 2 * math.pi, 17):
            z = cmath.exp(1j * theta)
            assert fiber_w(q, z) == pytest.approx(z.conjugate(), abs=1e-14)

    def test_infinity_over_center(self):
        assert is_infinity(fiber_w(Semiquadric(0.2 + 0.1j, 0.5), 0.2 + 0.1j))

    def test_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            fiber_w(Semiquadric(0, 0.5), 0.8)

    @given(
        st.floats(0.1, 0.9),
        st.floats(-0.4, 0.4),
        st.floats(-0.4, 0.4),
        st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=200)
    def test_boundary_identity_general(self, r, ax, ay, theta):
        q = Semiquadric(complex(ax, ay), r)
        z = q.a + r * cmath.exp(1j * theta)
        assert abs(fiber_w(q, z) - z.conjugate()) < 1e-12

    @given(st.floats(0.1, 0.9), st.floats(0.0, 0.99), st.floats(0, 2 * math.pi))
    @settings(max_examples=200)
    def test_quadric_point_residual(self, r, frac, theta):
        q = Semiquadric(0.1 - 0.2j, r)
        z = q.a + frac * r * cmath.exp(1j * theta)
        w = fiber_w(q, z)
        point = QuadricPoint(z, w)
        assert point.residual(q) < 1e-10


class TestQuadricsIntersect:
    def test_named_examples(self):
        assert quadrics_intersect(Semiquadric(0, 0.5), Semiquadric(-0.2, 0.8)) is True
        assert quadrics_intersect(Semiquadric(0, 0.7), Semiquadric(-0.2, 0.8)) is False
        assert quadrics_intersect(Semiquadric(0, 0.5), Semiquadric(0, 0.9)) is False

    def test_identical_rejected(self):
        with pytest.raises(ParameterDomainError):
            quadrics_intersect(Semiquadric(0, 0.5), Semiquadric(0, 0.5))

    def test_pencil_family_disjoint_up_to_tangency_noise(self):
        # Any two pencil members are internally tangent at -1: in exact
        # arithmetic neither strictly surrounds the other, so the graphs are
        # disjoint.  The float test sits exactly on that boundary, so we
        # assert the exact-rational gap vanishes at ULP scale and that a True
        # from the criterion is never more than that tangency artifact.
        ts = np.linspace(-0.7, -0.05, 9)
        for i, t1 in enumerate(ts):
            for t2 in ts[i + 1 :]:
                q1, q2 = Semiquadric.pencil(float(t1)), Semiquadric.pencil(float(t2))
                gap = F(q2.r) - F(q1.r) - abs(F(q1.a.real) - F(q2.a.real))
                assert abs(gap) < F(1, 10**14)
                if quadrics_intersect(q1, q2):
                    assert abs(gap) < F(1, 10**15)

    def test_criterion_grid_exact(self):
        # The centered-vs-pencil criterion must match R < 2t + 1, evaluated
        # exactly in rational arithmetic over the same float grid.
        for i in range(19):
            R = 0.05 + 0.05 * i
            for j in range(10):
                t = -0.45 + 0.05 * j
                if t == 0.0:
                    continue  # same center: never intersects
                expected = F(R) < 2 * F(t) + 1
                got = quadrics_intersect(Semiquadric.centered(R), Semiquadric.pencil(t))
                assert got == expected, (R, t)


class TestFamilyIntersectionPoint:
    def test_reference_values(self):
        p = family_intersection_point(0.5, -0.2)
        assert p.z == pytest.approx(0.15693, abs=5e-6)
        assert p.w == pytest.approx(1.59307, abs=5e-6)
        assert (p.z * p.w) == pytest.approx(0.25, abs=1e-12)

    def test_positive_real_coordinates(self):
        p = family_intersection_point(0.5, -0.2)
        assert p.z.real > 0 and p.w.real > 0
        assert abs(p.z.imag) < 1e-10 and abs(p.w.imag) < 1e-10

    def test_boundary_has_no_intersection(self):
        with pytest.raises(NoIntersectionError):
            family_intersection_point(0.6, -0.2)

    def test_concentric_t_zero_rejected(self):
        with pytest.raises(NoIntersectionError):
            family_intersection_point(0.5, 0.0)

    @given(st.floats(-0.49, -0.01), st.floats(0.01, 0.99))
    @settings(max_examples=300)
    def test_both_equations_hold(self, t, frac):
        R = frac * (2 * t + 1)
        if R <= 1e-6:
            return
        p = family_intersection_point(R, t)
        assert abs(p.z * p.w - R**2) < 1e-10
        assert abs((p.z - t) * (p.w - t) - (t + 1) ** 2) < 1e-10 * (t + 1) ** 2
        assert p.z.real > 0 and p.w.real > 0
        assert abs(p.z.imag) < 1e-10 and abs(p.w.imag) < 1e-10

    @given(st.floats(-0.49, -0.01), st.floats(0.01, 0.99))
    @settings(max_examples=300)
    def test_closed_form_root_matches_np_roots(self, t, frac):
        R = frac * (2 * t + 1)
        if R <= 1e-6:
            return
        roots = [complex(z) for z in np.roots([t, 2 * t + 1 - R**2, t * R**2])]
        (expected,) = [z for z in roots if 0 < abs(z) < R and 0 < abs(z - t) < t + 1]
        assert abs(family_intersection_point(R, t).z - expected) <= 1e-13 * abs(expected)


class TestInvertPencilFiber:
    def test_named_values(self):
        assert invert_pencil_fiber(0.5j, 0.2 - 0.9j) == pytest.approx(-0.25, abs=1e-12)
        assert invert_pencil_fiber(0.5j, -2j) == pytest.approx(0.0, abs=1e-12)
        assert invert_pencil_fiber(0.5j, -0.5j) == pytest.approx(pencil_param(0.5j), abs=1e-12)

    def test_singular_denominator(self):
        z = 0.3j
        with pytest.raises(SingularFiberError):
            invert_pencil_fiber(z, -2.0 - z)

    def test_off_pencil_rejected(self):
        with pytest.raises(NotOnPencilError):
            invert_pencil_fiber(0.5j, 1.0 + 1.0j)

    @given(
        st.floats(-0.6, -0.05),
        st.floats(0.05, 0.95),
        st.floats(0.05, math.pi - 0.05),
    )
    @settings(max_examples=300)
    def test_roundtrip(self, t, frac, theta):
        q = Semiquadric.pencil(t)
        z = q.a + frac * q.r * cmath.exp(1j * theta)  # interior, Im z > 0
        w = fiber_w(q, z)
        assert invert_pencil_fiber(z, w) == pytest.approx(t, abs=1e-10)
