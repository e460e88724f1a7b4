import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morera.errors import ConfigError, DegenerateInputError, DomainError, ParameterDomainError
from morera.geometry import (
    Arc,
    Circle,
    PencilConfig,
    arc_lambda,
    in_admissible_region,
    pencil_circle,
    pencil_param,
    surrounds,
    tangent_circle,
)


def annulus_points(draw_r, draw_theta):
    """Hypothesis helper: z with |z| in draw_r bounds, angle anywhere."""
    return st.builds(
        lambda r, th: r * cmath.exp(1j * th),
        st.floats(*draw_r),
        st.floats(0.0, 2.0 * math.pi),
    )


nonreal_disc_points = st.builds(
    lambda r, th: r * cmath.exp(1j * th),
    st.floats(0.05, 0.999),
    st.floats(0.0, 2.0 * math.pi),
).filter(lambda z: abs(z.imag) > 1e-3)


class TestCircle:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ParameterDomainError):
            Circle(0.0, 0.0)
        with pytest.raises(ParameterDomainError):
            Circle(0.0, -1.0)

    def test_rejects_nonfinite_center(self):
        with pytest.raises(ParameterDomainError):
            Circle(complex(float("nan"), 0.0), 1.0)


class TestPencilCircle:
    def test_basic_member(self):
        c = pencil_circle(-0.7)
        assert c.center == -0.7 and c.radius == pytest.approx(0.3)

    def test_unit_circle_member(self):
        c = pencil_circle(0.0)
        assert c.center == 0.0 and c.radius == 1.0

    def test_passes_through_named_point(self):
        c = pencil_circle(-0.375)
        assert abs(0.5j - c.center) == pytest.approx(c.radius)  # 0.625

    def test_range_errors(self):
        with pytest.raises(ParameterDomainError):
            pencil_circle(0.1)
        with pytest.raises(ParameterDomainError):
            pencil_circle(-1.0)
        with pytest.raises(ParameterDomainError):
            pencil_circle(-0.8, tau=0.25)

    @given(st.floats(-0.999, 0.0))
    def test_every_member_through_minus_one(self, t):
        c = pencil_circle(t)
        assert abs(-1.0 - c.center) == c.radius  # exact: |-1 - t| = t + 1

    @given(st.floats(-0.999, 0.0))
    def test_member_inside_closed_disc(self, t):
        c = pencil_circle(t)
        assert abs(c.center) + c.radius <= 1.0 + 1e-15


class TestPencilParam:
    def test_named_values(self):
        assert pencil_param(0.5j) == pytest.approx(-0.375, abs=1e-15)
        assert pencil_param(1j) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_at_minus_one(self):
        with pytest.raises(DegenerateInputError):
            pencil_param(-1.0)

    def test_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            pencil_param(1.5)

    @given(nonreal_disc_points)
    @settings(max_examples=200)
    def test_defining_identity(self, z):
        t = pencil_param(z)
        assert abs(abs(z - t) - (t + 1.0)) < 1e-12

    @given(nonreal_disc_points)
    def test_roundtrip_with_circle(self, z):
        t = pencil_param(z)
        if t > -1.0 + 1e-9:
            c = pencil_circle(t)
            assert c.boundary_distance(z) < 1e-12


class TestTangentCircle:
    def test_half_i_example(self):
        c = tangent_circle(0.5j)
        assert c.center == pytest.approx(-1 - 1.25j)
        assert c.radius == pytest.approx(1.25)
        assert abs(-0.5j - c.center) == pytest.approx(1.25)
        assert abs(-2j - c.center) == pytest.approx(1.25)

    def test_i_example(self):
        c = tangent_circle(1j)
        assert c.center == pytest.approx(-1 - 1j)
        assert c.radius == pytest.approx(1.0)

    def test_real_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            tangent_circle(0.3)

    @given(nonreal_disc_points)
    @settings(max_examples=300)
    def test_three_point_incidence(self, z):
        c = tangent_circle(z)
        assert c.center.real == -1.0  # exact by construction
        for point in (z.conjugate(), 1.0 / z, -1.0):
            assert c.boundary_distance(point) <= 1e-12 * max(1.0, c.radius)

    @given(nonreal_disc_points)
    def test_tangency_at_minus_one(self, z):
        # Center sits on the vertical line through -1, at distance exactly
        # one radius: the circle touches the real axis at -1.
        c = tangent_circle(z)
        assert abs(abs(c.center.imag) - c.radius) <= 1e-15 * c.radius


class TestArcLambda:
    def test_endpoints_and_east_point(self):
        arc = arc_lambda(0.5j)
        ends = {round(arc.start.imag, 9), round(arc.end.imag, 9)}
        assert ends == {-0.5, -2.0}
        # the point at angle 0 from the center lies on this arc
        east = arc.circle.center + arc.circle.radius
        assert east == pytest.approx(0.25 - 1.25j)
        assert arc.angle_start < 0.0 < arc.angle_end

    def test_pencil_sweep_point_on_arc(self):
        # w(-0.25) for z = 0.5i lies on the arc
        z = 0.5j
        t = -0.25
        w = ((z + 2) * t + 1) / (z - t)
        assert w == pytest.approx(0.2 - 0.9j)
        arc = arc_lambda(z)
        assert arc.circle.boundary_distance(w) < 1e-12

    def test_near_boundary_arc_shrinks(self):
        arc = arc_lambda(0.9999j)
        assert abs(arc.start - arc.end) < 3e-4

    def test_unit_modulus_rejected(self):
        with pytest.raises(DegenerateInputError):
            arc_lambda(cmath.exp(0.3j))

    @given(nonreal_disc_points)
    @settings(max_examples=200)
    def test_minus_one_never_on_arc(self, z):
        arc = arc_lambda(z)
        thetas = np.linspace(arc.angle_start, arc.angle_end, 257)
        pts = arc.circle.center + arc.circle.radius * np.exp(1j * thetas)
        assert np.abs(pts + 1.0).min() > 1e-12

    @pytest.mark.parametrize("tau", [0.0, -1.0, 0.5, 0.9])
    def test_tau_outside_open_half_interval_rejected(self, tau):
        # For tau = 0 and -1 this z is admissible: only the check on tau rejects it.
        with pytest.raises(ConfigError, match="tau must lie in"):
            arc_lambda(-0.9 + 0.05j, tau=tau)

    def test_tau_checks_admissibility(self):
        assert arc_lambda(0.5j, tau=0.25) == arc_lambda(0.5j)
        with pytest.raises(DomainError):
            arc_lambda(-0.9 + 0.05j, tau=0.25)

    @given(nonreal_disc_points)
    def test_arc_is_counterclockwise(self, z):
        arc = arc_lambda(z)
        assert arc.direction == 1
        assert arc.angle_end > arc.angle_start


class TestSurrounds:
    def test_examples(self):
        assert surrounds(Circle(0, 0.5), Circle(-0.2, 0.8)) is True
        assert surrounds(Circle(0, 0.5), Circle(-0.7, 0.3)) is False
        c = Circle(0, 0.5)
        assert surrounds(c, c) is False  # strict, never itself

    def test_equal_circles_with_tolerance_still_false(self):
        c = Circle(0.1 + 0.2j, 0.4)
        assert surrounds(c, c, tangency_tol=1e-9) is False

    @given(st.floats(-0.74, -0.01), st.floats(-0.74, -0.01))
    @settings(max_examples=200)
    def test_pencil_nesting_declared_by_parameter(self, t1, t2):
        # All pencil members touch at -1; the family is ordered by t, with
        # internal tangency counting as nested.  Parameters whose radii
        # t + 1 round to the same float (t = -0.01 against one ulp below)
        # give discs that are not nested in floating point, so they are not
        # ordered by t.
        assume(t1 + 1.0 != t2 + 1.0)
        lo, hi = min(t1, t2), max(t1, t2)
        assert surrounds(pencil_circle(lo), pencil_circle(hi), tangency_tol=1e-12) is True
        assert surrounds(pencil_circle(hi), pencil_circle(lo), tangency_tol=1e-12) is False

    def test_external_tangency_never_nested(self):
        assert surrounds(Circle(0, 0.5), Circle(1.0, 0.5), tangency_tol=1e-9) is False


class TestAdmissibleRegion:
    def test_members_and_nonmembers(self):
        assert in_admissible_region(0.5j)
        assert in_admissible_region(-0.3)  # real negative, outside [0, 1]
        assert not in_admissible_region(0.5)  # on [0, 1]
        assert not in_admissible_region(-0.75, tau=0.25)  # inside excluded disc
        assert not in_admissible_region(1.2)  # outside the disc
        assert not in_admissible_region(-0.75 + 0.25j, tau=0.25)  # on excluded boundary circle? strictly outside required
        assert in_admissible_region(-0.75 + 0.26j, tau=0.25)

    @given(nonreal_disc_points)
    def test_admissible_iff_pencil_param_in_range(self, z):
        tau = 0.25
        if in_admissible_region(z, tau):
            assert pencil_param(z) > -1.0 + tau - 1e-12


class TestPencilConfigAndFrame:
    def test_rejects_off_circle_point(self):
        with pytest.raises(ConfigError):
            PencilConfig(0.5 + 0.1j, 0.25)

    @pytest.mark.parametrize("tau", [-1.0, 0.0, 0.5, 0.9])
    def test_rejects_tau_outside_open_half_interval(self, tau):
        with pytest.raises(ConfigError, match="tau must lie in"):
            PencilConfig(-1.0, tau)

    def test_accepts_tau_inside(self):
        assert PencilConfig(-1.0, 0.25).tau == 0.25


class TestArcType:
    def test_requires_positive_length(self):
        c = Circle(0, 1.0)
        with pytest.raises(ParameterDomainError):
            Arc(c, 0.3, 0.3, +1)
        with pytest.raises(ParameterDomainError):
            Arc(c, 0.3, 0.2, +1)  # wrong direction for ccw
