import warnings

import numpy as np
import pytest

from morera.analysis import FamilyConfig
from morera.errors import UnknownFunctionError
from morera.extension import analyze_circle, evaluate_extension, extension_test
from morera.funczoo import builtin, builtin_names, counterexample_pole
from morera.geometry import Circle


class TestRegistry:
    def test_names(self):
        assert builtin_names() == sorted(
            ["poly3", "expz", "rational", "counterexample", "conjugate", "absq", "radial-smooth"]
        )

    def test_unknown_name(self):
        with pytest.raises(UnknownFunctionError):
            builtin("nosuch")

    def test_counterexample_values(self):
        f = builtin("counterexample").oracle
        assert f(0.5j) == pytest.approx(-0.5j)  # (0.5i)^3 / 0.25
        assert f(0.0) == 0.0
        assert f(0.6) == pytest.approx(0.6)

    def test_oracles_accept_arrays(self):
        zs = np.array([0.1 + 0.2j, -0.3j, 0.0])
        for name in builtin_names():
            values = builtin(name).oracle(zs)
            assert values.shape == zs.shape
            assert np.isfinite(values).all()

    @pytest.mark.parametrize("name", builtin_names())
    def test_poles_and_overflows_raise_no_warning(self, name):
        # Each builtin's pole (rational at 2, counterexample and radial-smooth
        # at 0 and 1) or overflow (exp at 800, a cube at 1e120, a square at 1e200):
        # inf or NaN, left for the sampling layer to report, and no warning.
        zs = np.array([0.0, 1.0, 2.0, 800.0, 1e120, 1e200, 1e200j, -1e200])
        f = builtin(name).oracle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = f(zs)
            scalars = [f(complex(z)) for z in zs]
        assert np.array_equal(values, scalars, equal_nan=True)

    def test_radial_smooth_continuous_at_boundary(self):
        f = builtin("radial-smooth").oracle
        assert f(1.0) == 0.0
        assert abs(f(0.9999)) < 1e-8
        assert f(0.0) == pytest.approx(np.exp(-1.0))


class TestCounterexamplePole:
    def test_small_pencil_circle(self):
        pole = counterexample_pole(-0.7, 0.3)
        assert pole == pytest.approx(-0.7 + 0.09 / 0.7)
        assert abs(pole - (-0.7)) < 0.3  # strictly inside: no extension

    def test_origin_inside(self):
        pole = counterexample_pole(-0.4, 0.6)
        assert abs(pole - (-0.4)) == pytest.approx(0.9)
        assert abs(pole - (-0.4)) > 0.6  # outside: extension exists

    def test_centered_circle_is_entire(self):
        assert counterexample_pole(0.0, 0.5) is None


class TestGroundTruthAgainstMoreraTest:
    @pytest.mark.parametrize("name", ["poly3", "expz", "rational", "counterexample", "conjugate", "absq", "radial-smooth"])
    def test_extension_test_matches_closed_form_predicate(self, name):
        entry = builtin(name)
        centered = FamilyConfig("centered", 0.05, 1.0, 8)
        pencil = FamilyConfig("pencil", -0.75, 0.0, 8)
        for config in (centered, pencil):
            for param in config.parameters():
                circle = config.circle(param)
                result = extension_test(analyze_circle(entry.oracle, circle, 256))
                assert result.passes == entry.extendable_from(circle), (name, circle)

    def test_counterexample_predicate_is_pole_location(self):
        entry = builtin("counterexample")
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            r = rng.uniform(0.05, 1.0 - abs(a))
            pole = counterexample_pole(a, r)
            expected = True if pole is None else abs(pole - a) >= r
            assert entry.extendable_from(Circle(a, r)) == expected

    def test_closed_form_extensions_match_numerics(self):
        rng = np.random.default_rng(11)
        circles = [Circle(0.0, 0.5), Circle(-0.3, 0.5), Circle(0.2 + 0.1j, 0.6), Circle(0.25, 0.25)]
        for name in builtin_names():
            entry = builtin(name)
            for circle in circles:
                closed = entry.extension_for(circle)
                if closed is None:
                    continue
                data = analyze_circle(entry.oracle, circle, 256)
                result = extension_test(data)
                assert result.passes
                for _ in range(20):
                    zeta = circle.center + circle.radius * rng.uniform(0, 0.95) * np.exp(
                        2j * np.pi * rng.uniform(0, 1)
                    )
                    assert evaluate_extension(data, zeta, result) == pytest.approx(
                        complex(closed.fn(zeta)), abs=1e-8
                    ), (name, circle)

    def test_boundary_circle_through_origin_flagged(self):
        entry = builtin("counterexample")
        closed = entry.extension_for(Circle(0.25, 0.25))
        assert closed is not None and closed.boundary_case
        # simplified form z (z - a) / conj(a) is entire and matches the trace
        data = analyze_circle(entry.oracle, Circle(0.25, 0.25), 256)
        assert extension_test(data).passes
