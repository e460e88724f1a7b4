"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, and each criterion carries its runtime
budget.  Run with plain ``pytest``; the per-criterion lines are printed
outside pytest's capture so they are always visible.
"""

import cmath
import contextlib
import time
from fractions import Fraction

import numpy as np
import pytest

from morera.analysis import (
    CLASS_CONSISTENT,
    CLASS_INCONSISTENT,
    CLASS_MORERA_FAILURE,
    FamilyConfig,
    PipelineConfig,
    validate_families,
    verdict,
)
from morera.errors import ParseError
from morera.extension import analyze_circle, analyze_trace, sample_circle
from morera.exprparser import compile_function, parse, to_source
from morera.fiber import cauchy_transform, fiber_curve, fiber_integral, region_contains
from morera.funczoo import builtin, counterexample_pole
from morera.geometry import Circle, in_admissible_region, pencil_circle, pencil_param, tangent_circle
from morera.semiquadric import Semiquadric, family_intersection_point, quadrics_intersect


@pytest.fixture
def criterion(capsys):
    """Context manager printing '[acceptance N] name: PASS/FAIL (time)'."""

    @contextlib.contextmanager
    def _criterion(number, name, budget_seconds):
        start = time.perf_counter()
        failed = False
        try:
            yield
        except BaseException:
            failed = True
            raise
        finally:
            elapsed = time.perf_counter() - start
            over = elapsed >= budget_seconds
            status = "FAIL" if (failed or over) else "PASS"
            with capsys.disabled():
                print(
                    f"[acceptance {number:2d}] {name}: {status} "
                    f"({elapsed:.2f}s, budget {budget_seconds:g}s)"
                )
        assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"

    return _criterion


def test_criterion_1_geometry_suite(criterion):
    with criterion(1, "tangent-circle and pencil geometry, 1000 random points", 1.0):
        rng = np.random.default_rng(101)
        count = 0
        while count < 1000:
            z = complex(rng.uniform(-0.99, 0.99), rng.uniform(-0.99, 0.99))
            if not (0.05 <= abs(z) <= 0.99) or abs(z.imag) <= 1e-3:
                continue
            count += 1
            c = tangent_circle(z)
            assert c.center.real == -1.0  # exact
            for point in (z.conjugate(), 1.0 / z, -1.0):
                assert c.boundary_distance(point) < 1e-10
            t = pencil_param(z)
            assert abs(abs(z - t) - (t + 1.0)) < 1e-12


def test_criterion_2_fourier_oracle_equivalence(criterion):
    with criterion(2, "FFT analysis vs direct O(N^2) Fourier sums", 5.0):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.choice([8, 16, 32]))
            center = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            radius = float(rng.uniform(0.1, 1.0 - abs(center)))
            degree = int(rng.integers(0, 5))
            holo = rng.standard_normal((degree + 1, 2)) @ np.array([1.0, 1j])
            anti = rng.standard_normal((degree + 1, 2)) @ np.array([1.0, 1j])

            def f(z):
                zc = np.asarray(z, dtype=complex) - center
                out = np.zeros_like(zc)
                for k in range(degree + 1):
                    out = out + holo[k] * zc**k + anti[k] * np.conj(zc) ** k
                return out

            trace = sample_circle(f, Circle(center, radius), n)
            fast = analyze_trace(trace).coefficients
            theta = 2.0 * np.pi * np.arange(n) / n
            ks = np.arange(-(n // 2), n // 2)
            slow = np.array([np.sum(trace.values * np.exp(-1j * k * theta)) / n for k in ks])
            assert np.abs(fast - slow).max() < 1e-12


def test_criterion_3_intersection_criterion(criterion):
    with criterion(3, "semiquadric intersection matches R < 2t+1; intersection point", 1.0):
        # 19 x 10 decimal grid, compared against the exact-rational predicate.
        for i in range(19):
            R = 0.05 + 0.05 * i
            for j in range(10):
                t = -0.45 + 0.05 * j
                if t == 0.0:
                    continue  # concentric graphs never meet
                expected = Fraction(R) < 2 * Fraction(t) + 1
                got = quadrics_intersect(Semiquadric.centered(R), Semiquadric.pencil(t))
                assert got == expected, (R, t)
        # intersection point: both defining equations to 1e-10, coordinates
        # real and positive
        for t in np.linspace(-0.45, -0.05, 9):
            for frac in (0.25, 0.5, 0.9):
                t = float(t)
                R = frac * (2.0 * t + 1.0)
                if R <= 0.01:
                    continue
                p = family_intersection_point(R, t)
                assert abs(p.z * p.w - R * R) < 1e-10
                assert abs((p.z - t) * (p.w - t) - (t + 1.0) ** 2) < 1e-10
                assert p.z.real > 0 and p.w.real > 0
                assert abs(p.z.imag) < 1e-10 and abs(p.w.imag) < 1e-10


def _acceptance_base_points(count=20, seed=404):
    """Deterministic admissible base points whose regions are thick enough to
    hold interior probes at distance > 0.05 from the curve."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        z = complex(rng.uniform(-0.75, 0.75), rng.uniform(-0.75, 0.75))
        if not (0.3 <= abs(z) <= 0.75) or abs(z.imag) < 0.15:
            continue
        if not in_admissible_region(z):
            continue
        curve = fiber_curve(z)
        pts = np.concatenate([p for _, _, p in curve.polyline(96)])
        probe = complex(pts.mean())
        if curve.distance(probe) <= 0.06:
            continue
        if not region_contains(curve, probe):
            continue
        points.append((z, probe))
    return points


def _outside_grid(curve, count=50):
    """Deterministic points outside the closed region, off the curve."""
    re_min, re_max, im_min, im_max = curve.bounds
    pad = 0.6 * curve.diameter
    xs = np.linspace(re_min - pad, re_max + pad, 12)
    ys = np.linspace(im_min - pad, im_max + pad, 12)
    out = []
    for y in ys:
        for x in xs:
            W = complex(x, y)
            if curve.distance(W) <= 0.05:
                continue
            if region_contains(curve, W):
                continue
            out.append(W)
            if len(out) == count:
                return out
    raise AssertionError("could not build the outside W-grid")


def test_criterion_4_theta_dichotomy(criterion):
    with criterion(4, "Cauchy transform vanishes outside, reproduces inside", 30.0):
        functions = [builtin(name) for name in ("poly3", "expz", "rational")]
        base_points = _acceptance_base_points()
        for entry in functions:
            for z, probe in base_points:
                curve = fiber_curve(z)
                for W in _outside_grid(curve, 50):
                    assert abs(cauchy_transform(entry.oracle, z, W, nodes=512)) < 1e-6
                inside = cauchy_transform(entry.oracle, z, probe, nodes=512)
                assert abs(inside - entry.oracle(z)) < 1e-6


def test_criterion_5_fiber_integral_holomorphy(criterion):
    with criterion(5, "finite-difference d/d(conj z) of the fiber integral", 30.0):
        center = -0.15 + 0.55j
        h = 0.02
        offsets = np.arange(-4, 5)
        for name in ("expz", "counterexample"):
            f = builtin(name).oracle
            grid = np.empty((9, 9), dtype=complex)
            for iy, dy in enumerate(offsets):
                for ix, dx in enumerate(offsets):
                    z = center + h * (dx + 1j * dy)
                    assert in_admissible_region(z)
                    grid[iy, ix] = fiber_integral(f, z, nodes=128)
            dbar = (
                (grid[1:-1, 2:] - grid[1:-1, :-2]) + 1j * (grid[2:, 1:-1] - grid[:-2, 1:-1])
            ) / (4.0 * h)
            assert np.abs(dbar).max() < 1e-4, name


def test_criterion_6_pipeline_positive(criterion):
    with criterion(6, "verdict holomorphic-consistent for holomorphic members", 60.0):
        config = PipelineConfig(tau=0.25, circles_per_family=32)
        for name in ("poly3", "expz", "rational"):
            v = verdict(builtin(name).oracle, config)
            assert v.classification == CLASS_CONSISTENT, name
            assert v.cross_residual < 1e-6
            assert len(v.cross_t_values) == 8
            assert all(-0.5 < T < 0.0 for T in v.cross_t_values)


def test_criterion_7_counterexample_negative(criterion):
    with criterion(7, "verdict morera-failure for z^2/conj(z)", 10.0):
        v = verdict(builtin("counterexample").oracle, PipelineConfig(tau=0.25))
        assert v.classification == CLASS_MORERA_FAILURE
        failing = [c for rep in v.families for c in rep.failing]
        assert failing and all(c.parameter < -0.5 for c in failing)
        data = analyze_circle(builtin("counterexample").oracle, pencil_circle(-0.7), 256)
        assert data.tail_energy_negative > 1e-2
        pole = counterexample_pole(-0.7, 0.3)
        assert abs(pole - (-0.7)) < 0.3  # strictly inside by the closed form


def test_criterion_8_sharpness_demo(criterion):
    with criterion(8, "floored families all pass while dbar residual is 1", 20.0):
        config = PipelineConfig(r_min=0.6, t_min=-0.4)
        v = verdict(builtin("counterexample").oracle, config)
        assert v.classification == CLASS_INCONSISTENT
        assert not v.hypotheses_valid
        for rep in v.families:
            assert rep.passes
            for c in rep.circles:
                assert c.negative_energy < 1e-8
        assert 0.9 <= v.dbar_value <= 1.1


def test_criterion_9_family_validation(criterion):
    with criterion(9, "smallest-circle disjointness matches closed forms", 1.0):
        # single pencil: valid iff r < 1 - 2*rho (decimal tangency ties are
        # knife-edge for any float evaluation and are skipped)
        for i in range(19):
            r = 0.05 + 0.05 * i
            for j in range(9):
                rho = 0.05 + 0.05 * j
                if abs(r - (1.0 - 2.0 * rho)) < 1e-9:
                    continue
                ok = validate_families(
                    FamilyConfig("centered", r, 1.0), FamilyConfig("pencil", rho - 1.0, 0.0, 8)
                )
                assert ok == (r < 1.0 - 2.0 * rho), (r, rho)
        # two pencils at -1 and +1: valid iff rho1 + rho2 < 1
        for i in range(9):
            rho1 = 0.05 + 0.05 * i
            for j in range(9):
                rho2 = 0.05 + 0.05 * j
                if abs(rho1 + rho2 - 1.0) < 1e-9:
                    continue
                left = FamilyConfig("pencil", rho1 - 1.0, 0.0, 8, p=-1.0 + 0j)
                right = FamilyConfig("pencil", rho2 - 1.0, 0.0, 8, p=1.0 + 0j)
                assert validate_families(left, right) == (rho1 + rho2 < 1.0), (rho1, rho2)


ACCEPTANCE_VALID_EXPRESSIONS = [
    "z",
    "zbar",
    "i",
    "-z",
    "z + 1",
    "z - 1",
    "2*z",
    "z/2",
    "z^2",
    "z^-2",
    "z^2^3",
    "-z^2",
    "z^2 / conj(z)",
    "exp(z) + 3.5i",
    "sin(z)*cos(z)",
    "log(z + 2)",
    "sqrt(z + 4)",
    "abs(z)",
    "re(z) + im(z)*i",
    "conj(z)^3",
    "(z + 1)*(z - 1)",
    "z*(1 - z)",
    "1/(z - 2)",
    "0.5*z^3 - 2.25",
    ".5 + z",
    "2.*z",
    "z - -1",
    "-(z + i)",
    "z^2*zbar",
    "((z))",
    "1 + 2 - 3 + z",
    "2/3/z",
    "z*i - i*z",
    "exp(-z^2)",
    "conj(conj(z))",
    "im(conj(z))",
    "re(z^2)",
    "abs(z - 0.5)",
    "z^3 - 2",
    "3.25i",
    "z/ (z - 1.5)",
    "cos(0.5*z)",
    "sin(z + i)",
    "z^2 - zbar^2",
    "sqrt(abs(z))",
    "z*z*z",
    "-1.5i + z",
    "(z^2)^3",
    "z^(2 + 1)",
    "1.25 - z^4",
]

ACCEPTANCE_MALFORMED = [
    "z +* 2",
    "z +",
    "(z",
    "z)",
    "conj(z",
    "conj z",
    "2 **",
    "sin()",
    "",
    "@",
    "z z",
    "1..2",
    "foo(z)",
    "z ^",
    "exp(z,z)",
    "3i4",
    ")z(",
    "z / ",
    "zbar(",
    "--",
]


def test_criterion_10_parser_suite(criterion):
    with criterion(10, "expression round-trips, positioned errors, eval oracle", 1.0):
        assert len(ACCEPTANCE_VALID_EXPRESSIONS) >= 50
        for text in ACCEPTANCE_VALID_EXPRESSIONS:
            node = parse(text)
            assert parse(to_source(node)) == node, text
        assert len(ACCEPTANCE_MALFORMED) >= 20
        for text in ACCEPTANCE_MALFORMED:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert 0 <= err.value.offset <= len(text)
        oracles = [
            ("z^3 - 2", lambda z: z**3 - 2),
            ("exp(z)", cmath.exp),
            ("1/(z - 2)", lambda z: 1 / (z - 2)),
            ("z^2/conj(z)", lambda z: z**2 / z.conjugate()),
            ("sin(z)*cos(z)", lambda z: cmath.sin(z) * cmath.cos(z)),
            ("abs(z)^2 + re(z)", lambda z: complex(abs(z) ** 2 + z.real)),
        ]
        rng = np.random.default_rng(1010)
        points = [complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)) for _ in range(100)]
        for text, oracle in oracles:
            f = compile_function(parse(text))
            for z in points:
                if abs(z) < 1e-3:
                    continue
                assert abs(f(z) - oracle(z)) <= 1e-14 * max(1.0, abs(oracle(z))), text
