import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morera import extension
from morera.analysis import FamilyConfig, dumps_report
from morera.analysis import test_family as sweep_family
from morera.cli import main, parse_point
from morera.errors import (
    DomainError,
    InvalidStateError,
    ParameterDomainError,
    SamplingError,
)
from morera.exprparser import compile_function, parse
from morera.extension import (
    MAX_SAMPLES,
    analyze_batch,
    analyze_circle,
    analyze_trace,
    analyze_with_refinement,
    evaluate_extension,
    extension_test,
    sample_circle,
)
from morera.funczoo import builtin, builtin_names, holomorphic_members
from morera.geometry import Circle, pencil_circle

RNG = np.random.default_rng(20240811)


def reference_refinement(f, circle, tol=1e-8, n0=256, n_max=MAX_SAMPLES):
    """Scalar refinement loop: analyse one circle at N, 2N, ... while it aliases.

    The independent oracle for :func:`analyze_batch` and its one-row wrapper
    :func:`analyze_with_refinement`.
    """
    n = n0
    while True:
        data = analyze_circle(f, circle, n)
        result = extension_test(data, tol)
        if not result.aliasing_flag or n >= n_max:
            return data, result, result.aliasing_flag
        n *= 2


def reference_horner(data, zeta):
    """Scalar Horner sum of the nonnegative-frequency series of ``data`` at ``zeta``."""
    u = (complex(zeta) - data.circle.center) / data.circle.radius
    acc = 0j
    for c in data.coefficients[data.sample_count // 2 :][::-1]:
        acc = acc * u + c
    return complex(acc)


def direct_dft(values):
    """O(N^2) Fourier sum, the independent oracle for analyze_circle."""
    n = len(values)
    ks = np.arange(-(n // 2), n // 2)
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.array([np.sum(values * np.exp(-1j * k * theta)) / n for k in ks])


class TestAnalyzeCircle:
    def test_monomial(self):
        data = analyze_circle(lambda z: z**2, Circle(0, 1.0), 16)
        assert data.coefficient(2) == pytest.approx(1.0, abs=1e-14)
        others = [data.coefficient(k) for k in data.k_values if k != 2]
        assert max(abs(c) for c in others) < 1e-14

    def test_conjugate(self):
        data = analyze_circle(np.conj, Circle(0, 1.0), 16)
        assert data.coefficient(-1) == pytest.approx(1.0, abs=1e-14)
        assert data.tail_energy_negative == pytest.approx(1.0, abs=1e-14)

    def test_counterexample_small_circle(self):
        f = builtin("counterexample").oracle
        data = analyze_circle(f, Circle(0, 0.5), 16)
        assert data.coefficient(3) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sampling_error_carries_theta(self):
        def f(z):
            if isinstance(z, np.ndarray):
                raise TypeError  # force the scalar path
            return 1.0 / (z - 0.5)  # pole on the circle at theta = 0

        with pytest.raises(SamplingError) as err:
            sample_circle(f, Circle(0, 0.5), 16)
        assert err.value.theta == pytest.approx(0.0)

    def test_bad_sample_count(self):
        with pytest.raises(ParameterDomainError):
            analyze_circle(lambda z: z, Circle(0, 1.0), 24)

    def test_parseval(self):
        f = builtin("expz").oracle
        trace = sample_circle(f, Circle(0.1 + 0.2j, 0.6), 64)
        data = analyze_trace(trace)
        mean_square = float(np.mean(np.abs(trace.values) ** 2))
        assert data.total_energy == pytest.approx(mean_square, rel=1e-10)

    @given(st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_dft(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([8, 16, 32]))
        center = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        radius = rng.uniform(0.1, 0.5)
        degree = int(rng.integers(0, 4))
        coeffs = rng.standard_normal((degree + 1, 2)) @ np.array([1.0, 1j])

        def f(z):
            zc = z - center
            return sum(c * zc**k + c.conjugate() * np.conj(zc) ** k for k, c in enumerate(coeffs))

        trace = sample_circle(f, Circle(center, radius), n)
        fast = analyze_trace(trace).coefficients
        slow = direct_dft(trace.values)
        assert np.abs(fast - slow).max() < 1e-12

    def test_rotation_leaves_magnitudes(self):
        # Rotating the parametrization start angle permutes the samples and
        # multiplies c_k by a unit phase: |c_k| must not move.
        f = builtin("rational").oracle
        circle = Circle(0.2 - 0.1j, 0.7)
        n = 64
        shift = cmath.exp(2j * math.pi * 5 / n)
        data = analyze_circle(f, circle, n)
        rotated = analyze_circle(lambda z: f(circle.center + (z - circle.center) * shift), circle, n)
        assert np.abs(np.abs(data.coefficients) - np.abs(rotated.coefficients)).max() < 1e-12


class TestExtensionTest:
    def test_pass_and_fail(self):
        ok = extension_test(analyze_circle(lambda z: z**2, Circle(0, 1.0), 256))
        assert ok.passes and not ok.aliasing_flag
        bad = extension_test(analyze_circle(np.conj, Circle(0, 1.0), 256))
        assert not bad.passes
        assert bad.negative_energy == pytest.approx(1.0, abs=1e-12)

    def test_result_invariant(self):
        data = analyze_circle(np.conj, Circle(0, 1.0), 64)
        r = extension_test(data)
        assert r.passes == (r.negative_energy <= r.threshold_used and not r.aliasing_flag)

    def test_counterexample_fails_small_pencil_circle(self):
        f = builtin("counterexample").oracle
        data = analyze_circle(f, pencil_circle(-0.7), 256)
        result = extension_test(data)
        assert not result.passes
        assert data.tail_energy_negative > 1e-2
        # closed-form pole strictly inside: |z_p - a| = r^2/|a| < r
        from morera.funczoo import counterexample_pole

        pole = counterexample_pole(-0.7, 0.3)
        assert abs(pole - (-0.7)) == pytest.approx(0.09 / 0.7)
        assert abs(pole - (-0.7)) < 0.3

    def test_zero_function_passes(self):
        data = analyze_circle(lambda z: 0.0, Circle(0, 0.5), 16)
        assert extension_test(data).passes

    def test_holomorphic_negative_energy_tiny(self):
        rng = np.random.default_rng(7)
        for entry in holomorphic_members():
            for _ in range(5):
                center = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                radius = rng.uniform(0.05, 1.0 - abs(center))
                data = analyze_circle(entry.oracle, Circle(center, radius), 256)
                assert data.tail_energy_negative < 1e-20

    def test_aliasing_guard_and_refinement(self):
        f = lambda z: z**20
        data = analyze_circle(f, Circle(0, 1.0), 16)
        assert extension_test(data).aliasing_flag  # k=20 folds onto k=4
        data2, result2, inconclusive = analyze_with_refinement(f, Circle(0, 1.0), n0=16)
        assert result2.passes and not inconclusive
        assert data2.sample_count >= 64

    def test_refinement_cap_reports_inconclusive(self):
        f = lambda z: np.exp(1.0 / (z - 1.001))  # wild near the circle
        _, _, inconclusive = analyze_with_refinement(f, Circle(0, 1.0), n0=16, n_max=32)
        assert inconclusive


class TestEvaluateExtension:
    def test_square(self):
        data = analyze_circle(lambda z: z * z, Circle(0, 1.0), 256)
        assert evaluate_extension(data, 0.3 + 0.4j) == pytest.approx(-0.07 + 0.24j, abs=1e-12)

    def test_counterexample_closed_form(self):
        f = builtin("counterexample").oracle
        data = analyze_circle(f, Circle(0, 0.5), 64)
        assert evaluate_extension(data, 0.2) == pytest.approx(0.032, abs=1e-12)

    def test_constant_reproduces_mean_value(self):
        data = analyze_circle(lambda z: 3.5 - 1.25j, Circle(0.3j, 0.4), 32)
        assert evaluate_extension(data, 0.3j + 0.1) == pytest.approx(3.5 - 1.25j, abs=1e-12)

    def test_outside_disc_rejected(self):
        data = analyze_circle(lambda z: z, Circle(0, 0.5), 32)
        with pytest.raises(DomainError):
            evaluate_extension(data, 0.7)

    def test_failing_data_rejected(self):
        data = analyze_circle(np.conj, Circle(0, 1.0), 32)
        with pytest.raises(InvalidStateError):
            evaluate_extension(data, 0.1)

    def test_boundary_reproduces_trace(self):
        f = builtin("expz").oracle
        circle = Circle(0.1, 0.5)
        trace = sample_circle(f, circle, 128)
        data = analyze_trace(trace)
        for j in (0, 17, 64):
            zeta = circle.center + circle.radius * cmath.exp(2j * math.pi * j / 128)
            assert evaluate_extension(data, zeta) == pytest.approx(complex(trace.values[j]), abs=1e-12)

    def test_maximum_principle_surrogate(self):
        f = builtin("rational").oracle
        circle = Circle(-0.2 + 0.1j, 0.6)
        trace = sample_circle(f, circle, 256)
        data = analyze_trace(trace)
        bound = float(np.abs(trace.values).max()) + math.sqrt(data.tail_energy_negative) + 1e-10
        rng = np.random.default_rng(3)
        for _ in range(50):
            zeta = circle.center + circle.radius * rng.uniform(0, 1) * cmath.exp(
                2j * math.pi * rng.uniform(0, 1)
            )
            assert abs(evaluate_extension(data, zeta)) <= bound


def _power100(z):
    return np.asarray(z, dtype=complex) ** 100


def _exp40(z):
    return np.exp(40.0 * np.asarray(z, dtype=complex))


# Centered and pencil rows, interleaved; z^100 and exp(40z) refine on most.
BATCH_CIRCLES = [
    Circle(0, 0.1),
    pencil_circle(-0.7),
    Circle(0, 0.45),
    pencil_circle(-0.4),
    Circle(0, 0.8),
    pencil_circle(-0.1),
    Circle(0, 1.0),
    pencil_circle(0.0),
]
BATCH_ORACLES = [builtin(name).oracle for name in builtin_names()] + [_power100, _exp40]


class TestAnalyzeBatch:
    @pytest.mark.parametrize("n0, n_max", [(256, MAX_SAMPLES), (64, 512), (256, 256)])
    @pytest.mark.parametrize("f", BATCH_ORACLES, ids=lambda f: getattr(f, "__name__", "f"))
    def test_rows_match_reference(self, f, n0, n_max):
        centers = [c.center for c in BATCH_CIRCLES]
        radii = [c.radius for c in BATCH_CIRCLES]
        batch = analyze_batch(f, centers, radii, 1e-8, n0, n_max)
        for i, circle in enumerate(BATCH_CIRCLES):
            data, result, inconclusive = reference_refinement(f, circle, 1e-8, n0, n_max)
            assert batch.samples[i] == data.sample_count, i
            assert batch.passes[i] == result.passes, i
            assert batch.aliasing[i] == result.aliasing_flag, i
            assert batch.inconclusive[i] == inconclusive, i
            for got, want in (
                (batch.negative_energy[i], data.tail_energy_negative),
                (batch.total_energy[i], data.total_energy),
            ):
                assert abs(got - want) <= max(1e-12 * abs(want), 1e-30), i
            if result.passes:
                zeta = circle.center + 0.6 * circle.radius * cmath.exp(0.7j)
                value = batch.evaluate(np.array([zeta]), [i])[0]
                assert value == pytest.approx(reference_horner(data, zeta), rel=1e-12, abs=1e-12)

    def test_refines_and_caps(self):
        # z^100 aliases at 256 samples on the unit circle and passes at 512;
        # capped at 256 it is inconclusive.
        refined = analyze_batch(_power100, [0, 0], [0.1, 1.0])
        assert list(refined.samples) == [256, 512]
        assert refined.passes.all() and not refined.inconclusive.any()
        assert [len(rows) for rows, _ in refined.groups] == [1, 1]
        capped = analyze_batch(_power100, [0, 0], [0.1, 1.0], n_max=256)
        assert list(capped.inconclusive) == [False, True]
        assert list(capped.passes) == [True, False]

    def test_evaluate_per_row_probes(self):
        f = builtin("rational").oracle
        batch = analyze_batch(f, [0, -0.5, 0.2j], [0.9, 0.5, 0.3])
        probes = batch.centers[:, None] + 0.5 * batch.radii[:, None] * np.exp(1j * np.arange(4))[None, :]
        assert np.abs(batch.evaluate(probes) - f(probes)).max() < 1e-12

    def test_evaluate_refuses_failing_rows(self):
        batch = analyze_batch(np.conj, [0], [1.0])
        with pytest.raises(InvalidStateError):
            batch.evaluate(np.array([0.1]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sampling_error_names_row(self):
        with pytest.raises(SamplingError) as err:
            analyze_batch(lambda z: 1.0 / (z - 0.5), [0, 0, 0], [0.25, 0.5, 0.75])
        assert err.value.row == 1
        assert err.value.theta == pytest.approx(0.0)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterDomainError):
            analyze_batch(lambda z: z, [0], [1.0], n0=24)
        with pytest.raises(ParameterDomainError):
            analyze_batch(lambda z: z, [0], [1.0], tol=0.0)
        with pytest.raises(ParameterDomainError):
            extension_test(analyze_circle(lambda z: z, Circle(0, 1.0), 16), tol=-1.0)


class TestSingleCircle:
    """Single circles run as one-row batches and match the scalar reference."""

    @pytest.mark.parametrize("n0, n_max", [(256, MAX_SAMPLES), (64, 512), (256, 256)])
    @pytest.mark.parametrize("f", BATCH_ORACLES, ids=lambda f: getattr(f, "__name__", "f"))
    def test_refinement_matches_reference(self, f, n0, n_max):
        for circle in BATCH_CIRCLES:
            data, result, inconclusive = analyze_with_refinement(f, circle, 1e-8, n0, n_max)
            want, want_result, want_inconclusive = reference_refinement(f, circle, 1e-8, n0, n_max)
            assert data.circle == circle
            assert np.array_equal(data.coefficients, want.coefficients)
            assert data.tail_energy_negative == want.tail_energy_negative
            assert data.tail_energy_high == want.tail_energy_high
            assert (result, inconclusive) == (want_result, want_inconclusive)

    @pytest.mark.parametrize("name", builtin_names())
    def test_evaluate_extension_matches_reference(self, name):
        f = builtin(name).oracle
        for circle in (Circle(0.1 + 0.2j, 0.6), pencil_circle(-0.3)):
            data = analyze_circle(f, circle, 128)
            result = extension_test(data)
            if not result.passes:
                continue
            for rho, angle in ((0.0, 0.0), (0.5, 0.7), (0.9, -2.0), (1.0, 3.0)):
                zeta = circle.center + rho * circle.radius * cmath.exp(1j * angle)
                want = reference_horner(data, zeta)
                assert evaluate_extension(data, zeta, result) == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_no_module_cache(self):
        cached = [name for name, value in vars(extension).items() if hasattr(value, "cache_info")]
        assert cached == []


# test-circle cases: (source flags, oracle, center text, radius, samples flags).
CLI_CIRCLES = [("0", 0.5), ("0.1+0.2i", 0.6), ("0", 1.0), ("-0.7", 0.3), ("0.25", 0.25)]
CLI_CASES = (
    [
        (["--builtin", name], builtin(name).oracle, center, radius, ["--samples", str(n)])
        for name in builtin_names()
        for center, radius in CLI_CIRCLES
        for n in (64, 256)
    ]
    + [
        (["--expr", text], compile_function(parse(text)), center, radius, [])
        for text in ("z^100", "exp(40*z)")
        for center, radius in CLI_CIRCLES
    ]
    + [
        (["--expr", "z^3000"], compile_function(parse("z^3000")), "0", 1.0, ["--samples", "8192"]),
        (["--expr", "exp(1/(z-1.001))"], compile_function(parse("exp(1/(z-1.001))")), "0", 1.0, []),
    ]
)


@pytest.mark.parametrize(
    "source, f, center, radius, samples",
    CLI_CASES,
    ids=[" ".join(c[0] + ["--center", c[2], "--radius", str(c[3])] + c[4]) for c in CLI_CASES],
)
def test_cli_test_circle_matches_reference(capsys, source, f, center, radius, samples):
    code = main(["test-circle", *source, "--center", center, "--radius", str(radius), *samples])
    out = capsys.readouterr().out
    circle = Circle(parse_point(center), radius)
    n0 = int(samples[1]) if samples else 256
    data, result, inconclusive = reference_refinement(f, circle, 1e-8, n0)
    total = data.total_energy
    shown = json.loads(out)
    doc = {
        "schema_version": 1,
        "function": shown["function"],
        "center_re": circle.center.real,
        "center_im": circle.center.imag,
        "radius": circle.radius,
        "samples": data.sample_count,
        "negative_energy": data.tail_energy_negative,
        "relative_negative_energy": data.tail_energy_negative / total if total > 0 else 0.0,
        "threshold": result.threshold_used,
        "aliasing": result.aliasing_flag,
        "passes": result.passes,
        "verdict": "inconclusive" if inconclusive else ("extends" if result.passes else "does-not-extend"),
        "warnings": [],
    }
    assert out == dumps_report(doc)
    assert code == (3 if inconclusive else (0 if result.passes else 1))


@pytest.mark.parametrize("case", CLI_CASES[-2:], ids=lambda case: case[0][1])
def test_cli_test_circle_aliased_at_cap_exits_three(capsys, case):
    flags, _, center, radius, samples = case
    assert main(["test-circle", *flags, "--center", center, "--radius", str(radius), *samples]) == 3
    assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"


class TestOracleErrors:
    def test_array_error_is_raised_not_retried(self):
        calls = []

        def f(z):
            calls.append(z)
            raise RuntimeError("broken oracle")

        with pytest.raises(RuntimeError, match="broken oracle"):
            sweep_family(f, FamilyConfig.centered(0.2, count=4))
        assert len(calls) == 1

    def test_scalar_only_oracle_falls_back(self):
        def f(z):
            if z == 0:  # ValueError on an array
                return 0j
            return cmath.exp(z)

        trace = sample_circle(f, Circle(0.1, 0.5), 32)
        assert np.abs(trace.values - np.exp(0.1 + 0.5 * np.exp(1j * trace.thetas))).max() < 1e-15

    def test_expression_pole_names_theta(self):
        f = compile_function(parse("1/(z - 0.5)"))
        with pytest.raises(SamplingError) as err:
            sample_circle(f, Circle(0, 0.5), 16)
        assert err.value.theta == 0.0

    def test_expression_pole_exits_two_naming_theta(self, capsys):
        code = main(["test-circle", "--expr", "1/(z - 0.5)", "--radius", "0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "theta = 0.0" in err
