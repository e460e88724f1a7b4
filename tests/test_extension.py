import ast
import cmath
import dataclasses
import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morera
from morera import extension
from morera._record import Record
from morera.analysis import FamilyConfig, PipelineConfig, dumps_report, verdict
from morera.analysis import test_family as sweep_family
from morera.cli import main, parse_point
from morera.errors import (
    ConfigError,
    DomainError,
    ExtensionFailureError,
    InconclusiveError,
    InvalidStateError,
    ParameterDomainError,
    SamplingError,
)
from morera.exprparser import compile_function, parse
from morera.extension import (
    MAX_SAMPLES,
    CircleTrace,
    FourierData,
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


def reference_level(f, circle, n):
    """One circle at N samples by a 1-D FFT of :func:`sample_circle`'s trace.

    Independent of the batch kernel: the energies are summed here, each band
    chosen by frequency, in the FFT order [0..N/2-1, -N/2..-1] that the
    kernel sums in, so they agree bit for bit.
    """
    c = np.fft.fft(sample_circle(f, circle, n).values) / n
    k = np.fft.fftfreq(n, 1.0 / n)
    power = np.abs(c) ** 2
    negative, high = power[k < 0].sum(), power[np.abs(k) >= n // 4].sum()
    return FourierData(circle, np.fft.fftshift(c), float(negative), float(high))


def reference_refinement(f, circle, tol=1e-8, n0=256, n_max=MAX_SAMPLES):
    """Scalar refinement loop: analyse one circle at N, 2N, ... while it aliases.

    The independent oracle for :func:`analyze_batch` and its one-row wrapper
    :func:`analyze_with_refinement`.
    """
    n = n0
    while True:
        data = reference_level(f, circle, n)
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


def reshape_horner(coeffs, u):
    """Horner's rule with one reshape of a coefficient column per step: the
    loop :func:`extension._horner` must match bit for bit."""
    shape = (-1,) + (1,) * (u.ndim - 1)
    acc = np.zeros_like(u)
    for k in range(coeffs.shape[1] - 1, -1, -1):
        acc *= u
        acc += coeffs[:, k].reshape(shape)
    return acc


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

    @pytest.mark.parametrize("k", [-9, 8, 100])
    def test_coefficient_outside_the_band_rejected(self, k):
        data = analyze_circle(lambda z: z**2, Circle(0, 1.0), 16)
        with pytest.raises(ParameterDomainError) as err:
            data.coefficient(k)
        assert str(err.value) == f"frequency {k} outside [-8, 8)"

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


class TestHorner:
    @pytest.mark.parametrize("degree", [1, 2, 128, 2048])
    @pytest.mark.parametrize("probes", [None, 3])
    def test_matches_reshape_loop_bit_for_bit(self, degree, probes):
        rng = np.random.default_rng(degree)
        rows = 5
        coeffs = rng.normal(size=(rows, degree)) + 1j * rng.normal(size=(rows, degree))
        shape = (rows,) if probes is None else (rows, probes)
        u = 0.99 * np.exp(2j * np.pi * rng.uniform(size=shape)) * rng.uniform(size=shape)
        assert np.array_equal(extension._horner(coeffs, u), reshape_horner(coeffs, u))
        # The leading half of wider rows, as BatchAnalysis.evaluate passes them.
        wide = np.concatenate([coeffs, coeffs], axis=1)[:, :degree]
        assert np.array_equal(extension._horner(wide, u), reshape_horner(coeffs, u))


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

# The test-circle command's circles: (center text, radius).
CLI_CIRCLES = [("0", 0.5), ("0.1+0.2i", 0.6), ("0", 1.0), ("-0.7", 0.3), ("0.25", 0.25)]


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
            assert (batch.undecided[i] is not None) == inconclusive, i
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
        # z^100 aliases at 256 samples on every centered circle (the trace's
        # shape does not depend on the radius) and passes at 512; capped at
        # 256 it is inconclusive.  On the circle of radius 0.1 about 0.5 its
        # spectrum decays well below N/4, so that row stops at 256.
        for radius in (0.1, 1.0):
            centered = analyze_batch(_power100, [0], [radius])
            assert list(centered.samples) == [512] and centered.passes.all(), radius
        refined = analyze_batch(_power100, [0.5, 0], [0.1, 1.0])
        assert list(refined.samples) == [256, 512]
        assert refined.passes.all() and list(refined.undecided) == [None, None]
        assert [len(rows) for rows, _ in refined.groups] == [1, 1]
        capped = analyze_batch(_power100, [0.5, 0], [0.1, 1.0], n_max=256)
        assert list(capped.undecided) == [None, "aliased at the sample cap"]
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
    def test_non_finite_row_is_undecided_at_its_place(self):
        # A pole on the second circle, at theta = 0: that row alone is
        # undecided, naming the sample, and the others are judged as usual.
        batch = analyze_batch(lambda z: 1.0 / (z - 0.5), [0, 0, 0], [0.25, 0.5, 0.75])
        assert list(batch.undecided) == [None, "oracle returned non-finite value (inf+nanj) at theta = 0.0", None]
        assert list(batch.passes) == [True, False, False]
        assert not np.isfinite(batch.total_energy[1]) and np.isfinite(batch.total_energy[[0, 2]]).all()
        # The third circle surrounds the pole: its failure comes first.
        with pytest.raises(ExtensionFailureError, match="from 2 "):
            batch.require_extensions(str)

    @pytest.mark.parametrize("c", [400, 709])
    def test_overflowing_row_is_undecided_at_its_place(self, c):
        # Every sample is finite; |c_k|^2 (at c = 709 the FFT as well)
        # overflows on the second circle only.  No RuntimeWarning is emitted.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = analyze_batch(lambda z: np.exp(c * z), [0, 0, 0], [0.1, 1.0, 0.5])
        assert list(batch.undecided) == [None, "its Fourier energy overflows float64 at 256 samples", None]
        assert list(batch.passes) == [True, False, True] and not batch.aliasing.any()
        assert batch.samples[1] == 256
        with pytest.raises(InconclusiveError) as err:
            batch.require_extensions(lambda row: f"row {row}")
        assert err.value.circle == Circle(0, 1.0)
        assert str(err.value).startswith("f is undecided (its Fourier energy overflows float64 at 256 samples) from row 1")

    def test_overflowing_energy_makes_the_library_verdict_inconclusive(self):
        result = verdict(lambda z: np.exp(400 * np.asarray(z, dtype=complex)))
        assert result.classification == "inconclusive"
        circles = [c for report in result.families for c in report.circles]
        overflowing = [c for c in circles if c.negative_energy is None]
        assert overflowing and all(c.inconclusive and c.relative_negative_energy is None for c in overflowing)
        assert all(c.reason == f"its Fourier energy overflows float64 at {c.samples} samples" for c in overflowing)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterDomainError):
            analyze_batch(lambda z: z, [0], [1.0], n0=24)
        with pytest.raises(ParameterDomainError):
            analyze_batch(lambda z: z, [0], [1.0], tol=0.0)
        with pytest.raises(ParameterDomainError):
            extension_test(analyze_circle(lambda z: z, Circle(0, 1.0), 16), tol=-1.0)
        with pytest.raises(ParameterDomainError, match="^tolerance must be less than 1, got inf$"):
            analyze_batch(lambda z: z, [0], [1.0], tol=math.inf)
        with pytest.raises(ParameterDomainError, match="^tolerance must be less than 1, got 1.0$"):
            analyze_batch(lambda z: z, [0], [1.0], tol=1.0)


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

    @pytest.mark.parametrize("center, radius", CLI_CIRCLES, ids=[f"{c}-{r}" for c, r in CLI_CIRCLES])
    @pytest.mark.parametrize("name", builtin_names())
    def test_small_start_matches_reference(self, name, center, radius):
        # A start of 64 refined up to the cap on the test-circle circles:
        # the command always starts at 256, the kernel takes any start.
        f = builtin(name).oracle
        circle = Circle(parse_point(center), radius)
        data, result, inconclusive = analyze_with_refinement(f, circle, 1e-8, 64)
        want, want_result, want_inconclusive = reference_refinement(f, circle, 1e-8, 64)
        assert data.circle == circle
        assert data.sample_count == want.sample_count
        assert np.array_equal(data.coefficients, want.coefficients)
        assert data.tail_energy_negative == want.tail_energy_negative
        assert data.tail_energy_high == want.tail_energy_high
        assert (result, inconclusive) == (want_result, want_inconclusive)

    def test_start_above_the_cap_matches_reference(self):
        # z^3000 on the unit circle at one level of 8192 samples: still
        # aliased there, and the cap is below the start, so it is undecided.
        f = compile_function(parse("z^3000"))
        circle = Circle(0, 1.0)
        data, result, inconclusive = analyze_with_refinement(f, circle, 1e-8, 8192)
        want, want_result, want_inconclusive = reference_refinement(f, circle, 1e-8, 8192)
        assert data.sample_count == 8192
        assert np.array_equal(data.coefficients, want.coefficients)
        assert (data.tail_energy_negative, data.tail_energy_high) == (want.tail_energy_negative, want.tail_energy_high)
        assert (result, inconclusive) == (want_result, want_inconclusive)
        assert inconclusive and result.aliasing_flag

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

    @pytest.mark.parametrize("n", [8, 64, 256, 1024])
    @pytest.mark.parametrize("name", builtin_names())
    def test_single_circle_functions_are_one_batch_row(self, name, n):
        # analyze_circle, analyze_trace and evaluate_extension read the row of
        # a one-row analyze_batch held at n samples, bit for bit.
        f = builtin(name).oracle
        for circle in (Circle(0.1 + 0.2j, 0.6), pencil_circle(-0.3)):
            batch = analyze_batch(f, [circle.center], [circle.radius], n0=n, n_max=n)
            (rows, coeffs), = batch.groups
            row = coeffs[0]
            for data in (analyze_circle(f, circle, n), analyze_trace(sample_circle(f, circle, n))):
                assert data.circle == circle
                assert np.array_equal(data.coefficients, np.concatenate([row[n // 2 :], row[: n // 2]]))
                assert data.tail_energy_negative == batch.negative_energy[0]
                assert extension_test(data).passes == batch.passes[0]
                zeta = circle.center + 0.7 * circle.radius * cmath.exp(0.4j)
                if batch.passes[0]:
                    assert evaluate_extension(data, zeta) == batch.evaluate(np.array([zeta]))[0]
                    continue
                with pytest.raises(InvalidStateError) as single:
                    evaluate_extension(data, zeta)
                with pytest.raises(InvalidStateError) as batched:
                    batch.evaluate(np.array([zeta]))
                assert str(single.value) == str(batched.value)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("f", BATCH_ORACLES, ids=lambda f: getattr(f, "__name__", "f"))
    def test_single_circle_reports_its_batch_row(self, monkeypatch, f, n):
        # One judge: a single circle's result is its batch row's, and
        # extension_test is not run on it a second time.
        batch = analyze_batch(f, [c.center for c in BATCH_CIRCLES], [c.radius for c in BATCH_CIRCLES], n0=n)

        def judged_again(*args, **kwargs):
            raise AssertionError("extension_test called")

        monkeypatch.setattr(extension, "extension_test", judged_again)
        for i, circle in enumerate(BATCH_CIRCLES):
            data, result, inconclusive = analyze_with_refinement(f, circle, n0=n)
            assert (result.passes, result.aliasing_flag, inconclusive) == (
                batch.passes[i], batch.aliasing[i], batch.undecided[i] is not None
            )
            assert (data.sample_count, result.negative_energy) == (batch.samples[i], batch.negative_energy[i])
            assert result.threshold_used == 1e-8 * data.total_energy
            held = analyze_trace(sample_circle(f, circle, data.sample_count))
            assert np.array_equal(held.coefficients, data.coefficients)
            assert (held.tail_energy_negative, held.tail_energy_high) == (data.tail_energy_negative, data.tail_energy_high)

    def test_overflowing_energy_is_inconclusive_like_a_batch(self, recwarn):
        with pytest.raises(InconclusiveError) as err:
            analyze_circle(lambda z: np.exp(400 * z), Circle(0, 1.0))
        assert err.value.circle == Circle(0, 1.0)
        assert str(err.value) == "the Fourier energy of f overflows float64 on Circle(center=0j, radius=1.0) (256 samples)"
        assert not recwarn.list

    def test_non_finite_trace_sample_raises_sampling_error(self):
        circle = Circle(0.1, 0.5)
        values = sample_circle(np.exp, circle, 16).values.copy()
        values[5] = np.nan
        with pytest.raises(SamplingError) as err:
            analyze_trace(CircleTrace(circle, values))
        assert err.value.theta == 2.0 * np.pi * 5 / 16
        assert str(err.value) == f"trace holds non-finite value (nan+0j) at theta = {err.value.theta} on {circle}"

    def test_trace_is_analysed_without_an_oracle_call(self, monkeypatch):
        # A stored trace goes to the kernel as it is: nothing is sampled again.
        trace = sample_circle(np.exp, Circle(0.1, 0.5), 64)
        want = analyze_circle(np.exp, trace.circle, 64)

        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle_values called")

        monkeypatch.setattr(extension, "oracle_values", no_oracle)
        data = analyze_trace(trace)
        assert np.array_equal(data.coefficients, want.coefficients)
        assert (data.tail_energy_negative, data.tail_energy_high) == (want.tail_energy_negative, want.tail_energy_high)

    def test_one_fft_call_site(self):
        # One kernel: every circle reaches the FFT through _analyze_rows,
        # the body of analyze_batch.
        tree = ast.parse(Path(extension.__file__).read_text(encoding="utf-8"))
        calls = [
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.fft.fft", "numpy.fft.fft")
        ]
        assert calls == ["_analyze_rows"]

    def test_one_start(self):
        # Every refinement the pipeline runs starts at DEFAULT_SAMPLES: only
        # the kernel reads it, and no public callable or PipelineConfig
        # field takes a start of its own.
        readers = {
            path.name
            for path in Path(extension.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if "DEFAULT_SAMPLES" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        }
        assert readers == {"extension.py"}
        public = [getattr(morera, name) for name in morera.__all__]
        callables = [obj for obj in public if inspect.isfunction(obj) or isinstance(obj, type) and issubclass(obj, Record)]
        assert [obj.__name__ for obj in callables if "samples" in inspect.signature(obj).parameters] == []
        assert "samples" not in {field.name for field in dataclasses.fields(PipelineConfig)}


# test-circle cases: (source flags, oracle, center text, radius).
CLI_CASES = (
    [
        (["--builtin", name], builtin(name).oracle, center, radius)
        for name in builtin_names()
        for center, radius in CLI_CIRCLES
    ]
    + [
        (["--expr", text], compile_function(parse(text)), center, radius)
        for text in ("z^100", "exp(40*z)")
        for center, radius in CLI_CIRCLES
    ]
    + [(["--expr", "exp(1/(z-1.001))"], compile_function(parse("exp(1/(z-1.001))")), "0", 1.0)]
)


@pytest.mark.parametrize(
    "source, f, center, radius",
    CLI_CASES,
    ids=[" ".join(c[0] + ["--center", c[2], "--radius", str(c[3])]) for c in CLI_CASES],
)
def test_cli_test_circle_matches_reference(capsys, source, f, center, radius):
    code = main(["test-circle", *source, "--center", center, "--radius", str(radius)])
    out = capsys.readouterr().out
    circle = Circle(parse_point(center), radius)
    data, result, inconclusive = reference_refinement(f, circle, 1e-8)
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


@pytest.mark.parametrize("case", CLI_CASES[-1:], ids=lambda case: case[0][1])
def test_cli_test_circle_aliased_at_cap_exits_three(capsys, case):
    flags, _, center, radius = case
    assert main(["test-circle", *flags, "--center", center, "--radius", str(radius)]) == 3
    assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"


class TestOracleErrors:
    def test_array_error_is_raised_not_retried(self):
        calls = []

        def f(z):
            calls.append(z)
            raise RuntimeError("broken oracle")

        with pytest.raises(RuntimeError, match="broken oracle"):
            sweep_family(f, FamilyConfig("centered", 0.2, 1.0, 4))
        assert len(calls) == 1

    @pytest.mark.parametrize("error", [DomainError, ConfigError, ParameterDomainError])
    def test_morera_error_is_raised_not_retried(self, error):
        # These are ValueErrors too, but an oracle raising one means it, not
        # that it takes single points only.
        calls = []

        def f(z):
            calls.append(z)
            raise error("refused by the oracle")

        with pytest.raises(error, match="refused by the oracle"):
            verdict(f)
        assert len(calls) == 1 and isinstance(calls[0], np.ndarray)

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
