import cmath
import contextlib
import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morera import cli
from morera import extension as ext
from morera.analysis import (
    CLASS_CONSISTENT,
    CLASS_INCONCLUSIVE,
    CLASS_INCONSISTENT,
    CLASS_MORERA_FAILURE,
    CROSS_MARGIN,
    CROSS_PROBES,
    DbarGrid,
    FamilyConfig,
    PipelineConfig,
    cross_consistency,
    dbar_residual,
    dbar_residual_detail,
    dumps_report,
    report_document,
    sweep_classification,
    validate_families,
    verdict,
)
from morera.analysis import _cross_members
from morera.analysis import test_family as sweep_family
from morera.errors import (
    ConfigError,
    DomainError,
    ExtensionFailureError,
    InconclusiveError,
    SamplingError,
)
from morera.exprparser import compile_function, parse
from morera.funczoo import builtin, builtin_names, holomorphic_members
from morera.geometry import Circle
from morera.gridio import read_polar_grid, write_polar_grid


class TestFamilyConfig:
    def test_grid_is_sorted_and_inside_range(self):
        config = FamilyConfig("pencil", -0.75, 0.0, 32)
        params = config.parameters()
        assert len(params) == 32
        assert np.all(np.diff(params) > 0)
        assert params[0] > -0.75 and params[-1] < 0.0

    def test_grid_is_its_own_sort(self):
        # The reversed Chebyshev nodes are the sorted grid, bit for bit.
        rng = np.random.default_rng(7)
        for count in range(2, 201):
            lo, hi = np.sort(rng.uniform(-0.99, 0.0, 2)).tolist()
            for config in (FamilyConfig("pencil", lo - 0.01, hi, count), FamilyConfig("centered", hi + 1.0, 1.0, count)):
                params = config.parameters()
                assert params.flags.c_contiguous
                assert np.all(np.diff(params) > 0)
                assert np.array_equal(params, np.sort(params))

    def test_pencil_circle_coordinates(self):
        config = FamilyConfig("pencil", -0.75, 0.0)
        c = config.circle(-0.7)
        assert c.center == pytest.approx(-0.7) and c.radius == pytest.approx(0.3)
        rotated = FamilyConfig("pencil", -0.75, 0.0, 8, p=1j)
        c2 = rotated.circle(-0.5)
        assert c2.center == pytest.approx(0.5j)  # -p*t
        assert abs(abs(c2.center - 1j * 1.0)) == pytest.approx(c2.radius)  # passes through p

    def test_validation(self):
        with pytest.raises(ConfigError):
            FamilyConfig("weird", 0.1, 1.0)
        with pytest.raises(ConfigError):
            FamilyConfig("centered", 0.9, 0.5)
        with pytest.raises(ConfigError):
            FamilyConfig("centered", 0.0, 1.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: FamilyConfig("centered", 0.1, 1.0, 1), "family grid needs at least 2 circles, got 1"),
            (lambda: FamilyConfig("pencil", -1.0, 0.0), "pencil parameters must lie in (-1, 0], got [-1.0, 0.0]"),
            (lambda: FamilyConfig("pencil", -0.5, 0.25), "pencil parameters must lie in (-1, 0], got [-0.5, 0.25]"),
            (lambda: FamilyConfig("pencil", PipelineConfig().pencil_floor, 0.5),
             "pencil parameters must lie in (-1, 0], got [-0.75, 0.5]"),
            (lambda: FamilyConfig("centered", 0.5, 0.501).parameters(),
             "parameter range [0.5, 0.501] too small for inset 0.001"),
            (lambda: FamilyConfig("pencil", -0.3, -0.2985).parameters(),
             "parameter range [-0.3, -0.2985] too small for inset 0.001"),
        ],
        ids=["one-circle", "pencil-at-minus-one", "pencil-above-zero", "default-floor-above-zero", "centered-inset",
             "pencil-inset"],
    )
    def test_rejection_names_the_values(self, build, message):
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("p", [2.0, 0.5, 0.0, 0.6 + 0.9j])
    def test_pencil_point_off_the_unit_circle(self, p):
        with pytest.raises(ConfigError) as info:
            FamilyConfig("pencil", -0.75, 0.0, p=p)
        assert str(info.value) == f"pencil boundary point must lie on the unit circle, got |p| = {abs(p)}"

    def test_pencil_point_is_kept_as_given(self):
        p = 1j * (1.0 + 5e-13)
        assert FamilyConfig("pencil", -0.75, 0.0, p=p).p == p


class TestPipelineFamilies:
    def test_centered_then_pencil(self):
        centered, pencil = PipelineConfig(p=1j, circles_per_family=8).families()
        assert (centered.kind, centered.lo, centered.count) == ("centered", 0.05, 8)
        assert (pencil.kind, pencil.lo, pencil.p) == ("pencil", -0.75, 1j)

    @pytest.mark.parametrize("kind", ["centered", "pencil"])
    def test_one_kind(self, kind):
        (family,) = PipelineConfig().families(kind)
        assert family.kind == kind

    def test_two_point_is_two_pencils(self):
        first, second = PipelineConfig(p2=1.0, t_min=-0.6).families("both")
        assert (first.kind, first.p, first.lo) == ("pencil", -1.0, -0.6)
        assert (second.kind, second.p, second.lo) == ("pencil", 1.0, -0.6)

    @pytest.mark.parametrize("kind", ["centered", "pencil"])
    def test_two_point_refuses_one_family(self, kind):
        message = f"the two-point configuration always sweeps both pencils; family '{kind}' does not apply"
        with pytest.raises(ConfigError) as err:
            PipelineConfig(p2=1.0, t_min=-0.6).families(kind)
        assert str(err.value) == message

    @pytest.mark.parametrize("p2", [-1.0, -1.0 + 1e-13j, cmath.exp(1e-13j) * -1.0])
    def test_two_point_refuses_p2_equal_to_p(self, p2):
        with pytest.raises(ConfigError) as err:
            PipelineConfig(p2=p2).families()
        assert str(err.value) == f"the two-point configuration needs p2 != p, got |p2 - p| = {abs(p2 + 1.0)}"
        with pytest.raises(ConfigError, match="unit circle"):  # each pencil's own check comes first
            PipelineConfig(p=2.0, p2=2.0).families()
        assert len(PipelineConfig(p2=cmath.exp(1e-9j) * -1.0).families()) == 2

    def test_centered_error_comes_first(self):
        with pytest.raises(ConfigError, match="empty parameter range"):
            PipelineConfig(r_min=2.0, p=2.0).families()
        with pytest.raises(ConfigError, match="unit circle"):
            PipelineConfig(p=2.0).families()
        assert PipelineConfig(p=2.0).families("centered")[0].kind == "centered"


class TestSweepClassification:
    def test_failure_before_inconclusive(self):
        passing = sweep_family(builtin("expz").oracle, FamilyConfig("centered", 0.05, 1.0, 8))
        failing = sweep_family(builtin("counterexample").oracle, FamilyConfig("pencil", -0.75, 0.0, 8))
        aliased = replace(passing.circles[0], passes=False, inconclusive=True)
        capped = replace(passing, circles=(aliased,) + passing.circles[1:], passes=False, inconclusive=True)
        assert failing.failing and not capped.failing
        assert sweep_classification([passing]) is None
        assert sweep_classification([passing, capped]) == CLASS_INCONCLUSIVE
        assert sweep_classification([capped, failing]) == CLASS_MORERA_FAILURE


class TestTestFamily:
    def test_entire_function_passes_everywhere(self):
        report = sweep_family(builtin("expz").oracle, FamilyConfig("centered", 0.05, 1.0, 32))
        assert report.passes and not report.inconclusive
        assert all(c.passes for c in report.circles)

    def test_counterexample_fails_small_pencil_circles(self):
        report = sweep_family(builtin("counterexample").oracle, FamilyConfig("pencil", -0.75, 0.0, 32))
        assert not report.passes
        assert report.failing
        # failures exactly where the closed disc misses the origin: t < -1/2
        for c in report.circles:
            assert c.passes == (c.parameter >= -0.5), c.parameter
        assert report.worst.parameter < -0.5

    def test_counterexample_passes_floored_pencil(self):
        config = FamilyConfig("pencil", -0.4, 0.0, 16)
        report = sweep_family(builtin("counterexample").oracle, config)
        assert report.passes

    def test_monotonicity_denser_grid_never_unfails(self):
        f = builtin("counterexample").oracle
        for count in (8, 16, 32, 64):
            report = sweep_family(f, FamilyConfig("pencil", -0.75, 0.0, count))
            assert not report.passes

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pole_on_a_circle_is_undecided_naming_parameter_and_theta(self, capsys):
        # The pole sits on the fourth circle at theta = 0: that circle alone
        # is undecided, at its place, and the others are judged as usual.
        config = FamilyConfig("centered", 0.1, 1.0, 8)
        pole = float(config.parameters()[3])
        report = sweep_family(lambda z: 1.0 / (np.asarray(z, dtype=complex) - pole), config)
        undecided = [c for c in report.circles if c.inconclusive]
        assert [c.parameter for c in undecided] == [pole]
        (circle,) = undecided
        assert circle.reason.startswith("oracle returned non-finite value") and circle.reason.endswith("at theta = 0.0")
        assert (circle.negative_energy, circle.relative_negative_energy, circle.passes) == (None, None, False)
        assert report.inconclusive and report.worst is not circle and math.isfinite(report.scale)
        assert json.loads(dumps_report(report.to_dict()))["circles"][3]["negative_energy"] is None
        cli._warn_undecided([report])
        assert capsys.readouterr().err == (
            f"warning: the centered circle with parameter {pole!r} ({circle.circle}) is undecided: {circle.reason}\n"
        )



class TestCrossConsistency:
    def test_holomorphic_agrees(self):
        residual = cross_consistency(builtin("poly3").oracle, -0.3, PipelineConfig())
        assert residual < 1e-8

    def test_constant_agrees_exactly(self):
        residual = cross_consistency(lambda z: 7.0 + 0.0 * np.asarray(z, dtype=complex), -0.3)
        assert residual < 1e-12

    def test_radial_violates_precondition(self):
        with pytest.raises(ExtensionFailureError):
            cross_consistency(builtin("absq").oracle, -0.3)

    def test_t_outside_interval_rejected(self):
        with pytest.raises(DomainError):
            cross_consistency(builtin("poly3").oracle, -0.9)

    def test_aliased_circle_refines(self):
        # z^100 aliases at 256 samples on the outer surrounding circles.
        residual = cross_consistency(lambda z: np.asarray(z, dtype=complex) ** 100, -0.3)
        assert residual < 1e-12

    def test_reads_the_pencil_point(self):
        # The sharpness counterexample moved to a = 0.5i, seen through the
        # pencil at p = 1i: a library call measures what the verdict does.
        def f(z):
            u = np.asarray(z, dtype=complex) - 0.5j
            return u**2 / np.conj(u)

        config = PipelineConfig(p=1j, r_min=0.6, t_min=-0.4)
        v = verdict(f, config)
        assert v.classification == CLASS_INCONSISTENT
        assert v.cross_residual == pytest.approx(0.24569194185039, rel=1e-9)
        assert cross_consistency(f, config.t_values(), config) == v.cross_residual

    def test_pencil_point_off_the_unit_circle_rejected(self):
        with pytest.raises(ConfigError, match="unit circle"):
            cross_consistency(builtin("poly3").oracle, -0.3, PipelineConfig(p=2.0))

    def test_sequence_of_t_is_max_over_t(self):
        f = builtin("counterexample").oracle
        config = PipelineConfig(r_min=0.6, t_min=-0.4)
        single = [cross_consistency(f, T, config) for T in (-0.3, -0.1)]
        assert cross_consistency(f, [-0.3, -0.1], config) == pytest.approx(max(single), rel=1e-12)

    def test_capped_circle_is_inconclusive(self):
        # A pole just outside the unit circle: the surrounding circle of
        # radius 1 stays aliased at the sample cap.
        f = lambda z: 1.0 / (np.asarray(z, dtype=complex) - 1.0001)
        with pytest.raises(InconclusiveError) as err:
            cross_consistency(f, -0.3)
        assert err.value.circle.radius == pytest.approx(1.0)

    def test_non_finite_circle_message_gives_no_energy(self):
        # The pole at 1 lies on the unit circle, at theta = 0: its energy is
        # not finite, so the message gives the reason and the sample count.
        def f(z):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / (np.asarray(z, dtype=complex) - 1.0)

        with pytest.raises(InconclusiveError) as err:
            cross_consistency(f, -0.3)
        assert str(err.value) == (
            "f is undecided (oracle returned non-finite value (inf+nanj) at theta = 0.0) "
            "from the centered circle with parameter 1.0 surrounding T = -0.3 (256 samples)"
        )

    def test_counterexample_disagrees_under_floors(self):
        # With both families floored the extensions exist but differ by circle.
        residual = cross_consistency(builtin("counterexample").oracle, -0.3, PipelineConfig(r_min=0.6, t_min=-0.4))
        assert residual > 1e-2


def four_call_dbar(f, grid):
    """The Wirtinger estimates with one oracle call per pair of shifted grids:
    the reference that :func:`dbar_residual_detail` must match bit for bit."""
    points = grid.points()

    def central(h):
        fx = ext.oracle_values(f, np.stack([points + h, points - h]))
        fy = ext.oracle_values(f, np.stack([points + 1j * h, points - 1j * h]))
        return ((fx[0] - fx[1]) + 1j * (fy[0] - fy[1])) / (4.0 * h)

    coarse = central(grid.h)
    fine = central(grid.h / 2.0)
    return fine + (fine - coarse) / 3.0, float(np.max(np.abs(fine - coarse)) / 3.0)


def _grid_oracle(tmp_path):
    path = tmp_path / "expz.csv"
    write_polar_grid(str(path), builtin("expz").oracle, n_r=16, n_theta=32)
    return read_polar_grid(str(path))


# Each builds an oracle in a scratch directory: the builtins, one --expr text and one --grid file.
WIRTINGER_SOURCES = {
    **{name: (lambda tmp_path, name=name: builtin(name).oracle) for name in builtin_names()},
    "expr": lambda tmp_path: compile_function(parse("z^3 - 2*z*zbar + exp(z)")),
    "grid": _grid_oracle,
}


class TestDbarResidual:
    def test_holomorphic(self):
        assert dbar_residual(builtin("poly3").oracle) < 1e-8

    def test_conjugate_is_one(self):
        assert dbar_residual(builtin("conjugate").oracle) == pytest.approx(1.0, abs=1e-6)

    def test_counterexample_is_one(self):
        # d/d(conj z) of z^2/conj(z) = -z^2/conj(z)^2, modulus exactly 1
        assert dbar_residual(builtin("counterexample").oracle) == pytest.approx(1.0, abs=1e-4)

    def test_grid_touching_boundary_rejected(self):
        with pytest.raises(DomainError):
            DbarGrid(r_max=0.9999, h=1e-3)

    def test_invalid_grid(self):
        with pytest.raises(ConfigError):
            DbarGrid(r_min=0.5, r_max=0.2)

    @pytest.mark.parametrize("source", WIRTINGER_SOURCES)
    def test_one_oracle_call_matches_four(self, tmp_path, source):
        f = WIRTINGER_SOURCES[source](tmp_path)
        shapes = []

        def counted(z):
            shapes.append(np.shape(z))
            return f(z)

        grid = DbarGrid()
        values, error = dbar_residual_detail(counted, grid)
        assert shapes == [(8, grid.n_r * grid.n_theta)]
        want, want_error = four_call_dbar(f, grid)
        assert np.array_equal(values, want)
        assert error == want_error

    def test_first_bad_sample_is_named_as_by_four_calls(self):
        # NaN at a point of the last shifted grid (-ih/2) and of the second
        # (-h): the second comes first, as when each pair had its own call.
        grid = DbarGrid()
        points = grid.points()
        bad = [points[3] - 1j * (grid.h / 2.0), points[40] - grid.h]

        def f(z):
            z = np.asarray(z, dtype=complex)
            return np.where(np.isin(z, bad), np.nan, np.exp(z))

        with pytest.raises(SamplingError) as one:
            dbar_residual_detail(f, grid)
        with pytest.raises(SamplingError) as four:
            four_call_dbar(f, grid)
        assert str(one.value) == str(four.value)
        assert f"at point {bad[1]}" in str(one.value)

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
    def test_step_must_be_positive(self, h):
        with pytest.raises(ConfigError) as info:
            DbarGrid(h=h)
        assert str(info.value) == f"step must be positive, got {h}"


class TestValidateFamilies:
    def test_centered_vs_pencil_inequality(self):
        # r < 1 - 2*rho with rho = 0.3: smallest pencil circle center -0.7
        assert validate_families(
            FamilyConfig("centered", 0.2, 1.0), FamilyConfig("pencil", -0.7, 0.0, 8)
        )
        assert not validate_families(
            FamilyConfig("centered", 0.5, 1.0), FamilyConfig("pencil", -0.7, 0.0, 8)
        )

    def test_two_pencils(self):
        left = FamilyConfig("pencil", -0.6, 0.0, 8, p=-1.0 + 0j)
        right = FamilyConfig("pencil", -0.6, 0.0, 8, p=1.0 + 0j)
        assert validate_families(left, right)  # centers -0.6 and +0.6, radii 0.4
        left_big = FamilyConfig("pencil", -0.35, 0.0, 8, p=-1.0 + 0j)
        right_big = FamilyConfig("pencil", -0.35, 0.0, 8, p=1.0 + 0j)
        assert not validate_families(left_big, right_big)  # radii 0.65 overlap

    def test_closed_form_grid(self):
        # single-pencil case: valid iff r < 1 - 2*rho, checked exactly.
        # Pairs sitting exactly on the tangency boundary (r = 1 - 2*rho in
        # decimals) are skipped: there the mathematical predicate is a
        # knife-edge and float evaluations of equivalent formulas disagree at
        # ULP scale.
        for i in range(19):
            r = 0.05 + 0.05 * i
            for j in range(9):
                rho = 0.05 + 0.05 * j
                if abs(r - (1.0 - 2.0 * rho)) < 1e-9:
                    continue
                centered = FamilyConfig("centered", r, 1.0)
                pencil = FamilyConfig("pencil", rho - 1.0, 0.0, 8)
                assert validate_families(centered, pencil) == (1.0 - rho > r + rho), (r, rho)


class TestVerdict:
    def test_holomorphic_members_consistent(self):
        for entry in holomorphic_members():
            v = verdict(entry.oracle)
            assert v.classification == CLASS_CONSISTENT, entry.name
            assert v.hypotheses_valid
            assert v.cross_residual < 1e-6
            assert v.dbar_value < 1e-4

    def test_counterexample_fails(self):
        v = verdict(builtin("counterexample").oracle)
        assert v.classification == CLASS_MORERA_FAILURE
        pencil_report = v.families[1]
        assert pencil_report.failing
        assert all(c.parameter < -0.5 for c in pencil_report.failing)

    def test_sharpness_configuration(self):
        config = PipelineConfig(r_min=0.6, t_min=-0.4)
        v = verdict(builtin("counterexample").oracle, config)
        assert v.classification == CLASS_INCONSISTENT
        assert not v.hypotheses_valid
        assert all(r.passes for r in v.families)
        assert 0.9 <= v.dbar_value <= 1.1

    def test_conjugate_fails_every_family(self):
        v = verdict(builtin("conjugate").oracle)
        assert v.classification == CLASS_MORERA_FAILURE
        assert all(not r.passes for r in v.families)

    def test_high_degree_polynomial_consistent(self):
        v = verdict(lambda z: np.asarray(z, dtype=complex) ** 100)
        assert v.classification == CLASS_CONSISTENT
        assert max(c.samples for r in v.families for c in r.circles) == 512

    def test_cross_circle_aliased_at_cap_is_inconclusive(self):
        # The branch point at 1 lies on the unit circle: the sweep circles
        # miss it (the centered radii stop at the grid inset, the pencil
        # circles reach 2t + 1 < 1) and pass after refinement; the radius-1
        # cross-consistency circle runs through it.
        v = verdict(lambda z: (1 - np.asarray(z, dtype=complex)) ** 0.5)
        assert all(r.passes for r in v.families)
        assert v.classification == CLASS_INCONCLUSIVE
        assert "the centered circle with parameter 1.0 surrounding T = -0.475" in v.cross_note

    @pytest.mark.parametrize("name", builtin_names())
    def test_small_scale_keeps_the_classification(self, name):
        # The extendability test is relative: a trace is judged by its shape
        # however small the function is.
        f = builtin(name).oracle
        expected = verdict(f).classification
        for k in (-24, -20, -16, -8):
            scaled = verdict(lambda z, s=10.0**k: s * f(z)).classification
            assert scaled == expected, k

    def test_zero_function_is_consistent(self):
        zero = lambda z: np.zeros(np.shape(z), dtype=complex)
        assert verdict(zero).classification == CLASS_CONSISTENT

    def test_invalid_tau(self):
        with pytest.raises(ConfigError):
            PipelineConfig(tau=0.7)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DbarGrid(n_r=0), "n_r must be at least 1, got 0"),
            (lambda: DbarGrid(n_theta=0), "n_theta must be at least 1, got 0"),
        ],
        ids=["n_r=0", "n_theta=0"],
    )
    def test_counts_below_one_rejected(self, build, message):
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [0.0, -1e-9, math.nan])
    @pytest.mark.parametrize("name", ["morera_tol"])
    def test_tolerances_must_be_positive(self, name, value):
        with pytest.raises(ConfigError) as info:
            PipelineConfig(**{name: value})
        assert str(info.value) == f"{name} must be positive, got {value}"

    @pytest.mark.parametrize("value", [1.0, 1.7e308, math.inf])
    @pytest.mark.parametrize("name", ["morera_tol"])
    def test_tolerances_must_be_below_one(self, name, value):
        # At 1 the threshold is the total energy, so no circle could fail.
        with pytest.raises(ConfigError) as info:
            PipelineConfig(**{name: value})
        assert str(info.value) == f"{name} must be less than 1, got {value}"

    def test_two_point_runs_the_cross_step(self):
        config = PipelineConfig(p2=1.0, circles_per_family=8)
        for f, floored, expected in [("expz", config, CLASS_CONSISTENT),
                                     ("counterexample", replace(config, t_min=-0.4), CLASS_INCONSISTENT)]:
            v = verdict(builtin(f).oracle, floored)
            assert v.classification == expected
            assert [r.config.p for r in v.families] == [-1.0, 1.0]
            assert all(r.passes for r in v.families)
            assert v.cross_t_values == tuple(config.t_values()) and math.isfinite(v.cross_residual)

    @pytest.mark.parametrize("p2", [None, 1.0])
    def test_narrow_bump_is_a_morera_failure(self, p2):
        # f = z + a bump of width 0.005 near T = -0.17: the default sweeps
        # catch it; the two pencils' sweeps miss it, and a cross circle catches it.
        z0 = -0.16926 - 0.01588j
        f = lambda z: (lambda z: z + np.exp(-np.abs(z - z0) ** 2 / 0.005**2))(np.asarray(z, dtype=complex))
        assert verdict(f, PipelineConfig(p2=p2)).classification == CLASS_MORERA_FAILURE

    @pytest.mark.parametrize("p2", [None, 1.0])
    def test_unsampleable_wirtinger_grid_gives_no_residual(self, p2):
        # exp(z), except NaN at one finite-difference stencil point of the
        # Wirtinger grid: every circle passes, the residual cannot be taken.
        grid = DbarGrid()
        bad = grid.points()[0] + grid.h

        def f(z):
            z = np.asarray(z, dtype=complex)
            return np.where(z == bad, np.nan, np.exp(z))

        v = verdict(f, PipelineConfig(p2=p2, circles_per_family=8))
        assert all(r.passes for r in v.families)
        assert v.dbar_value is None and v.dbar_error is None
        assert v.classification == CLASS_INCONSISTENT

    @pytest.mark.parametrize("p2", [None, 1.0])
    def test_oracle_domain_error_on_the_wirtinger_grid_reaches_the_caller(self, p2):
        # exp(z), except that the oracle refuses one finite-difference
        # stencil point of the Wirtinger grid with its own DomainError: only
        # a non-finite sample means "no residual".
        grid = DbarGrid()
        bad = grid.points()[0] + grid.h

        def f(z):
            z = np.asarray(z, dtype=complex)
            if (z == bad).any():
                raise DomainError("refused by the oracle")
            return np.exp(z)

        with pytest.raises(DomainError, match="refused by the oracle"):
            verdict(f, PipelineConfig(p2=p2, circles_per_family=8))


def _perturbed_exp(z):
    # exp(z) + 1e-3 conj(z): the largest circles' relative negative energy is
    # about 1e-6, so they fail at 1e-7 and pass at 1e-4.
    z = np.asarray(z, dtype=complex)
    return np.exp(z) + 1e-3 * np.conj(z)


class _Stating:
    """``f``, stating an error relative to max |f| that gives the undecided tolerance ``u``, as a grid does."""

    def __init__(self, f, u):
        self.f = f
        self.error = math.sqrt(u) / ext.GRID_ERROR_MARGIN

    def __call__(self, z):
        return self.f(z)


class _StatingByProperty:
    """``_Stating`` with ``error`` a property of the class, not in the instance's ``__dict__``."""

    def __init__(self, f, u):
        self.f, self.u = f, u

    @property
    def error(self):
        return math.sqrt(self.u) / ext.GRID_ERROR_MARGIN

    def __call__(self, z):
        return self.f(z)


class _StatingBySlots:
    """``_Stating`` with ``error`` a ``__slots__`` field: the instance has no ``__dict__``."""

    __slots__ = ("f", "error")

    def __init__(self, f, u):
        self.f = f
        self.error = math.sqrt(u) / ext.GRID_ERROR_MARGIN

    def __call__(self, z):
        return self.f(z)


class TestStatedError:
    """A source that states its own error (extension.stated_accuracy) is judged once, by the kernel."""

    CONFIG = PipelineConfig(circles_per_family=8)
    SHARPNESS = PipelineConfig(r_min=0.6, t_min=-0.4)

    def test_failures_within_the_error_are_undecided(self):
        config = FamilyConfig("centered", 0.05, 1.0, 8)
        report = sweep_family(_perturbed_exp, config)
        assert report.failing
        stated = sweep_family(_Stating(_perturbed_exp, 1e-4), config)
        assert not stated.failing and stated.inconclusive and not stated.passes
        assert [c.reason for c in stated.circles] == [None if c.passes else ext.WITHIN_ERROR for c in report.circles]
        assert [replace(c, inconclusive=False, reason=None) for c in stated.circles] == list(report.circles)
        # An error below the per-circle tolerance changes nothing.
        assert sweep_family(_Stating(_perturbed_exp, 1e-12), config) == report

    @pytest.mark.parametrize("u, expected", [(1e-4, CLASS_INCONCLUSIVE), (1e-7, CLASS_MORERA_FAILURE)])
    def test_failing_sweep(self, u, expected):
        assert verdict(_perturbed_exp, self.CONFIG).classification == CLASS_MORERA_FAILURE
        assert verdict(_Stating(_perturbed_exp, u), self.CONFIG).classification == expected

    @pytest.mark.parametrize("p", [-1.0, 1j])
    @pytest.mark.parametrize("u, expected", [(1e-4, InconclusiveError), (1e-7, ExtensionFailureError)])
    def test_cross_consistency_circles_are_judged_at_the_stated_error(self, p, u, expected):
        # The same rule as for sweep circles, whatever the pencil point.
        config = replace(self.CONFIG, p=p)
        with pytest.raises(expected) as err:
            cross_consistency(_Stating(_perturbed_exp, u), config.t_values(), config)
        assert (f"is undecided ({ext.WITHIN_ERROR})" in str(err.value)) == (expected is InconclusiveError)

    @pytest.mark.parametrize(
        "u, two_point, expected",
        [(0.3, False, CLASS_INCONCLUSIVE), (0.3, True, CLASS_INCONCLUSIVE), (0.2, False, CLASS_INCONSISTENT),
         (1e-12, False, CLASS_INCONSISTENT)],
    )
    def test_residuals_within_the_stated_error_are_inconclusive(self, u, two_point, expected):
        # Every circle passes under the sharpness floors; the residuals reach
        # 0.5006 of 2 S (the Wirtinger one decides), so the threshold of u,
        # 2 sqrt(u) S, holds them from u = 0.2506 on.
        config = replace(self.SHARPNESS, p2=1j) if two_point else self.SHARPNESS
        result = verdict(_Stating(builtin("counterexample").oracle, u), config)
        assert result.classification == expected
        assert all(r.passes for r in result.families)
        assert result == replace(verdict(builtin("counterexample").oracle, config), classification=expected)

    def test_unsampled_wirtinger_grid_stays_inconsistent(self):
        grid = DbarGrid()
        bad = grid.points()[7] + grid.h
        counterexample = builtin("counterexample").oracle

        def f(z):
            z = np.asarray(z, dtype=complex)
            return np.where(z == bad, np.nan, counterexample(z))

        result = verdict(_Stating(f, 0.3), self.SHARPNESS)
        assert result.dbar_value is None
        assert result.classification == CLASS_INCONSISTENT

    @pytest.mark.parametrize("f, expected", [(builtin("expz").oracle, CLASS_CONSISTENT),
                                             (lambda z: 1.0 / (np.asarray(z, dtype=complex) - 1.0001), CLASS_INCONCLUSIVE)])
    def test_other_classes_stand(self, f, expected):
        # A stated error never turns a pass into anything else.
        assert verdict(f, self.CONFIG).classification == expected
        assert verdict(_Stating(f, 0.5), self.CONFIG) == verdict(f, self.CONFIG)


class TestStatedErrorStorage:
    """The kernel reads a stated error however the oracle stores it: cross-consistency hands it f itself."""

    @pytest.mark.parametrize("p", [-1.0, 1j])
    @pytest.mark.parametrize("stating", [_StatingByProperty, _StatingBySlots])
    def test_cross_consistency_reads_the_error_at_every_pencil_point(self, stating, p):
        config = replace(TestStatedError.CONFIG, p=p)
        with pytest.raises(InconclusiveError, match=f"is undecided \\({ext.WITHIN_ERROR}\\)"):
            cross_consistency(stating(_perturbed_exp, 1e-4), config.t_values(), config)

    @pytest.mark.parametrize("p", [-1.0, 1j, cmath.exp(2.1j)])
    def test_circles_are_in_the_callers_frame(self, p):
        # A pole at 0.9 p inside the disc: every circle of the pencil through
        # p holds it and fails, and no circle of the pencil through -p does.
        # The circle named is the member the sweep through p builds for the
        # parameter the message gives.
        f = lambda z: 1.0 / (np.asarray(z, dtype=complex) - 0.9 * p)
        config = PipelineConfig(p=p, p2=-p)
        through = re.escape(f"from the pencil circle through {complex(p)} with parameter")
        with pytest.raises(ExtensionFailureError, match=through) as err:
            cross_consistency(f, -0.3, config)
        parameter = float(re.search(r"parameter (\S+) surrounding", str(err.value)).group(1))
        assert err.value.circle == config.families()[0].circle(parameter)


class TestReports:
    def test_byte_identical_documents(self):
        f = builtin("rational").oracle
        config = PipelineConfig(circles_per_family=8)
        docs = []
        for _ in range(2):
            v = verdict(f, config)
            docs.append(dumps_report(report_document(v, config, {"source": "builtin", "name": "rational"})))
        assert docs[0] == docs[1]

    def test_schema_keys(self):
        f = builtin("expz").oracle
        config = PipelineConfig(circles_per_family=8)
        doc = json.loads(dumps_report(report_document(verdict(f, config), config, {"source": "builtin", "name": "expz"})))
        assert doc["verdict"] == CLASS_CONSISTENT
        assert {"family", "parameter", "negative_energy", "passes"} <= set(doc["families"][0]["circles"][0])
        assert doc["families"][0]["family"] == "centered"
        assert doc["families"][1]["family"] == "pencil"

    def test_two_point_layout(self):
        # The default layout, key for key.
        f = builtin("expz").oracle
        default = PipelineConfig(circles_per_family=8)
        config = replace(default, p2=1.0)
        desc = {"source": "builtin", "name": "expz"}
        doc = report_document(verdict(f, config), config, desc, ["note"])
        expected = report_document(verdict(f, default), default, desc)
        assert doc.keys() == expected.keys()
        for key in ("cross_consistency", "dbar", "tolerances"):
            assert doc[key].keys() == expected[key].keys()
        assert doc["verdict"] == CLASS_CONSISTENT and doc["warnings"] == ["note"]
        assert (doc["p_re"], doc["p_im"]) == (-1.0, 0.0)
        assert doc["cross_consistency"]["t_values"] == config.t_values().tolist()


def reference_surrounding_circles(T, r_floor, t_floor):
    """The circles of both families around one ``T``, built one T at a time."""
    margin, per_family = 0.05, 3
    out = []
    r_lo = max(r_floor, abs(T) + margin)
    if r_lo < 1.0:
        for R in np.linspace(r_lo, 1.0, per_family):
            out.append(("centered", float(R), Circle(0.0, float(R))))
    t_lo = max(t_floor, (T - 1.0 + margin) / 2.0)
    if t_lo < 0.0:
        for t in np.linspace(t_lo, 0.0, per_family):
            out.append(("pencil", float(t), Circle(complex(t), float(t) + 1.0)))
    return out


def reference_cross_consistency(f, T, config=PipelineConfig()):
    """Cross-consistency with a loop over T: the reference for the array version."""
    config.families()  # floors the sweeps refuse are refused before any T
    t_values = [float(t) for t in np.atleast_1d(T)]
    t_floor = (-1.0 + config.tau) if config.t_min is None else config.t_min
    keys = {}
    names = {}
    pairs = []
    probes = []
    for t in t_values:
        if not (-1.0 + 2.0 * config.tau < t < 0.0):
            raise DomainError(f"T = {t} outside the admissible interval ({-1.0 + 2.0 * config.tau}, 0)")
        chosen = reference_surrounding_circles(t, config.r_min, t_floor)
        if len(chosen) < 2:
            raise ConfigError(f"no surrounding circles available for T = {t} under the given floors")
        delta = min(0.25 * min(c.radius - abs(t - c.center) for _, _, c in chosen), 0.02)
        n = CROSS_PROBES
        ring = t + delta * np.exp(2j * np.pi * np.arange(n) / n)
        for kind, param, circle in chosen:
            row = keys.setdefault((circle.center, circle.radius), len(keys))
            pencil = f" through {complex(config.p)}" if kind == "pencil" else ""
            names.setdefault(row, f"the {kind} circle{pencil} with parameter {param} surrounding T = {t}")
            pairs.append((t, row))
            probes.append(ring)
    batch = ext.analyze_batch(f, [c for c, _ in keys], [r for _, r in keys], config.morera_tol)
    batch.require_extensions(names.__getitem__)
    values = batch.evaluate(np.array(probes), [row for _, row in pairs])
    residual = 0.0
    for t in t_values:
        block = values[[i for i, (s, _) in enumerate(pairs) if s == t]]
        residual = max(residual, float(np.abs(block[:, None, :] - block[None, :, :]).max()))
    return residual


def _exp(c):
    return lambda z: np.exp(c * np.asarray(z, dtype=complex))


CROSS_FUNCTIONS = {name: builtin(name).oracle for name in builtin_names()}
CROSS_FUNCTIONS.update({f"exp({c}z)": _exp(c) for c in (1, 10, 20, 25, 40)})
CROSS_FUNCTIONS["pole-at-1.0001"] = lambda z: 1.0 / (np.asarray(z, dtype=complex) - 1.0001)
SHARPNESS = PipelineConfig(r_min=0.6, t_min=-0.4)
WIDE = PipelineConfig(tau=0.1, r_min=0.2)
NARROW = PipelineConfig(tau=0.4)
T8 = PipelineConfig().t_values()
# Each setting is (T, config); a config that is not given is the default.
CROSS_SETTINGS = {
    "default-config": (T8, PipelineConfig()),
    "sharpness-config": (T8, SHARPNESS),
    "wide-config": (WIDE.t_values(), WIDE),
    "narrow-config": (NARROW.t_values(), NARROW),
    "floor-0.3": (T8, PipelineConfig(r_min=0.3)),
    "single-T": (-0.3, None),
    "repeated-T": ([-0.3, -0.1, -0.3], None),
    "no-T": ([], None),
    "T-out-of-range": ([-0.3, -0.9], None),
    # Floors the sweeps refuse: both raise FamilyConfig's ConfigError.
    "too-few-circles": ([-0.3, -0.1], PipelineConfig(r_min=1.0, t_min=0.0)),
    "one-family": ([-0.3, -0.1], PipelineConfig(r_min=1.0)),
    # No centered circle surrounds T = -0.97, where |T| + margin >= 1.
    "one-family-at-some-T": ([-0.3, -0.97, -0.1], PipelineConfig(tau=0.01)),
    "loose-tolerance": (T8, PipelineConfig(morera_tol=1e-3)),
}


def _outcome(fn, f, T, config):
    try:
        return "value", (fn(f, T) if config is None else fn(f, T, config))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc), getattr(exc, "circle", None)


class TestCrossConsistencyOracle:
    @pytest.mark.parametrize("setting", list(CROSS_SETTINGS))
    @pytest.mark.parametrize("function", list(CROSS_FUNCTIONS))
    def test_matches_the_per_t_loop(self, function, setting):
        f = CROSS_FUNCTIONS[function]
        T, config = CROSS_SETTINGS[setting]
        expected = _outcome(reference_cross_consistency, f, T, config)
        assert _outcome(cross_consistency, f, T, config) == expected


# The bench's pencil points, whose conj(p) p is 1.0 exactly, and three that are unit only to rounding.
EXACT_UNIT_POINTS = [1, -1, 1j, -1j, 0.6 + 0.8j, -0.6 + 0.8j, 0.8 - 0.6j, -0.8 - 0.6j, 0.28 + 0.96j, -0.96 - 0.28j]
UNIT_POINTS = EXACT_UNIT_POINTS + [cmath.exp(2.1j), cmath.exp(-0.7j), cmath.exp(3.0j)]


class TestCrossMembers:
    """The members cross-consistency compares around -p T, in both configurations."""

    @pytest.mark.parametrize("p", UNIT_POINTS)
    def test_every_member_surrounds_the_point(self, p):
        for p2 in [None, *(q for q in UNIT_POINTS if abs(q - p) > 1e-12)]:
            config = PipelineConfig(p=p, p2=p2)
            for T in config.t_values().tolist():
                for family in config.families():
                    for s in _cross_members(family, complex(p), T):
                        circle = family.circle(s)
                        assert abs(-p * T - circle.center) < circle.radius

    @pytest.mark.parametrize("p", EXACT_UNIT_POINTS)
    def test_bounds_are_the_axis_formulas_bit_for_bit(self, p):
        # What keeps the default configuration's circles.  The two-point
        # configuration's first family is the same pencil through p.  At the
        # default floors each bound lies above its family's floor and decides.
        p = complex(p)
        assert p.conjugate() * p == 1.0
        centered, pencil = PipelineConfig(p=p).families()
        for T in PipelineConfig().t_values().tolist():
            assert _cross_members(centered, p, T)[0] == abs(T) + CROSS_MARGIN
            assert _cross_members(pencil, p, T)[0] == (T - 1.0 + CROSS_MARGIN) / 2.0


# JSON documents of the kinds reports hold: nested dicts with string keys,
# lists, tuples, empty containers, and flat records whose strings contain NUL,
# quotes, brackets, "}," and non-ASCII text.
_json_text = st.text(alphabet=st.sampled_from(list('ab"\\\x00\n{}[],: \u00e9\u4e2d\U0001f600')), max_size=8)
_json_scalars = (
    st.none() | st.booleans() | st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=False, allow_infinity=False) | _json_text
)
_json_records = st.lists(st.dictionaries(_json_text, _json_scalars, min_size=1, max_size=5), min_size=1, max_size=4)
_json_docs = st.recursive(
    _json_scalars | _json_records,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_json_text, children, max_size=4)
    ),
    max_leaves=25,
)


def _with_leaf(doc, leaf, path):
    """``doc`` with the first scalar found along ``path`` (a list of choices) replaced by ``leaf``."""
    if isinstance(doc, dict) and doc:
        key = sorted(doc)[path[0] % len(doc)]
        return {**doc, key: _with_leaf(doc[key], leaf, path[1:] or [0])}
    if isinstance(doc, (list, tuple)) and doc:
        i = path[0] % len(doc)
        return [*doc[:i], _with_leaf(doc[i], leaf, path[1:] or [0]), *doc[i + 1 :]]
    return leaf


class TestDumpsReport:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(doc=_json_docs)
    def test_same_text_as_json_dumps(self, doc):
        assert dumps_report(doc) == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        doc=_json_docs,
        leaf=st.sampled_from([math.nan, math.inf, -math.inf]),
        path=st.lists(st.integers(0, 10), min_size=1, max_size=6),
    )
    def test_non_finite_values_raise_at_any_depth(self, doc, leaf, path):
        doc = _with_leaf(doc, leaf, path)
        with pytest.raises(ValueError):
            json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
        with pytest.raises(ValueError):
            dumps_report(doc)

    @pytest.mark.parametrize("name", builtin_names())
    def test_verdict_reports_match_json_dumps(self, name):
        config = PipelineConfig(circles_per_family=8)
        doc = report_document(verdict(builtin(name).oracle, config), config, {"source": "builtin", "name": name})
        assert dumps_report(doc) == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def test_non_string_keys_are_converted_as_json_dumps_converts_them(self):
        doc = {"a": {10: [1.5, {2.5: None, -1e300: "x"}], 2: {True: (), False: 0}}, "b": {None: [{1: 2}]}}
        assert dumps_report(doc) == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_prints_what_its_comments_say():
    code = README.read_text().split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    consistent, failure, worst, floored = out.getvalue().splitlines()
    assert consistent == CLASS_CONSISTENT
    assert failure == CLASS_MORERA_FAILURE
    assert float(worst) < -0.5
    classification, dbar = floored.split()
    assert classification == CLASS_INCONSISTENT
    assert abs(float(dbar) - 1.0) < 1e-6
