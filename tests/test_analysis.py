import numpy as np
import pytest

from morera.analysis import (
    CLASS_CONSISTENT,
    CLASS_INCONCLUSIVE,
    CLASS_INCONSISTENT,
    CLASS_MORERA_FAILURE,
    DbarGrid,
    FamilyConfig,
    PipelineConfig,
    cross_consistency,
    dbar_residual,
    dumps_report,
    report_document,
    validate_families,
    verdict,
)
from morera.analysis import test_family as sweep_family
from morera.errors import (
    ConfigError,
    DomainError,
    ExtensionFailureError,
    InconclusiveError,
    SamplingError,
)
from morera.funczoo import builtin, holomorphic_members


class TestFamilyConfig:
    def test_grid_is_sorted_and_inside_range(self):
        config = FamilyConfig.pencil(0.25, count=32)
        params = config.parameters()
        assert len(params) == 32
        assert np.all(np.diff(params) > 0)
        assert params[0] > -0.75 and params[-1] < 0.0

    def test_pencil_circle_coordinates(self):
        config = FamilyConfig.pencil(0.25)
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
            FamilyConfig.centered(0.9, 0.5)
        with pytest.raises(ConfigError):
            FamilyConfig.centered(0.0, 1.0)


class TestTestFamily:
    def test_entire_function_passes_everywhere(self):
        report = sweep_family(builtin("expz").oracle, FamilyConfig.centered(0.05, 1.0, 32))
        assert report.passes and not report.inconclusive
        assert all(c.passes for c in report.circles)

    def test_counterexample_fails_small_pencil_circles(self):
        report = sweep_family(builtin("counterexample").oracle, FamilyConfig.pencil(0.25, count=32))
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
            report = sweep_family(f, FamilyConfig.pencil(0.25, count=count))
            assert not report.passes

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pole_on_a_circle_names_parameter_and_theta(self):
        config = FamilyConfig.centered(0.1, 1.0, 8)
        pole = config.parameters()[3]
        with pytest.raises(SamplingError) as err:
            sweep_family(lambda z: 1.0 / (np.asarray(z, dtype=complex) - pole), config)
        assert f"parameter {pole}" in str(err.value)
        assert err.value.theta == pytest.approx(0.0)


class TestCrossConsistency:
    def test_holomorphic_agrees(self):
        residual = cross_consistency(builtin("poly3").oracle, -0.3, probe_count=8)
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

    def test_sequence_of_t_is_max_over_t(self):
        f = builtin("counterexample").oracle
        kwargs = dict(r_floor=0.6, t_floor=-0.4)
        single = [cross_consistency(f, T, **kwargs) for T in (-0.3, -0.1)]
        assert cross_consistency(f, [-0.3, -0.1], **kwargs) == pytest.approx(max(single), rel=1e-12)

    def test_capped_circle_is_inconclusive(self):
        # A pole just outside the unit circle: the surrounding circle of
        # radius 1 stays aliased at the sample cap.
        f = lambda z: 1.0 / (np.asarray(z, dtype=complex) - 1.0001)
        with pytest.raises(InconclusiveError) as err:
            cross_consistency(f, -0.3)
        assert err.value.circle.radius == pytest.approx(1.0)

    def test_counterexample_disagrees_under_floors(self):
        # With both families floored the extensions exist but differ by circle.
        residual = cross_consistency(
            builtin("counterexample").oracle, -0.3, r_floor=0.6, t_floor=-0.4
        )
        assert residual > 1e-2


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


class TestValidateFamilies:
    def test_centered_vs_pencil_inequality(self):
        # r < 1 - 2*rho with rho = 0.3: smallest pencil circle center -0.7
        assert validate_families(
            FamilyConfig.centered(0.2), FamilyConfig("pencil", -0.7, 0.0, 8)
        )
        assert not validate_families(
            FamilyConfig.centered(0.5), FamilyConfig("pencil", -0.7, 0.0, 8)
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
                centered = FamilyConfig.centered(r)
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
        # Every sweep circle stays clear of the pole at 1.0001; the radius-1
        # cross-consistency circle does not.
        f = lambda z: 1.0 / (np.asarray(z, dtype=complex) - 1.0001)
        v = verdict(f, PipelineConfig(r_max=0.9, t_max=-0.1))
        assert all(r.passes for r in v.families)
        assert v.classification == CLASS_INCONCLUSIVE
        assert "centered circle with parameter 1.0" in v.cross_note

    def test_invalid_tau(self):
        with pytest.raises(ConfigError):
            PipelineConfig(tau=0.7)


class TestReports:
    def test_byte_identical_documents(self):
        f = builtin("rational").oracle
        config = PipelineConfig(circles_per_family=8, t_count=3)
        docs = []
        for _ in range(2):
            v = verdict(f, config)
            docs.append(dumps_report(report_document(v, config, {"source": "builtin", "name": "rational"})))
        assert docs[0] == docs[1]

    def test_schema_keys(self):
        import json

        f = builtin("expz").oracle
        config = PipelineConfig(circles_per_family=8, t_count=3)
        doc = json.loads(dumps_report(report_document(verdict(f, config), config, {"source": "builtin", "name": "expz"})))
        assert doc["verdict"] == CLASS_CONSISTENT
        assert {"family", "parameter", "negative_energy", "passes"} <= set(doc["families"][0]["circles"][0])
        assert doc["families"][0]["family"] == "centered"
        assert doc["families"][1]["family"] == "pencil"
