"""The public API of ``morera`` is a contract: its names and call signatures are pinned here.

A new parameter, field or method of a public function or record shows up as a
change to this file, as a new CLI flag shows up in ``TestEveryFlagIsRead``.
"""

import dataclasses
import inspect

import pytest

import morera
from morera._record import Record

PUBLIC_NAMES = [
    "Arc", "Circle", "CircleTrace", "DbarGrid", "ExtensionResult", "FamilyConfig", "FiberCurve",
    "FourierData", "INFINITY", "MoreraError", "PencilConfig", "PipelineConfig", "QuadricPoint",
    "RegionD", "Report", "Semiquadric", "Verdict", "ZooEntry", "analyze_circle", "arc_lambda",
    "builtin", "builtin_names", "cauchy_transform", "counterexample_pole", "cross_consistency",
    "dbar_residual", "eval_F", "evaluate_extension", "extension_test", "family_intersection_point",
    "fiber_curve", "fiber_integral", "fiber_w", "in_admissible_region", "invert_pencil_fiber",
    "pencil_circle", "pencil_param", "quadrics_intersect", "region_contains", "sample_circle",
    "surrounds", "tangent_circle", "test_family", "validate_families", "verdict", "winding_number",
]

# Public names that are neither a function nor a record.
NOT_CALLED = {"INFINITY", "MoreraError"}

# Parameters without annotations; a record is listed by its fields, then by
# each public method it defines (less self or cls).  A record default equal to
# its class's default instance is written "Class()".
SIGNATURES = {
    "Arc": "(circle, angle_start, angle_end)",
    "Arc.point": "(s)",
    "Circle": "(center, radius)",
    "Circle.boundary_distance": "(z)",
    "Circle.point": "(theta)",
    "CircleTrace": "(circle, values)",
    "DbarGrid": "(r_min=0.2, r_max=0.8, n_r=5, n_theta=12, h=0.001)",
    "DbarGrid.points": "()",
    "ExtensionResult": "(passes, negative_energy, threshold_used, aliasing_flag)",
    "FamilyConfig": "(kind, lo, hi, count=32, p=(-1+0j))",
    "FamilyConfig.circle": "(parameter)",
    "FamilyConfig.parameters": "()",
    "FamilyConfig.smallest_circle": "()",
    "FiberCurve": "(z, segment, arc, t_min)",
    "FiberCurve.distance": "(W)",
    "FiberCurve.distances": "(Ws)",
    "FiberCurve.polyline": "(per_piece=256)",
    "FourierData": "(circle, coefficients, tail_energy_negative, tail_energy_high)",
    "FourierData.coefficient": "(k)",
    "PencilConfig": "(p, tau)",
    "PipelineConfig": (
        "(tau=0.25, p=(-1+0j), p2=None, circles_per_family=32, r_min=0.05, t_min=None, "
        "morera_tol=1e-08)"
    ),
    "PipelineConfig.families": "(kind='both')",
    "PipelineConfig.t_values": "()",
    "QuadricPoint": "(z, w)",
    "QuadricPoint.residual": "(q)",
    "RegionD": "(curve)",
    "RegionD.contains": "(W)",
    "Report": "(config, circles, passes, inconclusive, worst, scale)",
    "Report.to_dict": "()",
    "Semiquadric": "(a, r)",
    "Semiquadric.centered": "(radius)",
    "Semiquadric.pencil": "(t)",
    "Verdict": (
        "(classification, families, hypotheses_valid, cross_residual=None, cross_t_values=(), "
        "cross_note=None, dbar_value=None, dbar_error=None)"
    ),
    "Verdict.to_dict": "()",
    "ZooEntry": "(name, oracle, classification)",
    "ZooEntry.extendable_from": "(circle)",
    "ZooEntry.extension_for": "(circle)",
    "analyze_circle": "(f, circle, n=256)",
    "arc_lambda": "(z, tau=None)",
    "builtin": "(name)",
    "builtin_names": "()",
    "cauchy_transform": "(f, z, W, nodes=512, tol=1e-08, tau=0.25)",
    "counterexample_pole": "(a, r)",
    "cross_consistency": "(f, T, config=PipelineConfig())",
    "dbar_residual": "(f, grid=DbarGrid())",
    "eval_F": "(f, z, w, tol=1e-08)",
    "evaluate_extension": "(data, zeta, result=None, tol=1e-08)",
    "extension_test": "(data, tol=1e-08)",
    "family_intersection_point": "(R, t)",
    "fiber_curve": "(z, *, tau=0.25)",
    "fiber_integral": "(f, z, nodes=512, tol=1e-08, tau=0.25)",
    "fiber_w": "(q, z)",
    "in_admissible_region": "(z, tau=0.25)",
    "invert_pencil_fiber": "(z, w)",
    "pencil_circle": "(t, tau=0.0)",
    "pencil_param": "(z)",
    "quadrics_intersect": "(q1, q2)",
    "region_contains": "(curve, W)",
    "sample_circle": "(f, circle, n)",
    "surrounds": "(inner, outer, *, tangency_tol=0.0)",
    "tangent_circle": "(z)",
    "test_family": "(f, config, tol=1e-08)",
    "validate_families": "(config_a, config_b)",
    "verdict": "(f, config=PipelineConfig())",
    "winding_number": "(curve, W)",
}


def _default(value) -> str:
    if isinstance(value, Record) and value == type(value)():
        return f"{type(value).__name__}()"
    return repr(value)


def _text(parameters) -> str:
    """A parameter list as source text, without annotations."""
    out = []
    for p in parameters:
        if p.kind is p.KEYWORD_ONLY and "*" not in out:
            out.append("*")
        prefix = {p.VAR_POSITIONAL: "*", p.VAR_KEYWORD: "**"}.get(p.kind, "")
        out.append(prefix + p.name + ("" if p.default is p.empty else "=" + _default(p.default)))
    return "(" + ", ".join(out) + ")"


def public_signatures() -> dict:
    """Every public function, record and public record method, with its parameter text."""
    found = {}
    for name in morera.__all__:
        obj = getattr(morera, name)
        if isinstance(obj, type) and issubclass(obj, Record):
            found[name] = _text(
                inspect.Parameter(
                    f.name,
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    default=inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default,
                )
                for f in dataclasses.fields(obj)
            )
            for member, value in vars(obj).items():
                function = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
                if not member.startswith("_") and inspect.isfunction(function):
                    parameters = list(inspect.signature(function).parameters.values())
                    found[f"{name}.{member}"] = _text(parameters[0 if isinstance(value, staticmethod) else 1 :])
        elif inspect.isfunction(obj):
            found[name] = _text(inspect.signature(obj).parameters.values())
    return found


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 46
    assert morera.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in morera.__all__ if getattr(morera, name, None) is None]
    assert missing == []
    namespace = {}
    exec("from morera import *", namespace)
    assert set(morera.__all__) <= set(namespace)


def test_every_callable_is_pinned():
    found = public_signatures()
    assert set(found) == set(SIGNATURES)
    assert {name for name in morera.__all__ if name not in found} == NOT_CALLED


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature(name):
    assert public_signatures()[name] == SIGNATURES[name]
