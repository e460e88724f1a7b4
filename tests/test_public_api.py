"""The public names of ``morera`` are a contract: the list is pinned here."""

import morera

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


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 46
    assert morera.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in morera.__all__ if getattr(morera, name, None) is None]
    assert missing == []
    namespace = {}
    exec("from morera import *", namespace)
    assert set(morera.__all__) <= set(namespace)
