"""Numerical tests for holomorphic extendability from families of circles.

The library decides, at desk scale, whether a continuous function on the
closed unit disc extends holomorphically from each circle of two families
(circles centered at the origin, and circles tangent at a boundary point),
and cross-checks the machinery that makes joint extendability force
analyticity: semiquadric graphs, fiber curves, Cauchy transforms along them,
and an independent Wirtinger-derivative oracle.
"""

import os as _os
import sys as _sys

# numpy's bundled OpenBLAS starts a pool of worker threads when it loads, and
# they spin while the rest of the import runs (about 70 ms of a cold start on
# 2 cores).  morera makes no BLAS or LAPACK call (tests/test_openblas_guard.py
# checks the sources), so numpy is loaded here with one BLAS thread, unless
# numpy is already loaded or the user chose a thread count.  The variable is
# removed again, so subprocesses inherit the environment as it was.
if "numpy" not in _sys.modules and not any(
    name in _os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import (
    DbarGrid,
    FamilyConfig,
    PipelineConfig,
    Report,
    Verdict,
    cross_consistency,
    dbar_residual,
    test_family,
    validate_families,
    verdict,
)
from .errors import MoreraError
from .extension import (
    CircleTrace,
    ExtensionResult,
    FourierData,
    analyze_circle,
    evaluate_extension,
    extension_test,
    sample_circle,
)
from .fiber import (
    FiberCurve,
    RegionD,
    cauchy_transform,
    eval_F,
    fiber_curve,
    fiber_integral,
    region_contains,
    winding_number,
)
from .funczoo import ZooEntry, builtin, builtin_names, counterexample_pole
from .geometry import (
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
from .semiquadric import (
    INFINITY,
    QuadricPoint,
    Semiquadric,
    family_intersection_point,
    fiber_w,
    invert_pencil_fiber,
    quadrics_intersect,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "Circle",
    "CircleTrace",
    "DbarGrid",
    "ExtensionResult",
    "FamilyConfig",
    "FiberCurve",
    "FourierData",
    "INFINITY",
    "MoreraError",
    "PencilConfig",
    "PipelineConfig",
    "QuadricPoint",
    "RegionD",
    "Report",
    "Semiquadric",
    "Verdict",
    "ZooEntry",
    "analyze_circle",
    "arc_lambda",
    "builtin",
    "builtin_names",
    "cauchy_transform",
    "counterexample_pole",
    "cross_consistency",
    "dbar_residual",
    "eval_F",
    "evaluate_extension",
    "extension_test",
    "family_intersection_point",
    "fiber_curve",
    "fiber_integral",
    "fiber_w",
    "in_admissible_region",
    "invert_pencil_fiber",
    "pencil_circle",
    "pencil_param",
    "quadrics_intersect",
    "region_contains",
    "sample_circle",
    "surrounds",
    "tangent_circle",
    "test_family",
    "validate_families",
    "verdict",
    "winding_number",
]
