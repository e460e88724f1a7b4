"""The theorem's invariants on measured cases, with fixed inputs.

Each case asserts an invariant of the theorem the harness tests, not what
the program prints today:

- a holomorphic f is never ``morera-failure`` or ``inconsistent``;
- with the hypotheses valid, a verdict is never ``inconsistent``;
- z̄^200 does not extend from the unit circle;
- λf has the class of f;
- a grid of f is judged as f is, up to ``inconclusive`` where the grid does
  not resolve f.

A case that breaks its invariant today is marked ``xfail(strict=True)``
with the ROADMAP item that fixes it; the change that fixes the item makes
the case pass, which fails the suite until the mark is removed.  Where a
case once failed, its comment gives the outcome of the code before the fix.
"""

import json

import numpy as np
import pytest

from morera.analysis import (
    CLASS_CONSISTENT,
    CLASS_INCONCLUSIVE,
    CLASS_INCONSISTENT,
    CLASS_MORERA_FAILURE,
    PipelineConfig,
    report_document,
    verdict,
)
from morera.cli import main
from morera.extension import analyze_with_refinement
from morera.funczoo import builtin, builtin_names
from morera.geometry import Circle
from morera.gridio import write_polar_grid

FAILURES = (CLASS_MORERA_FAILURE, CLASS_INCONSISTENT)


def item(number: int):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {number}")


def verdict_document(capsys, *source) -> dict:
    main(["verdict", *source])
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "text",
    [
        "z^150",
        # At 256 samples k = 200 folds onto k = -56, below the aliasing band.
        pytest.param("z^200", marks=item(1)),
        # Was inconsistent while the residual tolerances were absolute.
        "exp(25*z)",
    ],
)
def test_holomorphic_expression_is_not_a_failure(capsys, text):
    assert verdict_document(capsys, "--expr", text)["verdict"] not in FAILURES


@item(1)
def test_conjugate_power_does_not_extend_from_the_unit_circle():
    # k = -200 folds onto k = +56 at 256 samples.
    _, result, inconclusive = analyze_with_refinement(lambda z: np.conj(z) ** 200, Circle(0, 1.0))
    assert not result.passes or inconclusive


def test_scaling_keeps_the_class(capsys):
    # Was inconsistent while the residual tolerances were absolute.
    scaled = verdict_document(capsys, "--expr", "10^16*exp(z)")["verdict"]
    assert scaled == verdict_document(capsys, "--expr", "exp(z)")["verdict"]


@pytest.mark.parametrize("name", builtin_names())
def test_scaled_builtin_keeps_its_class(name):
    # poly3, expz and rational were inconsistent for k = 9 ... 16 while the
    # residual tolerances were absolute.
    f = builtin(name).oracle
    expected = verdict(f).classification
    for k in range(-24, 17):
        assert verdict(lambda z: 10.0**k * f(z)).classification == expected, k


def test_exponentials_are_consistent():
    # c = 24 ... 60 were inconsistent while the residual tolerances were absolute.
    for c in range(1, 61):
        assert verdict(lambda z: np.exp(c * z)).classification == CLASS_CONSISTENT, c


@pytest.mark.parametrize("text", ["exp(z)+0.00001*zbar", "(1+z)^1.5"])
def test_valid_hypotheses_are_never_inconsistent(capsys, text):
    # Both were inconsistent while the residual tolerances were absolute.
    doc = verdict_document(capsys, "--expr", text)
    assert doc["hypotheses_valid"]
    assert doc["verdict"] != CLASS_INCONSISTENT


NON_HOLOMORPHIC_TERMS = {
    "zbar": np.conj,
    "|z|^2": lambda z: np.abs(z) ** 2,
    "zbar^3": lambda z: np.conj(z) ** 3,
    "z*zbar^2": lambda z: z * np.conj(z) ** 2,
}


@pytest.mark.parametrize("name", NON_HOLOMORPHIC_TERMS)
def test_small_non_holomorphic_part_is_never_inconsistent(name):
    # eps = 1e-4 and 1e-5 were inconsistent for every term while the residual
    # tolerances were absolute.
    g = NON_HOLOMORPHIC_TERMS[name]
    for e in range(1, 12):
        result = verdict(lambda z: np.exp(z) + 10.0**-e * g(z))
        assert result.hypotheses_valid
        assert result.classification != CLASS_INCONSISTENT, e


@pytest.mark.parametrize("base", ["1+z", "1-z", "1-iz"])
def test_boundary_branch_point_is_never_inconsistent(base):
    # s = 1.25 was inconsistent for every base, and s = 1.5 for 1+z, while the
    # residual tolerances were absolute.
    g = {"1+z": lambda z: 1 + z, "1-z": lambda z: 1 - z, "1-iz": lambda z: 1 - 1j * z}[base]
    for s in (1.25, 1.5, 1.75, 2.0, 2.5):
        result = verdict(lambda z: g(z) ** s)
        assert result.hypotheses_valid
        assert result.classification != CLASS_INCONSISTENT, s


def test_zero_function_accepts_only_zero_residuals():
    zero = lambda z: np.zeros(np.shape(z), dtype=complex)
    config = PipelineConfig()
    result = verdict(zero, config)
    assert result.classification == CLASS_CONSISTENT
    assert (result.cross_residual, result.dbar_value) == (0.0, 0.0)
    tolerances = report_document(result, config, {"source": "builtin", "name": "zero"})["tolerances"]
    assert (tolerances["cross"], tolerances["dbar"]) == (0.0, 0.0)


GRID_FUNCTIONS = {"exp(3z)": lambda z: np.exp(3 * z), "1/(z-1.3)": lambda z: 1 / (z - 1.3), "z^20": lambda z: z**20}
GRID_SHAPES = ((16, 32), (32, 64), (64, 128))


def grid_verdict(capsys, path, f, n_r: int, n_theta: int) -> str:
    """The class of ``verdict`` on a grid of ``f``; a run that exits 3 is inconclusive."""
    write_polar_grid(str(path), f, n_r, n_theta)
    code = main(["verdict", "--grid", str(path)])
    out = capsys.readouterr().out
    return CLASS_INCONCLUSIVE if code == 3 else json.loads(out)["verdict"]


@pytest.mark.parametrize("n_r, n_theta", GRID_SHAPES)
@pytest.mark.parametrize("name", GRID_FUNCTIONS)
def test_grid_of_a_holomorphic_function_is_not_a_failure(capsys, tmp_path, name, n_r, n_theta):
    # exp(3z) at 16x32 and 32x64, 1/(z-1.3) at 32x64 and z^20 at 64x128 were
    # inconsistent while the residual tolerances were absolute; 1/(z-1.3) at
    # 16x32 and z^20 at 16x32 and 32x64 were morera-failure while a fixed x10
    # inflation of morera_tol stood in for the interpolant's error.
    found = grid_verdict(capsys, tmp_path / "grid.csv", GRID_FUNCTIONS[name], n_r, n_theta)
    assert found not in FAILURES
    if n_r == 64:
        assert found == CLASS_CONSISTENT


@pytest.mark.parametrize("n_r, n_theta", GRID_SHAPES)
@pytest.mark.parametrize("name", ["counterexample", "absq", "conjugate", "radial-smooth"])
def test_grid_of_a_non_holomorphic_builtin_fails(capsys, tmp_path, name, n_r, n_theta):
    # These fail by far more than the grid's estimated interpolation error,
    # so no failure is discounted as inconclusive.
    assert grid_verdict(capsys, tmp_path / "grid.csv", builtin(name).oracle, n_r, n_theta) == CLASS_MORERA_FAILURE


@pytest.mark.parametrize("n_r, n_theta", GRID_SHAPES)
def test_grid_of_a_non_holomorphic_function_is_never_consistent(capsys, tmp_path, n_r, n_theta):
    # At 32 angles the k = -14 term lies in the band |k| >= 12 that the error
    # estimate counts whole, about 0.018 of max |f|.  The 16 x 32 grid was
    # holomorphic-consistent while the estimate raised the per-circle
    # tolerance to (10 * 0.018)^2; it only discounts failures now.
    f = lambda z: np.exp(z) + 0.05 * np.conj(z) ** 14
    found = grid_verdict(capsys, tmp_path / "grid.csv", f, n_r, n_theta)
    assert found == (CLASS_INCONCLUSIVE if n_r == 16 else CLASS_MORERA_FAILURE)
