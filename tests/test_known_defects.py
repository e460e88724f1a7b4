"""Open defects of the harness, as strict expected failures with fixed inputs.

Each case asserts an invariant of the theorem the harness tests, not what
the program prints today:

- a holomorphic f is never ``morera-failure`` or ``inconsistent``;
- with the hypotheses valid, a verdict is never ``inconsistent``;
- z̄^200 does not extend from the unit circle;
- λf has the class of f.

A case that breaks its invariant today is marked ``xfail(strict=True)``
with the ROADMAP item that fixes it; the change that fixes the item makes
the case pass, which fails the suite until the mark is removed.
"""

import json

import numpy as np
import pytest

from morera.analysis import CLASS_INCONSISTENT, CLASS_MORERA_FAILURE
from morera.cli import main
from morera.extension import analyze_with_refinement
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
        pytest.param("exp(25*z)", marks=item(2)),
    ],
)
def test_holomorphic_expression_is_not_a_failure(capsys, text):
    assert verdict_document(capsys, "--expr", text)["verdict"] not in FAILURES


@item(1)
def test_conjugate_power_does_not_extend_from_the_unit_circle():
    # k = -200 folds onto k = +56 at 256 samples.
    _, result, inconclusive = analyze_with_refinement(lambda z: np.conj(z) ** 200, Circle(0, 1.0))
    assert not result.passes or inconclusive


@item(2)
def test_scaling_keeps_the_class(capsys):
    scaled = verdict_document(capsys, "--expr", "10^16*exp(z)")["verdict"]
    assert scaled == verdict_document(capsys, "--expr", "exp(z)")["verdict"]


@pytest.mark.parametrize("text", [pytest.param(text, marks=item(9)) for text in ("exp(z)+0.00001*zbar", "(1+z)^1.5")])
def test_valid_hypotheses_are_never_inconsistent(capsys, text):
    doc = verdict_document(capsys, "--expr", text)
    assert doc["hypotheses_valid"]
    assert doc["verdict"] != CLASS_INCONSISTENT


@item(10)
def test_grid_of_a_holomorphic_function_is_not_a_failure(capsys, tmp_path):
    path = tmp_path / "z20.csv"
    write_polar_grid(str(path), lambda z: z**20)
    assert verdict_document(capsys, "--grid", str(path))["verdict"] not in FAILURES
