"""The theorem's invariants on measured cases, with fixed inputs.

Each case asserts an invariant of the theorem the harness tests, not what
the program prints today:

- a holomorphic f is never ``morera-failure`` or ``inconsistent``, and no
  circle says it does not extend;
- the Cauchy transform of a holomorphic f is f(z) inside the fiber curve
  and 0 outside, or the run is inconclusive;
- with the hypotheses valid, a verdict is never ``inconsistent``;
- z̄^200 does not extend from the unit circle;
- λf has the class of f;
- a grid of f is judged as f is, up to ``inconclusive`` where the grid does
  not resolve f or holds no data, and the library judges it as the CLI does;
- an entire function is never worse than ``inconclusive``, even where its
  values or their energies overflow float64.

A case that breaks its invariant today is marked ``xfail(strict=True)``
with the ROADMAP item that fixes it; the change that fixes the item makes
the case pass, which fails the suite until the mark is removed.  Where a
case once failed, its comment gives the outcome of the code before the fix.
"""

import json

import numpy as np
import pytest

from morera import fiber
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
from morera.gridio import read_polar_grid, write_polar_grid

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


@pytest.mark.parametrize("n", [25, 50, 100])
def test_holomorphic_power_passes_at_the_one_start(capsys, n):
    # verdict was morera-failure, and test-circle on the unit circle said
    # does-not-extend, while --samples could start them at 32, 64 and 128.
    assert verdict_document(capsys, "--expr", f"z^{n}")["verdict"] == CLASS_CONSISTENT
    assert main(["test-circle", "--expr", f"z^{n}", "--radius", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "extends"


@item(1)
def test_power_extends_from_the_unit_circle(capsys):
    # At 256 samples k = 3000 folds onto k = -72, in the aliasing band, so N
    # doubles; at 512 it folds onto -72 again, below the band.
    main(["test-circle", "--expr", "z^3000", "--radius", "1"])
    assert json.loads(capsys.readouterr().out)["verdict"] != "does-not-extend"


@item(1)
def test_theta_of_a_power_is_exact_or_inconclusive(capsys):
    # Circles met by the curve pass on folds: the outside cells read
    # 5.0e-4 ... 4.1e-3, and the inside cell is off by 2.4e-3 where
    # |f(z)| = 2.1e-7.
    z = 0.95j
    code = main(["theta", "--expr", "z^300", "--z", "0.95i", "--w-count", "5"])
    rows = capsys.readouterr().out.splitlines()[1:]
    if code == 3:
        return
    assert code == 0
    expected = {"inside": z**300, "outside": 0.0}
    for row in rows:
        _, _, location, re_theta, im_theta, _ = row.split(",")
        if location in expected:
            assert abs(complex(float(re_theta), float(im_theta)) - expected[location]) <= 1e-6, row


@item(9)
def test_theta_of_a_large_entire_function_is_within_its_stated_tolerance(capsys):
    # The fiber tolerance is 1e-8 max(1, S), S each piece's scale: at least
    # 1e-3 times the largest root-mean-square of f on a sampled circle, here
    # 1.09e8, so the tolerance applied is 1.09.  The inside cell is off by
    # 2.65e-6, 3.0e-8 of |f(z)| = 88.4.
    z = -0.2 + 0.5j
    fz = np.exp((z + 2.0) ** 3)
    code = main(["theta", "--expr", "exp((z+2)^3)", "--z", "-0.2+0.5i", "--w-count", "5"])
    rows = capsys.readouterr().out.splitlines()[1:]
    if code == 3:
        return
    assert code == 0
    expected = {"inside": fz, "outside": 0.0}
    for row in rows:
        _, _, location, re_theta, im_theta, _ = row.split(",")
        if location in expected:
            value = complex(float(re_theta), float(im_theta))
            assert abs(value - expected[location]) <= 1e-8 * max(1.0, abs(fz)), row


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


def cli_class(capsys, path, *flags) -> str:
    """The class of ``verdict`` on the grid file ``path``; a run that exits 3 is inconclusive."""
    code = main(["verdict", "--grid", str(path), *flags])
    out = capsys.readouterr().out
    return CLASS_INCONCLUSIVE if code == 3 else json.loads(out)["verdict"]


def grid_verdict(capsys, path, f, n_r: int, n_theta: int) -> str:
    """The class of ``verdict`` on a grid of ``f``; a run that exits 3 is inconclusive."""
    write_polar_grid(str(path), f, n_r, n_theta)
    return cli_class(capsys, path)


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


GRID_TABLE = {
    **GRID_FUNCTIONS,
    **{name: builtin(name).oracle for name in ("counterexample", "absq", "conjugate", "radial-smooth")},
    "exp(z)+0.05zbar^14": lambda z: np.exp(z) + 0.05 * np.conj(z) ** 14,
}


@pytest.mark.parametrize("n_r, n_theta", GRID_SHAPES)
@pytest.mark.parametrize("name", GRID_TABLE)
def test_library_and_cli_judge_a_grid_alike(capsys, tmp_path, name, n_r, n_theta):
    # The grid's stated error is read by the extension kernel, so the library
    # verdict and the CLI agree, also through the oracle rotated to p = i.
    # exp(z) + 0.05 zbar^14 at 16 x 32 was morera-failure in the library
    # while the CLI alone discounted failures within the grid's error.
    path = tmp_path / "grid.csv"
    write_polar_grid(str(path), GRID_TABLE[name], n_r, n_theta)
    found = cli_class(capsys, path)
    assert verdict(read_polar_grid(str(path))).classification == found
    assert cli_class(capsys, path, "--p", "1i") == found


def write_annulus_grid(path, f) -> None:
    """A 64 x 128 grid of ``f`` on radii 0.3 ... 1, so points inside radius 0.3 take its values."""
    radii = np.linspace(0.3, 1.0, 64)
    thetas = 2 * np.pi * np.arange(128) / 128
    values = f(radii[:, None] * np.exp(1j * thetas)[None, :])
    rows = [
        f"{r!r},{t!r},{v.real!r},{v.imag!r}"
        for r, row in zip(radii.tolist(), values.tolist())
        for t, v in zip(thetas.tolist(), row)
    ]
    path.write_text("\n".join(["r,theta,re,im"] + rows) + "\n")


@pytest.mark.parametrize("name", ["expz", "conjugate", "counterexample", "absq"])
def test_grid_is_judged_where_it_holds_data(capsys, tmp_path, name):
    # A failing circle that reaches inside radius 0.3 is undecided.  exp(z)
    # was morera-failure with 9 failing circles, none inside the annulus;
    # the others keep 44, 8 and 23 failing circles inside it.
    path = tmp_path / "grid.csv"
    entry = builtin(name)
    write_annulus_grid(path, entry.oracle)
    found = cli_class(capsys, path)
    if entry.classification == "holomorphic":
        assert found not in FAILURES
    else:
        assert found == CLASS_MORERA_FAILURE


def test_failing_grid_theta_builds_one_table(capsys, tmp_path, monkeypatch):
    # A failure within the grid's error was judged by building the table a
    # second time at the looser tolerance.
    calls = []
    table = fiber.cauchy_table

    def counted(*args, **kwargs):
        calls.append(args)
        return table(*args, **kwargs)

    monkeypatch.setattr(fiber, "cauchy_table", counted)
    path = tmp_path / "grid.csv"
    for f, code in ((lambda z: 1 / (z - 1.3), 3), (np.conj, 2)):
        write_polar_grid(str(path), f, 16, 32)
        calls.clear()
        assert main(["theta", "--grid", str(path), "--z", "0.5i", "--w-count", "3"]) == code
        assert len(calls) == 1
    capsys.readouterr()


ENTIRE = [
    # At 2048 samples a pencil circle near p = -1 folds its content below
    # the aliasing band and fails; the run was inconclusive only while the
    # first overflowing circle aborted it.
    pytest.param("exp(exp(6*z))", marks=item(1)),
    "exp(exp(7*z))",
    "cos(cos((0.5i-z)^6))",
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["verdict", "sweep"])
@pytest.mark.parametrize("text", ENTIRE)
def test_entire_function_is_at_worst_inconclusive(capsys, command, text):
    # Its values or their Fourier energies overflow float64 on the largest
    # circles: each such circle is undecided at its place, named on stderr.
    # exp(exp(6*z)) exited 3 and the others 2, at the first such circle,
    # with no report.
    code = main([command, "--expr", text])
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["verdict"] not in FAILURES
    assert code == 3
    circles = [c for family in doc["families"] for c in family["circles"] if c["negative_energy"] is None]
    assert circles and all(c["inconclusive"] for c in circles)
    lines = err.splitlines()
    assert len(lines) == len(circles)
    for c, line in zip(circles, lines):
        assert line.startswith(f"warning: the {c['family']} circle with parameter {c['parameter']!r} (Circle(")
        assert "is undecided: " in line and ("overflows float64" in line or "non-finite value" in line)


def test_entire_function_plus_a_non_holomorphic_part_still_fails(capsys):
    assert main(["verdict", "--expr", "exp(exp(7*z))+zbar"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == CLASS_MORERA_FAILURE
