import ast
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morera import analysis, cli, exprparser, extension, fiber
from morera.cli import main, parse_point
from morera.errors import ConfigError
from morera.funczoo import builtin
from morera.geometry import Circle
from morera.gridio import read_polar_grid, write_polar_grid


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePoint:
    def test_forms(self):
        assert parse_point("-1") == -1
        assert parse_point("0.5i") == 0.5j
        assert parse_point("-0.2+0.5i") == -0.2 + 0.5j
        assert parse_point("i") == 1j

    def test_rejects_variable(self):
        with pytest.raises(ConfigError):
            parse_point("z")

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("1/0", ["test-circle", "--builtin", "expz", "--radius", "0.5", "--center", "1/0"]),
            ("0.5i/0", ["theta", "--builtin", "expz", "--z", "0.5i/0"]),
        ],
    )
    def test_undefined_literal_is_named(self, capsys, text, argv):
        message = f"invalid complex literal {text!r}: its value is undefined (non-finite)"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_point(text)
        assert run(argv, capsys) == (2, "", f"error: {message}\n")


class TestVerdictCommand:
    def test_entire_function_exit_zero(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, err = run(["verdict", "--builtin", "expz", "--tau", "0.25", "-o", str(out_file)], capsys)
        assert code == 0, err
        doc = json.loads(out_file.read_text())
        assert doc["verdict"] == "holomorphic-consistent"

    def test_counterexample_exit_one_and_names_circle(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(
            ["verdict", "--builtin", "counterexample", "--tau", "0.25", "-o", str(out_file)], capsys
        )
        assert code == 1
        doc = json.loads(out_file.read_text())
        assert doc["verdict"] == "morera-failure"
        failing = [
            c["parameter"]
            for fam in doc["families"]
            for c in fam["circles"]
            if not c["passes"]
        ]
        assert failing and all(t < -0.5 for t in failing)

    def test_expression_source(self, capsys):
        code, out, _ = run(["verdict", "--expr", "z^3 - 2", "--circles", "8"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "holomorphic-consistent"

    def test_missing_source_is_config_error(self, capsys):
        code, _, err = run(["verdict"], capsys)
        assert code == 2 and "exactly one" in err

    def test_two_sources_is_config_error(self, capsys):
        code, _, _ = run(["verdict", "--builtin", "expz", "--expr", "z"], capsys)
        assert code == 2

    def test_two_point_partial_coverage(self, capsys):
        code, out, _ = run(
            ["verdict", "--builtin", "expz", "--two-point", "1", "--rho", "0.4", "--circles", "8"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "holomorphic-consistent"
        assert any("partial coverage" in w for w in doc["warnings"])
        assert doc["cross_consistency"] is None

    @pytest.mark.parametrize("p2", ["1", "0.6+0.8i"])
    def test_two_point_report_is_the_library_document(self, capsys, p2):
        argv = ["verdict", "--builtin", "counterexample", "--two-point", p2, "--rho", "0.6", "--circles", "8"]
        code, out, _ = run(argv, capsys)
        config = analysis.PipelineConfig(p2=parse_point(p2), t_min=-0.4, circles_per_family=8)
        result = analysis.verdict(builtin("counterexample").oracle, config)
        warning = "two-point pencil configuration: cross-consistency not evaluated (partial coverage)"
        doc = analysis.report_document(result, config, {"source": "builtin", "name": "counterexample"}, [warning])
        assert code == 1
        assert out == analysis.dumps_report(doc)

    @pytest.mark.parametrize("extra", [[], ["--two-point", "1"]])
    def test_unsampleable_wirtinger_grid_reports_null(self, capsys, extra):
        # The pole at 0.501 lies on a finite-difference stencil of the
        # Wirtinger grid; the run reports no residual instead of aborting.
        code, out, err = run(["verdict", "--expr", "1/(z-0.501)", "--circles", "8", *extra], capsys)
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["dbar"]["residual"] is None
        assert doc["verdict"] == "morera-failure"


# Flag values refused by a configuration check, with the message that names them.
REJECTED_FLAG_VALUES = [
    (["verdict", "--circles", "1"], "family grid needs at least 2 circles, got 1"),
    (["sweep", "--circles", "1"], "family grid needs at least 2 circles, got 1"),
    (["verdict", "--morera-tol", "0"], "morera_tol must be positive, got 0.0"),
    (["sweep", "--morera-tol", "nan"], "morera_tol must be positive, got nan"),
    (["verdict", "--morera-tol", "inf"], "morera_tol must be less than 1, got inf"),
    (["sweep", "--morera-tol", "inf"], "morera_tol must be less than 1, got inf"),
    (["verdict", "--morera-tol", "1"], "morera_tol must be less than 1, got 1.0"),
    (["test-circle", "--radius", "0.5", "--morera-tol", "inf"], "tolerance must be less than 1, got inf"),
    (["theta", "--z", "0.5i", "--w-count", "3", "--morera-tol", "inf"], "tolerance must be less than 1, got inf"),
    (["test-circle", "--radius", "0.5", "--morera-tol", "1"], "tolerance must be less than 1, got 1.0"),
    (["verdict", "--p", "1+"],
     "invalid complex literal '1+': parse error at offset 2: expected a number, variable, function call, or '('"),
    (["verdict", "--rho", "0"], "--rho must lie in (0, 1), got 0.0"),
    (["sweep", "--rho", "1.5"], "--rho must lie in (0, 1), got 1.5"),
    (["sweep", "--family", "centered", "--r-min", "0.9995"], "parameter range [0.9995, 1.0] too small for inset 0.001"),
]


class TestRejectedFlagValues:
    @pytest.mark.parametrize("argv, message", REJECTED_FLAG_VALUES, ids=[" ".join(a) for a, _ in REJECTED_FLAG_VALUES])
    def test_is_config_error_naming_the_value(self, capsys, argv, message):
        assert run(argv + ["--builtin", "expz"], capsys) == (2, "", f"error: {message}\n")


class TestPencilPointFlags:
    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["verdict", "--p", "2"], "2.0"),
            (["verdict", "--p", "0.5"], "0.5"),
            (["verdict", "--p", "0"], "0.0"),
            (["verdict", "--two-point", "0.5"], "0.5"),
            (["sweep", "--p", "0.6+0.9i"], str(abs(0.6 + 0.9j))),
            (["sweep", "--family", "pencil", "--p", "2"], "2.0"),
            (["sweep", "--family", "centered", "--two-point", "0.5"], "0.5"),
        ],
    )
    def test_off_the_unit_circle_is_config_error(self, capsys, argv, shown):
        code, out, err = run(argv + ["--builtin", "expz", "--circles", "8"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: pencil boundary point must lie on the unit circle, got |p| = {shown}\n"

    def test_centered_sweep_builds_no_pencil(self, capsys):
        code, out, _ = run(["sweep", "--builtin", "expz", "--family", "centered", "--p", "2", "--circles", "8"], capsys)
        assert code == 0
        assert [fam["family"] for fam in json.loads(out)["families"]] == ["centered"]


class TestResidualToleranceFlags:
    # The residual thresholds derive from --morera-tol and the size of f, so no flag sets them.
    @pytest.mark.parametrize("flag", ["--cross-tol", "--dbar-tol"])
    @pytest.mark.parametrize("name", ["test-circle", "sweep", "theta", "verdict"])
    def test_are_usage_errors(self, capsys, name, flag):
        with pytest.raises(SystemExit) as exit_:
            main(quick_argv(name, "--builtin", "expz") + [flag, "1e-3"])
        _, err = capsys.readouterr()
        assert exit_.value.code == 2
        assert err.startswith("usage: morera [-h]")
        assert err.endswith(f"morera: error: unrecognized arguments: {flag} 1e-3\n")

    @pytest.mark.parametrize(
        "source, oracle",
        [
            (["--builtin", "expz"], builtin("expz").oracle),
            (["--expr", "10^16*exp(z)"], exprparser.compile_function(exprparser.parse("10^16*exp(z)"))),
        ],
        ids=["expz", "10^16*exp(z)"],
    )
    def test_verdict_reports_the_derived_threshold(self, capsys, source, oracle):
        code, out, _ = run(["verdict", *source, "--circles", "8", "--morera-tol", "1e-10"], capsys)
        result = analysis.verdict(oracle, analysis.PipelineConfig(circles_per_family=8, morera_tol=1e-10))
        threshold = analysis.RESIDUAL_SLACK * math.sqrt(1e-10) * max(r.scale for r in result.families)
        assert code == 0
        assert json.loads(out)["tolerances"] == {"morera": 1e-10, "cross": threshold, "dbar": threshold}

    @pytest.mark.parametrize("source", [["--builtin", "conjugate"], ["--expr", "5*10^153*exp(z)"]])
    @pytest.mark.parametrize("tol", ["1", "1.7e308"])
    def test_tolerance_of_one_or_more_is_config_error(self, capsys, source, tol):
        # At morera_tol >= 1 the threshold is at least the total energy, so
        # no circle could fail; once below 1, 2 sqrt(tol) S cannot overflow.
        code, out, err = run(["verdict", *source, "--circles", "8", "--morera-tol", tol], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: morera_tol must be less than 1, got {float(tol)}\n"


class TestWPadFlag:
    @pytest.mark.parametrize("argv, shown", [(["--w-pad", "nan"], "nan"), (["--w-pad=inf"], "inf"), (["--w-pad=-inf"], "-inf")])
    def test_non_finite_is_config_error(self, capsys, argv, shown):
        code, out, err = run(["theta", "--builtin", "poly3", "--z", "0.5i", "--w-count", "3", *argv], capsys)
        assert code == 2 and out == ""
        assert err == f"error: --w-pad must be finite, got {shown}\n"

    @pytest.mark.parametrize("pad", ["1e308", "-1e308"])
    def test_overflowing_grid_is_config_error(self, capsys, pad):
        # The padded bounds are finite but the grid's span is not.
        code, out, err = run(["theta", "--builtin", "poly3", "--z", "0.5i", "--w-count", "3", "--w-pad", pad], capsys)
        diameter = fiber.fiber_curve(0.5j).diameter
        assert (code, out) == (2, "")
        assert err == f"error: --w-pad {float(pad)} overflows the W grid of a curve of diameter {diameter}\n"


class TestSweepCommand:
    def test_schema_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                ["sweep", "--builtin", "rational", "--circles", "8", "-o", str(path)], capsys
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        circle = doc["families"][0]["circles"][0]
        assert {"family", "parameter", "negative_energy", "passes"} <= set(circle)

    def test_single_family(self, capsys):
        code, out, _ = run(
            ["sweep", "--builtin", "absq", "--family", "centered", "--circles", "8"], capsys
        )
        assert code == 0  # radial functions pass the centered family
        code, _, _ = run(
            ["sweep", "--builtin", "absq", "--family", "pencil", "--circles", "8"], capsys
        )
        assert code == 1

    def test_two_point_sweeps_both_pencils(self, capsys):
        code, out, _ = run(
            ["sweep", "--builtin", "expz", "--two-point", "1", "--family", "both", "--circles", "8"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert [fam["family"] for fam in doc["families"]] == ["pencil", "pencil"]
        # Members have center -p*t with t < 0: left of 0 through p = -1, right of it through p = 1.
        first, second = ([c["center_re"] for c in fam["circles"]] for fam in doc["families"])
        assert max(first) < 0.0 < min(second)
        assert doc["hypotheses_valid"] is True and doc["verdict"] == "pass"
        assert any("partial coverage" in w for w in doc["warnings"])

    @pytest.mark.parametrize("command", ["sweep", "verdict"])
    def test_two_point_equal_to_p_is_config_error(self, capsys, command):
        code, out, err = run([command, "--builtin", "counterexample", "--two-point=-1", "--circles", "4"], capsys)
        assert (code, out, err) == (2, "", "error: the two-point configuration needs p2 != p, got |p2 - p| = 0.0\n")

    @pytest.mark.parametrize("family", ["centered", "pencil"])
    def test_two_point_refuses_one_family(self, capsys, family):
        code, out, err = run(
            ["sweep", "--builtin", "expz", "--two-point", "1", "--family", family, "--circles", "8"], capsys
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: the two-point configuration always sweeps both pencils; family '{family}' does not apply\n"
        )


class TestFiberCommand:
    def test_named_example(self, capsys):
        code, out, _ = run(["fiber", "--expr", "z^2", "--z", "0.5i"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "piece,index,param,re_w,im_w"
        rows = [line.split(",") for line in lines[1:]]
        seg = np.array([complex(float(r[3]), float(r[4])) for r in rows if r[0] == "segment"])
        arc = np.array([complex(float(r[3]), float(r[4])) for r in rows if r[0] == "arc"])
        # segment endpoints (0, -0.5) and (0, -2)
        assert abs(seg[0] - (-0.5j)) < 1e-12 and abs(seg[-1] - (-2j)) < 1e-12
        # arc samples on the circle center (-1, -1.25) radius 1.25
        assert np.abs(np.abs(arc - (-1 - 1.25j)) - 1.25).max() < 1e-12

    @pytest.mark.parametrize("zs", [["0.5i"], ["-0.3-0.4i"], ["0.5i", "-0.3-0.4i", "0.2+0.6i"]])
    @pytest.mark.parametrize("per_piece", ["1", "256"])
    def test_rows_match_cell_by_cell_formatting(self, zs, per_piece, capsys):
        # The rows are formatted a column at a time; each must read as if
        # every cell were repr'd on its own and joined.
        rows = ["piece,index,param,re_w,im_w"] if len(zs) == 1 else ["z_re,z_im,piece,index,param,re_w,im_w"]
        for text in zs:
            z = parse_point(text)
            for name, params, points in fiber.fiber_curve(z).polyline(int(per_piece)):
                for index, (param, w) in enumerate(zip(params, points)):
                    cells = [name, str(index), repr(float(param)), repr(float(w.real)), repr(float(w.imag))]
                    if len(zs) > 1:
                        cells = [repr(float(z.real)), repr(float(z.imag))] + cells
                    rows.append(",".join(cells))
        argv = ["fiber", "--points-per-piece", per_piece]
        for text in zs:
            argv += ["--z", text]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == "\n".join(rows) + "\n"

    def test_degenerate_z_is_config_class_error(self, capsys):
        code, _, err = run(["fiber", "--expr", "z", "--z", "0.2"], capsys)
        assert code == 2 and "real" in err


class TestTestCircleCommand:
    def test_pass_and_fail_exits(self, capsys):
        code, out, _ = run(
            ["test-circle", "--builtin", "expz", "--radius", "0.5"], capsys
        )
        assert code == 0 and json.loads(out)["verdict"] == "extends"
        code, out, _ = run(
            ["test-circle", "--builtin", "counterexample", "--center", "-0.7", "--radius", "0.3"],
            capsys,
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "does-not-extend"
        assert doc["negative_energy"] > 1e-2


class TestThetaCommand:
    def test_readme_example_exits_zero(self, capsys, tmp_path):
        out_file = tmp_path / "theta.csv"
        code, _, err = run(["theta", "--builtin", "poly3", "--z", "0.5i", "-o", str(out_file)], capsys)
        assert code == 0, err
        f_z = builtin("poly3").oracle(0.5j)
        counts = {"inside": 0, "outside": 0}
        for line in out_file.read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[2] == "near-curve":
                continue
            counts[cells[2]] += 1
            value = complex(float(cells[3]), float(cells[4]))
            assert abs(value - (f_z if cells[2] == "inside" else 0.0)) < 1e-6, line
        assert counts["inside"] and counts["outside"]

    def test_dichotomy_in_table(self, capsys):
        code, out, _ = run(
            ["theta", "--builtin", "poly3", "--z", "0.5i", "--w-count", "7", "--nodes", "256"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re_w,im_w,location,re_theta,im_theta,abs_theta"
        f_z = builtin("poly3").oracle(0.5j)
        saw_inside = saw_outside = False
        for line in lines[1:]:
            cells = line.split(",")
            if cells[2] == "near-curve":
                continue
            value = complex(float(cells[3]), float(cells[4]))
            if cells[2] == "inside":
                saw_inside = True
                assert abs(value - f_z) < 1e-6
            else:
                saw_outside = True
                assert abs(value) < 1e-6
        assert saw_inside and saw_outside


class TestDemoSharpness:
    def test_contrast_reproduced(self, capsys):
        code, out, _ = run(["demo-sharpness", "--circles", "12"], capsys)
        assert code == 0
        assert "verdict: morera-failure" in out
        assert "verdict: inconsistent" in out

    def test_contrast_line_only_when_reproduced(self, capsys):
        code, out, _ = run(["demo-sharpness", "--circles", "12"], capsys)
        assert code == 0 and out.splitlines()[-1].startswith("contrast: ")
        # Both smallest circles of radius 0.45 reach past the origin: the
        # configuration violates the hypothesis, but z^2/conj(z) still fails there.
        code, out, _ = run(["demo-sharpness", "--floor", "0.45", "--circles", "12"], capsys)
        assert code == 1 and "contrast" not in out
        assert out.splitlines()[-1] == "  verdict: morera-failure"

    @pytest.mark.parametrize("floor", ["0.3", "0.33", "0.0001"])
    def test_floor_meeting_the_hypothesis_is_config_error(self, capsys, floor):
        code, out, err = run(["demo-sharpness", "--floor", floor], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: --floor {float(floor)} gives disjoint smallest circles, which meets the hypothesis; "
            "the violating configuration needs a floor of at least 1/3\n"
        )

    @pytest.mark.parametrize("floor", ["0.51", "0.52"])
    def test_floor_just_above_half(self, capsys, floor):
        # Cross-consistency circles near the origin alias at 256 samples and
        # must refine instead of failing.
        code, out, _ = run(["demo-sharpness", "--floor", floor], capsys)
        assert code == 0
        assert out.splitlines()[-2].strip() == "verdict: inconsistent"


class TestGridRoundTrip:
    def test_interpolated_function_matches(self, tmp_path):
        f = builtin("poly3").oracle
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), f, n_r=48, n_theta=96)
        g = read_polar_grid(str(path))
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform(0, 1))
            assert abs(g(complex(z)) - f(complex(z))) < 1e-7

    def test_sweep_verdicts_reproduced(self, capsys, tmp_path):
        # Export sampled zoo values, re-import, and compare per-circle
        # verdicts against the builtin sweep (both at --morera-tol).
        grid = tmp_path / "cex.csv"
        write_polar_grid(str(grid), builtin("counterexample").oracle, n_r=96, n_theta=192)
        out_builtin = tmp_path / "builtin.json"
        out_grid = tmp_path / "grid.json"
        code_b, _, _ = run(
            ["sweep", "--builtin", "counterexample", "--circles", "12", "-o", str(out_builtin)],
            capsys,
        )
        code_g, _, _ = run(
            ["sweep", "--grid", str(grid), "--circles", "12", "-o", str(out_grid)], capsys
        )
        assert code_b == code_g == 1
        doc_b = json.loads(out_builtin.read_text())
        doc_g = json.loads(out_grid.read_text())
        for fam_b, fam_g in zip(doc_b["families"], doc_g["families"]):
            for cb, cg in zip(fam_b["circles"], fam_g["circles"]):
                assert cb["parameter"] == cg["parameter"]
                assert cb["passes"] == cg["passes"], (fam_b["family"], cb["parameter"])

    @pytest.mark.parametrize("r_max", [0.5, 1.0])
    def test_grid_short_of_the_unit_circle_is_reported(self, capsys, tmp_path, r_max):
        # Points beyond the last radius take its values, so such a grid can
        # fail a holomorphic function; the report says so.
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), builtin("expz").oracle, n_r=32, n_theta=64, r_max=r_max)
        error = read_polar_grid(str(path)).error
        tol = max(1e-8, (extension.GRID_ERROR_MARGIN * error) ** 2)
        expected = [
            f"function interpolated from grid file; interpolation error estimated at {error:.2e} of max |f|; "
            f"a failure that passes at tolerance {tol:.2e} counts as inconclusive"
        ]
        if r_max < 1.0:
            expected.append("grid radii end at 0.5, below 1; points beyond that radius take its values")
        for argv in (
            ["verdict", "--grid", str(path), "--circles", "16"],
            ["test-circle", "--grid", str(path), "--center", "0.5", "--radius", "0.45"],
        ):
            _, out, err = run(argv, capsys)
            assert err == ""
            assert json.loads(out)["warnings"] == expected, argv

    def test_grid_starting_above_the_origin_is_reported(self, capsys, tmp_path):
        # Points inside the first radius take its values, so the interpolant
        # of exp(z) is not holomorphic there: the circles that fail all reach
        # inside radius 0.3, beyond the grid's data, so they are undecided;
        # the report says why.
        radii = np.linspace(0.3, 1.0, 64)
        thetas = 2 * np.pi * np.arange(128) / 128
        values = np.exp(radii[:, None] * np.exp(1j * thetas)[None, :])
        rows = [
            f"{r!r},{t!r},{v.real!r},{v.imag!r}"
            for r, row in zip(radii.tolist(), values.tolist())
            for t, v in zip(thetas.tolist(), row)
        ]
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(["r,theta,re,im"] + rows) + "\n")
        code, out, err = run(["verdict", "--grid", str(path)], capsys)
        assert (code, err) == (3, "")
        doc = json.loads(out)
        assert doc["verdict"] == "inconclusive"
        assert doc["warnings"][1:] == ["grid radii start at 0.3, above 0; points inside that radius take its values"]
        undecided = [c for family in doc["families"] for c in family["circles"] if not c["passes"]]
        assert len(undecided) == 9
        for c in undecided:
            assert c["inconclusive"]
            assert abs(abs(complex(c["center_re"], c["center_im"])) - c["radius"]) < 0.3

    @pytest.mark.parametrize(
        "f, n_r, n_theta, command",
        [
            # z^20 at 32 angles: the k = 20 coefficient aliases onto k = -12,
            # so the largest coefficient at |k| >= 12 is max |f| itself.
            (lambda z: z**20, 16, 32, ["test-circle", "--radius", "0.5"]),
            (lambda z: z**20, 16, 32, ["verdict", "--circles", "8"]),
            # Fewer than 7 radii: no estimate, so the error reads infinite.
            (builtin("poly3").oracle, 6, 16, ["verdict", "--circles", "8"]),
        ],
    )
    def test_unresolved_grid_is_inconclusive(self, capsys, tmp_path, f, n_r, n_theta, command):
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), f, n_r=n_r, n_theta=n_theta)
        error = read_polar_grid(str(path)).error
        assert error >= 0.1
        code, out, err = run(command + ["--grid", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err == (
            f"error: grid file {path} does not resolve its function: its interpolation error is estimated "
            f"at {error:.3g} of max |f|, and a failure within 10 times that decides nothing\n"
        )

    @pytest.mark.parametrize(
        "f, expected",
        [
            # 1/(z - 1.3) at 16 x 32 fails circles at --morera-tol only by
            # about its estimated interpolation error, 1e-2 of max |f|.
            (lambda z: 1 / (z - 1.3), {"test-circle": (3, "inconclusive"), "sweep": (3, "inconclusive"), "theta": 3}),
            # conj(z) fails by far more, so each failure stands.
            (np.conj, {"test-circle": (1, "does-not-extend"), "sweep": (1, "morera-failure"), "theta": 2}),
        ],
    )
    def test_failure_within_the_grid_error_is_inconclusive(self, capsys, tmp_path, f, expected):
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), f, n_r=16, n_theta=32)
        code, out, _ = run(["test-circle", "--grid", str(path), "--radius", "0.9"], capsys)
        assert (code, json.loads(out)["verdict"]) == expected["test-circle"]
        code, out, _ = run(["sweep", "--grid", str(path), "--circles", "8"], capsys)
        doc = json.loads(out)
        assert (code, doc["verdict"]) == expected["sweep"]
        circles = [c for family in doc["families"] for c in family["circles"]]
        assert any(not c["passes"] for c in circles)
        assert all(c["passes"] or c["inconclusive"] for c in circles) == (code == 3)
        code, _, err = run(["theta", "--grid", str(path), "--z", "0.5i", "--w-count", "3"], capsys)
        assert code == expected["theta"]
        what = "is undecided (within the source's stated error)" if code == 3 else "does not extend holomorphically"
        assert err.startswith(f"error: f {what} from the centered circle")

    def test_shuffled_rows_load_the_same_grid(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), builtin("rational").oracle, n_r=8, n_theta=16)
        header, *rows = path.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        order = np.random.default_rng(5).permutation(len(rows))
        shuffled.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
        z = 0.8 * np.exp(1j * np.linspace(0.0, 6.0, 40))
        assert np.array_equal(read_polar_grid(str(shuffled))(z), read_polar_grid(str(path))(z))

    def test_duplicated_row_rejected(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), builtin("poly3").oracle, n_r=8, n_theta=16)
        header, *rows = path.read_text().splitlines()
        rows[5] = rows[4]
        path.write_text("\n".join([header] + rows) + "\n")
        code, _, err = run(["sweep", "--grid", str(path), "--circles", "8"], capsys)
        assert code == 2 and "missing" in err

    def test_extra_duplicated_row_rejected(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), builtin("poly3").oracle, n_r=8, n_theta=16)
        path.write_text(path.read_text() + path.read_text().splitlines()[3] + "\n")
        code, out, err = run(["sweep", "--grid", str(path), "--circles", "8"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: grid file {path} is not a full (r, theta) tensor grid\n"

    @pytest.mark.parametrize(
        "radii, thetas, message",
        [
            ((0.0, 0.5, 1.0), (0.0, 1.5, 3.0, 4.5), "polar grid needs at least 4 radii and 4 angles for cubic interpolation"),
            ((0.0, 0.3, 0.6, 1.0), (0.0, 1.0, 2.0, 4.0), "grid angles must be equispaced starting at 0"),
            ((0.0, 0.3, 0.6, 1.0), (0.5, 2.0, 3.5, 5.0), "grid angles must be equispaced starting at 0"),
        ],
        ids=["three-radii", "uneven-angles", "angles-not-from-zero"],
    )
    def test_unusable_tensor_grid_rejected(self, capsys, tmp_path, radii, thetas, message):
        path = tmp_path / "grid.csv"
        rows = [f"{r!r},{t!r},1.0,0.0" for r in radii for t in thetas]
        path.write_text("\n".join(["r,theta,re,im"] + rows) + "\n")
        with pytest.raises(ConfigError) as err:
            read_polar_grid(str(path))
        assert str(err.value) == message
        assert run(["verdict", "--grid", str(path), "--circles", "8"], capsys) == (2, "", f"error: {message}\n")

    def test_malformed_grid_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("r,theta,re,im\n0.0,0.0,1.0\n")
        code, _, err = run(["sweep", "--grid", str(bad), "--circles", "8"], capsys)
        assert code == 2

    def test_ragged_row_rejected(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), builtin("poly3").oracle, n_r=8, n_theta=16)
        header, *rows = path.read_text().splitlines()
        rows[7] = rows[7].rsplit(",", 1)[0]
        path.write_text("\n".join([header] + rows) + "\n")
        code, _, err = run(["sweep", "--grid", str(path), "--circles", "8"], capsys)
        assert code == 2 and "malformed" in err

    def test_nonfinite_grid_entry_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        rows = [f"{r},{float(t)!r},1,0" for r in ("0", "nan", "0.5", "1") for t in np.pi * np.arange(4) / 2]
        bad.write_text("\n".join(["r,theta,re,im"] + rows) + "\n")
        code, _, err = run(["sweep", "--grid", str(bad), "--circles", "8"], capsys)
        assert code == 2 and "non-finite" in err


class TestNegativeComplexLiterals:
    def test_leading_minus_values_accepted(self, capsys):
        code, out, _ = run(
            ["theta", "--builtin", "poly3", "--z", "-0.2+0.5i", "--w-count", "3", "--nodes", "128"],
            capsys,
        )
        assert code == 0 and out.startswith("re_w,im_w")
        code, out, _ = run(["fiber", "--builtin", "expz", "--z", "-0.4-0.3i"], capsys)
        assert code == 0


class TestCountFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "--builtin", "poly3", "--z", "0.5i", "--w-count", "-1"],
            ["theta", "--builtin", "poly3", "--z", "0.5i", "--w-count", "0"],
            ["fiber", "--z", "0.5i", "--points-per-piece", "-3"],
            ["theta", "--builtin", "poly3", "--z", "0.5i", "--w-count", "2", "--nodes", "-5"],
            ["theta", "--builtin", "poly3", "--z", "0.5i", "--w-count", "2", "--nodes", "0"],
        ],
    )
    def test_below_one_is_config_error(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error: {argv[-2]} must be at least 1, got {argv[-1]}\n"


class TestTauRange:
    @pytest.mark.parametrize("tau", ["0", "0.6", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["fiber", "--z", "0.5i"],
            ["fiber", "--z", "-0.9+0.05i"],
            ["theta", "--builtin", "poly3", "--z", "0.5i", "--w-count", "3"],
        ],
        ids=" ".join,
    )
    def test_outside_range_is_config_error(self, capsys, argv, tau):
        code, out, err = run(argv + ["--tau", tau], capsys)
        assert code == 2 and out == ""
        assert err == f"error: tau must lie in (0, 1/2), got {float(tau)}\n"


class TestGridInflation:
    # A grid's error tolerance derives from its own error estimate, so no flag sets it.
    @pytest.mark.parametrize("name", ["test-circle", "sweep", "theta", "verdict"])
    def test_is_a_usage_error(self, capsys, name):
        with pytest.raises(SystemExit) as exit_:
            main(quick_argv(name, "--builtin", "expz") + ["--grid-inflation", "10"])
        _, err = capsys.readouterr()
        assert exit_.value.code == 2
        assert err.startswith("usage: morera [-h]")
        assert err.endswith("morera: error: unrecognized arguments: --grid-inflation 10\n")


class TestSamplesFlag:
    # Every circle's refinement starts at the kernel's one start of 256
    # samples, so no flag sets it.
    @pytest.mark.parametrize("name", ["test-circle", "sweep", "theta", "verdict"])
    def test_is_a_usage_error(self, capsys, name):
        with pytest.raises(SystemExit) as exit_:
            main(quick_argv(name, "--builtin", "expz") + ["--samples", "512"])
        _, err = capsys.readouterr()
        assert exit_.value.code == 2
        assert err.startswith("usage: morera [-h]")
        assert err.endswith("morera: error: unrecognized arguments: --samples 512\n")


# A quick command line per command; "SOURCE" stands for its function source.
QUICK_COMMANDS = {
    "test-circle": ["SOURCE", "--radius", "0.5"],
    "sweep": ["SOURCE", "--circles", "8"],
    "fiber": ["SOURCE", "--z", "0.5i"],
    "theta": ["SOURCE", "--z", "0.5i", "--w-count", "3", "--nodes", "128"],
    "verdict": ["SOURCE", "--circles", "8"],
    "demo-sharpness": ["--circles", "8"],
}


def commands_taking(option: str) -> list[str]:
    names = []
    for name, (_, add_flags, _) in cli._COMMANDS.items():
        table = cli._FlagTable()
        add_flags(table)
        if option in table.options:
            names.append(name)
    return names


def quick_argv(name: str, *source: str) -> list[str]:
    """The quick command line of ``name``, with ``source`` for its function source if it takes one."""
    return [name] + [token for arg in QUICK_COMMANDS[name] for token in (source if arg == "SOURCE" else [arg])]


class TestUnusableFiles:
    @pytest.mark.parametrize("what", ["missing", "directory"])
    @pytest.mark.parametrize("name", commands_taking("--grid"))
    def test_unreadable_grid_is_config_error(self, capsys, tmp_path, name, what):
        path = tmp_path / "missing.csv" if what == "missing" else tmp_path
        code, out, err = run(quick_argv(name, "--grid", str(path)), capsys)
        if name == "fiber":  # accepts a source but only draws the curve
            assert code == 0 and out.startswith("piece,index")
            return
        reason = "No such file or directory" if what == "missing" else "Is a directory"
        assert (code, out, err) == (2, "", f"error: cannot read grid file {path}: {reason}\n")

    def test_binary_grid_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_bytes(bytes(range(128, 256)))
        code, out, err = run(quick_argv("verdict", "--grid", str(path)), capsys)
        assert (code, out, err) == (2, "", f"error: grid file {path} is not text\n")

    @pytest.mark.parametrize("what", ["missing-directory", "directory"])
    @pytest.mark.parametrize("name", commands_taking("-o"))
    def test_unwritable_output_is_config_error(self, capsys, tmp_path, name, what):
        path = tmp_path / "missing" / "out.txt" if what == "missing-directory" else tmp_path / "out"
        if what == "directory":
            path.mkdir()  # the temp file is made beside it, in tmp_path, and must be removed
        code, _, err = run(quick_argv(name, "--builtin", "poly3") + ["-o", str(path)], capsys)
        reason = "No such file or directory" if what == "missing-directory" else "Is a directory"
        assert (code, err) == (2, f"error: cannot write {path}: {reason}\n")
        assert not list(tmp_path.rglob(".morera-*"))


class TestOverflowingEnergy:
    @pytest.mark.parametrize("argv", [["test-circle", "--expr", "exp(400*z)", "--radius", "1"]])
    def test_is_inconclusive(self, capsys, argv):
        # One circle is the whole run.
        code, out, err = run(argv, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: the Fourier energy of f overflows float64 on Circle(")

    @pytest.mark.parametrize("command", ["sweep", "verdict"])
    def test_circle_is_undecided_at_its_place(self, capsys, command):
        code, out, err = run([command, "--expr", "exp(400*z)", "--circles", "8"], capsys)
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] == "inconclusive"
        overflowing = [c for family in doc["families"] for c in family["circles"] if c["negative_energy"] is None]
        assert overflowing
        assert all(c["inconclusive"] and c["relative_negative_energy"] is None for c in overflowing)
        assert err == "".join(
            f"warning: the {c['family']} circle with parameter {c['parameter']!r} "
            f"({Circle(complex(c['center_re'], c['center_im']), c['radius'])}) is undecided: "
            f"its Fourier energy overflows float64 at {c['samples']} samples\n"
            for c in overflowing
        )


class TestUndecidedMessage:
    def test_non_finite_circle_gives_no_energy(self, capsys):
        # The pole at 1 lies on the unit circle the fiber curve meets: the
        # message gives the reason and the sample count, not a nan energy.
        code, out, err = run(["theta", "--expr", "1/(z-1)", "--z", "0.5i"], capsys)
        assert (code, out) == (3, "")
        assert err == (
            "error: f is undecided (oracle returned non-finite value (nan+nanj) at theta = 0.0) "
            "from the centered circle (center 0j, radius 1.0) met along the fiber curve (256 samples)\n"
        )


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[list[str]]:
    """Every ``morera ...`` command line of the README: example blocks and inline code."""
    text = README.read_text()
    lines = re.findall(r"^morera .*?(?=\s+#|$)", text.split("Examples:", 1)[1], re.MULTILINE)
    lines += re.findall(r"`(morera [^`]+)`", text)
    return [shlex.split(line)[1:] for line in lines]


def readme_example_block() -> list[tuple[list[str], int]]:
    """The command lines of the README's ``Examples:`` block, each with the exit code its comment gives (else 0)."""
    block = README.read_text().split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        code = re.match(r"\s*exit (\d+)", comment)
        examples.append((shlex.split(command)[1:], int(code.group(1)) if code else 0))
    return examples


@pytest.mark.parametrize("argv, code", readme_example_block(), ids=lambda x: " ".join(x) if isinstance(x, list) else f"exit {x}")
def test_readme_example_exits_as_documented(argv, code, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv, capsys)[0] == code


def readme_synopsis() -> dict[str, set[str]]:
    """Option strings per command in the README's CLI synopsis, placeholder lines expanded."""
    block = README.read_text().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    placeholders = {}
    commands = {}
    for line in block.splitlines():
        if line.startswith("morera "):
            _, name, rest = line.split(None, 2)
            commands[name] = rest
        elif line.strip():
            word, rest = line.split(None, 1)
            placeholders[word] = rest
    for name, rest in commands.items():
        rest = re.sub(r"\b[A-Z]+\b", lambda m: placeholders.get(m.group(), m.group()), rest)
        commands[name] = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", rest))
    return commands


PARSE_CORPUS = readme_examples() + [
    *[[name, "-h"] for name in ("test-circle", "sweep", "fiber", "theta", "verdict", "demo-sharpness")],
    ["verdict", "--builtin", "poly3", "--circ", "16"],
    ["theta", "--builtin", "poly3", "--z=-0.2+0.5i"],
    ["theta", "--builtin", "poly3", "--z", "-0.2+0.5i", "--w-count", "3"],
    ["fiber", "--z", "0.5i", "--z", "-0.2+0.5i", "--z=-0.4-0.3i"],
    ["verdict", "--builtin", "poly3", "--bogus"],
    ["verdict", "--builtin", "poly3", "stray"],
    ["verdict", "--builtin", "poly3", "--", "stray"],
    ["theta", "--builtin", "poly3"],
    ["verdict", "--circles", "many"],
    ["sweep", "--builtin", "poly3", "--family", "neither"],
    ["verdict", "--builtin"],
    [],
    ["bogus"],
    ["--version"],
    ["-h"],
    ["-h", "verdict"],
]


class TestParser:
    @pytest.fixture
    def recorded(self, monkeypatch):
        """Replace every command's handler by one that records its namespace and returns 0."""
        seen = []
        table = {
            name: (summary, add_flags, lambda args: seen.append(vars(args)) or 0)
            for name, (summary, add_flags, _) in cli._COMMANDS.items()
        }
        monkeypatch.setattr(cli, "_COMMANDS", table)
        return seen

    @staticmethod
    def outcome(parse, argv, capsys):
        try:
            result = ("parsed", parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_main_parses_as_the_full_parser(self, argv, capsys, recorded):
        def via_main(argv):
            assert main(argv) == 0
            return recorded.pop()

        expected = self.outcome(lambda argv: vars(cli.build_parser().parse_args(argv)), argv, capsys)
        assert self.outcome(via_main, argv, capsys) == expected
        assert not recorded

    def test_plain_command_builds_no_parser(self, capsys, monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("an argparse parser was built")

        monkeypatch.setattr(cli, "build_parser", refuse)
        monkeypatch.setattr(cli, "_parser", refuse)
        code, out, _ = run(["verdict", "--builtin", "poly3"], capsys)
        assert code == 0 and json.loads(out)["verdict"] == "holomorphic-consistent"

    def test_readme_synopsis_lists_every_flag(self):
        synopsis = readme_synopsis()
        assert list(synopsis) == list(cli._COMMANDS)
        for name, flags in synopsis.items():
            table = cli._FlagTable()
            cli._COMMANDS[name][1](table)
            options = [flag.option_strings for flag in table.flags]
            accepted = {flag for strings in options for flag in strings}
            assert flags <= accepted, (name, flags - accepted)
            assert all(flags & set(strings) for strings in options), name

    def test_flag_table_refuses_what_the_scan_does_not_reproduce(self):
        table = cli._FlagTable()
        with pytest.raises(TypeError):
            table.add_argument("--quiet", action="store_true")
        with pytest.raises(TypeError):
            table.add_argument("--count", nargs=2)


# Values for the drawn command lines: the usual ones per flag type (among
# them values that argparse takes specially, such as "-1", "" and "--"), and
# odd values and tokens, drawn rarely, that many flags or all of them refuse.
FUZZ_VALUES = {
    float: ["0.25", "-1", "nan", "1e-3"],
    int: ["8", "-1", "0"],
    None: ["poly3", "0.5i", "-0.2+0.5i", "-1", "", "nan", "--"],
}
FUZZ_ODD_VALUES = ["-i", "--", "", "many", "0.5", "neither", "-0.2+0.5i", "nan"]
FUZZ_ODD_TOKENS = ["-h", "--help", "--bogus", "-x", "stray", "--", "", "-1"]


@st.composite
def command_lines(draw, name):
    """A command line for ``name`` drawn from its recorded flag table.

    Well-formed flags are drawn more often than odd tokens, and required
    flags are usually given, so that about half the lines are plain.
    """
    table = cli._FlagTable()
    cli._COMMANDS[name][1](table)

    def rarely(odd):
        return odd and draw(st.integers(0, 9)) == 9

    def flag_tokens(flag, odd=True):
        option = draw(st.sampled_from(flag.option_strings))
        usual = [*flag.choices, "neither"] if flag.choices else FUZZ_VALUES[flag.type]
        value = draw(st.sampled_from(FUZZ_ODD_VALUES if rarely(odd) else usual))
        form = draw(st.sampled_from(["bare", "prefix"] if rarely(odd) else ["separate", "equals"]))
        if form == "equals":
            return [f"{option}={value}"]
        if form == "bare":  # a missing value, or the next token taken as one
            return [option]
        if form == "prefix" and option.startswith("--"):
            return [option[: draw(st.integers(3, len(option)))], value]
        return [option, value]

    argv = [name]
    for flag in table.flags:
        if flag.required and not rarely(True):
            argv += flag_tokens(flag, odd=False)
    for _ in range(draw(st.integers(0, 5))):
        if rarely(True):
            argv.append(draw(st.sampled_from(FUZZ_ODD_TOKENS)))
        else:
            argv += flag_tokens(draw(st.sampled_from(table.flags)))
    return argv


@functools.lru_cache(maxsize=None)
def full_parser():
    return cli.build_parser()


class TestScanMatchesArgparse:
    @staticmethod
    def outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = ("parsed", repr(sorted(vars(parse(argv)).items())))
            except SystemExit as exc:
                result = ("exit", exc.code)
        return result, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_drawn_lines_parse_as_the_full_parser(self, name, data):
        argv = data.draw(command_lines(name), label="argv")
        seen = []
        recording = {
            command: (summary, add_flags, lambda args: seen.append(args) or 0)
            for command, (summary, add_flags, _) in cli._COMMANDS.items()
        }

        def via_main(argv):
            assert main(argv) == 0
            return seen.pop()

        expected = self.outcome(full_parser().parse_args, argv)
        with mock.patch.dict(cli._COMMANDS, recording):
            assert self.outcome(via_main, argv) == expected
        assert not seen


# Values to set each flag to, in place of its default or of its value in the
# quick command line; the flag is read if one of them changes the outcome.
# "GRID" and "OUT" stand for a grid file and an output path.
FLAG_VALUES = {
    "--builtin": ["poly3"],
    "--expr": ["z^2"],
    "--grid": ["GRID"],
    "--morera-tol": ["1e-300", "0.9"],
    "--center": ["0.1"],
    "--radius": ["0.25"],
    "--output": ["OUT"],
    "--tau": ["0.3"],
    "--p": ["1i"],
    "--r-min": ["0.1"],
    "--rho": ["0.8"],
    "--two-point": ["1"],
    "--circles": ["5"],
    "--family": ["centered"],
    "--z": ["-0.2+0.5i"],
    "--points-per-piece": ["4"],
    "--nodes": ["32"],
    "--w-count": ["2"],
    "--w-pad": ["0.5"],
    "--floor": ["0.7"],
}
# Flags that only act in some setting, which their lines set up: fiber and
# theta read --tau only to check that --z is admissible (the curve itself does not depend on it), so theirs use a z
# that tau = 0.25 admits and tau = 0.3 excludes.  theta's --nodes sets the
# quadrature of the W whose value is not certified a priori, which for a
# holomorphic f (a constant F) is none of the grid, so it uses the
# counterexample, whose F varies along the curve.
FLAG_SETTING = {
    ("fiber", "--tau"): ("--z", "-0.45+0.05i"),
    ("theta", "--tau"): ("--z", "-0.45+0.05i"),
    ("theta", "--nodes"): ("--builtin", "counterexample"),
}
# fiber only draws the curve: the README documents its source flags as accepted
# and ignored, and the bench's fiber operations pass them.
UNREAD_FLAGS = {("fiber", "--builtin"), ("fiber", "--expr"), ("fiber", "--grid")}
SOURCE_FLAGS = ("--builtin", "--expr", "--grid")


def declared_flags() -> list[tuple[str, str]]:
    """(command, long option) for every flag of every command's table."""
    pairs = []
    for name, (_, add_flags, _) in cli._COMMANDS.items():
        table = cli._FlagTable()
        add_flags(table)
        pairs += [(name, next(s for s in flag.option_strings if s.startswith("--"))) for flag in table.flags]
    return pairs


def with_flag(argv: list[str], option: str, value: str) -> list[str]:
    """``argv`` with ``option`` set to ``value``: its value replaced (for a source
    flag, the source replaced), or the pair appended."""
    for i, token in enumerate(argv):
        if token == option or option in SOURCE_FLAGS and token in SOURCE_FLAGS:
            return argv[:i] + [option, value] + argv[i + 2 :]
    return argv + [option, value]


class TestEveryFlagIsRead:
    @pytest.fixture(scope="class")
    def grid(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("grid") / "grid.csv"
        write_polar_grid(str(path), builtin("expz").oracle, n_r=16, n_theta=32)
        return str(path)

    @pytest.mark.parametrize("name, option", declared_flags())
    def test_some_value_changes_the_outcome(self, name, option, grid, tmp_path, capsys):
        out_path = tmp_path / "out"

        def outcome(argv):
            argv = [{"GRID": grid, "OUT": str(out_path)}.get(token, token) for token in argv]
            code, out, err = run(argv, capsys)
            written = out_path.read_text() if out_path.exists() else None
            if written is not None:
                out_path.unlink()
            return code, out, err, written

        base = quick_argv(name, "--builtin", "expz")
        if (name, option) in FLAG_SETTING:
            base = with_flag(base, *FLAG_SETTING[name, option])
        default = outcome(base)
        changed = [value for value in FLAG_VALUES[option] if outcome(with_flag(base, option, value)) != default]
        assert bool(changed) is ((name, option) not in UNREAD_FLAGS), (name, option, changed)

    def test_six_commands_take_51_flags(self):
        assert len(declared_flags()) == 51


def test_every_pipeline_config_field_is_set_by_some_command():
    # A field no command sets is a knob only the tests turn, as a flag no
    # command reads would be: each one is a keyword of some configuration call.
    names = {"PipelineConfig", "_pipeline_config", "replace"}
    keywords = {
        keyword.arg
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in names
        for keyword in node.keywords
    }
    unset = [field.name for field in dataclasses.fields(analysis.PipelineConfig) if field.name not in keywords]
    assert unset == []


class TestModuleEntryPoint:
    @staticmethod
    def morera(*argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        return subprocess.run(
            [sys.executable, "-m", "morera", *argv], capture_output=True, text=True, env=env, timeout=120
        )

    def test_runs_commands_help_and_usage_errors(self):
        done = self.morera("verdict", "--builtin", "poly3", "--circles", "8")
        assert done.returncode == 0 and json.loads(done.stdout)["verdict"] == "holomorphic-consistent"
        done = self.morera("verdict", "-h")
        assert done.returncode == 0 and done.stdout.startswith("usage: morera verdict [-h]")
        assert "family configuration:" in done.stdout
        done = self.morera("verdict", "--circles", "many")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("usage: morera verdict [-h]")
        assert done.stderr.endswith("morera verdict: error: argument --circles: invalid int value: 'many'\n")

    def test_builtin_pole_prints_only_the_error_line(self):
        done = self.morera("test-circle", "--builtin", "rational", "--center", "1.5", "--radius", "0.5")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "error: oracle returned non-finite value (inf+nanj) at theta = 0.0 on Circle(center=(1.5+0j), radius=0.5)\n"
        )


def test_bench_tracing_installs():
    """Every program function the bench wraps by name still exists, and a wrapped builtin evaluates.

    The tracer rebuilds each builtin with ``dataclasses.replace`` on its
    ``ZooEntry`` to count the oracle's points.  It wraps
    ``GridFunction.__call__``, so a grid evaluation that runs in several
    blocks must still count each point once.
    """
    root = Path(cli.__file__).resolve().parents[2]
    script = textwrap.dedent(
        """
        import sys
        sys.path[:0] = ["src", "bench"]
        import numpy as np
        import tracing
        from morera import funczoo, gridio

        plain = funczoo.builtin("expz")
        radii = np.linspace(0.0, 1.0, 8)
        thetas = 2 * np.pi * np.arange(16) / 16
        grid = gridio.GridFunction(radii, thetas, plain.oracle(radii[:, None] * np.exp(1j * thetas)))
        w = 0.7 * np.exp(1j * np.linspace(0.0, 6.0, 2 * gridio._BLOCK + 5))
        untraced = grid(w)
        recorder = tracing.Recorder()
        tracing.install(recorder)
        entry = funczoo.builtin("expz")
        assert entry is funczoo.builtin("expz") and type(entry) is type(plain)
        assert (entry.name, entry.classification) == (plain.name, plain.classification)
        assert entry.oracle is not plain.oracle and entry != plain
        z = np.array([0.5, 0.25j, -0.3 + 0.1j])
        assert np.array_equal(entry.oracle(z), plain.oracle(z))
        assert recorder.counters["funczoo.eval.points"] == 3
        assert np.array_equal(grid(w), untraced)
        assert recorder.counters["gridio.eval.points"] == w.size
        """
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
