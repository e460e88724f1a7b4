import json

import numpy as np
import pytest

from morera.cli import main, parse_point
from morera.errors import ConfigError
from morera.funczoo import builtin
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
            assert abs(g(complex(z)) - f(complex(z))) < 1e-5

    def test_sweep_verdicts_reproduced(self, capsys, tmp_path):
        # Export sampled zoo values, re-import, and compare per-circle
        # verdicts against the builtin sweep (interpolation threshold x10).
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

    def test_malformed_grid_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("r,theta,re,im\n0.0,0.0,1.0\n")
        code, _, err = run(["sweep", "--grid", str(bad), "--circles", "8"], capsys)
        assert code == 2

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
