import contextlib
import functools
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morera import cli
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


class TestGridInflation:
    @pytest.mark.parametrize("command", [["test-circle", "--radius", "0.5"], ["verdict", "--circles", "8"]])
    @pytest.mark.parametrize("value, shown", [("0", "0.0"), ("-2", "-2.0"), ("nan", "nan"), ("inf", "inf")])
    def test_non_positive_or_non_finite_names_the_flag(self, capsys, tmp_path, command, value, shown):
        grid = tmp_path / "grid.csv"
        write_polar_grid(str(grid), builtin("poly3").oracle, n_r=8, n_theta=16)
        code, out, err = run(command + ["--grid", str(grid), "--grid-inflation", value], capsys)
        assert code == 2 and out == ""
        assert err == f"error: --grid-inflation must be positive and finite, got {shown}\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[list[str]]:
    """Every ``morera ...`` command line of the README: example blocks and inline code."""
    text = README.read_text()
    lines = re.findall(r"^morera .*?(?=\s+#|$)", text.split("Examples:", 1)[1], re.MULTILINE)
    lines += re.findall(r"`(morera [^`]+)`", text)
    return [shlex.split(line)[1:] for line in lines]


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


def test_bench_tracing_installs():
    """Every program function the bench wraps by name still exists."""
    root = Path(cli.__file__).resolve().parents[2]
    script = 'import sys; sys.path[:0] = ["src", "bench"]; import tracing; tracing.install(tracing.Recorder())'
    done = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
