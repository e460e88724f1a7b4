import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

import morera
from morera.errors import ConfigError, SamplingError
from morera.extension import oracle_values
from morera.funczoo import builtin, builtin_names
from morera.gridio import (
    _BLOCK,
    _UPSAMPLE,
    GridFunction,
    _spline_second_derivatives,
    read_polar_grid,
    write_polar_grid,
    write_text_atomic,
)

# Maximum error against the closed form of the scipy RectBivariateSpline
# interpolant (cubic in r and theta, theta wrap-padded by 3 columns) that
# gridio used before, on _points(), rounded up to 3 significant digits.
SPLINE_MAX_ERROR = {
    (64, 128): {
        "absq": 1.12e-15,
        "conjugate": 1.83e-08,
        "counterexample": 1.47e-06,
        "expz": 7.26e-07,
        "poly3": 1.46e-06,
        "radial-smooth": 1.79e-06,
        "rational": 1.26e-06,
    },
    (48, 96): {
        "absq": 8.89e-16,
        "conjugate": 5.74e-08,
        "counterexample": 4.61e-06,
        "expz": 2.25e-06,
        "poly3": 4.54e-06,
        "radial-smooth": 7.03e-06,
        "rational": 3.78e-06,
    },
}

# Holomorphic functions whose coarse grids do not resolve them.
HOLOMORPHIC = {"exp(3z)": lambda z: np.exp(3 * z), "1/(z-1.3)": lambda z: 1 / (z - 1.3), "z^20": lambda z: z**20}


def _points():
    rng = np.random.default_rng(20260)
    return rng.uniform(0.0, 1.0, 4000) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 4000))


def _nodes(radii, n_theta):
    return radii[:, None] * np.exp(2j * np.pi * np.arange(n_theta) / n_theta)[None, :]


def _grid(f, radii, n_theta):
    values = f(_nodes(radii, n_theta))
    return GridFunction(radii, 2 * np.pi * np.arange(n_theta) / n_theta, values), values


class TestInterpolant:
    @pytest.mark.parametrize("shape", sorted(SPLINE_MAX_ERROR))
    @pytest.mark.parametrize("name", builtin_names())
    def test_no_worse_than_the_old_spline(self, name, shape):
        f = builtin(name).oracle
        g, _ = _grid(f, np.linspace(0.0, 1.0, shape[0]), shape[1])
        z = _points()
        assert np.max(np.abs(g(z) - f(z))) <= SPLINE_MAX_ERROR[shape][name]

    @pytest.mark.parametrize("n_theta", [45, 47, 64])
    def test_reproduces_nodes_and_converges(self, n_theta):
        f = builtin("poly3").oracle
        radii = np.linspace(0.0, 1.0, 32)
        g, values = _grid(f, radii, n_theta)
        assert np.max(np.abs(g(_nodes(radii, n_theta)) - values)) < 1e-13
        z = _points()
        assert np.max(np.abs(g(z) - f(z))) < 1e-6

    def test_nonuniform_radii(self):
        radii = np.sqrt(np.linspace(0.0, 1.0, 40))

        # A cubic in r, constant in theta: the not-a-knot spline reproduces it.
        def cubic(z):
            return (np.abs(z) ** 3 - 2 * np.abs(z) + 1).astype(complex)

        g, _ = _grid(cubic, radii, 16)
        z = _points()
        assert np.max(np.abs(g(z) - cubic(z))) < 1e-13
        f = builtin("expz").oracle
        g, values = _grid(f, radii, 64)
        assert np.max(np.abs(g(_nodes(radii, 64)) - values)) < 1e-13
        assert np.max(np.abs(g(z) - f(z))) < 1e-4

    @pytest.mark.parametrize("shape", [(16, 32), (32, 64), (64, 128)])
    @pytest.mark.parametrize("name", [*HOLOMORPHIC, *builtin_names()])
    def test_error_estimate_bounds_the_error(self, name, shape):
        # The CLI judges a grid source at 10 times its estimate, so 10 times it
        # must bound the error it stands for; 1e-14 is the rounding level.
        f = HOLOMORPHIC[name] if name in HOLOMORPHIC else builtin(name).oracle
        g, values = _grid(f, np.linspace(0.0, 1.0, shape[0]), shape[1])
        z = _points()
        measured = np.max(np.abs(g(z) - f(z))) / np.max(np.abs(values))
        assert measured <= 10.0 * max(g.error, 1e-14)

    def test_error_estimate_needs_7_radii(self):
        f = builtin("poly3").oracle
        assert _grid(f, np.linspace(0.0, 1.0, 6), 16)[0].error == np.inf
        assert _grid(f, np.linspace(0.0, 1.0, 7), 16)[0].error < 1e-3
        assert _grid(lambda z: 0.0 * z, np.linspace(0.0, 1.0, 7), 16)[0].error == 0.0

    def test_radius_clamped_to_the_grid(self):
        f = builtin("poly3").oracle
        g, _ = _grid(f, np.linspace(0.2, 0.9, 20), 32)
        for ray in (1.0, np.exp(2j)):
            assert g(0.1 * ray) == g(0.2 * ray)
            assert g(0.95 * ray) == g(0.9 * ray)

    def test_continuous_across_theta_zero(self):
        g, _ = _grid(builtin("counterexample").oracle, np.linspace(0.0, 1.0, 16), 32)
        for r in (0.5, 1.0):
            at_zero = g(r)
            # -1e-300 rounds to theta = 2 pi exactly after the mod.
            assert abs(g(complex(r, -1e-300)) - at_zero) < 1e-15
            for eps in (1e-12, -1e-12):
                assert abs(g(r * np.exp(1j * eps)) - at_zero) < 1e-11

    @pytest.mark.parametrize("n_theta", [8, 9])
    def test_real_samples_give_a_real_interpolant(self, n_theta):
        # An even grid's Nyquist mode must be split between +n/2 and -n/2:
        # kept at +n/2 alone it turns cos(n theta / 2) into exp(i n theta / 2),
        # and copied whole to both it misses the samples.
        radii = np.linspace(0.1, 1.0, 6)
        values = np.random.default_rng(6).standard_normal((6, n_theta)).astype(complex)
        g = GridFunction(radii, 2 * np.pi * np.arange(n_theta) / n_theta, values)
        assert np.max(np.abs(g(_points()).imag)) < 1e-14
        assert np.max(np.abs(g(_nodes(radii, n_theta)) - values)) < 1e-13

    def test_scalar_in_complex_out(self):
        g, _ = _grid(builtin("expz").oracle, np.linspace(0.0, 1.0, 8), 16)
        for z in (0.3, 0.3 + 0.1j, np.complex128(0.3 - 0.2j)):
            assert type(g(z)) is complex
        z = np.array([[0.3, 0.1j], [-0.5, 0.2 - 0.2j]])
        out = g(z)
        assert out.shape == z.shape and out[1, 0] == g(-0.5)

    def test_radii_must_increase(self):
        thetas = 2 * np.pi * np.arange(8) / 8
        with pytest.raises(ConfigError, match="increasing"):
            GridFunction(np.array([0.0, 0.5, 0.5, 1.0, 1.5]), thetas, np.zeros((5, 8), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_angles_rejected(self, bad):
        thetas = 2 * np.pi * np.arange(8) / 8
        thetas[3] = bad
        with pytest.raises(ConfigError, match="equispaced"):
            GridFunction(np.linspace(0.0, 1.0, 5), thetas, np.ones((5, 8), dtype=complex))

    def test_negative_radii_rejected(self, tmp_path):
        # The spline across rows would mix the r < 0 rows into values at r >= 0.
        thetas = 2 * np.pi * np.arange(8) / 8
        with pytest.raises(ConfigError, match="at least 0"):
            GridFunction(np.linspace(-1.0, 1.0, 9), thetas, np.ones((9, 8), dtype=complex))
        path = tmp_path / "grid.csv"
        rows = [f"{r!r},{t!r},1.0,0.0" for r in np.linspace(-0.5, 1.0, 4).tolist() for t in thetas[::2].tolist()]
        path.write_text("\n".join(["r,theta,re,im"] + rows) + "\n")
        with pytest.raises(ConfigError, match="at least 0"):
            read_polar_grid(str(path))


def _reference_table(values, second):
    """The interpolation table built in one piece: all rows stacked, then one
    full zero-padded copy of their spectra, then one inverse FFT."""
    rows = np.concatenate([values, second])
    n = rows.shape[1]
    m = _UPSAMPLE * n
    half = n // 2
    spectrum = np.fft.fft(rows, axis=1, norm="forward")
    fine = np.zeros((rows.shape[0], m), dtype=complex)
    fine[:, : half + 1] = spectrum[:, : half + 1]
    fine[:, m - n + half + 1 :] = spectrum[:, half + 1 :]
    if n % 2 == 0:
        fine[:, half] /= 2.0
        fine[:, m - half] = fine[:, half]
    table = np.empty((rows.shape[0], m + 3), dtype=complex)
    np.fft.ifft(fine, axis=1, norm="forward", out=table[:, 1 : m + 1])
    table[:, 0] = table[:, m]
    table[:, m + 1 :] = table[:, 1:3]
    return table


class TestBlocks:
    """The table is built a few rows at a time and evaluated a block of points
    at a time; both give what the one-piece computation gives, bit for bit."""

    @pytest.mark.parametrize("shape", [(4, 4), (15, 9), (16, 32), (40, 45), (64, 128)])
    @pytest.mark.parametrize("name", ["counterexample", "rational"])
    def test_table_matches_the_one_piece_build(self, name, shape):
        radii = np.linspace(0.0, 1.0, shape[0])
        g, values = _grid(builtin(name).oracle, radii, shape[1])
        expected = _reference_table(values, _spline_second_derivatives(radii, values))
        assert np.array_equal(np.concatenate([g._values, g._second]), expected)

    def test_arrays_larger_than_a_block(self):
        g, _ = _grid(builtin("counterexample").oracle, np.linspace(0.0, 1.0, 24), 48)
        rng = np.random.default_rng(26)
        size = 3 * 2749
        assert size > 2 * _BLOCK
        z = rng.uniform(0.0, 1.1, size) * np.exp(1j * rng.uniform(-7.0, 7.0, size))
        flat = g(z)
        assert np.array_equal(flat, np.concatenate([g(z[k : k + 1]) for k in range(size)]))
        assert np.array_equal(flat, np.concatenate([g(z[k : k + _BLOCK]) for k in range(0, size, _BLOCK)]))
        for grid in (z.reshape(3, 2749), z.reshape(2749, 3).T):
            out = g(grid)
            assert out.shape == grid.shape
            assert np.array_equal(out.ravel(), g(grid.ravel()))

    def test_evaluation_memory_does_not_grow_with_the_query(self):
        g, _ = _grid(builtin("expz").oracle, np.linspace(0.0, 1.0, 64), 128)
        rng = np.random.default_rng(27)
        z = rng.uniform(0.0, 1.0, 10**5) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 10**5))
        g(z[:10])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = g(z)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 1.5e6

    def test_loading_holds_little_besides_the_table(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), builtin("expz").oracle, n_r=64, n_theta=128)
        read_polar_grid(str(path))
        tracemalloc.start()
        try:
            g = read_polar_grid(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (g._values.nbytes + g._second.nbytes)


class TestNonFinitePoints:
    """A non-finite point gives NaN, as an expression oracle does, so sampling
    reports it instead of crashing or clamping it onto the grid's edge."""

    @pytest.fixture
    def grid(self):
        return _grid(builtin("expz").oracle, np.linspace(0.0, 1.0, 16), 32)[0]

    @pytest.mark.parametrize(
        "point", [np.nan, np.inf, -np.inf, complex(np.nan, 0.5), complex(0.5, np.inf), complex(np.inf, np.nan)]
    )
    def test_scalar(self, grid, point):
        value = grid(point)
        assert type(value) is complex and np.isnan(value)

    def test_array(self, grid):
        z = np.array([0.5, np.nan, 0.25j, np.inf, complex(-np.inf, 1.0), -0.5])
        out = grid(z)
        finite = np.isfinite(z)
        assert np.isnan(out[~finite]).all()
        assert np.array_equal(out[finite], grid(z[finite]))
        assert np.isnan(grid(np.full((2, 3), np.nan))).all()

    def test_sampling_names_the_point(self, grid):
        with pytest.raises(SamplingError, match="nan"):
            oracle_values(grid, np.array([0.5, np.nan]))


class TestLoader:
    def test_headerless_and_commented_files_load_the_same_grid(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), builtin("rational").oracle, n_r=8, n_theta=16)
        header, *rows = path.read_text().splitlines()
        bare = tmp_path / "bare.csv"
        bare.write_text("\n".join(rows) + "\n")
        commented = tmp_path / "commented.csv"
        commented.write_text(
            "\n".join(["# sampled rational", "", header] + rows[:5] + ["", "# middle"] + rows[5:]) + "\n"
        )
        z = 0.8 * np.exp(1j * np.linspace(0.0, 6.0, 40))
        expected = read_polar_grid(str(path))(z)
        for other in (bare, commented):
            assert np.array_equal(read_polar_grid(str(other))(z), expected)

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty"), ("# nothing\n\n", "empty"), ("r,theta,re,im\n", "no data"), ("r,theta,re,im\n# c\n\n", "no data")],
    )
    def test_no_data_rows(self, tmp_path, text, message):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=message):
                read_polar_grid(str(path))

    def test_byte_order_mark_and_crlf_load_the_same_grid(self, tmp_path):
        # Excel's "CSV UTF-8" export and PowerShell 5's Export-Csv start the
        # file with a UTF-8 byte-order mark; Windows tools end lines with CRLF.
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), builtin("rational").oracle, n_r=8, n_theta=16)
        text = path.read_bytes()
        bare = text.split(b"\n", 1)[1]
        variants = {
            "bom.csv": b"\xef\xbb\xbf" + text,
            "bom-bare.csv": b"\xef\xbb\xbf" + bare,
            "crlf.csv": text.replace(b"\n", b"\r\n"),
            "bom-crlf.csv": b"\xef\xbb\xbf" + text.replace(b"\n", b"\r\n"),
        }
        z = 0.8 * np.exp(1j * np.linspace(0.0, 6.0, 40))
        expected = read_polar_grid(str(path))(z)
        for name, data in variants.items():
            other = tmp_path / name
            other.write_bytes(data)
            assert np.array_equal(read_polar_grid(str(other))(z), expected), name

    @pytest.mark.parametrize("where", ["start", "end"])
    def test_non_utf8_bytes_are_not_text(self, tmp_path, where):
        # Bytes past the first decoded buffer fail inside np.loadtxt, where a
        # UnicodeDecodeError is a ValueError like a malformed number.
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), builtin("expz").oracle, n_r=16, n_theta=64)
        text = path.read_bytes()
        assert len(text) > 4 * 8192
        path.write_bytes(b"\xff\xfe" + text if where == "start" else text[:-100] + b"\xff" + text[-100:])
        with pytest.raises(ConfigError, match="is not text"):
            read_polar_grid(str(path))

    def test_three_columns_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("r,theta,re,im\n0,0,1\n1,0,1\n")
        with pytest.raises(ConfigError, match="4 columns"):
            read_polar_grid(str(path))



class TestWriter:
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"n_r": 3}, "n_r"),
            ({"n_r": 0}, "n_r"),
            ({"n_theta": 2}, "n_theta"),
            ({"r_max": 0.0}, "r_max"),
            ({"r_max": -1.0}, "r_max"),
            ({"r_max": float("nan")}, "r_max"),
            ({"r_max": float("inf")}, "r_max"),
        ],
    )
    def test_grid_the_reader_rejects_is_not_written(self, tmp_path, kwargs, name):
        def oracle(z):
            raise AssertionError("sampled before the arguments were checked")

        path = tmp_path / "grid.csv"
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            write_polar_grid(str(path), oracle, **kwargs)
        assert not path.exists()

    @pytest.mark.parametrize(
        "umask, existing, mode",
        [
            (0o022, None, 0o644),
            (0o077, None, 0o600),
            (0o022, 0o640, 0o640),
            (0o077, 0o644, 0o644),
            (0o022, 0o444, 0o444),
        ],
        ids=[
            "umask-022-new",
            "umask-077-new",
            "umask-022-existing-640",
            "umask-077-existing-644",
            "umask-022-existing-444",
        ],
    )
    def test_file_mode(self, tmp_path, umask, existing, mode):
        # A new file gets 0o666 less the umask; a replaced one keeps its
        # permission bits, read-only included.
        # The umask is per process, so each case writes from a child.
        path = tmp_path / "out.txt"
        if existing is not None:
            path.write_text("old\n")
            path.chmod(existing)
        script = (
            f"import os; os.umask({umask:#o})\n"
            "from morera.gridio import write_text_atomic\n"
            f"write_text_atomic({str(path)!r}, 'new\\n')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(morera.__file__)))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert path.read_text() == "new\n"
        assert path.stat().st_mode & 0o777 == mode
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_refused_chmod_still_writes(self, tmp_path, monkeypatch):
        # Some filesystems refuse chmod; the file is written all the same.
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def refuse(fd, mode):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "fchmod", refuse)
        write_text_atomic(str(path), "new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_smallest_grid_round_trips(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_polar_grid(str(path), builtin("poly3").oracle, n_r=4, n_theta=4, r_max=0.5)
        g = read_polar_grid(str(path))
        assert g.r_max == 0.5 and g.radii.size == 4 and g.thetas.size == 4


def test_cli_import_loads_no_scipy_and_commands_import_nothing(tmp_path):
    # A module a command imports lazily is paid for inside every CLI call;
    # argparse (with gettext and locale) is imported only for help and errors.
    grid = tmp_path / "expz.csv"
    write_polar_grid(str(grid), builtin("expz").oracle, n_r=16, n_theta=32)
    script = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        import morera.cli
        loaded = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                morera.cli.main(["verdict", "--builtin", "expz"]),
                morera.cli.main(["test-circle", "--grid", {str(grid)!r}, "--center", "0.1", "--radius", "0.5"]),
            ]
        print(json.dumps({{
            "codes": codes,
            "scipy": sorted(m for m in loaded if m == "scipy" or m.startswith("scipy.")),
            "numpy.ma": "numpy.ma" in loaded,
            "numpy.fft": "numpy.fft" in loaded,
            "numpy.polynomial": "numpy.polynomial" in loaded,
            "argparse": sorted(m for m in ("argparse", "gettext", "locale") if m in loaded),
            "new": sorted(set(sys.modules) - loaded),
        }}))
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(morera.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {
        "codes": [0, 0], "scipy": [], "numpy.ma": False, "numpy.fft": True, "numpy.polynomial": False,
        "argparse": [], "new": [],
    }
