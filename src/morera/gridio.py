"""Polar-grid CSV ingestion: black-box functions supplied as sampled data.

File format: UTF-8 text (an optional byte-order mark, LF or CRLF line ends),
an optional header line ``r,theta,re,im`` followed by one row per
sample, covering a full tensor grid of radii (ascending, last row of radii
should reach 1 to cover the closed disc) and equispaced angles in [0, 2*pi);
blank lines and ``#`` comments are skipped.  The function is reconstructed by
trigonometric interpolation in theta, which is spectrally accurate on the
periodic rows, and a not-a-knot cubic spline in r.  At load the grid states
its own accuracy: ``GridFunction.error`` bounds the interpolant's error,
relative to max |f|, from the data alone, and ``GridFunction.annulus`` the
radii its data span; the extension kernel counts a failure that this error
could explain, or on a circle leaving those radii, as undecided.  Points
beyond the last radius take its values, and points inside the first take
that radius's; the CLI warns when the radii end below 1 or start above 0.
Evaluation runs in fixed blocks of points, so its memory does not grow with
the query size, and a non-finite point gives NaN.
"""

from __future__ import annotations

# The codec grid files are read with, loaded here rather than inside a command.
import encodings.utf_8_sig  # noqa: F401
import contextlib
import itertools
import math
import os
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ConfigError
from .extension import oracle_values

HEADER = ["r", "theta", "re", "im"]
# Each row's trigonometric interpolant is tabulated on a grid this many times
# finer, where 4-point cubic weights evaluate it.
_UPSAMPLE = 8
# The radial error estimate fits a spline through every other radius, which
# needs 4 of them.
_ESTIMATED_RADII = 7
# The table is built this many rows at a time.
_TABLE_ROWS = 16
# GridFunction evaluates at most this many points at a time.
_BLOCK = 4096


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    A new file gets mode 0o666 less the umask; a replaced one keeps its
    permission bits where the filesystem allows, read-only included.  An
    ``OSError`` (a missing directory, no permission, ``path`` a directory)
    becomes a :class:`ConfigError` naming ``path``; no temp file is left.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        tmp = os.path.join(directory, f".morera-{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                with contextlib.suppress(OSError):
                    os.fchmod(fd, os.stat(path).st_mode & 0o777)
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_polar_grid(
    path: str, f: Callable[[complex], complex], n_r: int = 64, n_theta: int = 128, r_max: float = 1.0
) -> None:
    """Sample ``f`` on a polar tensor grid and write the CSV file.

    ``n_r`` and ``n_theta`` must be at least 4 and ``r_max`` positive and
    finite, as :func:`read_polar_grid` requires; otherwise
    :class:`ConfigError` is raised before ``f`` is called.
    """
    for name, count in (("n_r", n_r), ("n_theta", n_theta)):
        if count < 4:
            raise ConfigError(f"{name} must be at least 4 for cubic interpolation, got {count!r}")
    if not (r_max > 0.0 and np.isfinite(r_max)):
        raise ConfigError(f"r_max must be positive and finite, got {r_max!r}")
    radii = np.linspace(0.0, r_max, n_r)
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    points = radii[:, None] * np.exp(1j * thetas)[None, :]
    values = oracle_values(f, points)
    lines = [",".join(HEADER)]
    for i, r in enumerate(radii):
        for j, th in enumerate(thetas):
            v = values[i, j]
            lines.append(f"{float(r)!r},{float(th)!r},{float(v.real)!r},{float(v.imag)!r}")
    write_text_atomic(path, "\n".join(lines) + "\n")


class GridFunction:
    """Oracle interpolating a polar sample grid: trigonometric in theta, cubic in r.

    Each radius row is interpolated trigonometrically: its FFT, which the
    error estimate reads too, is zero-padded onto a periodic grid
    ``_UPSAMPLE`` times finer, evaluated there by 4-point cubic weights.
    Across rows it is the not-a-knot cubic spline through the radii.  Both
    maps are linear, so the spline's second derivatives are taken on the
    coarse rows and upsampled with them.  r is clamped to ``[radii[0], r_max]``.

    ``error`` bounds the interpolant's error relative to max |f|, from the
    data alone.  It is the largest, over the rows, of two theta terms, plus
    one radial term:

    - the row's largest spectral coefficient at |k| >= 3n/8, the part the n
      angles may not resolve (Trefethen and Weideman, "The exponentially
      convergent trapezoidal rule", SIAM Rev. 2014).  Content the angles do
      resolve counts too, so a grid of such content overstates its error;
    - the row's sum of |c_k| (3/128) (2 pi k / 8n)^4, the error of the
      4-point cubic step on the fine grid;
    - 1/16 of the largest gap between the not-a-knot spline through every
      other radius and the radii it skips: the spline's error scales as h^4
      (de Boor, *A Practical Guide to Splines*).

    A grid of fewer than 7 radii has no radial estimate, and its ``error``
    is infinite; a grid of zeros has ``error`` 0.  ``annulus`` is
    (``radii[0]``, ``r_max``); see :func:`~morera.extension.stated_accuracy`.

    A call evaluates at most ``_BLOCK`` points at a time into its output, so
    beyond the table and the output its memory is bounded whatever the
    query size.  A non-finite point (NaN or infinite in either part) gives
    NaN, as an expression oracle does, so sampling reports it.
    """

    def __init__(self, radii: np.ndarray, thetas: np.ndarray, values: np.ndarray):
        if radii.size < 4 or thetas.size < 4:
            raise ConfigError("polar grid needs at least 4 radii and 4 angles for cubic interpolation")
        if not (np.diff(radii) > 0).all():
            raise ConfigError("grid radii must be strictly increasing")
        if radii[0] < 0.0:
            raise ConfigError(f"grid radii must be at least 0, got {float(radii[0])!r}")
        self.radii = radii
        self.r_max = float(radii[-1])
        self.annulus = (float(radii[0]), self.r_max)
        step = 2.0 * np.pi / thetas.size
        if not (np.abs(np.diff(thetas) - step) <= 1e-9).all() or abs(thetas[0]) > 1e-12:
            raise ConfigError("grid angles must be equispaced starting at 0")
        scale = float(np.abs(values).max())
        # The rows of values, then of their second derivatives in r.
        spectra = np.fft.fft(np.vstack([values, _spline_second_derivatives(radii, values)]), axis=1, norm="forward")
        if radii.size < _ESTIMATED_RADII:
            self.error = math.inf
        elif scale == 0.0:
            self.error = 0.0
        else:
            self.error = (_theta_error(spectra[: radii.size]) + _radial_error(radii, values)) / scale
        table = _upsample_periodic(spectra)
        self._values, self._second = table[: radii.size], table[radii.size :]

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        out = np.zeros(arr.shape, dtype=complex)
        if arr.ndim == 0:
            # Numpy's scalar arithmetic, which can round differently from its
            # array loops in the last bit.
            self._accumulate(arr, out)
            return out if isinstance(z, np.ndarray) else complex(out)
        # Blocks of at most _BLOCK points bound the temporaries whatever the
        # query size.  Not ``self(...)``: a wrapper of ``__call__`` would see
        # every block as a call of its own.
        points, values = arr.reshape(-1), out.reshape(-1)
        for start in range(0, points.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            self._accumulate(points[block], values[block])
        return out

    def _accumulate(self, arr: np.ndarray, out: np.ndarray) -> None:
        """Add the interpolant at the points ``arr`` to ``out``, zeros of the same shape.

        A non-finite point gives NaN; it is evaluated as 0, so no NaN reaches
        the integer casts below.
        """
        finite = np.isfinite(arr)
        all_finite = finite.all()
        if not all_finite:
            arr = np.where(finite, arr, 0.0)
        radii = self.radii
        r = np.clip(np.abs(arr), radii[0], self.r_max)
        i = np.clip(np.searchsorted(radii, r, side="right") - 1, 0, radii.size - 2)
        a, b, ca, cb = _spline_weights(radii, i, r)
        width = self._values.shape[1]
        fine = width - 3  # see _upsample_periodic for the padding
        u = np.mod(np.angle(arr), 2.0 * np.pi) * (fine / (2.0 * np.pi))
        j = np.minimum(u.astype(int), fine - 1)
        # Flat index of the first stencil column in row i; row i + 1 is
        # ``width`` further.  One column at a time keeps temporaries at the
        # size of the block.
        low = i * width + j
        for k, weight in enumerate(_cubic_weights(u - j)):
            near, far = low + k, low + k + width
            out += weight * (
                a * self._values.take(near)
                + b * self._values.take(far)
                + ca * self._second.take(near)
                + cb * self._second.take(far)
            )
        if not all_finite:
            out[~finite] = np.nan


def _spline_second_derivatives(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives at the knots ``x`` of the not-a-knot cubic splines through ``y``'s columns.

    The not-a-knot rows (third derivative continuous at ``x[1]`` and
    ``x[-2]``) are eliminated into the first and last interior equations,
    leaving a diagonally dominant tridiagonal system, solved column-wise by
    the Thomas algorithm.  A dense LAPACK solve does the same, but past about
    100 radii OpenBLAS runs it multi-threaded, which measured 120-190 ms in a
    fresh process on 2 cores against 3-10 ms here.
    """
    h = np.diff(x)
    # Equation e couples the second derivatives at knots e, e + 1 and e + 2.
    rhs = 6.0 * np.diff(np.diff(y, axis=0) / h[:, None], axis=0)
    sub = h[:-1].copy()
    diag = 2.0 * (h[:-1] + h[1:])
    sup = h[1:].copy()
    h0, h1, p, q = h[0], h[1], h[-2], h[-1]
    diag[0], sup[0] = (h0 + h1) * (h0 + 2.0 * h1) / h1, (h1 - h0) * (h1 + h0) / h1
    sub[-1], diag[-1] = (p - q) * (p + q) / p, (p + q) * (2.0 * p + q) / p
    for e in range(1, rhs.shape[0]):
        w = sub[e] / diag[e - 1]
        diag[e] -= w * sup[e - 1]
        rhs[e] -= w * rhs[e - 1]
    second = np.empty_like(y)
    second[-2] = rhs[-1] / diag[-1]
    for e in range(rhs.shape[0] - 2, -1, -1):
        second[e + 1] = (rhs[e] - sup[e] * second[e + 2]) / diag[e]
    second[0] = ((h0 + h1) * second[1] - h0 * second[2]) / h1
    second[-1] = ((p + q) * second[-2] - q * second[-3]) / p
    return second


def _spline_weights(x: np.ndarray, i, r) -> tuple:
    """Weights of y[i], y[i + 1], y''[i] and y''[i + 1] in the cubic spline through
    the knots ``x`` at ``r`` in [x[i], x[i + 1]]."""
    h = x[i + 1] - x[i]
    b = (r - x[i]) / h
    a = 1.0 - b
    return a, b, (a**3 - a) * h**2 / 6.0, (b**3 - b) * h**2 / 6.0


def _radial_error(radii: np.ndarray, values: np.ndarray) -> float:
    """1/16 of the largest gap between the not-a-knot spline through every other
    row of ``values`` and the rows it skips between its knots."""
    x, y = radii[::2], values[::2]
    second = _spline_second_derivatives(x, y)
    a, b, ca, cb = (w[:, None] for w in _spline_weights(x, np.arange(x.size - 1), radii[1:-1:2]))
    skipped = a * y[:-1] + b * y[1:] + ca * second[:-1] + cb * second[1:]
    return float(np.abs(skipped - values[1:-1:2]).max()) / 16.0


def _theta_error(spectra: np.ndarray) -> float:
    """The largest, over the rows of forward-normalized FFTs ``spectra``, of the theta
    error bound of :class:`GridFunction`: the row's largest spectral coefficient
    at |k| >= 3n/8 plus the error of the cubic step on the fine grid."""
    n = spectra.shape[1]
    k = np.abs(np.fft.fftfreq(n, 1.0 / n))
    step = (3.0 / 128.0) * (2.0 * np.pi * k / (_UPSAMPLE * n)) ** 4
    amplitude = np.abs(spectra)
    return float((amplitude[:, k >= 3 * n / 8].max(axis=1) + (amplitude * step).sum(axis=1)).max())


def _upsample_periodic(spectra: np.ndarray) -> np.ndarray:
    """The rows whose forward-normalized FFTs are the rows of ``spectra``, each as its
    trigonometric interpolant on a grid ``_UPSAMPLE`` times finer, wrap-padded.

    The result has one column of padding before the fine grid and two after,
    so the stencil of fine node j reads columns j .. j + 3.  It is filled
    ``_TABLE_ROWS`` rows at a time through one reused zero-padded buffer, so
    the only array of its size is the result.
    """
    n = spectra.shape[1]
    m = _UPSAMPLE * n
    half = n // 2
    table = np.empty((spectra.shape[0], m + 3), dtype=complex)
    fine = np.zeros((_TABLE_ROWS, m), dtype=complex)
    for start in range(0, spectra.shape[0], _TABLE_ROWS):
        spectrum = spectra[start : start + _TABLE_ROWS]
        count = spectrum.shape[0]
        block = fine[:count]
        # Only these two column ranges are written; the rest stays zero.
        block[:, : half + 1] = spectrum[:, : half + 1]
        block[:, m - n + half + 1 :] = spectrum[:, half + 1 :]
        if n % 2 == 0:
            # Split the Nyquist mode evenly between +n/2 and -n/2.
            block[:, half] /= 2.0
            block[:, m - half] = block[:, half]
        np.fft.ifft(block, axis=1, norm="forward", out=table[start : start + count, 1 : m + 1])
    table[:, 0] = table[:, m]
    table[:, m + 1 :] = table[:, 1:3]
    return table


def _cubic_weights(t: np.ndarray) -> tuple:
    """Lagrange weights of the nodes at offsets -1, 0, 1, 2 for a point at offset ``t``."""
    return (
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -(t + 1.0) * t * (t - 2.0) / 2.0,
        (t + 1.0) * t * (t - 1.0) / 6.0,
    )


def _next_row(lines: Iterable[str]) -> Optional[str]:
    """The next line that is neither blank nor a ``#`` comment, or None at the end."""
    for line in lines:
        text = line.strip()
        if text and not text.startswith("#"):
            return line
    return None


def _distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` imports ``numpy.ma`` on first use)."""
    s = np.sort(x)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def read_polar_grid(path: str) -> GridFunction:
    """Load a polar-grid CSV file into an interpolating oracle.

    A file that cannot be opened or decoded raises :class:`ConfigError`
    naming ``path``, as does any defect of its contents.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            first = _next_row(handle)
            if first is None:
                raise ConfigError(f"grid file {path} is empty")
            if [c.strip() for c in first.split(",")] == HEADER:
                first = _next_row(handle)
                if first is None:
                    raise ConfigError(f"grid file {path} has a header but no data rows")
            try:
                data = np.loadtxt(itertools.chain([first], handle), delimiter=",", comments="#", ndmin=2)
            except UnicodeDecodeError:
                raise  # a ValueError too, but reported below as not text
            except ValueError as exc:
                raise ConfigError(f"grid file {path} is malformed: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read grid file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"grid file {path} is not text") from None
    if data.shape[1] != 4:
        raise ConfigError(f"grid file {path} must have 4 columns {HEADER}")
    if not np.isfinite(data).all():
        raise ConfigError(f"grid file {path} has non-finite entries")
    radii = _distinct(data[:, 0])
    thetas = _distinct(data[:, 1])
    if radii.size * thetas.size != data.shape[0]:
        raise ConfigError(f"grid file {path} is not a full (r, theta) tensor grid")
    values = np.full((radii.size, thetas.size), np.nan, dtype=complex)
    index = np.searchsorted(radii, data[:, 0]), np.searchsorted(thetas, data[:, 1])
    values[index] = data[:, 2] + 1j * data[:, 3]
    del data, index  # not held while the table is built
    if np.isnan(values.real).any():
        raise ConfigError(f"grid file {path} has missing (r, theta) combinations")
    return GridFunction(radii, thetas, values)
