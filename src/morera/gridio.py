"""Polar-grid CSV ingestion: black-box functions supplied as sampled data.

File format: a header line ``r,theta,re,im`` followed by one row per sample,
covering a full tensor grid of radii (ascending, last row of radii should
reach 1 to cover the closed disc) and equispaced angles in [0, 2*pi).  The
function is reconstructed by bicubic spline interpolation in (r, theta),
periodic in theta.  Interpolation error is folded into the extendability
threshold by a caller-chosen inflation factor.
"""

from __future__ import annotations

import csv
import os
import tempfile
from typing import Callable

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .errors import ConfigError
from .extension import oracle_values

HEADER = ["r", "theta", "re", "im"]
# Columns of angular wrap padding used to make the splines periodic.
_PAD = 3


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".morera-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_polar_grid(
    path: str, f: Callable[[complex], complex], n_r: int = 64, n_theta: int = 128, r_max: float = 1.0
) -> None:
    """Sample ``f`` on a polar tensor grid and write the CSV file."""
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
    """Oracle backed by bicubic interpolation of a polar sample grid."""

    def __init__(self, radii: np.ndarray, thetas: np.ndarray, values: np.ndarray):
        if radii.size < 4 or thetas.size < 4:
            raise ConfigError("polar grid needs at least 4 radii and 4 angles for bicubic interpolation")
        self.radii = radii
        self.thetas = thetas
        self.r_max = float(radii[-1])
        step = 2.0 * np.pi / thetas.size
        if not np.allclose(np.diff(thetas), step, rtol=0, atol=1e-9) or abs(thetas[0]) > 1e-12:
            raise ConfigError("grid angles must be equispaced starting at 0")
        # Wrap-pad angles on both sides so the splines are periodic.
        theta_ext = np.concatenate([thetas[-_PAD:] - 2.0 * np.pi, thetas, thetas[:_PAD] + 2.0 * np.pi])
        vals_ext = np.concatenate([values[:, -_PAD:], values, values[:, :_PAD]], axis=1)
        self._re = RectBivariateSpline(radii, theta_ext, vals_ext.real, kx=3, ky=3)
        self._im = RectBivariateSpline(radii, theta_ext, vals_ext.imag, kx=3, ky=3)

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        r = np.minimum(np.abs(arr), self.r_max)
        theta = np.mod(np.angle(arr), 2.0 * np.pi)
        out = self._re.ev(r, theta) + 1j * self._im.ev(r, theta)
        if not isinstance(z, np.ndarray):
            return complex(out)
        return out


def read_polar_grid(path: str) -> GridFunction:
    """Load a polar-grid CSV file into an interpolating oracle."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row and not row[0].startswith("#")]
    if not rows:
        raise ConfigError(f"grid file {path} is empty")
    if [c.strip() for c in rows[0]] == HEADER:
        rows = rows[1:]
    try:
        data = np.array([[float(c) for c in row] for row in rows])
    except ValueError as exc:
        raise ConfigError(f"grid file {path} is malformed: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 4:
        raise ConfigError(f"grid file {path} must have 4 columns {HEADER}")
    if not np.isfinite(data).all():
        raise ConfigError(f"grid file {path} has non-finite entries")
    radii = np.unique(data[:, 0])
    thetas = np.unique(data[:, 1])
    if radii.size * thetas.size != data.shape[0]:
        raise ConfigError(f"grid file {path} is not a full (r, theta) tensor grid")
    values = np.full((radii.size, thetas.size), np.nan, dtype=complex)
    index = np.searchsorted(radii, data[:, 0]), np.searchsorted(thetas, data[:, 1])
    values[index] = data[:, 2] + 1j * data[:, 3]
    if np.isnan(values.real).any():
        raise ConfigError(f"grid file {path} has missing (r, theta) combinations")
    return GridFunction(radii, thetas, values)
