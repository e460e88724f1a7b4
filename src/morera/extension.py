"""Holomorphic extendability of a function from circles.

A function restricted to a circle extends holomorphically into the disc it
bounds iff its Fourier series on the circle has no negative-frequency
content.  Numerically we sample the trace at N equispaced angles, take the
discrete Fourier transform, and measure the energy in negative bins plus a
high-frequency aliasing guard.  The nonnegative part of the series doubles as
the extension itself, evaluated as a power series in (zeta - center)/radius.

:func:`analyze_batch` is the one kernel: it tests many circles at once, with
one oracle call and one FFT per doubling level, resampling only the rows
whose aliasing guard trips.  :func:`analyze_with_refinement` runs it on a
single circle; :func:`analyze_circle` and :func:`analyze_trace` analyse one
trace at a fixed N.  Every extension is summed by one vectorized Horner loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
# numpy loads its fft module on first use; import it here so that cost falls in
# start-up, not inside the first command that samples a circle.
import numpy.fft  # noqa: F401

from .errors import (
    DomainError,
    ExtensionFailureError,
    InconclusiveError,
    InvalidStateError,
    ParameterDomainError,
    SamplingError,
)
from .geometry import Circle

# Relative negative-tail energy threshold below which a trace counts as
# holomorphically extendable.
DEFAULT_MORERA_TOL = 1e-8
# Default and maximum sample counts; doubling stops at the maximum and the
# analysis is then reported as inconclusive by the sweep layer.
DEFAULT_SAMPLES = 256
MAX_SAMPLES = 4096
# Absolute energy floor so that the zero function trivially passes.
ENERGY_FLOOR = 1e-30

Oracle = Callable[[complex], complex]


@dataclass(frozen=True)
class CircleTrace:
    """Samples of a function at N equispaced points of a circle.

    ``values[k]`` is the function at ``circle.center + circle.radius *
    exp(2j*pi*k/N)``.  N must be a power of two, at least 8.
    """

    circle: Circle
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        n = values.shape[0]
        if values.ndim != 1 or n < 8 or n & (n - 1):
            raise ParameterDomainError(f"sample count must be a power of two >= 8, got shape {values.shape}")

    @property
    def sample_count(self) -> int:
        return self.values.shape[0]

    @property
    def thetas(self) -> np.ndarray:
        n = self.sample_count
        return 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True)
class FourierData:
    """DFT of a circle trace, indexed k in [-N/2, N/2).

    ``coefficients[j]`` is the coefficient of frequency ``k_values[j]``;
    ``tail_energy_negative`` sums |c_k|^2 over k < 0 (the obstruction to a
    holomorphic extension) and ``tail_energy_high`` over |k| >= N/4 (an
    undersampling alarm).
    """

    circle: Circle
    coefficients: np.ndarray
    tail_energy_negative: float
    tail_energy_high: float

    @property
    def sample_count(self) -> int:
        return self.coefficients.shape[0]

    @property
    def k_values(self) -> np.ndarray:
        n = self.sample_count
        return np.arange(-(n // 2), n // 2)

    def coefficient(self, k: int) -> complex:
        n = self.sample_count
        if not -(n // 2) <= k < n // 2:
            raise ParameterDomainError(f"frequency {k} outside [-{n // 2}, {n // 2})")
        return complex(self.coefficients[k + n // 2])

    @property
    def total_energy(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of the extendability test for one circle."""

    passes: bool
    negative_energy: float
    threshold_used: float
    aliasing_flag: bool


def oracle_values(f: Oracle, points: np.ndarray, check: bool = True) -> np.ndarray:
    """Evaluate an oracle on an arbitrary-shape point array.

    Makes one vectorized call with the full array.  Only when that call
    raises ``TypeError`` or ``ValueError`` (what ``complex(array)``,
    ``math.*`` or ``if z == 0:`` raise on an array) or returns a value of
    another shape does it fall back to a scalar loop, for oracles that only
    accept single points; any other exception reaches the caller.  With
    ``check`` set, non-finite samples raise :class:`SamplingError`.
    """
    points = np.asarray(points, dtype=complex)
    values = None
    try:
        raw = np.asarray(f(points), dtype=complex)
        if raw.shape == points.shape:
            values = raw
        elif raw.shape == ():
            values = np.full(points.shape, complex(raw))
    except (TypeError, ValueError):
        values = None
    if values is None:
        flat = np.array([complex(f(p)) for p in points.ravel()])
        values = flat.reshape(points.shape)
    if check:
        bad = ~np.isfinite(values.real) | ~np.isfinite(values.imag)
        if bad.any():
            j = np.unravel_index(int(np.argmax(bad)), values.shape)
            raise SamplingError(
                f"oracle returned non-finite value {values[j]} at point {points[j]}",
                value=complex(values[j]),
            )
    return values


def _sample_rows(f: Oracle, centers: np.ndarray, radii: np.ndarray, n: int) -> np.ndarray:
    """Samples of ``f`` at ``n`` equispaced points of each circle, one row each.

    Non-finite samples raise :class:`SamplingError` carrying the angle and
    the row of the first offending sample.
    """
    if n < 8 or n & (n - 1):
        raise ParameterDomainError(f"sample count must be a power of two >= 8, got {n}")
    theta = 2.0 * np.pi * np.arange(n) / n
    points = centers[:, None] + radii[:, None] * np.exp(1j * theta)[None, :]
    values = oracle_values(f, points, check=False)
    bad = ~np.isfinite(values.real) | ~np.isfinite(values.imag)
    if bad.any():
        row, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        circle = Circle(complex(centers[row]), float(radii[row]))
        raise SamplingError(
            f"oracle returned non-finite value {values[row, j]} at theta = {theta[j]} on {circle}",
            theta=float(theta[j]),
            value=complex(values[row, j]),
            row=int(row),
        )
    return values


def sample_circle(f: Oracle, circle: Circle, n: int) -> CircleTrace:
    """Sample ``f`` at ``n`` equispaced points of ``circle``.

    Non-finite samples raise :class:`SamplingError` carrying the offending
    angle.
    """
    values = _sample_rows(f, np.array([circle.center]), np.array([circle.radius]), int(n))
    return CircleTrace(circle, values[0])


def _energy_bands(coeffs: np.ndarray) -> tuple:
    """Negative, aliasing-band and total energy along the last axis.

    ``coeffs`` are in FFT order [0..N/2-1, -N/2..-1]: the negative band is
    k < 0, the aliasing band |k| >= N/4.
    """
    n = coeffs.shape[-1]
    energy = np.abs(coeffs) ** 2
    negative = energy[..., n // 2 :].sum(axis=-1)
    high = energy[..., n // 4 : n - n // 4 + 1].sum(axis=-1)
    return negative, high, energy.sum(axis=-1)


def _threshold_rule(negative, high, total, tol: float) -> tuple:
    """Threshold, aliasing flag and pass flag of the extendability test.

    Works elementwise on scalars or arrays: a trace passes iff its negative
    energy is at most ``tol`` times its total energy (plus a tiny absolute
    floor) and the aliasing band stays below the same threshold.
    """
    if not tol > 0.0:
        raise ParameterDomainError(f"tolerance must be positive, got {tol}")
    threshold = tol * (total + ENERGY_FLOOR)
    aliasing = np.greater(high, threshold)
    passes = np.logical_and(np.less_equal(negative, threshold), np.logical_not(aliasing))
    return threshold, aliasing, passes


def _fourier_data(circle: Circle, c: np.ndarray) -> FourierData:
    """:class:`FourierData` of one circle from its FFT-order DFT [0..N/2-1, -N/2..-1]."""
    n = c.shape[0]
    negative, high, _ = _energy_bands(c)
    # reorder from [0..N/2-1, -N/2..-1] to [-N/2 .. N/2-1]
    return FourierData(circle, np.concatenate([c[n // 2 :], c[: n // 2]]), float(negative), float(high))


def analyze_trace(trace: CircleTrace) -> FourierData:
    """Fourier coefficients c_k = (1/N) sum_j values_j exp(-i k theta_j)."""
    return _fourier_data(trace.circle, np.fft.fft(trace.values) / trace.sample_count)


def analyze_circle(f: Oracle, circle: Circle, n: int = DEFAULT_SAMPLES) -> FourierData:
    """Sample ``f`` on ``circle`` and Fourier-analyze the trace."""
    return analyze_trace(sample_circle(f, circle, n))


# No cache: an alias kept only because bench/tracing.py wraps this name.  The
# benchmark change that adds the in-program trace (ROADMAP item 4) deletes it.
cached_analyze = analyze_circle


def extension_test(data: FourierData, tol: float = DEFAULT_MORERA_TOL) -> ExtensionResult:
    """Decide extendability from the negative-tail energy of ``data``.

    Passes iff the negative-frequency energy is at most ``tol`` times the
    total energy (plus a tiny absolute floor) and the high-frequency aliasing
    guard stays below the same threshold.
    """
    threshold, aliasing, passes = _threshold_rule(
        data.tail_energy_negative, data.tail_energy_high, data.total_energy, tol
    )
    return ExtensionResult(bool(passes), data.tail_energy_negative, float(threshold), bool(aliasing))


def analyze_with_refinement(
    f: Oracle,
    circle: Circle,
    tol: float = DEFAULT_MORERA_TOL,
    n0: int = DEFAULT_SAMPLES,
    n_max: int = MAX_SAMPLES,
) -> tuple[FourierData, ExtensionResult, bool]:
    """Analyze a circle, doubling N while the aliasing guard trips.

    One row of :func:`analyze_batch`.  Returns the final data and test result
    plus an ``inconclusive`` flag that is set when the guard still trips at
    ``n_max`` samples.
    """
    batch = analyze_batch(f, [circle.center], [circle.radius], tol, n0, n_max)
    data = _fourier_data(circle, batch.groups[0][1][0])
    return data, extension_test(data, tol), bool(batch.inconclusive[0])


def evaluate_extension(
    data: FourierData,
    zeta: complex,
    result: ExtensionResult | None = None,
    tol: float = DEFAULT_MORERA_TOL,
) -> complex:
    """Value at ``zeta`` of the holomorphic extension encoded by ``data``.

    Sums the nonnegative-frequency series sum_{k>=0} c_k ((zeta - a)/r)^k,
    truncated at k = N/2 - 1.  ``zeta`` must lie in the closed disc; on the
    circle itself the series reproduces the trace up to the tail energy.
    Refuses to run when the extendability test failed.
    """
    if result is None:
        result = extension_test(data, tol)
    if not result.passes:
        raise InvalidStateError(
            f"extension evaluated on data that fails the extendability test "
            f"(negative energy {data.tail_energy_negative:.3e}) on {data.circle}"
        )
    circle = data.circle
    u = (complex(zeta) - circle.center) / circle.radius
    if abs(u) > 1.0 + 1e-12:
        raise DomainError(f"zeta = {zeta} outside the closed disc of {circle}")
    return complex(_horner(data.coefficients[None, data.sample_count // 2 :], np.array([u]))[0])


def _horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Power series sum_k coeffs[i, k] u[i]^k per row, by Horner's rule.

    ``coeffs`` has one row per entry of the first axis of ``u``, whose shape
    is (m,) or (m, probes); the sum runs over every column, highest degree
    first.
    """
    shape = (-1,) + (1,) * (u.ndim - 1)
    acc = np.zeros_like(u)
    for k in range(coeffs.shape[1] - 1, -1, -1):
        acc *= u
        acc += coeffs[:, k].reshape(shape)
    return acc


@dataclass(frozen=True)
class BatchAnalysis:
    """Per-row outcome of :func:`analyze_batch`, one row per circle.

    ``samples`` is the sample count at which each row stopped, and
    ``negative_energy``, ``total_energy``, ``passes`` and ``aliasing`` are
    the test's outcome at that count, as :func:`extension_test` computes it
    for one circle.  ``groups`` holds ``(rows, coefficients)`` pairs, one per
    sample count at which some rows stopped: ``coefficients[i]`` is the
    FFT-order DFT [0..N/2-1, -N/2..-1] of row ``rows[i]``, and ``rows`` is
    ascending.
    """

    centers: np.ndarray
    radii: np.ndarray
    samples: np.ndarray
    negative_energy: np.ndarray
    total_energy: np.ndarray
    passes: np.ndarray
    aliasing: np.ndarray
    groups: tuple

    @property
    def inconclusive(self) -> np.ndarray:
        """Rows still aliased at the sample cap: a row stops aliased only there."""
        return self.aliasing

    def circle(self, row: int) -> Circle:
        return Circle(complex(self.centers[row]), float(self.radii[row]))

    def require_extensions(self, name: Callable[[int], str]) -> None:
        """Raise unless every row passes, naming the row by ``name(row)``.

        The first failing row raises :class:`ExtensionFailureError`; when
        none fails, the first row still aliased at the sample cap raises
        :class:`InconclusiveError`.
        """
        for flags, error, what in (
            (~self.passes & ~self.inconclusive, ExtensionFailureError, "does not extend holomorphically"),
            (self.inconclusive, InconclusiveError, "is undecided (aliased at the sample cap)"),
        ):
            if flags.any():
                row = int(np.argmax(flags))
                raise error(
                    f"f {what} from {name(row)} (negative energy "
                    f"{self.negative_energy[row]:.3e}, {self.samples[row]} samples)",
                    circle=self.circle(row),
                )

    def evaluate(self, points, rows=None) -> np.ndarray:
        """Extensions at per-row points: that of row ``rows[i]`` at ``points[i]``.

        ``points`` has shape (m,) or (m, probes), each point in the closed
        disc of its circle; ``rows`` defaults to every row in order.  Sums
        sum_{k>=0} c_k ((zeta - a)/r)^k by Horner's rule, vectorized over the
        points.  Refuses rows that fail the extendability test.
        """
        rows = np.arange(self.samples.size) if rows is None else np.asarray(rows, dtype=int)
        failing = np.flatnonzero(~self.passes[rows])
        if failing.size:
            row = int(rows[failing[0]])
            raise InvalidStateError(
                f"extension evaluated on data that fails the extendability test "
                f"(negative energy {self.negative_energy[row]:.3e}) on {self.circle(row)}"
            )
        points = np.asarray(points, dtype=complex)
        out = np.empty(points.shape, dtype=complex)
        shape = (-1,) + (1,) * (points.ndim - 1)
        for group_rows, coeffs in self.groups:
            pos = np.minimum(np.searchsorted(group_rows, rows), group_rows.size - 1)
            sel = np.flatnonzero(group_rows[pos] == rows)
            if not sel.size:
                continue
            picked = rows[sel]
            u = (points[sel] - self.centers[picked].reshape(shape)) / self.radii[picked].reshape(shape)
            out[sel] = _horner(coeffs[pos[sel], : coeffs.shape[1] // 2], u)
        return out


def analyze_batch(
    f: Oracle,
    centers,
    radii,
    tol: float = DEFAULT_MORERA_TOL,
    n0: int = DEFAULT_SAMPLES,
    n_max: int = MAX_SAMPLES,
) -> BatchAnalysis:
    """Extendability test on many circles, doubling N only where it aliases.

    Row i is the circle with center ``centers[i]`` and radius ``radii[i]``.
    Each doubling level makes one oracle call on the (rows x N) point matrix
    and one FFT along the rows; rows whose aliasing guard trips are resampled
    at 2N, up to ``n_max``, where a still-aliased row is inconclusive.  This
    is the only refinement loop; single circles run through it as one-row
    batches.  Non-finite samples raise :class:`SamplingError` with ``row``
    set.
    """
    centers = np.asarray(centers, dtype=complex).ravel()
    radii = np.asarray(radii, dtype=float).ravel()
    m = centers.size
    samples = np.zeros(m, dtype=int)
    negative = np.zeros(m)
    total = np.zeros(m)
    passes = np.zeros(m, dtype=bool)
    aliasing = np.zeros(m, dtype=bool)
    groups = []
    active = np.arange(m)
    n = int(n0)
    while active.size:
        try:
            coeffs = np.fft.fft(_sample_rows(f, centers[active], radii[active], n), axis=1)
        except SamplingError as exc:
            exc.row = int(active[exc.row])
            raise
        coeffs /= n
        row_negative, row_high, row_total = _energy_bands(coeffs)
        _, row_aliasing, row_passes = _threshold_rule(row_negative, row_high, row_total, tol)
        samples[active] = n
        negative[active] = row_negative
        total[active] = row_total
        passes[active] = row_passes
        aliasing[active] = row_aliasing
        if n >= n_max or not row_aliasing.any():
            groups.append((active, coeffs))
            break
        if not row_aliasing.all():
            groups.append((active[~row_aliasing], coeffs[~row_aliasing]))
        active = active[row_aliasing]
        del coeffs
        n *= 2
    return BatchAnalysis(centers, radii, samples, negative, total, passes, aliasing, tuple(groups))
