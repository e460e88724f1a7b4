"""Holomorphic extendability of a function from circles.

A function restricted to a circle extends holomorphically into the disc it
bounds iff its Fourier series on the circle has no negative-frequency
content.  Numerically we sample the trace at N equispaced angles, take the
discrete Fourier transform, and measure the energy in negative bins plus a
high-frequency aliasing guard.  The nonnegative part of the series doubles as
the extension itself, evaluated as a power series in (zeta - center)/radius.

:func:`analyze_batch` is the one kernel: it tests many circles at once, with
one oracle call and one FFT per doubling level, resampling only the rows
whose aliasing guard trips.  Every single-circle function reads one row of
it (:func:`analyze_trace` feeds it a stored trace instead of an oracle).
A row passes, fails, or is undecided with a reason: aliased at the sample
cap, not finite in float64, or failing only within the accuracy its oracle
states (:func:`stated_accuracy`).  Every extension is summed by one
vectorized Horner loop.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
# numpy loads its fft module on first use; import it here so that cost falls in
# start-up, not inside the first command that samples a circle.
import numpy.fft  # noqa: F401

from ._record import Record
from .errors import (
    DomainError,
    ExtensionFailureError,
    InconclusiveError,
    InvalidStateError,
    MoreraError,
    ParameterDomainError,
    SamplingError,
)
from .geometry import Circle

# Relative negative-tail energy threshold below which a trace counts as
# holomorphically extendable.
DEFAULT_MORERA_TOL = 1e-8
# The one start of every refinement the pipeline runs, and the sample cap,
# where a row still aliased is undecided.
DEFAULT_SAMPLES = 256
MAX_SAMPLES = 4096
# A failure within this multiple of an oracle's stated relative error is
# undecided (see stated_accuracy); energy ratios are squared amplitudes.
GRID_ERROR_MARGIN = 10.0
# A circle leaves an oracle's data annulus when it crosses an edge by more than this
# (a pencil point is on the unit circle only to within 1e-12).
_ANNULUS_SLACK = 1e-9
# Why a row is undecided, besides a non-finite sample or energy.
ALIASED = "aliased at the sample cap"
WITHIN_ERROR = "within the source's stated error"
OUTSIDE_DATA = "outside the grid's data"
# The refusal to evaluate the extension of a circle that fails the test.
_REFUSAL = "extension evaluated on data that fails the extendability test (negative energy {:.3e}) on {}"

Oracle = Callable[[complex], complex]


class CircleTrace(Record):
    """Samples of a function at N equispaced points of a circle.

    ``values[k]`` is the function at ``circle.center + circle.radius *
    exp(2j*pi*k/N)``.  N must be a power of two, at least 8.
    """

    circle: Circle
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        _require_sample_count(values.shape[0] if values.ndim == 1 else 0, f"shape {values.shape}")

    @property
    def sample_count(self) -> int:
        return self.values.shape[0]

    @property
    def thetas(self) -> np.ndarray:
        n = self.sample_count
        return 2.0 * np.pi * np.arange(n) / n


class FourierData(Record):
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


class ExtensionResult(Record):
    """Outcome of the extendability test for one circle."""

    passes: bool
    negative_energy: float
    threshold_used: float
    aliasing_flag: bool


def _require_sample_count(n: int, got) -> None:
    """The one sample-count rule: N is a power of two, at least 8."""
    if n < 8 or n & (n - 1):
        raise ParameterDomainError(f"sample count must be a power of two >= 8, got {got}")


def oracle_values(f: Oracle, points: np.ndarray, check: bool = True) -> np.ndarray:
    """Evaluate an oracle on an arbitrary-shape point array.

    Makes one vectorized call with the full array.  Only when that call
    raises ``TypeError`` or ``ValueError`` (what ``complex(array)``,
    ``math.*`` or ``if z == 0:`` raise on an array) or returns a value of
    another shape does it fall back to a scalar loop, for oracles that only
    accept single points; any other exception, a :class:`MoreraError` among
    them though most are ``ValueError`` too, reaches the caller.  With
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
    except MoreraError:
        raise
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


def _non_finite(values: np.ndarray, source: str):
    """(row, theta, value, text) of the first non-finite sample in each row of ``values`` holding one."""
    finite = np.isfinite(values)
    for row in [] if finite.all() else np.flatnonzero(~finite.all(axis=1)).tolist():
        j = int(np.argmin(finite[row]))
        theta = 2.0 * np.pi * j / values.shape[1]
        yield row, theta, complex(values[row, j]), f"{source} non-finite value {values[row, j]} at theta = {theta}"


def _finite_rows(values: np.ndarray, centers: np.ndarray, radii: np.ndarray, source: str) -> np.ndarray:
    """``values``, one row of N samples per circle, unless one is non-finite:
    the first such raises :class:`SamplingError` carrying its angle."""
    for row, theta, value, text in _non_finite(values, source):
        circle = Circle(complex(centers[row]), float(radii[row]))
        raise SamplingError(f"{text} on {circle}", theta=theta, value=value)
    return values


def _sample_rows(f: Oracle, centers: np.ndarray, radii: np.ndarray, n: int, check: bool = False) -> np.ndarray:
    """Samples of ``f`` at ``n`` equispaced points of each circle, one row each; with ``check``,
    a non-finite sample raises :class:`SamplingError` carrying its angle."""
    _require_sample_count(n, n)
    theta = 2.0 * np.pi * np.arange(n) / n
    points = centers[:, None] + radii[:, None] * np.exp(1j * theta)[None, :]
    values = oracle_values(f, points, check=False)
    return _finite_rows(values, centers, radii, "oracle returned") if check else values


def sample_circle(f: Oracle, circle: Circle, n: int) -> CircleTrace:
    """Sample ``f`` at ``n`` equispaced points of ``circle``; a non-finite
    sample raises :class:`SamplingError` carrying its angle."""
    return CircleTrace(circle, _sample_rows(f, np.array([circle.center]), np.array([circle.radius]), int(n), True)[0])


def stated_accuracy(f, tol: float) -> tuple:
    """The undecided tolerance u and the data annulus (or None) an oracle states of itself.

    As a grid's interpolant (:class:`~morera.gridio.GridFunction`) does, an
    oracle may state ``error``, its error relative to max |f|, which gives
    u = max(``tol``, (:data:`GRID_ERROR_MARGIN` * error)^2), and ``annulus``,
    the radii (r_min, r_max) of its data.  A row failing at ``tol`` but not
    at u, or on a circle leaving the annulus, is undecided.  No stage wraps
    the oracle it was given, so both count however the oracle stores them:
    an instance attribute, a property or a ``__slots__`` field.
    """
    return max(tol, (GRID_ERROR_MARGIN * getattr(f, "error", 0.0)) ** 2), getattr(f, "annulus", None)


def _energy_bands(coeffs: np.ndarray) -> tuple:
    """Negative, aliasing-band and total energy along the last axis.

    ``coeffs`` are in FFT order [0..N/2-1, -N/2..-1]: the negative band is
    k < 0, the aliasing band |k| >= N/4.
    """
    n = coeffs.shape[-1]
    energy = np.abs(coeffs)
    np.square(energy, out=energy)
    negative = energy[..., n // 2 :].sum(axis=-1)
    high = energy[..., n // 4 : n - n // 4 + 1].sum(axis=-1)
    return negative, high, energy.sum(axis=-1)


def _threshold_rule(negative, high, total, tol: float) -> tuple:
    """Threshold, aliasing flag and pass flag of the extendability test.

    Works elementwise on scalars or arrays: a trace passes iff its negative
    energy is at most ``tol`` times its total energy and the aliasing band
    stays below the same threshold.  The threshold is purely relative, so a
    trace is judged by its shape however small it is; the zero function
    passes (0 <= 0).  ``tol`` must lie in (0, 1): at 1 the threshold is the
    total energy, and no trace could fail.
    """
    if not 0.0 < tol < 1.0:
        raise ParameterDomainError(f"tolerance must be {'less than 1' if tol >= 1.0 else 'positive'}, got {tol}")
    threshold = tol * total
    aliasing = np.greater(high, threshold)
    passes = np.logical_and(np.less_equal(negative, threshold), np.logical_not(aliasing))
    return threshold, aliasing, passes


def analyze_trace(trace: CircleTrace) -> FourierData:
    """Fourier coefficients c_k = (1/N) sum_j values_j exp(-i k theta_j): the
    batch kernel's row on the trace's own samples, raising what
    :func:`analyze_with_refinement` raises."""
    replay = lambda centers, radii, n: _finite_rows(trace.values[None, :], centers, radii, "trace holds")
    return _one_row(replay, trace, trace.circle, DEFAULT_MORERA_TOL, trace.sample_count, trace.sample_count)[0]


def analyze_circle(f: Oracle, circle: Circle, n: int = DEFAULT_SAMPLES) -> FourierData:
    """Sample ``f`` on ``circle`` and Fourier-analyze the trace: the row of
    :func:`analyze_batch` held at ``n`` samples, raising what
    :func:`analyze_with_refinement` raises."""
    return analyze_with_refinement(f, circle, n0=n, n_max=n)[0]


# No cache: an alias kept only because bench/tracing.py wraps this name.  The
# benchmark change that adds the in-program trace (ROADMAP item 4) deletes it.
cached_analyze = analyze_circle


def extension_test(data: FourierData, tol: float = DEFAULT_MORERA_TOL) -> ExtensionResult:
    """Decide extendability from the energies of ``data``: it passes iff the
    negative energy and the aliasing band are both at most ``tol`` times the
    total energy, with no absolute floor (see :func:`_threshold_rule`)."""
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

    One row of :func:`analyze_batch`.  Returns the final data, the test
    result, whose ``passes`` and ``aliasing_flag`` are the batch row's
    judgement, and an ``inconclusive`` flag set when the row is undecided.
    The circle being the whole computation, a non-finite sample raises
    :class:`SamplingError` carrying its angle, and an overflowing Fourier
    energy :class:`InconclusiveError` naming the circle.
    """
    return _one_row(lambda c, r, n: _sample_rows(f, c, r, n, True), f, circle, tol, n0, n_max)


def _one_row(sample, source, circle: Circle, tol: float, n0: int, n_max: int) -> tuple:
    """:func:`analyze_with_refinement` on the samples ``sample`` gives, of ``source``."""
    batch = _analyze_rows(sample, source, circle.center, circle.radius, tol, n0, n_max)
    n = int(batch.samples[0])
    if not np.isfinite(batch.total_energy[0]):
        raise InconclusiveError(f"the Fourier energy of f overflows float64 on {circle} ({n} samples)", circle=circle)
    c = batch.groups[0][1][0]
    negative, high, _ = _energy_bands(c)
    # reorder from [0..N/2-1, -N/2..-1] to [-N/2 .. N/2-1]
    data = FourierData(circle, np.concatenate([c[n // 2 :], c[: n // 2]]), float(negative), float(high))
    # The threshold is tol times the reordered total, as extension_test gives
    # it; at N = 64 and 128 that sum can differ from the batch's in the last bit.
    result = ExtensionResult(
        bool(batch.passes[0]), data.tail_energy_negative, tol * data.total_energy, bool(batch.aliasing[0])
    )
    return data, result, batch.undecided[0] is not None


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
        raise InvalidStateError(_REFUSAL.format(data.tail_energy_negative, data.circle))
    circle = data.circle
    u = (complex(zeta) - circle.center) / circle.radius
    if abs(u) > 1.0 + 1e-12:
        raise DomainError(f"zeta = {zeta} outside the closed disc of {circle}")
    return complex(_horner(data.coefficients[None, data.sample_count // 2 :], np.array([u]))[0])


def _horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Power series sum_k coeffs[i, k] u[i]^k per row, by Horner's rule.

    ``coeffs`` has one row per entry of the first axis of ``u``, whose shape
    is (m,) or (m, probes); the sum runs over every column, highest degree
    first.  The coefficients are reshaped once, to (degree, rows, 1...), so
    each step adds one view's row.
    """
    columns = coeffs.T.reshape(coeffs.shape[::-1] + (1,) * (u.ndim - 1))
    acc = np.zeros_like(u)
    for column in columns[::-1]:
        acc *= u
        acc += column
    return acc


class BatchAnalysis(Record):
    """Per-row outcome of :func:`analyze_batch`, one row per circle.

    ``samples`` is the sample count at which each row stopped, and
    ``negative_energy``, ``total_energy``, ``passes`` and ``aliasing`` are
    the test's outcome at that count, as :func:`extension_test` computes it
    for one circle; ``undecided`` holds why a row is undecided, or None.
    ``groups`` holds ``(rows, coefficients)`` pairs, one per sample count
    at which some rows stopped: ``coefficients[i]`` is the FFT-order DFT
    [0..N/2-1, -N/2..-1] of row ``rows[i]``, and ``rows`` is ascending.
    """

    centers: np.ndarray
    radii: np.ndarray
    samples: np.ndarray
    negative_energy: np.ndarray
    total_energy: np.ndarray
    passes: np.ndarray
    aliasing: np.ndarray
    undecided: np.ndarray
    groups: tuple

    def circle(self, row: int) -> Circle:
        return Circle(complex(self.centers[row]), float(self.radii[row]))

    def require_extensions(self, name: Callable[[int], str]) -> None:
        """Raise unless every row passes, naming the row by ``name(row)``.

        The first failing row raises :class:`ExtensionFailureError`; when
        none fails, the first undecided row raises
        :class:`InconclusiveError` giving its reason.  So a failure in any
        row comes before an undecided row earlier in the batch.  The message
        quotes the row's negative energy where it is finite, and its sample
        count.
        """
        if self.passes.all():
            return
        undecided = self.undecided.astype(bool)
        for flags, error in ((~self.passes & ~undecided, ExtensionFailureError), (undecided, InconclusiveError)):
            if flags.any():
                row = int(np.argmax(flags))
                reason = self.undecided[row]
                what = "does not extend holomorphically" if reason is None else f"is undecided ({reason})"
                negative = self.negative_energy[row]
                energy = f"negative energy {negative:.3e}, " if np.isfinite(negative) else ""
                raise error(
                    f"f {what} from {name(row)} ({energy}{self.samples[row]} samples)", circle=self.circle(row)
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
            raise InvalidStateError(_REFUSAL.format(self.negative_energy[row], self.circle(row)))
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
    and one FFT along the rows; rows whose aliasing guard trips at ``tol``
    are resampled at 2N, up to ``n_max``.  This is the only refinement loop;
    single circles run through it as one-row batches.  A row that does not
    pass is undecided, rather than failing, when it is still aliased at
    ``n_max``, when a sample or its Fourier energy is not finite in float64
    (such a row stops at once, with a non-finite total energy), or when it
    fails only within the accuracy ``f`` states (:func:`stated_accuracy`).
    An exception the oracle raises reaches the caller.
    """
    return _analyze_rows(lambda c, r, n: _sample_rows(f, c, r, n), f, centers, radii, tol, n0, n_max)


def _analyze_rows(sample, source, centers, radii, tol: float, n0: int, n_max: int) -> BatchAnalysis:
    """:func:`analyze_batch` on the (rows x N) samples ``sample(centers, radii, n)`` gives,
    judged by the accuracy ``source`` states."""
    loose, annulus = stated_accuracy(source, tol)
    centers = np.asarray(centers, dtype=complex).ravel()
    radii = np.asarray(radii, dtype=float).ravel()
    m = centers.size
    samples = np.zeros(m, dtype=int)
    negative = np.zeros(m)
    total = np.zeros(m)
    passes = np.zeros(m, dtype=bool)
    aliasing = np.zeros(m, dtype=bool)
    undecided = np.full(m, None, dtype=object)
    groups = []
    active = np.arange(m)
    n = int(n0)
    while active.size:
        values = sample(centers[active], radii[active], n)
        for row, _, _, text in _non_finite(values, "oracle returned"):
            undecided[active[row]] = text
        # Non-finite samples, or finite ones that overflow in the FFT or in
        # |c_k|^2, give a non-finite total, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = np.fft.fft(values, axis=1)
            # Free the samples now, so the energy bands can reuse their
            # memory: a fresh process pays a page fault for every new page.
            del values
            coeffs /= n
            row_negative, row_high, row_total = _energy_bands(coeffs)
        _, row_aliasing, row_passes = _threshold_rule(row_negative, row_high, row_total, tol)
        finite = np.isfinite(row_total)
        if not finite.all():
            # Such a row neither passes nor refines.
            row_passes &= finite
            row_aliasing &= finite
            overflow = active[~finite]
            overflow = overflow[np.equal(undecided[overflow], None)]  # finite samples
            undecided[overflow] = f"its Fourier energy overflows float64 at {n} samples"
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
    if not passes.all():
        # A finite row that does not pass: off the source's data, within its
        # error, or aliased at the cap, each reason overriding the one before.
        free = ~passes & np.equal(undecided, None)
        if annulus is not None:
            near, far = np.abs(np.abs(centers) - radii), np.abs(centers) + radii
            leaves = (annulus[0] - near > _ANNULUS_SLACK) | (far - annulus[1] > _ANNULUS_SLACK)
            undecided[free & leaves] = OUTSIDE_DATA
        if loose > tol:
            undecided[free & (negative <= loose * total)] = WITHIN_ERROR
        undecided[aliasing] = ALIASED
    return BatchAnalysis(centers, radii, samples, negative, total, passes, aliasing, undecided, tuple(groups))
