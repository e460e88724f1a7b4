"""Family sweeps, cross-consistency, the Wirtinger-residual oracle, and verdicts.

A *family sweep* runs the single-circle extendability test over a finite
parameter grid of one circle family (centered at the origin, or the pencil
through a boundary point).  The *cross-consistency* check evaluates the
holomorphic extensions from several circles of both families that surround a
real point T and measures how far they disagree near T; when the tested
function is holomorphic they all agree.  An independent finite-difference
estimate of the Wirtinger derivative d/d(conj z) says directly whether the
function is analytic, regardless of any circle tests.  The *verdict* combines
the three: extendability from both full families together with
cross-consistency forces analyticity, while configurations whose smallest
circles overlap admit non-analytic functions that pass every per-circle test.
The two-point configuration (the pencils through two boundary points in place
of centered + pencil) runs the same verdict without cross-consistency.  The
extension kernel judges each circle once: it passes, fails, or is undecided
(for a grid, say, when its stated error could explain the failure), and an
undecided circle keeps its place in the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from itertools import chain
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import extension as ext
from ._record import Record
from .errors import ConfigError, DomainError, ExtensionFailureError, InconclusiveError, SamplingError
from .geometry import DEFAULT_TAU, Circle, require_boundary_point, require_tau

DEFAULT_CIRCLES = 32
# The verdict accepts a cross-consistency or Wirtinger residual up to this
# multiple of sqrt(morera_tol) times the largest RMS of f on a swept circle:
# a passing circle lets through a non-holomorphic part of relative amplitude
# up to sqrt(morera_tol), so each extension lies within about that much of
# f, and two of them differ by at most twice that.
RESIDUAL_SLACK = 2.0
# Cross-consistency compares the extensions from this many circles of each family around a point T,
# the smallest this far inside the bound for surrounding T, at this many probe points, for this many T.
CROSS_PER_FAMILY = 3
CROSS_MARGIN = 0.05
CROSS_PROBES = 8
CROSS_T_COUNT = 8
# Family grids stay this far away from the ends of the parameter interval
# (near t = 0 the pencil circle hugs the unit circle, where sampling a merely
# continuous function is ill-conditioned).
GRID_INSET = 1e-3

Oracle = Callable[[complex], complex]

CLASS_CONSISTENT = "holomorphic-consistent"
CLASS_MORERA_FAILURE = "morera-failure"
CLASS_INCONSISTENT = "inconsistent"
CLASS_INCONCLUSIVE = "inconclusive"


class FamilyConfig(Record):
    """A finite grid over one circle family.

    ``kind`` is "centered" (parameter = radius R in [lo, hi] with hi <= 1) or
    "pencil" (parameter = t in [-1 + tau, 0]; the member has center -p*t and
    radius t + 1 in user coordinates).  A pencil's ``p`` must lie on the unit
    circle, as :class:`~morera.geometry.PencilConfig` requires; it is kept as
    given, not normalized.
    """

    kind: str
    lo: float
    hi: float
    count: int = DEFAULT_CIRCLES
    p: complex = -1.0 + 0.0j

    def __post_init__(self):
        if self.kind not in ("centered", "pencil"):
            raise ConfigError(f"family kind must be 'centered' or 'pencil', got {self.kind!r}")
        if not self.lo < self.hi:
            raise ConfigError(f"empty parameter range [{self.lo}, {self.hi}]")
        if self.count < 2:
            raise ConfigError(f"family grid needs at least 2 circles, got {self.count}")
        if self.kind == "centered":
            if not (0.0 < self.lo and self.hi <= 1.0):
                raise ConfigError(f"centered radii must lie in (0, 1], got [{self.lo}, {self.hi}]")
        else:
            if not (-1.0 < self.lo and self.hi <= 0.0):
                raise ConfigError(f"pencil parameters must lie in (-1, 0], got [{self.lo}, {self.hi}]")
            require_boundary_point(self.p)

    def parameters(self) -> np.ndarray:
        """Chebyshev-spaced grid over the parameter interval less :data:`GRID_INSET` at each end, ascending."""
        lo = self.lo + GRID_INSET
        hi = self.hi - GRID_INSET
        if not lo < hi:
            raise ConfigError(f"parameter range [{self.lo}, {self.hi}] too small for inset {GRID_INSET}")
        j = np.arange(self.count)
        nodes = np.cos((2.0 * j + 1.0) * np.pi / (2.0 * self.count))  # in (-1, 1), falling with j
        # The scale is positive, so the reversal is the sorted grid.
        return (0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes)[::-1].copy()

    def circle(self, parameter: float) -> Circle:
        if self.kind == "centered":
            return Circle(0.0, float(parameter))
        t = float(parameter)
        return Circle(-self.p * t, t + 1.0)

    def smallest_circle(self) -> tuple[complex, float]:
        """Center and radius of the family's smallest member (radius may be 0)."""
        if self.kind == "centered":
            return 0.0 + 0.0j, self.lo
        return -self.p * self.lo, self.lo + 1.0


class CircleResult(Record):
    """Per-circle outcome of a family sweep: ``reason`` (not in the JSON) says why an
    ``inconclusive`` circle is undecided, and energies not finite in float64 are None."""

    family: str
    parameter: float
    circle: Circle
    samples: int
    negative_energy: Optional[float]
    relative_negative_energy: Optional[float]
    passes: bool
    aliasing: bool
    inconclusive: bool
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "parameter": self.parameter,
            "center_re": self.circle.center.real,
            "center_im": self.circle.center.imag,
            "radius": self.circle.radius,
            "samples": self.samples,
            "negative_energy": self.negative_energy,
            "relative_negative_energy": self.relative_negative_energy,
            "passes": self.passes,
            "aliasing": self.aliasing,
            "inconclusive": self.inconclusive,
        }


class Report(Record):
    """Sweep report for one family: per-circle results plus aggregates.

    ``scale`` is the largest root-mean-square of f on a swept circle, the
    size against which the verdict judges its residuals (not in the JSON);
    it and ``worst`` leave out circles whose energies are not finite.
    """

    config: FamilyConfig
    circles: tuple[CircleResult, ...]
    passes: bool
    inconclusive: bool
    worst: Optional[CircleResult]
    scale: float

    @property
    def failing(self) -> tuple[CircleResult, ...]:
        return tuple(c for c in self.circles if not c.passes and not c.inconclusive)

    def to_dict(self) -> dict:
        return {
            "family": self.config.kind,
            "parameter_range": [self.config.lo, self.config.hi],
            "count": self.config.count,
            "passes": self.passes,
            "inconclusive": self.inconclusive,
            "worst_parameter": None if self.worst is None else self.worst.parameter,
            "circles": [c.to_dict() for c in self.circles],
        }


def test_family(
    f: Oracle,
    config: FamilyConfig,
    tol: float = ext.DEFAULT_MORERA_TOL,
) -> Report:
    """Run the extendability test on every grid circle of ``config``.

    All circles go through one :func:`extension.analyze_batch` call, which
    refines each from the kernel's one start of 256 samples; results are in
    parameter order, an undecided circle marked ``inconclusive`` with its
    reason.
    """
    params = config.parameters().tolist()
    circles = [config.circle(t) for t in params]
    batch = ext.analyze_batch(f, [c.center for c in circles], [c.radius for c in circles], tol)
    finite = np.isfinite(batch.total_energy)
    reasons = batch.undecided.tolist()
    results = []
    for t, circle, n, negative, total, passes, aliasing, reason, ok in zip(
        params, circles, batch.samples.tolist(), batch.negative_energy.tolist(), batch.total_energy.tolist(),
        batch.passes.tolist(), batch.aliasing.tolist(), reasons, finite.tolist(),
    ):
        negative, relative = (negative, negative / total if total > 0 else 0.0) if ok else (None, None)
        # Positional: a record built from keywords pays for a dict of them.
        results.append(
            CircleResult(config.kind, t, circle, n, negative, relative, passes, aliasing, bool(reason), reason)
        )
    judged = [r for r in results if r.negative_energy is not None]
    worst = max(judged, key=lambda r: r.relative_negative_energy, default=None)
    scale = math.sqrt(float(batch.total_energy[finite].max(initial=0.0)))
    return Report(config, tuple(results), bool(batch.passes.all()), any(reasons), worst, scale)


def require_count(name: str, value: int) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless the count ``value`` is at least 1."""
    if value < 1:
        raise ConfigError(f"{name} must be at least 1, got {value}")


class DbarGrid(Record):
    """Polar evaluation grid for the finite-difference Wirtinger residual."""

    r_min: float = 0.2
    r_max: float = 0.8
    n_r: int = 5
    n_theta: int = 12
    h: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max:
            raise ConfigError(f"invalid radial range [{self.r_min}, {self.r_max}]")
        if not self.h > 0.0:
            raise ConfigError(f"step must be positive, got {self.h}")
        require_count("n_r", self.n_r)
        require_count("n_theta", self.n_theta)
        if self.r_max + self.h > 1.0:
            raise DomainError(
                f"grid touches the boundary: r_max + h = {self.r_max + self.h} > 1"
            )

    def points(self) -> np.ndarray:
        r = np.linspace(self.r_min, self.r_max, self.n_r)
        theta = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        return (r[:, None] * np.exp(1j * theta)[None, :]).ravel()


def dbar_residual_detail(f: Oracle, grid: DbarGrid) -> tuple[np.ndarray, float]:
    """Per-point Richardson-extrapolated Wirtinger estimates on ``grid.points()``.

    Returns (extrapolated values, error estimate): central differences
    at steps h and h/2 combined as D(h/2) + (D(h/2) - D(h))/3, with the
    correction magnitude as the step-halving error control.  One oracle call
    samples all eight shifted grids (+h, -h, +ih, -ih, then the same at h/2).
    """
    points = grid.points()
    steps = (grid.h, grid.h / 2.0)
    shifted = [q for h in steps for q in (points + h, points - h, points + 1j * h, points - 1j * h)]
    values = ext.oracle_values(f, np.stack(shifted)).reshape(len(steps), 4, -1)
    coarse, fine = (((v[0] - v[1]) + 1j * (v[2] - v[3])) / (4.0 * h) for v, h in zip(values, steps))
    extrapolated = fine + (fine - coarse) / 3.0
    error = float(np.max(np.abs(fine - coarse)) / 3.0)
    return extrapolated, error


def dbar_residual(f: Oracle, grid: DbarGrid = DbarGrid()) -> float:
    """Sup over the grid of the finite-difference Wirtinger derivative.

    Zero (up to discretization error) exactly for holomorphic functions; an
    independent non-analyticity oracle that never looks at circles.
    """
    extrapolated, _ = dbar_residual_detail(f, grid)
    return float(np.max(np.abs(extrapolated)))


def validate_families(config_a: FamilyConfig, config_b: FamilyConfig) -> bool:
    """Whether the smallest circles of two families are disjoint closed discs.

    Strict test: distance between centers exceeds the sum of radii.  This is
    the hypothesis under which passing both family sweeps forces analyticity;
    a full centered family (radius floor 0) satisfies it automatically
    whenever the other family's smallest circle misses the origin.
    """
    (c1, r1) = config_a.smallest_circle()
    (c2, r2) = config_b.smallest_circle()
    return abs(c1 - c2) > r1 + r2


class PipelineConfig(Record):
    """Everything the full verdict pipeline needs.

    The defaults describe the reference setup: full centered family, pencil
    through p = -1 with radius floor tau = 1/4, 32 circles per family.  Each
    family runs from its floor to the unit circle; raising
    ``r_min``/``t_min`` shrinks the families (the sharpness demo
    floors both at radius 0.6, violating the disjoint-smallest-circles
    hypothesis).  Setting ``p2`` selects the two-point configuration: the
    pencils through ``p`` and ``p2`` take the place of centered + pencil.
    Both points must lie on the unit circle, and differ.  No field sets a
    sample count: the extension kernel chooses each circle's.
    """

    tau: float = DEFAULT_TAU
    p: complex = -1.0 + 0.0j
    p2: Optional[complex] = None
    circles_per_family: int = DEFAULT_CIRCLES
    r_min: float = 0.05
    t_min: Optional[float] = None  # default -1 + tau
    morera_tol: float = ext.DEFAULT_MORERA_TOL

    def __post_init__(self):
        require_tau(self.tau)
        value = self.morera_tol
        if not 0.0 < value < 1.0:
            raise ConfigError(f"morera_tol must be {'less than 1' if value >= 1.0 else 'positive'}, got {value}")

    @property
    def pencil_floor(self) -> float:
        return (-1.0 + self.tau) if self.t_min is None else self.t_min

    def families(self, kind: str = "both") -> tuple[FamilyConfig, ...]:
        """The swept families, built in order, so the first one's errors come first.

        (centered, pencil through ``p``), or only the ``kind`` ("centered" or
        "pencil") of them; with ``p2`` set, the pencils through ``p`` and
        ``p2``.  After the pencils' own errors, a ``p2`` within 1e-12 of ``p``
        and then any ``kind`` but "both" are a :class:`ConfigError`.
        """
        if self.p2 is not None:
            pencils = self._pencil(self.p), self._pencil(self.p2)
            if abs(self.p2 - self.p) <= 1e-12:
                raise ConfigError(
                    f"the two-point configuration needs p2 != p, got |p2 - p| = {abs(self.p2 - self.p)}"
                )
            if kind != "both":
                raise ConfigError(
                    f"the two-point configuration always sweeps both pencils; family {kind!r} does not apply"
                )
            return pencils
        families: tuple[FamilyConfig, ...] = ()
        if kind in ("both", "centered"):
            families += (FamilyConfig("centered", self.r_min, 1.0, self.circles_per_family),)
        if kind in ("both", "pencil"):
            families += (self._pencil(self.p),)
        return families

    def _pencil(self, p: complex) -> FamilyConfig:
        return FamilyConfig("pencil", self.pencil_floor, 0.0, self.circles_per_family, complex(p))

    def t_values(self) -> np.ndarray:
        lo = -1.0 + 2.0 * self.tau
        inset = 0.05 * (0.0 - lo)
        return np.linspace(lo + inset, 0.0 - inset, CROSS_T_COUNT)


def cross_consistency(
    f: Oracle, T: Union[float, Sequence[float]], config: PipelineConfig = PipelineConfig()
) -> float:
    """Largest disagreement between extensions from circles surrounding ``T``.

    For each real point T (one, or a sequence) evaluates the holomorphic
    extension of ``f`` from a sample of surrounding circles of both families
    at :data:`CROSS_PROBES` probe points near T, and returns the maximum
    pairwise difference over all T.  T is a parameter along the pencil's
    axis, naming the point -p T (p = ``config.p``); the circles are built as
    the sweeps build them (:meth:`FamilyConfig.circle`: the pencil member of
    parameter t has center -p t and radius t + 1), so ``f`` is sampled as
    given, and the probes and any circle named in an error are in the
    caller's frame too.  A centered circle of radius R surrounds -p T iff
    |T| < R, a pencil member of parameter t iff T < 2t + 1; each family
    contributes :data:`CROSS_PER_FAMILY` evenly spaced members, from :data:`CROSS_MARGIN`
    inside that bound, and no lower than ``config.r_min`` or
    ``config.pencil_floor``, to the unit circle.  The T are taken in order:
    one outside (-1 + 2 tau, 0) raises :class:`DomainError`, one with fewer
    than two surrounding circles :class:`ConfigError`.  Each distinct circle
    is then analyzed once at ``config.morera_tol``, with the same
    refinement and judgement as a sweep circle.  A circle that
    fails the extendability test raises :class:`ExtensionFailureError`;
    failing that, an undecided one raises :class:`InconclusiveError` giving
    its reason.
    """
    p = require_boundary_point(config.p)
    keys: dict = {}  # (center, radius) -> row of the batch, in first-occurrence order
    names: list[str] = []  # per row, its first (T, circle) pair
    rows: list[int] = []  # per (T, circle) pair, in T order
    probes: list[np.ndarray] = []  # per (T, circle) pair, the probe ring of its T
    blocks: list[int] = []  # per T, its number of circles
    unit_ring = np.exp(2j * np.pi * np.arange(CROSS_PROBES) / CROSS_PROBES)
    for t in [float(t) for t in np.atleast_1d(T)]:
        if not -1.0 + 2.0 * config.tau < t < 0.0:
            raise DomainError(f"T = {t} outside the admissible interval ({-1.0 + 2.0 * config.tau}, 0)")
        r_lo = max(config.r_min, abs(t) + CROSS_MARGIN)
        t_lo = max(config.pencil_floor, (t - 1.0 + CROSS_MARGIN) / 2.0)
        chosen = []
        if r_lo < 1.0:
            chosen += [("centered", R, Circle(0.0, R)) for R in np.linspace(r_lo, 1.0, CROSS_PER_FAMILY).tolist()]
        if t_lo < 0.0:
            pencil = np.linspace(t_lo, 0.0, CROSS_PER_FAMILY).tolist()
            chosen += [("pencil", s, Circle(-p * s, s + 1.0)) for s in pencil]
        if len(chosen) < 2:
            raise ConfigError(f"no surrounding circles available for T = {t} under the given floors")
        for kind, param, circle in chosen:
            row = keys.setdefault((circle.center, circle.radius), len(keys))
            if row == len(names):
                names.append(f"the {kind} circle with parameter {param} surrounding T = {t}")
            rows.append(row)
        delta = min(0.25 * min(c.radius - abs(-p * t - c.center) for _, _, c in chosen), 0.02)
        probes += [-p * (t + delta * unit_ring)] * len(chosen)
        blocks.append(len(chosen))
    batch = ext.analyze_batch(f, [c for c, _ in keys], [r for _, r in keys], config.morera_tol)
    batch.require_extensions(names.__getitem__)
    values = batch.evaluate(np.array(probes), rows)
    residual = 0.0
    start = 0
    for count in blocks:
        block = values[start : start + count]
        start += count
        residual = max(residual, float(np.abs(block[:, None, :] - block[None, :, :]).max()))
    return residual


class Verdict(Record):
    """Combined outcome of family sweeps, cross-consistency, and the Wirtinger oracle."""

    classification: str
    families: tuple[Report, ...]
    hypotheses_valid: bool
    cross_residual: Optional[float] = None
    cross_t_values: tuple[float, ...] = ()
    cross_note: Optional[str] = None
    dbar_value: Optional[float] = None
    dbar_error: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.classification,
            "hypotheses_valid": self.hypotheses_valid,
            "families": [r.to_dict() for r in self.families],
            "cross_consistency": {
                "residual": self.cross_residual,
                "t_values": list(self.cross_t_values),
                "note": self.cross_note,
            },
            "dbar": {"residual": self.dbar_value, "error_estimate": self.dbar_error},
        }


def sweep_classification(reports: Sequence[Report]) -> Optional[str]:
    """morera-failure if some circle of ``reports`` fails outright, else
    inconclusive if some is undecided, else None."""
    if any(r.failing for r in reports):
        return CLASS_MORERA_FAILURE
    if any(r.inconclusive for r in reports):
        return CLASS_INCONCLUSIVE
    return None


def verdict(f: Oracle, config: PipelineConfig = PipelineConfig()) -> Verdict:
    """Run the full pipeline on ``f`` and classify the outcome.

    morera-failure: some circle of some family, or of the cross-consistency
    check, fails the test outright.  inconclusive: no outright failure, but
    some such circle is undecided (see :func:`extension.analyze_batch`,
    which refines every circle, swept or cross, from its one start).
    Otherwise both families pass and the verdict is holomorphic-consistent
    when cross-consistency and the Wirtinger residual are both within
    :data:`RESIDUAL_SLACK` * sqrt(``config.morera_tol``) times the largest
    ``scale`` of the families, the accuracy the circle test itself promises;
    inconclusive when they are within the threshold of the undecided
    tolerance u that ``f`` states (:func:`extension.stated_accuracy`; u is
    ``morera_tol`` unless ``f`` states an error); else inconsistent (the
    theorem allows it only when the families' smallest circles overlap).
    The two-point configuration (``config.p2`` set) runs the same pipeline
    without cross-consistency, so the Wirtinger residual alone decides once
    both pencils pass.  A Wirtinger grid with a non-finite sample
    gives ``dbar_value`` None, which is never consistent or inconclusive,
    and does not abort the run.
    """
    families = config.families()
    reports = tuple(test_family(f, fam, config.morera_tol) for fam in families)
    try:
        dbar_extrap, dbar_error = dbar_residual_detail(f, DbarGrid())
        dbar_value: Optional[float] = float(np.max(np.abs(dbar_extrap)))
    except SamplingError:
        dbar_value = dbar_error = None
    # The classification stays None until one of the steps below decides it.
    result = Verdict(
        sweep_classification(reports),
        reports,
        validate_families(*families),
        dbar_value=dbar_value,
        dbar_error=dbar_error,
    )
    if result.classification is not None:
        return result
    limits = [(CLASS_CONSISTENT, config.morera_tol), (CLASS_INCONCLUSIVE, ext.stated_accuracy(f, config.morera_tol)[0])]

    def judged(*residuals) -> str:
        worst = math.nan if None in residuals else max(residuals)  # None is within no threshold
        return next((c for c, tol in limits if worst <= _residual_tol(reports, tol)), CLASS_INCONSISTENT)

    if config.p2 is not None:
        return replace(result, classification=judged(dbar_value))

    # Both families pass on the grid; measure cross-consistency near the real
    # segment every surrounding circle sees.
    t_values = config.t_values()
    try:
        cross = cross_consistency(f, t_values, config)
    except (ExtensionFailureError, InconclusiveError) as exc:
        # An off-grid circle inside the configured ranges failed (a Morera
        # failure the finite grid missed) or is undecided.
        failed = isinstance(exc, ExtensionFailureError)
        return replace(
            result, classification=CLASS_MORERA_FAILURE if failed else CLASS_INCONCLUSIVE, cross_note=str(exc)
        )
    return replace(
        result,
        classification=judged(cross, dbar_value),
        cross_residual=cross,
        cross_t_values=tuple(float(T) for T in t_values),
    )


def _residual_tol(reports: Sequence[Report], morera_tol: float) -> float:
    """The largest cross-consistency or Wirtinger residual a verdict on ``reports`` accepts
    at the per-circle tolerance ``morera_tol``.

    Finite for a ``morera_tol`` below 1: a scale is the root of a finite energy.
    """
    return RESIDUAL_SLACK * math.sqrt(morera_tol) * max(r.scale for r in reports)


def report_document(
    result: Verdict, config: PipelineConfig, function_desc: dict, warnings: Optional[list[str]] = None
) -> dict:
    """Assemble the serializable report for a verdict run.

    A two-point run (``config.p2`` set) has no cross-consistency step, and its
    report says so with a shorter layout: no pencil point or tolerances,
    ``dbar`` holding only the residual, and ``cross_consistency`` None.
    Otherwise ``tolerances`` holds ``config.morera_tol`` and the residual
    threshold the verdict applied, under both "cross" and "dbar".
    """
    doc = {"schema_version": 1, "function": function_desc, "tau": config.tau, "warnings": list(warnings or [])}
    doc.update(result.to_dict())
    if config.p2 is not None:
        doc.update(dbar={"residual": result.dbar_value}, cross_consistency=None)
        return doc
    residual_tol = _residual_tol(result.families, config.morera_tol)
    doc.update(
        p_re=config.p.real,
        p_im=config.p.imag,
        tolerances={"morera": config.morera_tol, "cross": residual_tol, "dbar": residual_tol},
    )
    return doc


# json.dumps indents with the pure-Python encoder, slower than this C one.  Its item
# separator carries a NUL, which ASCII escaping leaves nowhere else in the text,
# so the separators can be found and replaced by newlines.
_ENCODE = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",\x00", ": ")).encode
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def dumps_report(doc: dict) -> str:
    """Deterministic JSON text for a report document.

    Byte for byte ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)``
    plus a newline; NaN or infinity anywhere raises ``ValueError``.
    """
    return _indented(doc, "\n") + "\n"


def _indented(obj, newline: str) -> str:
    """``obj`` indented as ``json.dumps`` does, ``newline`` being a line break plus obj's indent."""
    if isinstance(obj, str) or not isinstance(obj, (list, tuple, dict)):
        return _ENCODE(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = newline + "  "
    is_dict = isinstance(obj, dict)
    if _all_scalars(obj.values() if is_dict else obj):
        text = _ENCODE(obj)
        return text[0] + inner + text[1:-1].replace(",\x00", "," + inner) + newline + text[-1]
    if is_dict:
        items = [_key(key) + ": " + _indented(value, inner) for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if set(map(type, obj)) == {dict} and all(obj) and _all_scalars(chain.from_iterable(map(dict.values, obj))):
        # Flat records, such as the per-circle results: also one encoder call.
        deeper = inner + "  "
        body = _ENCODE(obj)[2:-2].replace("},\x00{", inner + "}," + inner + "{" + deeper)
        return "[" + inner + "{" + deeper + body.replace(",\x00", "," + deeper) + inner + "}" + newline + "]"
    return "[" + inner + ("," + inner).join(_indented(item, inner) for item in obj) + newline + "]"


def _key(key) -> str:
    """A dict key as the encoder writes it; a non-str key is converted as ``json.dumps`` converts it."""
    if isinstance(key, str):
        return _ENCODE(key)
    return _ENCODE({key: 0})[1:-4]  # the text of {key: 0} less "{" and ": 0}"


def _all_scalars(values) -> bool:
    """Whether every value is a str, int, float, bool or None (subclasses excluded)."""
    return set(map(type, values)) <= _SCALAR_TYPES
