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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import extension as ext
from .errors import ConfigError, DomainError, ExtensionFailureError, InconclusiveError, SamplingError
from .geometry import DEFAULT_TAU, Circle, PencilFrame

DEFAULT_CROSS_TOL = 1e-6
DEFAULT_DBAR_TOL = 1e-4
DEFAULT_CIRCLES = 32
# Family grids stay this far away from the ends of the parameter interval
# (near t = 0 the pencil circle hugs the unit circle, where sampling a merely
# continuous function is ill-conditioned).
GRID_INSET = 1e-3

Oracle = Callable[[complex], complex]

CLASS_CONSISTENT = "holomorphic-consistent"
CLASS_MORERA_FAILURE = "morera-failure"
CLASS_INCONSISTENT = "inconsistent"
CLASS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FamilyConfig:
    """A finite grid over one circle family.

    ``kind`` is "centered" (parameter = radius R in [lo, hi] with hi <= 1) or
    "pencil" (parameter = t in [-1 + tau, 0]; the member has center -p*t and
    radius t + 1 in user coordinates).
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

    @classmethod
    def centered(cls, r_min: float, r_max: float = 1.0, count: int = DEFAULT_CIRCLES) -> "FamilyConfig":
        return cls("centered", r_min, r_max, count)

    @classmethod
    def pencil(
        cls,
        tau: float = DEFAULT_TAU,
        p: complex = -1.0,
        t_max: float = 0.0,
        count: int = DEFAULT_CIRCLES,
        t_min: Optional[float] = None,
    ) -> "FamilyConfig":
        lo = -1.0 + tau if t_min is None else t_min
        return cls("pencil", lo, t_max, count, complex(p))

    def parameters(self, inset: float = GRID_INSET) -> np.ndarray:
        """Chebyshev-spaced grid over the (inset) parameter interval, ascending."""
        lo = self.lo + inset
        hi = self.hi - inset
        if not lo < hi:
            raise ConfigError(f"parameter range [{self.lo}, {self.hi}] too small for inset {inset}")
        j = np.arange(self.count)
        nodes = np.cos((2.0 * j + 1.0) * np.pi / (2.0 * self.count))  # (-1, 1)
        return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes)

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

    @property
    def frame(self) -> PencilFrame:
        return PencilFrame(self.p)


@dataclass(frozen=True)
class CircleResult:
    """Per-circle outcome of a family sweep."""

    family: str
    parameter: float
    circle: Circle
    samples: int
    negative_energy: float
    relative_negative_energy: float
    passes: bool
    aliasing: bool
    inconclusive: bool

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


@dataclass(frozen=True)
class Report:
    """Sweep report for one family: per-circle results plus aggregates."""

    config: FamilyConfig
    circles: tuple[CircleResult, ...]
    passes: bool
    inconclusive: bool
    worst: Optional[CircleResult]

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
    samples: int = ext.DEFAULT_SAMPLES,
) -> Report:
    """Run the extendability test on every grid circle of ``config``.

    All circles go through one :func:`extension.analyze_batch` call; results
    are in parameter order.
    """
    params = config.parameters()
    circles = [config.circle(t) for t in params]
    try:
        batch = ext.analyze_batch(
            f, [c.center for c in circles], [c.radius for c in circles], tol, samples
        )
    except SamplingError as exc:
        raise SamplingError(
            f"sweep of {config.kind} family failed at parameter {params[exc.row]}: {exc}",
            theta=exc.theta,
            value=exc.value,
        ) from None
    results = []
    for i, (t, circle) in enumerate(zip(params, circles)):
        negative = float(batch.negative_energy[i])
        total = float(batch.total_energy[i])
        results.append(
            CircleResult(
                family=config.kind,
                parameter=float(t),
                circle=circle,
                samples=int(batch.samples[i]),
                negative_energy=negative,
                relative_negative_energy=negative / total if total > 0 else 0.0,
                passes=bool(batch.passes[i]),
                aliasing=bool(batch.aliasing[i]),
                inconclusive=bool(batch.inconclusive[i]),
            )
        )
    passes = all(r.passes for r in results)
    inconclusive = any(r.inconclusive for r in results)
    worst = max(results, key=lambda r: r.relative_negative_energy, default=None)
    return Report(config, tuple(results), passes, inconclusive, worst)


def surrounding_circles(
    T: float,
    tau: float = DEFAULT_TAU,
    r_floor: float = 0.0,
    t_floor: Optional[float] = None,
    margin: float = 0.05,
    per_family: int = 3,
) -> list[tuple[str, float, Circle]]:
    """Sample circles of both (normalized) families strictly surrounding ``T``.

    A centered circle of radius R surrounds T iff |T| < R; a pencil member of
    parameter t iff T < 2t + 1.  ``margin`` keeps T away from the boundary of
    every selected circle so extension series converge comfortably.
    """
    t_floor = (-1.0 + tau) if t_floor is None else t_floor
    out: list[tuple[str, float, Circle]] = []
    r_lo = max(r_floor, abs(T) + margin)
    if r_lo < 1.0:
        for R in np.linspace(r_lo, 1.0, per_family):
            out.append(("centered", float(R), Circle(0.0, float(R))))
    t_lo = max(t_floor, (T - 1.0 + margin) / 2.0)
    if t_lo < 0.0:
        for t in np.linspace(t_lo, 0.0, per_family):
            out.append(("pencil", float(t), Circle(complex(t), float(t) + 1.0)))
    return out


def cross_consistency(
    f: Oracle,
    T: Union[float, Sequence[float]],
    probe_count: int = 8,
    tau: float = DEFAULT_TAU,
    tol: float = ext.DEFAULT_MORERA_TOL,
    samples: int = ext.DEFAULT_SAMPLES,
    r_floor: float = 0.0,
    t_floor: Optional[float] = None,
    margin: float = 0.05,
    per_family: int = 3,
) -> float:
    """Largest disagreement between extensions from circles surrounding ``T``.

    For each real point T (one, or a sequence) evaluates the holomorphic
    extension of ``f`` from a sample of surrounding circles of both families
    at ``probe_count`` probe points near T, and returns the maximum pairwise
    difference over all T.  Each distinct circle is analyzed once, with the
    same refinement as a sweep circle.  A circle that fails the
    extendability test raises :class:`ExtensionFailureError`; failing that,
    one still aliased at the sample cap raises :class:`InconclusiveError`.
    """
    t_values = [float(t) for t in np.atleast_1d(T)]
    keys: dict = {}  # (center, radius) -> row of the batch
    names: dict = {}  # row -> description of the circle, from its first T
    pairs = []  # (T, row), one per surrounding circle of each T
    probes = []
    for t in t_values:
        if not (-1.0 + 2.0 * tau < t < 0.0):
            raise DomainError(f"T = {t} outside the admissible interval ({-1.0 + 2.0 * tau}, 0)")
        chosen = surrounding_circles(t, tau, r_floor, t_floor, margin, per_family)
        if len(chosen) < 2:
            raise ConfigError(f"no surrounding circles available for T = {t} under the given floors")
        delta = min(0.25 * min(c.radius - abs(t - c.center) for _, _, c in chosen), 0.02)
        ring = t + delta * np.exp(2j * np.pi * np.arange(probe_count) / probe_count)
        for kind, param, circle in chosen:
            row = keys.setdefault((circle.center, circle.radius), len(keys))
            names.setdefault(row, f"the {kind} circle with parameter {param} surrounding T = {t}")
            pairs.append((t, row))
            probes.append(ring)
    batch = ext.analyze_batch(f, [c for c, _ in keys], [r for _, r in keys], tol, samples)
    batch.require_extensions(names.__getitem__)
    values = batch.evaluate(np.array(probes), [row for _, row in pairs])
    residual = 0.0
    for t in t_values:
        block = values[[i for i, (s, _) in enumerate(pairs) if s == t]]
        residual = max(residual, float(np.abs(block[:, None, :] - block[None, :, :]).max()))
    return residual


@dataclass(frozen=True)
class DbarGrid:
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
        if self.r_max + self.h > 1.0:
            raise DomainError(
                f"grid touches the boundary: r_max + h = {self.r_max + self.h} > 1"
            )

    def points(self) -> np.ndarray:
        r = np.linspace(self.r_min, self.r_max, self.n_r)
        theta = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        return (r[:, None] * np.exp(1j * theta)[None, :]).ravel()


def dbar_values(f: Oracle, points: np.ndarray, h: float) -> np.ndarray:
    """Central-difference estimates of (d/dx + i d/dy) f / 2 at ``points``."""
    points = np.asarray(points, dtype=complex)
    fx = ext.oracle_values(f, np.stack([points + h, points - h]))
    fy = ext.oracle_values(f, np.stack([points + 1j * h, points - 1j * h]))
    return ((fx[0] - fx[1]) + 1j * (fy[0] - fy[1])) / (4.0 * h)


def dbar_residual_detail(f: Oracle, grid: DbarGrid) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-point Richardson-extrapolated Wirtinger estimates.

    Returns (points, extrapolated values, error estimate): central differences
    at steps h and h/2 combined as D(h/2) + (D(h/2) - D(h))/3, with the
    correction magnitude as the step-halving error control.
    """
    points = grid.points()
    coarse = dbar_values(f, points, grid.h)
    fine = dbar_values(f, points, grid.h / 2.0)
    extrapolated = fine + (fine - coarse) / 3.0
    error = float(np.max(np.abs(fine - coarse)) / 3.0)
    return points, extrapolated, error


def dbar_residual(f: Oracle, grid: DbarGrid = DbarGrid()) -> float:
    """Sup over the grid of the finite-difference Wirtinger derivative.

    Zero (up to discretization error) exactly for holomorphic functions; an
    independent non-analyticity oracle that never looks at circles.
    """
    _, extrapolated, _ = dbar_residual_detail(f, grid)
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


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the full verdict pipeline needs.

    The defaults describe the reference setup: full centered family, pencil
    through p = -1 with radius floor tau = 1/4, 32 circles per family.
    Raising ``r_min``/``t_min`` shrinks the families (the sharpness demo
    floors both at radius 0.6, violating the disjoint-smallest-circles
    hypothesis).
    """

    tau: float = DEFAULT_TAU
    p: complex = -1.0 + 0.0j
    circles_per_family: int = DEFAULT_CIRCLES
    r_min: float = 0.05
    r_max: float = 1.0
    t_min: Optional[float] = None  # default -1 + tau
    t_max: float = 0.0
    morera_tol: float = ext.DEFAULT_MORERA_TOL
    cross_tol: float = DEFAULT_CROSS_TOL
    dbar_tol: float = DEFAULT_DBAR_TOL
    samples: int = ext.DEFAULT_SAMPLES
    t_count: int = 8
    probe_count: int = 8
    dbar_grid: DbarGrid = DbarGrid()

    def __post_init__(self):
        if not 0.0 < self.tau < 0.5:
            raise ConfigError(f"tau must lie in (0, 1/2), got {self.tau}")
        for name in ("morera_tol", "cross_tol", "dbar_tol"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")

    @property
    def pencil_floor(self) -> float:
        return (-1.0 + self.tau) if self.t_min is None else self.t_min

    def centered_family(self) -> FamilyConfig:
        return FamilyConfig.centered(self.r_min, self.r_max, self.circles_per_family)

    def pencil_family(self) -> FamilyConfig:
        return FamilyConfig(
            "pencil", self.pencil_floor, self.t_max, self.circles_per_family, complex(self.p)
        )

    def t_values(self) -> np.ndarray:
        lo = -1.0 + 2.0 * self.tau
        hi = 0.0
        inset = 0.05 * (hi - lo)
        return np.linspace(lo + inset, hi - inset, self.t_count)


@dataclass(frozen=True)
class Verdict:
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


def verdict(f: Oracle, config: PipelineConfig = PipelineConfig()) -> Verdict:
    """Run the full pipeline on ``f`` and classify the outcome.

    morera-failure: some circle of some family, or of the cross-consistency
    check, hardly fails the test.  inconclusive: no hard failure, but some
    such circle stayed aliased at the sample-count cap.  Otherwise both
    families pass and the verdict is holomorphic-consistent when
    cross-consistency and the Wirtinger residual are both below tolerance,
    else inconsistent (possible only when the families' smallest circles
    overlap).
    """
    centered_cfg = config.centered_family()
    pencil_cfg = config.pencil_family()
    hypotheses_valid = validate_families(centered_cfg, pencil_cfg)
    families = (
        test_family(f, centered_cfg, config.morera_tol, config.samples),
        test_family(f, pencil_cfg, config.morera_tol, config.samples),
    )
    try:
        _, dbar_extrap, dbar_err = dbar_residual_detail(f, config.dbar_grid)
        dbar_value: Optional[float] = float(np.max(np.abs(dbar_extrap)))
        dbar_error: Optional[float] = dbar_err
    except (SamplingError, DomainError):
        dbar_value = dbar_error = None

    hard_fail = any(r.failing for r in families)
    inconclusive = any(r.inconclusive for r in families)
    if hard_fail:
        return Verdict(CLASS_MORERA_FAILURE, families, hypotheses_valid, dbar_value=dbar_value, dbar_error=dbar_error)
    if inconclusive:
        return Verdict(CLASS_INCONCLUSIVE, families, hypotheses_valid, dbar_value=dbar_value, dbar_error=dbar_error)

    # Both families pass on the grid; measure cross-consistency near the real
    # segment every surrounding circle sees.  Work in normalized coordinates
    # (pencil point rotated to -1).
    frame = pencil_cfg.frame
    if abs(config.p - (-1.0)) < 1e-15:
        f_norm = f
    else:
        rot = frame.rotation

        def f_norm(zeta, _f=f, _rot=rot):
            return _f(np.asarray(zeta, dtype=complex) / _rot) if isinstance(zeta, np.ndarray) else _f(zeta / _rot)

    t_values = config.t_values()
    try:
        cross = cross_consistency(
            f_norm,
            t_values,
            config.probe_count,
            config.tau,
            config.morera_tol,
            config.samples,
            r_floor=config.r_min,
            t_floor=config.pencil_floor,
        )
    except (ExtensionFailureError, InconclusiveError) as exc:
        # An off-grid circle inside the configured ranges failed (a Morera
        # failure the finite grid missed) or stayed aliased at the cap.
        failed = isinstance(exc, ExtensionFailureError)
        return Verdict(
            CLASS_MORERA_FAILURE if failed else CLASS_INCONCLUSIVE,
            families,
            hypotheses_valid,
            cross_note=str(exc),
            dbar_value=dbar_value,
            dbar_error=dbar_error,
        )

    consistent = cross <= config.cross_tol and dbar_value is not None and dbar_value <= config.dbar_tol
    classification = CLASS_CONSISTENT if consistent else CLASS_INCONSISTENT
    return Verdict(
        classification,
        families,
        hypotheses_valid,
        cross_residual=cross,
        cross_t_values=tuple(float(T) for T in t_values),
        dbar_value=dbar_value,
        dbar_error=dbar_error,
    )


def report_document(
    result: Verdict, config: PipelineConfig, function_desc: dict, warnings: Optional[list[str]] = None
) -> dict:
    """Assemble the serializable report for a verdict run."""
    doc = {
        "schema_version": 1,
        "function": function_desc,
        "tau": config.tau,
        "p_re": config.p.real,
        "p_im": config.p.imag,
        "tolerances": {
            "morera": config.morera_tol,
            "cross": config.cross_tol,
            "dbar": config.dbar_tol,
        },
        "warnings": list(warnings or []),
    }
    doc.update(result.to_dict())
    return doc


def dumps_report(doc: dict) -> str:
    """Deterministic JSON text for a report document."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
