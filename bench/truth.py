"""Closed-form ground truth for every function the benchmark feeds the program.

Nothing here is recorded from program output.  Built-in functions take their
truth from ``morera.funczoo`` (``classification``, ``extendable_from`` and the
oracle as closed form); text functions built by the benchmark (random
polynomials and rationals in z and zbar, exp(c z)) carry their own exact
Laurent expansions on circles.

Each check takes the op and what the child process captured, and returns
``None`` when the output is right, or a ``Finding`` naming what is wrong.  A
finding whose ``known`` field is set matches a defect recorded in
``bench/README.md``; it still counts in ``fail_ratio``, but does not make the
run's ``correct`` flag false.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from morera import funczoo
from morera.geometry import Circle

# A counterexample circle with ||a| - r| <= BAND * r passes within a few
# percent of the origin, where its extension's pole sits within a few percent
# of the circle: the finite-N test cannot separate "extends" from "does not".
COUNTEREXAMPLE_BAND = 0.02
# Grid sources are bicubic interpolants of the closed form, smooth across the
# origin, so their counterexample band is wider.
GRID_COUNTEREXAMPLE_BAND = 0.1
# A circle on which |f| stays below this is numerically the zero function; the
# tester's absolute energy floor makes it pass whatever the closed form says.
NEGLIGIBLE = 1e-12
# Relative negative-tail energy of the exact Laurent expansion above which a
# text function clearly does not extend (below 1e-20 it clearly does).
CLEAR_NEGATIVE = 1e-6
# Theta: |Theta - f(z)| inside and |Theta| outside, relative to max(1, |f(z)|).
THETA_TOL = 1e-6
GRID_THETA_TOL = 1e-2
# Fiber integral of a holomorphic function: |I| relative to max(1, |f(z)|).
FIBER_INTEGRAL_TOL = 1e-7
# Polyline points must match the closed-form curve to this absolute error.
POLYLINE_TOL = 1e-9
# Holomorphic inputs whose sup |f| exceeds this meet the absolute cross and
# Wirtinger tolerances (known defect "scale").
LARGE_SCALE = 1e9

KNOWN_SCALE = "scale"
KNOWN_QUADRATURE = "quadrature"
KNOWN_CROSS = "cross-aliasing"

EXIT_BY_CLASS = {
    "holomorphic-consistent": 0,
    "morera-failure": 1,
    "inconsistent": 1,
    "inconclusive": 3,
}


@dataclass(frozen=True)
class Finding:
    reason: str
    known: Optional[str] = None


@dataclass(frozen=True)
class Fn:
    """A tested function with its ground truth.

    ``extends(a, r)`` is True/False, or None for a circle too close to the
    extendability boundary to judge numerically.  ``value`` is the closed form
    (scalar in, scalar out); ``scale`` bounds |f| on the closed disc.
    """

    holomorphic: bool
    value: Callable[[complex], complex]
    extends: Callable[[complex, float], Optional[bool]]
    scale: float
    grid: bool = False


def _circle_points(a: complex, r: float, n: int = 256) -> np.ndarray:
    return a + r * np.exp(2j * np.pi * np.arange(n) / n)


def zoo_fn(name: str, grid: bool = False) -> Fn:
    """Ground truth of a ``funczoo`` builtin (or of its grid interpolant)."""
    entry = funczoo.builtin(name)
    band = GRID_COUNTEREXAMPLE_BAND if grid else COUNTEREXAMPLE_BAND

    def extends(a: complex, r: float) -> Optional[bool]:
        if np.max(np.abs(entry.oracle(_circle_points(a, r)))) < NEGLIGIBLE:
            return None
        if entry.name == "counterexample" and abs(abs(a) - r) <= band * r:
            return None
        return entry.extendable_from(Circle(a, r))

    scale = float(np.max(np.abs(entry.oracle(_circle_points(0, 1.0, 1024)))))
    return Fn(entry.classification == "holomorphic", entry.oracle, extends, scale, grid)


class Laurent:
    """A function sum_{j,k} a_jk z^j zbar^k + s / (zbar - conj(beta)) + q(z)/(z - b).

    Every term has an exact Laurent expansion in u on the circle
    z = a + r u, |u| = 1 (there zbar = conj(a) + r/u), so extendability from
    any circle is decided from the exact negative-frequency energy.
    """

    def __init__(self, poly: dict, pole_b: Optional[complex] = None, anti_s: complex = 0.0,
                 anti_beta: Optional[complex] = None):
        self.poly = {jk: complex(c) for jk, c in poly.items() if c != 0}
        self.pole_b = pole_b
        self.anti_s = complex(anti_s)
        self.anti_beta = anti_beta

    @property
    def holomorphic(self) -> bool:
        return all(k == 0 for (_, k) in self.poly) and self.anti_s == 0

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        zb = np.conj(z)
        out = np.zeros_like(z)
        for (j, k), c in self.poly.items():
            out = out + c * z**j * zb**k
        if self.pole_b is not None:
            out = out / (z - self.pole_b)
        if self.anti_s != 0:
            out = out + self.anti_s / (zb - np.conj(self.anti_beta))
        return out if out.ndim else complex(out)

    def negative_energy_ratio(self, a: complex, r: float) -> float:
        """Relative negative-frequency energy of the trace on circle (a, r)."""
        if self.pole_b is not None or self.anti_s != 0:
            return self._rational_ratio(a, r)
        # (a + r u)^j (conj(a) + r/u)^k expanded exactly by binomials.
        coeffs: dict[int, complex] = {}
        ab = complex(a).conjugate()
        for (j, k), c in self.poly.items():
            for p in range(j + 1):
                cp = math.comb(j, p) * complex(a) ** (j - p) * r**p
                for q in range(k + 1):
                    cq = math.comb(k, q) * ab ** (k - q) * r**q
                    coeffs[p - q] = coeffs.get(p - q, 0) + c * cp * cq
        total = sum(abs(v) ** 2 for v in coeffs.values())
        neg = sum(abs(v) ** 2 for m, v in coeffs.items() if m < 0)
        return neg / total if total > 0 else 0.0

    def _rational_ratio(self, a: complex, r: float) -> float:
        # q(z)/(z - b) with |b| > 1 is holomorphic on the closed disc: no
        # negative frequencies.  s/(zbar - conj(beta)) = s u / ((conj(a) -
        # conj(beta)) u + r) has a pole at u0 = -r / (conj(a) - conj(beta)),
        # inside |u| < 1 for a circle inside the disc and |beta| > 1, so its
        # negative part is (s / (conj(a) - conj(beta))) sum_{n>=1} (u0/u)^n.
        if self.anti_s == 0:
            return 0.0
        d = complex(a).conjugate() - complex(self.anti_beta).conjugate()
        u0 = -r / d
        neg = abs(self.anti_s / d) ** 2 * abs(u0) ** 2 / (1.0 - abs(u0) ** 2)
        total = float(np.mean(np.abs(self(_circle_points(a, r))) ** 2))
        return neg / total if total > 0 else 0.0


def laurent_fn(f: Laurent, grid: bool = False) -> Fn:
    def extends(a: complex, r: float) -> Optional[bool]:
        ratio = f.negative_energy_ratio(a, r)
        if ratio < 1e-20:
            return True
        if ratio > CLEAR_NEGATIVE:
            return False
        return None

    scale = float(np.max(np.abs(f(_circle_points(0, 1.0, 1024)))))
    return Fn(f.holomorphic, f, extends, scale, grid)


def exp_fn(c: float) -> Fn:
    """exp(c z): holomorphic, sup |f| = e^c on the closed disc."""
    return Fn(True, lambda z: complex(np.exp(c * z)), lambda a, r: True, math.exp(c))


# ---------------------------------------------------------------- checks ----


def _circle_findings(fn: Fn, circles: list) -> Optional[Finding]:
    """Per-circle outcomes in a sweep/verdict report against ``extends``."""
    for c in circles:
        if c["inconclusive"]:
            continue
        truth = fn.extends(complex(c["center_re"], c["center_im"]), c["radius"])
        if truth is not None and truth != c["passes"]:
            return Finding(
                f"{c['family']} circle parameter {c['parameter']} judged "
                f"{'extends' if c['passes'] else 'does not extend'}, truth {truth}"
            )
    return None


def _clear_failure(fn: Fn, circles: list) -> bool:
    return any(
        fn.extends(complex(c["center_re"], c["center_im"]), c["radius"]) is False for c in circles
    )


def check_verdict(fn: Fn, code, report: dict) -> Optional[Finding]:
    """A verdict report (CLI JSON, or the library's ``Verdict.to_dict``)."""
    cls = report["verdict"]
    if code is not None and code != EXIT_BY_CLASS[cls]:
        return Finding(f"exit {code} for verdict {cls}")
    circles = [c for fam in report["families"] for c in fam["circles"]]
    if fn.holomorphic:
        if cls in ("holomorphic-consistent", "inconclusive"):
            return None
        known = KNOWN_SCALE if fn.scale > LARGE_SCALE else None
        return Finding(f"holomorphic input classified {cls}", known)
    found = _circle_findings(fn, circles)
    if found:
        return found
    if cls == "holomorphic-consistent":
        return Finding("non-holomorphic input classified holomorphic-consistent")
    if _clear_failure(fn, circles) and cls != "morera-failure":
        return Finding(f"a tested circle does not extend, yet the verdict is {cls}")
    return None


def check_sweep(fn: Fn, code, report: dict) -> Optional[Finding]:
    cls = report["verdict"]
    expected_code = {"pass": 0, "morera-failure": 1, "inconclusive": 3}[cls]
    if code != expected_code:
        return Finding(f"exit {code} for sweep verdict {cls}")
    circles = [c for fam in report["families"] for c in fam["circles"]]
    found = _circle_findings(fn, circles)
    if found:
        return found
    if _clear_failure(fn, circles) and cls != "morera-failure":
        return Finding(f"a tested circle does not extend, yet the sweep verdict is {cls}")
    return None


def check_test_circle(fn: Fn, code, report: dict) -> Optional[Finding]:
    said = report["verdict"]
    expected_code = {"extends": 0, "does-not-extend": 1, "inconclusive": 3}[said]
    if code != expected_code:
        return Finding(f"exit {code} for test-circle verdict {said}")
    if said == "inconclusive":
        return None
    truth = fn.extends(complex(report["center_re"], report["center_im"]), report["radius"])
    if truth is not None and truth != (said == "extends"):
        return Finding(f"circle judged {said}, truth extends={truth}")
    return None


def _convergence(stderr: str) -> Optional[str]:
    return KNOWN_QUADRATURE if "failed to converge" in stderr else None


def check_theta(fn: Fn, z: complex, w_count: int, code, stdout: str, stderr: str) -> Optional[Finding]:
    """Theta = f(z) inside the fiber region and 0 outside."""
    if code != 0:
        return Finding(f"theta exit {code}: {stderr.strip()[:120]}", _convergence(stderr))
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["re_w", "im_w", "location", "re_theta", "im_theta", "abs_theta"]:
        return Finding(f"theta header {rows[0]}")
    if len(rows) - 1 != w_count * w_count:
        return Finding(f"theta has {len(rows) - 1} rows, expected {w_count * w_count}")
    fz = complex(fn.value(z))
    tol = (GRID_THETA_TOL if fn.grid else THETA_TOL) * max(1.0, abs(fz))
    for row in rows[1:]:
        if row[2] == "near-curve":
            continue
        theta = complex(float(row[3]), float(row[4]))
        expected = fz if row[2] == "inside" else 0.0
        if abs(theta - expected) > tol:
            return Finding(f"theta at W={row[0]},{row[1]} ({row[2]}) is {theta}, expected {expected}")
    return None


def check_fiber_integral(fn: Fn, z: complex, result) -> Optional[Finding]:
    if isinstance(result, str):
        return Finding(f"fiber_integral raised {result[:120]}", _convergence(result))
    value = complex(*result)
    if abs(value) > FIBER_INTEGRAL_TOL * max(1.0, abs(complex(fn.value(z)))):
        return Finding(f"fiber integral {value} is not 0")
    return None


def _fiber_point(z: complex, piece: str, param: float) -> complex:
    if piece == "segment":
        return param**2 / z
    return ((z + 2.0) * param + 1.0) / (z - param)


def check_polyline(zs: list, per_piece: int, code, stdout: str) -> Optional[Finding]:
    """Each polyline point lies on the closed-form fiber curve of its z."""
    if code != 0:
        return Finding(f"fiber exit {code}")
    rows = list(csv.reader(io.StringIO(stdout)))
    head = ["piece", "index", "param", "re_w", "im_w"]
    if len(zs) > 1:
        head = ["z_re", "z_im"] + head
    if rows[0] != head:
        return Finding(f"fiber header {rows[0]}")
    if len(rows) - 1 != 2 * per_piece * len(zs):
        return Finding(f"fiber has {len(rows) - 1} rows")
    for i, row in enumerate(rows[1:]):
        z = zs[i // (2 * per_piece)]
        cells = row[2:] if len(zs) > 1 else row
        first = "segment" if z.imag > 0 else "arc"
        piece_index = (i % (2 * per_piece)) // per_piece
        if (cells[0] == first) != (piece_index == 0):
            return Finding(f"row {i + 1}: piece {cells[0]} out of traversal order")
        w = complex(float(cells[3]), float(cells[4]))
        if abs(w - _fiber_point(z, cells[0], float(cells[2]))) > POLYLINE_TOL:
            return Finding(f"row {i + 1}: point {w} off the fiber curve of {z}")
    return None


def check_demo(code, stdout: str, floor: float) -> Optional[Finding]:
    """Valid config -> morera-failure; floors >= 1/2 overlap -> inconsistent."""
    lines = [line.strip() for line in stdout.splitlines()]
    verdicts = [line.split(":", 1)[1].strip() for line in lines if line.startswith("verdict:")]
    expected = ["morera-failure", "inconsistent" if floor >= 0.5 else "morera-failure"]
    if verdicts != expected:
        # Every violating-config circle passed, yet the verdict is a failure:
        # cross-consistency met an aliased circle at its fixed sample count.
        violating = lines[next((i for i, line in enumerate(lines) if line.startswith("violating")), len(lines)):]
        families_pass = all(": pass " in line for line in violating if "family:" in line)
        known = KNOWN_CROSS if verdicts[1:] == ["morera-failure"] and families_pass else None
        return Finding(f"demo verdicts {verdicts}, expected {expected}", known)
    want = 0 if expected[1] == "inconsistent" else 1
    if code != want:
        return Finding(f"demo exit {code}, expected {want}")
    return None


def parse_json(text: str) -> Optional[dict]:
    try:
        return json.loads(text)
    except ValueError:
        return None
