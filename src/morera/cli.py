"""Command-line interface.

Commands:

* ``test-circle``     extendability report for one circle
* ``sweep``           family sweeps, JSON report
* ``fiber``           fiber-curve polyline CSV for one or more base points
* ``theta``           Cauchy-transform table over a W-grid, CSV
* ``verdict``         full pipeline with classification
* ``demo-sharpness``  the counterexample under a valid and a hypothesis-violating
                      configuration, printed side by side

Exit codes: 0 success, 1 failing/inconsistent verdict, 2 configuration or
input-data error, 3 numerically inconclusive.  All file outputs are written
atomically.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import analysis, exprparser, extension, fiber, funczoo, gridio
from .errors import (
    ConfigError,
    InconclusiveError,
    MoreraError,
    ParseError,
    SamplingError,
)
from .geometry import DEFAULT_TAU, Circle

EXIT_OK = 0
EXIT_FAILED_VERDICT = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3

# Extendability thresholds are inflated by this factor for grid-file sources:
# the interpolant is only as faithful as the sampling.
DEFAULT_GRID_INFLATION = 10.0


def parse_point(text: str) -> complex:
    """Parse a constant complex literal like ``-1``, ``0.5i``, ``-0.2+0.5i``."""
    try:
        node = exprparser.parse(text)
    except ParseError as exc:
        raise ConfigError(f"invalid complex literal {text!r}: {exc}") from None

    def has_var(n) -> bool:
        if isinstance(n, exprparser.Var):
            return True
        if isinstance(n, exprparser.Unary):
            return has_var(n.operand)
        if isinstance(n, exprparser.BinOp):
            return has_var(n.left) or has_var(n.right)
        if isinstance(n, exprparser.Call):
            return has_var(n.arg)
        return False

    if has_var(node):
        raise ConfigError(f"complex literal {text!r} must not mention z")
    return exprparser.evaluate(node, 0.0)


def _add_function_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("function source (exactly one)")
    group.add_argument("--builtin", metavar="NAME", help="built-in test function")
    group.add_argument("--expr", metavar="TEXT", help="expression in z (and conj(z)/zbar)")
    group.add_argument("--grid", metavar="FILE", help="polar-grid CSV file (r,theta,re,im)")


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("family configuration")
    group.add_argument("--tau", type=float, default=DEFAULT_TAU, help="pencil radius floor (default %(default)s)")
    group.add_argument("--p", default="-1", help="pencil boundary point on the unit circle (default -1)")
    group.add_argument("--r-min", type=float, default=0.05, help="smallest centered radius (default %(default)s)")
    group.add_argument("--rho", type=float, default=None, help="pencil radius floor as a radius (overrides --tau floor)")
    group.add_argument("--two-point", default=None, metavar="P2", help="second pencil point: sweep two pencils instead of centered+pencil")
    group.add_argument("--circles", type=int, default=analysis.DEFAULT_CIRCLES, help="circles per family (default %(default)s)")


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("tolerances")
    group.add_argument("--morera-tol", type=float, default=extension.DEFAULT_MORERA_TOL)
    group.add_argument("--cross-tol", type=float, default=analysis.DEFAULT_CROSS_TOL)
    group.add_argument("--dbar-tol", type=float, default=analysis.DEFAULT_DBAR_TOL)
    group.add_argument("--samples", type=int, default=extension.DEFAULT_SAMPLES, help="circle sample count (default %(default)s)")
    group.add_argument("--grid-inflation", type=float, default=DEFAULT_GRID_INFLATION, help="extendability-threshold inflation for --grid sources (default %(default)s)")


# Complex literals like -0.2+0.5i may open with a minus; widen argparse's
# negative-number sniffing so they pass as option values (--z=-0.2+0.5i also
# always works).
_NEGATIVE_VALUE = re.compile(r"^-(\d|\.\d)")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="morera",
        description="Numerical tests for holomorphic extendability from families of circles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_circle = sub.add_parser("test-circle", help="extendability report for a single circle")
    _add_function_flags(p_circle)
    _add_tolerance_flags(p_circle)
    p_circle.add_argument("--center", default="0", help="circle center (default 0)")
    p_circle.add_argument("--radius", type=float, required=True, help="circle radius")
    p_circle.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="family sweeps, JSON report")
    _add_function_flags(p_sweep)
    _add_family_flags(p_sweep)
    _add_tolerance_flags(p_sweep)
    p_sweep.add_argument("--family", choices=["both", "centered", "pencil"], default="both")
    p_sweep.add_argument("-o", "--output", default=None)

    p_fiber = sub.add_parser("fiber", help="fiber-curve polyline CSV")
    _add_function_flags(p_fiber)  # accepted for interface uniformity; geometry only
    p_fiber.add_argument("--z", action="append", required=True, help="base point (repeatable)")
    p_fiber.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p_fiber.add_argument("--points-per-piece", type=int, default=256)
    p_fiber.add_argument("-o", "--output", default=None)

    p_theta = sub.add_parser("theta", help="Cauchy-transform table over a W-grid, CSV")
    _add_function_flags(p_theta)
    _add_tolerance_flags(p_theta)
    p_theta.add_argument("--z", required=True, help="base point")
    p_theta.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p_theta.add_argument("--nodes", type=int, default=fiber.DEFAULT_NODES)
    p_theta.add_argument("--w-count", type=int, default=15, help="W-grid is w-count x w-count (default %(default)s)")
    p_theta.add_argument("--w-pad", type=float, default=0.75, help="grid padding as a fraction of the curve diameter")
    p_theta.add_argument("-o", "--output", default=None)

    p_verdict = sub.add_parser("verdict", help="full pipeline with classification")
    _add_function_flags(p_verdict)
    _add_family_flags(p_verdict)
    _add_tolerance_flags(p_verdict)
    p_verdict.add_argument("-o", "--output", default=None)

    p_demo = sub.add_parser("demo-sharpness", help="counterexample under valid vs hypothesis-violating configs")
    p_demo.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p_demo.add_argument("--floor", type=float, default=0.6, help="radius floor of the violating config (default %(default)s)")
    p_demo.add_argument("--circles", type=int, default=analysis.DEFAULT_CIRCLES)
    p_demo.add_argument("-o", "--output", default=None, help="write both reports as JSON here")

    return parser


def resolve_function(args) -> tuple:
    """Resolve the (oracle, description, warnings, tol_inflation) of a run."""
    sources = [s for s in ("builtin", "expr", "grid") if getattr(args, s, None)]
    if len(sources) != 1:
        raise ConfigError("exactly one of --builtin, --expr, --grid is required")
    warnings: list[str] = []
    inflation = 1.0
    if args.builtin:
        entry = funczoo.builtin(args.builtin)
        return entry.oracle, {"source": "builtin", "name": entry.name}, warnings, inflation
    if args.expr:
        node = exprparser.parse(args.expr)
        warnings.extend(exprparser.noninteger_power_warnings(node))
        oracle = exprparser.compile_function(node)
        return oracle, {"source": "expr", "text": exprparser.to_source(node)}, warnings, inflation
    oracle = gridio.read_polar_grid(args.grid)
    inflation = float(args.grid_inflation) if hasattr(args, "grid_inflation") else DEFAULT_GRID_INFLATION
    warnings.append(
        f"function interpolated from grid file; extendability threshold inflated x{inflation}"
    )
    return oracle, {"source": "grid", "path": args.grid}, warnings, inflation


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        gridio.write_text_atomic(output, text)


def _pipeline_config(args) -> analysis.PipelineConfig:
    t_min = None
    if args.rho is not None:
        if not 0.0 < args.rho < 1.0:
            raise ConfigError(f"--rho must lie in (0, 1), got {args.rho}")
        t_min = args.rho - 1.0
    return analysis.PipelineConfig(
        tau=args.tau,
        p=parse_point(args.p),
        circles_per_family=args.circles,
        r_min=args.r_min,
        t_min=t_min,
        morera_tol=args.morera_tol,
        cross_tol=args.cross_tol,
        dbar_tol=args.dbar_tol,
        samples=args.samples,
    )


def cmd_test_circle(args) -> int:
    f, desc, warnings, inflation = resolve_function(args)
    circle = Circle(parse_point(args.center), args.radius)
    tol = args.morera_tol * inflation
    data, result, inconclusive = extension.analyze_with_refinement(f, circle, tol, args.samples)
    total = data.total_energy
    doc = {
        "schema_version": 1,
        "function": desc,
        "center_re": circle.center.real,
        "center_im": circle.center.imag,
        "radius": circle.radius,
        "samples": data.sample_count,
        "negative_energy": data.tail_energy_negative,
        "relative_negative_energy": data.tail_energy_negative / total if total > 0 else 0.0,
        "threshold": result.threshold_used,
        "aliasing": result.aliasing_flag,
        "passes": result.passes,
        "verdict": "inconclusive" if inconclusive else ("extends" if result.passes else "does-not-extend"),
        "warnings": warnings,
    }
    _emit(analysis.dumps_report(doc), args.output)
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if result.passes else EXIT_FAILED_VERDICT


def _sweep_families(args, config: analysis.PipelineConfig) -> list[analysis.FamilyConfig]:
    if args.two_point is not None:
        p2 = parse_point(args.two_point)
        first = config.pencil_family()
        second = analysis.FamilyConfig(
            "pencil", config.pencil_floor, config.t_max, config.circles_per_family, p2
        )
        return [first, second]
    which = getattr(args, "family", "both")
    families = []
    if which in ("both", "centered"):
        families.append(config.centered_family())
    if which in ("both", "pencil"):
        families.append(config.pencil_family())
    return families


def cmd_sweep(args) -> int:
    f, desc, warnings, inflation = resolve_function(args)
    config = _pipeline_config(args)
    tol = config.morera_tol * inflation
    families = _sweep_families(args, config)
    reports = [analysis.test_family(f, fam, tol, config.samples) for fam in families]
    if len(families) == 2:
        hypotheses_valid = analysis.validate_families(families[0], families[1])
    else:
        hypotheses_valid = None
    hard_fail = any(r.failing for r in reports)
    inconclusive = any(r.inconclusive for r in reports)
    verdict = "morera-failure" if hard_fail else ("inconclusive" if inconclusive else "pass")
    if args.two_point is not None:
        warnings = warnings + [
            "two-point pencil configuration: extension sweeps only (partial coverage)"
        ]
    doc = {
        "schema_version": 1,
        "function": desc,
        "tau": config.tau,
        "hypotheses_valid": hypotheses_valid,
        "families": [r.to_dict() for r in reports],
        "verdict": verdict,
        "warnings": warnings,
    }
    _emit(analysis.dumps_report(doc), args.output)
    if hard_fail:
        return EXIT_FAILED_VERDICT
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_fiber(args) -> int:
    # The function source is accepted for interface uniformity but the curve
    # is pure geometry; it is not evaluated here.
    zs = [parse_point(text) for text in args.z]
    rows = ["piece,index,param,re_w,im_w"] if len(zs) == 1 else ["z_re,z_im,piece,index,param,re_w,im_w"]
    for z in zs:
        curve = fiber.fiber_curve(z, tau=args.tau)
        for name, params, points in curve.polyline(args.points_per_piece):
            for index, (param, w) in enumerate(zip(params, points)):
                cells = [name, str(index), repr(float(param)), repr(float(w.real)), repr(float(w.imag))]
                if len(zs) > 1:
                    cells = [repr(float(z.real)), repr(float(z.imag))] + cells
                rows.append(",".join(cells))
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def cmd_theta(args) -> int:
    f, desc, warnings, inflation = resolve_function(args)
    del desc
    z = parse_point(args.z)
    curve = fiber.fiber_curve(z, tau=args.tau)
    tol = args.morera_tol * inflation
    re = curve.nodes_w.real
    im = curve.nodes_w.imag
    pad = args.w_pad * curve.diameter
    xs = np.linspace(re.min() - pad, re.max() + pad, args.w_count)
    ys = np.linspace(im.min() - pad, im.max() + pad, args.w_count)
    rows = ["re_w,im_w,location,re_theta,im_theta,abs_theta"]
    for y in ys:
        for x in xs:
            W = complex(x, y)
            head = f"{float(x)!r},{float(y)!r}"
            if curve.distance(W) < curve.proximity_guard:
                rows.append(f"{head},near-curve,,,")
                continue
            location = "inside" if fiber.region_contains(curve, W) else "outside"
            value = fiber.cauchy_transform(f, z, W, args.nodes, args.samples, tol, args.tau)
            rows.append(f"{head},{location},{value.real!r},{value.imag!r},{abs(value)!r}")
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


_EXIT_BY_CLASS = {
    analysis.CLASS_CONSISTENT: EXIT_OK,
    analysis.CLASS_MORERA_FAILURE: EXIT_FAILED_VERDICT,
    analysis.CLASS_INCONSISTENT: EXIT_FAILED_VERDICT,
    analysis.CLASS_INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


def cmd_verdict(args) -> int:
    f, desc, warnings, inflation = resolve_function(args)
    config = _pipeline_config(args)
    if inflation != 1.0:
        config = replace(config, morera_tol=config.morera_tol * inflation)
    if args.two_point is not None:
        return _verdict_two_point(args, f, desc, warnings, config)
    result = analysis.verdict(f, config)
    doc = analysis.report_document(result, config, desc, warnings)
    _emit(analysis.dumps_report(doc), args.output)
    return _EXIT_BY_CLASS[result.classification]


def _verdict_two_point(args, f, desc, warnings, config: analysis.PipelineConfig) -> int:
    """Two-pencil configuration: sweeps, validation and the Wirtinger oracle only."""
    families = _sweep_families(args, config)
    reports = [analysis.test_family(f, fam, config.morera_tol, config.samples) for fam in families]
    hypotheses_valid = analysis.validate_families(families[0], families[1])
    hard_fail = any(r.failing for r in reports)
    inconclusive = any(r.inconclusive for r in reports)
    dbar_value = analysis.dbar_residual(f, config.dbar_grid)
    if hard_fail:
        classification = analysis.CLASS_MORERA_FAILURE
    elif inconclusive:
        classification = analysis.CLASS_INCONCLUSIVE
    elif dbar_value <= config.dbar_tol:
        classification = analysis.CLASS_CONSISTENT
    else:
        classification = analysis.CLASS_INCONSISTENT
    doc = {
        "schema_version": 1,
        "function": desc,
        "tau": config.tau,
        "hypotheses_valid": hypotheses_valid,
        "families": [r.to_dict() for r in reports],
        "dbar": {"residual": dbar_value},
        "cross_consistency": None,
        "verdict": classification,
        "warnings": warnings
        + ["two-point pencil configuration: cross-consistency not evaluated (partial coverage)"],
    }
    _emit(analysis.dumps_report(doc), args.output)
    return _EXIT_BY_CLASS[classification]


def cmd_demo_sharpness(args) -> int:
    f = funczoo.builtin("counterexample").oracle
    valid_cfg = analysis.PipelineConfig(tau=args.tau, circles_per_family=args.circles)
    violating_cfg = analysis.PipelineConfig(
        tau=args.tau,
        circles_per_family=args.circles,
        r_min=args.floor,
        t_min=args.floor - 1.0,
    )
    valid = analysis.verdict(f, valid_cfg)
    violating = analysis.verdict(f, violating_cfg)

    def describe(name, cfg, v: analysis.Verdict) -> list[str]:
        lines = [f"{name}: centered radii >= {cfg.r_min}, pencil radii >= {cfg.pencil_floor + 1.0:.3g}"]
        lines.append(f"  smallest circles disjoint: {v.hypotheses_valid}")
        for rep in v.families:
            worst = rep.worst
            lines.append(
                f"  {rep.config.kind:8s} family: {'pass' if rep.passes else 'FAIL'} "
                f"(worst circle parameter {worst.parameter:+.4f}, "
                f"negative energy {worst.negative_energy:.3e})"
            )
        if v.dbar_value is not None:
            lines.append(f"  independent Wirtinger residual: {v.dbar_value:.6f}")
        lines.append(f"  verdict: {v.classification}")
        return lines

    out = ["function: z^2 / conj(z) (0 at the origin)"]
    out += describe("valid configuration", valid_cfg, valid)
    out += describe("violating configuration", violating_cfg, violating)
    out.append(
        "contrast: with overlapping smallest circles every per-circle test passes "
        "while the function is plainly non-analytic; the disjointness hypothesis "
        "cannot be dropped."
    )
    print("\n".join(out))
    if args.output:
        doc = {
            "schema_version": 1,
            "demo": "sharpness",
            "valid": analysis.report_document(valid, valid_cfg, {"source": "builtin", "name": "counterexample"}),
            "violating": analysis.report_document(
                violating, violating_cfg, {"source": "builtin", "name": "counterexample"}
            ),
        }
        gridio.write_text_atomic(args.output, analysis.dumps_report(doc))
    reproduced = (
        valid.classification == analysis.CLASS_MORERA_FAILURE
        and violating.classification == analysis.CLASS_INCONSISTENT
    )
    return EXIT_OK if reproduced else EXIT_FAILED_VERDICT


_COMMANDS = {
    "test-circle": cmd_test_circle,
    "sweep": cmd_sweep,
    "fiber": cmd_fiber,
    "theta": cmd_theta,
    "verdict": cmd_verdict,
    "demo-sharpness": cmd_demo_sharpness,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParseError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InconclusiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except MoreraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
