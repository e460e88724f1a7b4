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

Each command declares its flags once, in the ``add_flags`` function of
``_COMMANDS``.  A plain command line (exact option strings, each with its
value) is scanned against the flags that function records in a
:class:`_FlagTable`; every other line, help included, goes to the full
argparse parser, which alone prints help, usage and errors and is imported
only then.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import replace
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import analysis, exprparser, extension, fiber, funczoo, gridio
from .errors import ConfigError, EvalError, InconclusiveError, MoreraError, ParseError
from .geometry import DEFAULT_TAU, Circle

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_FAILED_VERDICT = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3


def parse_point(text: str) -> complex:
    """Parse a constant complex literal like ``-1``, ``0.5i``, ``-0.2+0.5i``."""
    try:
        node = exprparser.parse(text)
        if any(isinstance(n, exprparser.Var) for n in exprparser.nodes(node)):
            raise ConfigError(f"complex literal {text!r} must not mention z")
        return exprparser.evaluate(node, 0.0)
    except ParseError as exc:
        raise ConfigError(f"invalid complex literal {text!r}: {exc}") from None
    except EvalError:
        raise ConfigError(f"invalid complex literal {text!r}: its value is undefined (non-finite)") from None


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
    group.add_argument("--samples", type=int, default=extension.DEFAULT_SAMPLES, help="circle sample count (default %(default)s)")


# Complex literals like -0.2+0.5i may open with a minus; widen argparse's
# negative-number sniffing so they pass as option values (--z=-0.2+0.5i also
# always works).  The scan takes the same values.
_NEGATIVE_VALUE = re.compile(r"^-(\d|\.\d)")


def _parser(**kwargs) -> argparse.ArgumentParser:
    """An argparse parser that takes :data:`_NEGATIVE_VALUE` strings as option values."""
    import argparse

    parser = argparse.ArgumentParser(**kwargs)
    parser._negative_number_matcher = _NEGATIVE_VALUE
    return parser


class _FlagTable:
    """The flags an ``add_flags`` function declares, recorded for :func:`_scan`.

    It stands in for the argparse parser and its argument groups, and takes
    only the ``add_argument`` keywords the scan reproduces, besides ``help``
    and ``metavar``, which shape help text alone; any other keyword or
    action is a ``TypeError``, so that a flag the scan would parse
    differently from argparse cannot be declared.
    """

    def __init__(self):
        self.flags: list[SimpleNamespace] = []
        self.options: dict[str, SimpleNamespace] = {}

    def add_argument_group(self, title: str) -> "_FlagTable":
        return self

    def add_argument(self, *option_strings, type=None, default=None, choices=None,
                     required=False, action=None, help=None, metavar=None) -> None:
        if action not in (None, "append"):
            raise TypeError(f"unsupported action {action!r}")
        long = [s for s in option_strings if s.startswith("--")]
        dest = (long or option_strings)[0].lstrip("-").replace("-", "_")
        flag = SimpleNamespace(option_strings=option_strings, dest=dest, type=type, default=default,
                               choices=choices, required=required, append=action == "append")
        self.flags.append(flag)
        for option in option_strings:
            self.options[option] = flag


def _scan(command: str, tokens: list[str]) -> Optional[SimpleNamespace]:
    """The namespace of a plain ``command`` line, or None to leave the line to argparse.

    Only exact option strings of the command's table are taken, as
    ``--flag value`` (a value opening with ``-`` must match
    :data:`_NEGATIVE_VALUE`) or ``--flag=value``.  Anything else (an unknown
    or abbreviated flag, ``-h``, a missing value, a ``--`` token or value, a
    value that fails its type or choices, a missing required flag) gives None.
    """
    table = _FlagTable()
    _COMMANDS[command][1](table)
    values = {"command": command, **{flag.dest: flag.default for flag in table.flags}}
    seen = set()
    i = 0
    while i < len(tokens):
        token = tokens[i]
        option, equals, value = token.partition("=") if token.startswith("--") else (token, "", "")
        flag = table.options.get(option)
        if flag is None:
            return None
        if not equals:
            i += 1
            if i == len(tokens) or tokens[i].startswith("-") and not _NEGATIVE_VALUE.match(tokens[i]):
                return None
            value = tokens[i]
        i += 1
        if value == "--":  # argparse drops it: --expr=-- gives expr=[]
            return None
        if flag.type is not None:
            try:
                value = flag.type(value)
            except (TypeError, ValueError):
                return None
        if flag.choices is not None and value not in flag.choices:
            return None
        if flag.append:
            value = (values[flag.dest] or []) + [value]
        values[flag.dest] = value
        seen.add(flag.dest)
    if any(flag.required and flag.dest not in seen for flag in table.flags):
        return None
    return SimpleNamespace(**values)


def _test_circle_flags(parser: argparse.ArgumentParser) -> None:
    _add_function_flags(parser)
    _add_tolerance_flags(parser)
    parser.add_argument("--center", default="0", help="circle center (default 0)")
    parser.add_argument("--radius", type=float, required=True, help="circle radius")
    parser.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    _add_function_flags(parser)
    _add_family_flags(parser)
    _add_tolerance_flags(parser)
    parser.add_argument("--family", choices=["both", "centered", "pencil"], default="both")
    parser.add_argument("-o", "--output", default=None)


def _fiber_flags(parser: argparse.ArgumentParser) -> None:
    _add_function_flags(parser)  # accepted for interface uniformity; geometry only
    parser.add_argument("--z", action="append", required=True, help="base point (repeatable)")
    parser.add_argument("--tau", type=float, default=DEFAULT_TAU)
    parser.add_argument("--points-per-piece", type=int, default=256)
    parser.add_argument("-o", "--output", default=None)


def _theta_flags(parser: argparse.ArgumentParser) -> None:
    _add_function_flags(parser)
    _add_tolerance_flags(parser)
    parser.add_argument("--z", required=True, help="base point")
    parser.add_argument("--tau", type=float, default=DEFAULT_TAU)
    parser.add_argument("--nodes", type=int, default=fiber.DEFAULT_NODES)
    parser.add_argument("--w-count", type=int, default=15, help="W-grid is w-count x w-count (default %(default)s)")
    parser.add_argument("--w-pad", type=float, default=0.75, help="grid padding as a fraction of the curve diameter")
    parser.add_argument("-o", "--output", default=None)


def _verdict_flags(parser: argparse.ArgumentParser) -> None:
    _add_function_flags(parser)
    _add_family_flags(parser)
    _add_tolerance_flags(parser)
    parser.add_argument("-o", "--output", default=None)


def _demo_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tau", type=float, default=DEFAULT_TAU)
    parser.add_argument("--floor", type=float, default=0.6, help="radius floor of the violating config (default %(default)s)")
    parser.add_argument("--circles", type=int, default=analysis.DEFAULT_CIRCLES)
    parser.add_argument("-o", "--output", default=None, help="write both reports as JSON here")


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command of ``_COMMANDS`` as a subcommand."""
    parser = _parser(
        prog="morera",
        description="Numerical tests for holomorphic extendability from families of circles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_parser)
    for name, (summary, add_flags, _) in _COMMANDS.items():
        add_flags(sub.add_parser(name, help=summary))
    return parser


def parse_args(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """Parse a command line as :func:`build_parser` does, with argparse only where needed.

    A plain command line is scanned against its command's flag table
    (:func:`_scan`) and gives the namespace the full parser would; any other
    line goes to the full parser.
    """
    # Importing argparse and building the parser costs a cold process more than the scan.
    if argv and argv[0] in _COMMANDS:
        args = _scan(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def resolve_function(args) -> tuple:
    """Resolve the (oracle, description, warnings) of a run.

    A grid file gives its interpolant, which states its own accuracy
    (:func:`extension.stated_accuracy`); the first warning names it.  Where
    that error allows no failure to count (infinite for a grid of fewer
    than 7 radii), the run raises :class:`InconclusiveError` naming it.
    """
    sources = [s for s in ("builtin", "expr", "grid") if getattr(args, s, None)]
    if len(sources) != 1:
        raise ConfigError("exactly one of --builtin, --expr, --grid is required")
    warnings: list[str] = []
    if args.builtin:
        entry = funczoo.builtin(args.builtin)
        return entry.oracle, {"source": "builtin", "name": entry.name}, warnings
    if args.expr:
        node = exprparser.parse(args.expr)
        warnings.extend(exprparser.noninteger_power_warnings(node))
        oracle = exprparser.compile_function(node)
        return oracle, {"source": "expr", "text": exprparser.to_source(node)}, warnings
    oracle = gridio.read_polar_grid(args.grid)
    margin = extension.GRID_ERROR_MARGIN
    if not margin * oracle.error < 1.0:
        raise InconclusiveError(
            f"grid file {args.grid} does not resolve its function: its interpolation error is estimated "
            f"at {oracle.error:.3g} of max |f|, and a failure within {margin:g} times that decides nothing"
        )
    tol, _ = extension.stated_accuracy(oracle, args.morera_tol)
    warnings.append(
        f"function interpolated from grid file; interpolation error estimated at {oracle.error:.2e} of "
        f"max |f|; a failure that passes at tolerance {tol:.2e} counts as inconclusive"
    )
    if oracle.radii[0] > 0.0:
        warnings.append(
            f"grid radii start at {float(oracle.radii[0])!r}, above 0; points inside that radius take its values"
        )
    if oracle.r_max < 1.0:
        warnings.append(
            f"grid radii end at {oracle.r_max!r}, below 1; points beyond that radius take its values"
        )
    return oracle, {"source": "grid", "path": args.grid}, warnings


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        gridio.write_text_atomic(output, text)


def _pipeline_config(args) -> analysis.PipelineConfig:
    """The configuration of a ``sweep`` or ``verdict`` line."""
    t_min = None
    if args.rho is not None:
        if not 0.0 < args.rho < 1.0:
            raise ConfigError(f"--rho must lie in (0, 1), got {args.rho}")
        t_min = args.rho - 1.0
    config = analysis.PipelineConfig(
        tau=args.tau,
        p=parse_point(args.p),
        circles_per_family=args.circles,
        r_min=args.r_min,
        t_min=t_min,
        morera_tol=args.morera_tol,
        samples=args.samples,
    )
    # The second point is read after the configuration is checked, so a bad
    # --tau or tolerance is reported before a bad --two-point literal.
    return config if args.two_point is None else replace(config, p2=parse_point(args.two_point))


def cmd_test_circle(args) -> int:
    f, desc, warnings = resolve_function(args)
    circle = Circle(parse_point(args.center), args.radius)
    data, result, inconclusive = extension.analyze_with_refinement(f, circle, args.morera_tol, args.samples)
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


_EXIT_BY_CLASS = {
    None: EXIT_OK,  # a sweep that passes
    analysis.CLASS_CONSISTENT: EXIT_OK,
    analysis.CLASS_MORERA_FAILURE: EXIT_FAILED_VERDICT,
    analysis.CLASS_INCONSISTENT: EXIT_FAILED_VERDICT,
    analysis.CLASS_INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


def _warn_undecided(reports) -> None:
    """Name on stderr each swept circle whose samples or energy float64 could not hold, with its reason."""
    for c in (c for report in reports for c in report.circles if c.negative_energy is None):
        text = f"the {c.family} circle with parameter {c.parameter!r} ({c.circle}) is undecided: {c.reason}"
        print(f"warning: {text}", file=sys.stderr)


def cmd_sweep(args) -> int:
    f, desc, warnings = resolve_function(args)
    config = _pipeline_config(args)
    families = config.families(args.family)
    reports = [analysis.test_family(f, fam, config.morera_tol, config.samples) for fam in families]
    _warn_undecided(reports)
    classification = analysis.sweep_classification(reports)
    if config.p2 is not None:
        warnings = warnings + ["two-point pencil configuration: extension sweeps only (partial coverage)"]
    doc = {
        "schema_version": 1,
        "function": desc,
        "tau": config.tau,
        "hypotheses_valid": analysis.validate_families(*families) if len(families) == 2 else None,
        "families": [r.to_dict() for r in reports],
        "verdict": classification or "pass",
        "warnings": warnings,
    }
    _emit(analysis.dumps_report(doc), args.output)
    return _EXIT_BY_CLASS[classification]


def cmd_fiber(args) -> int:
    # The function source is accepted for interface uniformity but the curve
    # is pure geometry; it is not evaluated here.
    analysis.require_count("--points-per-piece", args.points_per_piece)
    zs = [parse_point(text) for text in args.z]
    rows = ["piece,index,param,re_w,im_w"] if len(zs) == 1 else ["z_re,z_im,piece,index,param,re_w,im_w"]
    for z in zs:
        curve = fiber.fiber_curve(z, tau=args.tau)
        prefix = f"{float(z.real)!r},{float(z.imag)!r}," if len(zs) > 1 else ""
        for name, params, points in curve.polyline(args.points_per_piece):
            # One format call per row, fed whole columns as Python floats.
            fmt = prefix + name + ",{},{!r},{!r},{!r}"
            rows += map(fmt.format, range(params.size), params.tolist(), points.real.tolist(), points.imag.tolist())
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


# The CSV names of cauchy_table's locations; near-curve rows carry no value.
_LOCATIONS = {1: "inside", 0: "outside", -1: "near-curve"}


def cmd_theta(args) -> int:
    analysis.require_count("--w-count", args.w_count)
    analysis.require_count("--nodes", args.nodes)
    if not math.isfinite(args.w_pad):
        raise ConfigError(f"--w-pad must be finite, got {args.w_pad}")
    f, _, _ = resolve_function(args)
    z = parse_point(args.z)
    curve = fiber.fiber_curve(z, tau=args.tau)
    pad = args.w_pad * curve.diameter
    # Python floats, which overflow to inf silently, so an overflowing grid is caught before numpy sees it.
    bounds = [(float(x.min()) - pad, float(x.max()) + pad) for x in (curve.nodes_w.real, curve.nodes_w.imag)]
    if not all(math.isfinite(hi - lo) for lo, hi in bounds):
        raise ConfigError(f"--w-pad {args.w_pad} overflows the W grid of a curve of diameter {curve.diameter}")
    xs, ys = (np.linspace(lo, hi, args.w_count) for lo, hi in bounds)
    grid = [complex(x, y) for y in ys for x in xs]
    locations, values = fiber.cauchy_table(f, curve, grid, args.nodes, args.samples, args.morera_tol)
    rows = ["re_w,im_w,location,re_theta,im_theta,abs_theta"]
    for W, location, value in zip(grid, locations.tolist(), values.tolist()):
        cells = f"{value.real!r},{value.imag!r},{abs(value)!r}" if location >= 0 else ",,"
        rows.append(f"{W.real!r},{W.imag!r},{_LOCATIONS[location]},{cells}")
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def cmd_verdict(args) -> int:
    f, desc, warnings = resolve_function(args)
    config = _pipeline_config(args)
    result = analysis.verdict(f, config)
    _warn_undecided(result.families)
    if config.p2 is not None:
        warnings = warnings + ["two-point pencil configuration: cross-consistency not evaluated (partial coverage)"]
    doc = analysis.report_document(result, config, desc, warnings)
    _emit(analysis.dumps_report(doc), args.output)
    return _EXIT_BY_CLASS[result.classification]


def cmd_demo_sharpness(args) -> int:
    f = funczoo.builtin("counterexample").oracle
    valid_cfg = analysis.PipelineConfig(tau=args.tau, circles_per_family=args.circles)
    violating_cfg = analysis.PipelineConfig(
        tau=args.tau,
        circles_per_family=args.circles,
        r_min=args.floor,
        t_min=args.floor - 1.0,
    )
    if analysis.validate_families(*violating_cfg.families()):
        raise ConfigError(
            f"--floor {args.floor} gives disjoint smallest circles, which meets the hypothesis; "
            "the violating configuration needs a floor of at least 1/3"
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

    reproduced = (
        valid.classification == analysis.CLASS_MORERA_FAILURE
        and violating.classification == analysis.CLASS_INCONSISTENT
    )
    out = ["function: z^2 / conj(z) (0 at the origin)"]
    out += describe("valid configuration", valid_cfg, valid)
    out += describe("violating configuration", violating_cfg, violating)
    if reproduced:
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
    return EXIT_OK if reproduced else EXIT_FAILED_VERDICT


# name -> (help, add_flags, handler); the order is the order of the help listing.
_COMMANDS = {
    "test-circle": ("extendability report for a single circle", _test_circle_flags, cmd_test_circle),
    "sweep": ("family sweeps, JSON report", _sweep_flags, cmd_sweep),
    "fiber": ("fiber-curve polyline CSV", _fiber_flags, cmd_fiber),
    "theta": ("Cauchy-transform table over a W-grid, CSV", _theta_flags, cmd_theta),
    "verdict": ("full pipeline with classification", _verdict_flags, cmd_verdict),
    "demo-sharpness": ("counterexample under valid vs hypothesis-violating configs", _demo_flags, cmd_demo_sharpness),
}


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    _, _, handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except InconclusiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except MoreraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
