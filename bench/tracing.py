"""Per-layer spans and counters, recorded from outside the program.

``install(recorder)`` replaces module-level functions of ``morera.cli``,
``exprparser``, ``gridio``, ``funczoo``, ``extension``, ``analysis`` and
``fiber`` with wrappers that record a span (name, start, end, parent) around
each call, and wraps the oracles the program evaluates with counters of
points and time.  It edits no source file; it runs only in the forked child
of a traced operation, so untraced operations and the parent never see it.

Wrappers return whatever the wrapped call returns and let its exceptions
propagate unchanged.  ``layer_metrics`` turns one operation's spans into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

from morera import analysis, cli, exprparser, extension, fiber, funczoo, gridio
from morera.errors import MoreraError


class Recorder:
    """Spans of one operation, plus leaf-oracle counters.

    Spans are ``[name, start, end, parent, info]`` with times in seconds.  A
    span opened in a worker thread (the sweep's thread pool) with nothing
    open on that thread takes the main thread's innermost open span as its
    parent.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main: list = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent, {}])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack().pop()

    def count(self, layer: str, seconds: float, points: int) -> None:
        with self._lock:
            self.counters[layer + ".s"] += seconds
            self.counters[layer + ".points"] += points


def traced(recorder: Recorder, name: str, fn, note=None):
    """``fn`` wrapped in a span; ``note(info, args, kwargs, result)`` adds details."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.spans[index][4]["error"] = type(exc).__name__
            if isinstance(exc, MoreraError):
                recorder.spans[index][4]["morera_error"] = True
            raise
        finally:
            recorder.close(index)
        if note is not None:
            note(recorder.spans[index][4], args, kwargs, result)
        return result

    return wrapper


def counted(recorder: Recorder, layer: str, oracle):
    """An oracle wrapper that adds its time, and the points it returned, to ``layer``'s counters."""

    @functools.wraps(oracle)
    def wrapper(z):
        start = perf_counter()
        points = 0
        try:
            value = oracle(z)
            points = int(np.size(z)) if isinstance(z, np.ndarray) else 1
            return value
        finally:
            recorder.count(layer, perf_counter() - start, points)

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every traced function of the program (in this process only)."""

    def patch(module, name, note=None):
        span = f"{module.__name__.split('.')[-1]}.{name}"
        setattr(module, name, traced(recorder, span, getattr(module, name), note))

    patch(cli, "main")
    patch(exprparser, "parse")
    patch(gridio, "read_polar_grid")

    compile_function = exprparser.compile_function
    exprparser.compile_function = functools.wraps(compile_function)(
        lambda node: counted(recorder, "exprparser.eval", compile_function(node)))

    grid_call = gridio.GridFunction.__call__
    gridio.GridFunction.__call__ = functools.wraps(grid_call)(
        lambda self, z: counted(recorder, "gridio.eval", functools.partial(grid_call, self))(z))

    # One wrapped oracle per builtin, so memo caches keyed on the oracle
    # object hit exactly as often as they do untraced.
    lookup = funczoo.builtin
    wrapped = {}

    def builtin(name):
        if name not in wrapped:
            entry = lookup(name)
            wrapped[name] = dataclasses.replace(entry, oracle=counted(recorder, "funczoo.eval", entry.oracle))
        return wrapped[name]

    funczoo.builtin = builtin

    oracle_values = extension.oracle_values

    def traced_oracle_values(f, points, check=True):
        index = recorder.open("extension.oracle_values")
        info = recorder.spans[index][4]
        info["points"] = int(np.size(points))
        info["fallback"] = 0

        def proxy(z):
            if not isinstance(z, np.ndarray):
                info["fallback"] += 1
            return f(z)

        try:
            return oracle_values(proxy, points, check)
        finally:
            recorder.close(index)

    extension.oracle_values = functools.wraps(oracle_values)(traced_oracle_values)

    def refinement(info, args, kwargs, result):
        info["n0"] = int(args[3] if len(args) > 3 else kwargs.get("n0", extension.DEFAULT_SAMPLES))
        info["final"] = int(result[0].sample_count)

    for name in ("analyze_circle", "analyze_trace", "cached_analyze", "evaluate_extension"):
        patch(extension, name)
    patch(extension, "analyze_with_refinement", note=refinement)

    def circles(info, args, kwargs, result):
        info["circles"] = len(result.circles)

    patch(analysis, "test_family", note=circles)
    for name in ("cross_consistency", "dbar_residual_detail", "dbar_residual", "verdict"):
        patch(analysis, name)
    for name in ("fiber_curve", "winding_number", "region_contains", "cauchy_transform", "fiber_integral"):
        patch(fiber, name)


# ------------------------------------------------------------- analysis ----

PER_LAYER = (
    ("extension.oracle_points", "count"),
    ("extension.oracle_calls", "count"),
    ("extension.scalar_fallback_points", "count"),
    ("extension.analyze_ms", "ms"),
    ("extension.analyses", "count"),
    ("extension.refinements", "count"),
    ("extension.refine_points", "count"),
    ("extension.useful_point_ratio", "ratio"),
    ("extension.cache_lookups", "count"),
    ("extension.cache_hit_ratio", "ratio"),
    ("extension.eval_ms", "ms"),
    ("extension.eval_calls", "count"),
    ("analysis.sweep_ms", "ms"),
    ("analysis.circles_tested", "count"),
    ("analysis.cross_ms", "ms"),
    ("analysis.dbar_ms", "ms"),
    ("analysis.verdict_self_ms", "ms"),
    ("fiber.curve_ms", "ms"),
    ("fiber.winding_ms", "ms"),
    ("fiber.winding_calls", "count"),
    ("fiber.transform_ms", "ms"),
    ("fiber.transforms", "count"),
    ("fiber.transform_failures", "count"),
    ("fiber.integral_ms", "ms"),
    ("fiber.oracle_points", "count"),
    ("fiber.levels_evaluated", "count"),
    ("exprparser.parse_ms", "ms"),
    ("exprparser.eval_ms", "ms"),
    ("exprparser.eval_points", "count"),
    ("gridio.load_ms", "ms"),
    ("gridio.eval_ms", "ms"),
    ("gridio.eval_points", "count"),
    ("funczoo.eval_ms", "ms"),
    ("funczoo.eval_points", "count"),
    ("cli.self_ms", "ms"),
)
# Ratios are recomputed from summed numerators and bases, never averaged.
RATIOS = {
    "extension.useful_point_ratio": ("extension.useful_points", "extension.refine_points"),
    "extension.cache_hit_ratio": ("extension.cache_hits", "extension.cache_lookups"),
}


def _union_ms(intervals: list) -> float:
    total, end = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop > end:
            total += stop - max(start, end)
            end = stop
    return 1e3 * total


def layer_metrics(spans: list, counters: dict) -> dict:
    """Per-layer sums for one operation (ratios left as numerator/base pairs)."""
    out: dict = defaultdict(float)
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)

    def ms(span):
        return 1e3 * (span[2] - span[1])

    def self_ms(index):
        name, start, end, _, _ = spans[index]
        kids = [(max(spans[k][1], start), min(spans[k][2], end)) for k in children[index]]
        return 1e3 * (end - start) - _union_ms([iv for iv in kids if iv[1] > iv[0]])

    def inside(index, names):
        parent = spans[index][3]
        while parent is not None:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    fiber_spans = {"fiber.cauchy_transform", "fiber.fiber_integral"}
    for index, span in enumerate(spans):
        name, info = span[0], span[4]
        parent_name = spans[span[3]][0] if span[3] is not None else None
        if name == "extension.oracle_values":
            out["extension.oracle_calls"] += 1
            out["extension.oracle_points"] += info["points"]
            out["extension.scalar_fallback_points"] += info["fallback"]
            if inside(index, fiber_spans):
                out["fiber.oracle_points"] += info["points"]
                out["fiber.levels_evaluated"] += 0.5
        elif name == "extension.analyze_circle":
            out["extension.analyze_ms"] += ms(span)
        elif name == "extension.analyze_trace":
            out["extension.analyses"] += 1
            if parent_name != "extension.analyze_circle":
                out["extension.analyze_ms"] += ms(span)
        elif name == "extension.analyze_with_refinement":
            doublings = round(math.log2(info["final"] / info["n0"]))
            out["extension.refinements"] += doublings
            out["extension.refine_points"] += info["n0"] * (2 ** (doublings + 1) - 1)
            out["extension.useful_points"] += info["final"]
        elif name == "extension.cached_analyze":
            out["extension.cache_lookups"] += 1
            if not any(spans[k][0] == "extension.analyze_circle" for k in children[index]):
                out["extension.cache_hits"] += 1
        elif name == "extension.evaluate_extension":
            out["extension.eval_ms"] += ms(span)
            out["extension.eval_calls"] += 1
        elif name == "analysis.test_family":
            out["analysis.sweep_ms"] += ms(span)
            out["analysis.circles_tested"] += info.get("circles", 0)
        elif name == "analysis.cross_consistency":
            out["analysis.cross_ms"] += ms(span)
        elif name in ("analysis.dbar_residual_detail", "analysis.dbar_residual"):
            if parent_name != "analysis.dbar_residual":
                out["analysis.dbar_ms"] += ms(span)
        elif name == "analysis.verdict":
            out["analysis.verdict_self_ms"] += self_ms(index)
        elif name == "fiber.fiber_curve":
            out["fiber.curve_ms"] += ms(span)
        elif name in ("fiber.winding_number", "fiber.region_contains"):
            if name == "fiber.winding_number":
                out["fiber.winding_calls"] += 1
            if parent_name != "fiber.region_contains":
                out["fiber.winding_ms"] += ms(span)
        elif name == "fiber.cauchy_transform":
            out["fiber.transform_ms"] += ms(span)
            out["fiber.transforms"] += 1
            out["fiber.transform_failures"] += 1 if info.get("morera_error") else 0
        elif name == "fiber.fiber_integral":
            out["fiber.integral_ms"] += ms(span)
        elif name == "exprparser.parse":
            out["exprparser.parse_ms"] += ms(span)
        elif name == "gridio.read_polar_grid":
            out["gridio.load_ms"] += ms(span)
        elif name == "cli.main":
            out["cli.self_ms"] += self_ms(index)
    for layer in ("exprparser.eval", "gridio.eval", "funczoo.eval"):
        out[layer + "_ms"] += 1e3 * counters.get(layer + ".s", 0.0)
        out[layer + "_points"] += counters.get(layer + ".points", 0.0)
    return out


def finish_ratios(totals: dict) -> dict:
    out = dict(totals)
    for name, (num, base) in RATIOS.items():
        out[name] = totals.get(num, 0.0) / totals[base] if totals.get(base) else 0.0
    return out


def passthrough_selfcheck() -> list:
    """Wrapped oracles hand back arrays, scalars and exceptions unchanged."""
    problems = []
    recorder = Recorder()
    array_out = np.arange(4, dtype=complex)

    class Boom(Exception):
        pass

    boom = Boom("boom")

    def oracle(z):
        if isinstance(z, np.ndarray):
            return array_out
        if z == 1j:
            raise boom
        return complex(z) * 2

    wrapped = counted(recorder, "check", oracle)
    if wrapped(np.zeros(4, dtype=complex)) is not array_out:
        problems.append("array result not passed through")
    if wrapped(0.5) != 1.0 or type(wrapped(0.5)) is not complex:
        problems.append("scalar result not passed through")
    try:
        wrapped(1j)
        problems.append("exception swallowed")
    except Boom as exc:
        if exc is not boom:
            problems.append("exception replaced")
    span_fn = traced(recorder, "check.span", oracle)
    try:
        span_fn(1j)
        problems.append("span swallowed exception")
    except Boom as exc:
        if exc is not boom:
            problems.append("span replaced exception")
    if span_fn(np.zeros(4, dtype=complex)) is not array_out:
        problems.append("span changed array result")
    return problems
