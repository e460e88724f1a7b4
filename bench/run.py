"""Cold per-command benchmark of the morera CLI.

Usage (from the repository root):

    python3 bench/run.py --workload zoo-verdict --seed 1 --seconds 30 --trace 0

Each run generates seeded operations for one workload (see
``bench/workloads.py`` and ``bench/README.md``), runs them as a closed loop
with one client, each in a child forked from a parent that has imported
``morera.cli``, and checks every output against closed-form ground truth.
The operations form a fixed list (one *pass*, the same for the same seed),
repeated until ``--seconds`` have passed; latency percentiles are taken over
every execution.  ``attempted`` and ``failed`` count the distinct
operations, so they depend on the seed only; a repeat whose outcome differs
from the first is a problem.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines
before it give the same figures for people, with units and sample counts.

``--trace 1`` runs every operation untraced and then traced, checks that
both give identical output bytes and exit codes, reports the tracing
overhead, runs the isolation self-check, and writes the spans to
``.bench_work/spans-<workload>.jsonl``.  ``--out FILE`` also writes
the full record, environment included, for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 9

END_TO_END = (
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Reported for people on every run and as per-layer metrics on traced runs;
# they are 0 on a defect-free program, so they carry no regression bound.
QUALITY = (("fail_ratio", "ratio"), ("inconclusive_ratio", "ratio"))
TRACE_ONLY = (("trace.overhead_ms", "ms"),)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record (with environment) here")
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "MORERA_THREADS": os.environ.get("MORERA_THREADS"),
    }


def import_seconds() -> float:
    """Cold ``import morera.cli`` time in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = "import time; t = time.perf_counter(); import morera.cli; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def percentile(values: list, q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "morera", "cli.py")):
        print(f"error: no morera sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import workloads  # noqa: E402  (needs SRC on sys.path)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import runner  # noqa: E402
    import tracing  # noqa: E402

    os.makedirs(WORK, exist_ok=True)
    env = environment(args.seed)
    ctx = {"work": WORK, "grids": {}}
    if args.workload == "text-sources":
        ctx["grids"] = workloads.write_grids(args.seed, WORK)

    tally = Tally()
    if args.trace:
        tally.problems += [f"wrapper self-check: {p}" for p in tracing.passthrough_selfcheck()]

    # Everything imported and built: freeze it so a child's collector does
    # not copy-on-write the parent's heap inside the timed region.
    gc.collect()
    gc.freeze()

    spans_path = os.path.join(WORK, f"spans-{args.workload}.jsonl")
    ops = workloads.make_pass(args.workload, args.seed, ctx)
    passes = 0  # complete passes
    # Import-time samples are spread evenly over the run, between operations,
    # so that they meet the same host as the operations do; their time is
    # left out of the run's measured seconds.
    setup: list = []
    paused = 0.0
    begin = time.perf_counter()
    with open(spans_path, "w") if args.trace else contextlib.nullcontext() as spans:
        while passes == 0 or time.perf_counter() - begin - paused < args.seconds:
            for index, op in enumerate(ops):
                elapsed = time.perf_counter() - begin - paused
                if passes and elapsed >= args.seconds:
                    break
                if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * args.seconds / SETUP_SAMPLES:
                    mark = time.perf_counter()
                    setup.append(import_seconds())
                    paused += time.perf_counter() - mark
                result = runner.run_forked(op, trace=False)
                traced = runner.run_forked(op, trace=True) if args.trace else None
                tally.add(passes, index, op, result, traced)
                if traced is not None:
                    write_spans(spans, tally.executions - 1, traced)
            else:
                passes += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds())
    wall = time.perf_counter() - begin - paused

    latencies = sorted(ms for runs in tally.latencies.values() for ms in runs)
    quality = {"fail_ratio": tally.failed / tally.attempted,
               "inconclusive_ratio": tally.inconclusive / tally.attempted}
    metrics = {
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_p90": percentile(latencies, 90),
        "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": tally.peak_rss_mb,
    }

    layers = None
    if args.trace:
        tally.problems += isolation_selfcheck(tally.isolation_probe, runner, latencies)
        layers = tracing.finish_ratios(tally.layers_per_pass(passes))
        layers["trace.overhead_ms"] = statistics.median(tally.overheads)
        layers.update(quality)

    report(args, env, metrics, quality, layers, setup, tally, passes, wall)
    units = dict(END_TO_END + QUALITY + TRACE_ONLY + tracing.PER_LAYER)
    if args.trace:
        names = [n for n, _ in tracing.PER_LAYER + TRACE_ONLY + QUALITY]
        chosen = {n: layers.get(n, 0.0) for n in names}
    else:
        chosen = metrics
    line = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in chosen.items()},
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"environment": env, "workload": args.workload, "trace": args.trace,
                       "passes": passes, "executions": tally.executions, "problems": tally.problems,
                       "failures": dict(tally.failures), "known_defects": dict(tally.known),
                       "end_to_end": metrics, "quality": quality, "per_layer": layers,
                       "by_operation": tally.by_operation(),
                       "latencies_ms": [tally.latencies[i] for i in sorted(tally.latencies)],
                       "setup_samples_s": sorted(setup)}, handle, indent=1)
    print(json.dumps(line))
    return 0


class Tally:
    """What a run keeps of its operations: checked as they finish, outputs dropped.

    Keeping outputs (or spans) would grow the parent's heap, which every
    later child inherits and counts in its peak RSS.  Counts of attempted,
    failed and inconclusive operations come from the first pass; later
    passes must reproduce each operation's outcome.
    """

    def __init__(self):
        self.attempted = self.failed = self.inconclusive = self.executions = 0
        self.latencies = defaultdict(list)  # operation index -> ms of each execution
        self.outcomes: dict = {}  # operation index -> outcome of its first execution
        self.peak_rss_mb = 0.0
        self.failures, self.known = Counter(), Counter()
        self.problems: list = []
        self.layers = defaultdict(lambda: defaultdict(float))  # pass -> layer totals
        self.overheads: list = []
        self.by_label = defaultdict(list)
        self.isolation_probe = None

    def add(self, pass_index, index, op, result, traced) -> None:
        self.executions += 1
        if not math.isnan(result["ms"]):
            self.latencies[index].append(result["ms"])
            self.by_label[op.label].append(result["ms"])
        self.peak_rss_mb = max(self.peak_rss_mb, result["peak_rss_mb"])
        try:
            finding = op.check(result)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            from truth import Finding

            finding = Finding(f"malformed output ({type(exc).__name__}: {exc})")
        inconclusive = _is_inconclusive(result)
        outcome = (finding is None, finding and finding.known, inconclusive)
        if index in self.outcomes:
            if outcome != self.outcomes[index]:
                self.problems.append(f"{op.label} {' '.join(op.argv) or op.lib}: outcome "
                                     f"{outcome} on a repeat, {self.outcomes[index]} at first")
        else:
            self.outcomes[index] = outcome
            self.attempted += 1
            self.inconclusive += inconclusive
            if finding is not None:
                self.failed += 1
                self.failures[op.label] += 1
                if finding.known:
                    self.known[finding.known] += 1
                else:
                    self.problems.append(f"{op.label} {' '.join(op.argv) or op.lib}: {finding.reason}")
        if traced is None:
            return
        if any(result[k] != traced[k] for k in ("code", "stdout", "stderr", "file", "error")):
            self.problems.append(f"{op.label}: traced output differs from untraced")
        for name, value in traced.get("layers", {}).items():
            self.layers[pass_index][name] += value
        if not math.isnan(result["ms"] + traced["ms"]):
            self.overheads.append(traced["ms"] - result["ms"])
        points = traced.get("layers", {}).get("extension.oracle_points", 0)
        if self.isolation_probe is None and points > 0:
            self.isolation_probe = (op, points)

    def layers_per_pass(self, passes: int) -> dict:
        """Layer totals averaged over the complete passes."""
        names = {name for totals in self.layers.values() for name in totals}
        return {name: sum(self.layers[p][name] for p in range(passes)) / passes for name in names}

    def by_operation(self) -> dict:
        """Per operation label: count and median latency in ms."""
        return {label: {"n": len(ms), "median_ms": statistics.median(ms)}
                for label, ms in sorted(self.by_label.items())}


def _is_inconclusive(result: dict) -> int:
    """1 if the op's own verdict is ``inconclusive`` (exit 3 or library verdict)."""
    if result["code"] == 3:
        return 1
    try:
        return int(json.loads(result["stdout"]).get("verdict") == "inconclusive")
    except (ValueError, AttributeError):
        return 0


def isolation_selfcheck(probe, runner, latencies) -> list:
    """Run an operation twice more in a row: no memo state may cross operations."""
    if probe is None:
        return ["isolation: no operation evaluated the oracle"]
    op, points = probe
    first = runner.run_forked(op, trace=True)
    second = runner.run_forked(op, trace=True)
    spread = percentile(latencies, 75) - percentile(latencies, 25)
    problems = []
    repeats = [points] + [r.get("layers", {}).get("extension.oracle_points") for r in (first, second)]
    if len(set(repeats)) != 1:
        problems.append(f"isolation: oracle points {repeats} differ between repeats of {op.label}")
    if abs(first["ms"] - second["ms"]) > max(spread, 0.25 * first["ms"]):
        problems.append(f"isolation: repeats of {op.label} took {first['ms']:.2f} and {second['ms']:.2f} ms")
    return problems


def write_spans(handle, op_id: int, traced: dict) -> None:
    """Append one operation's spans: [op id, name, start ms, end ms, parent index]."""
    spans = traced.get("spans", [])
    origin = spans[0][1] if spans else 0.0
    for name, start, end, parent in spans:
        handle.write(json.dumps([op_id, name, 1e3 * (start - origin), 1e3 * (end - origin), parent]) + "\n")


def report(args, env, metrics, quality, layers, setup, tally, passes, wall) -> None:
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    attempted, timed = tally.attempted, sum(map(len, tally.latencies.values()))
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, {tally.executions} "
          f"executions ({passes} complete passes), {wall:.1f} s wall, closed loop, 1 client")
    beyond = timed - int(0.9 * timed)
    notes = {
        "latency_ms_p50": f"n={timed} executions of {attempted} operations",
        "latency_ms_p90": f"n={timed}, {beyond} beyond p90",
        "ops_per_s": f"{timed} executions / summed op time",
        "setup_s": f"median of {len(setup)} fresh interpreters: {', '.join(f'{s:.3f}' for s in sorted(setup))}",
        "peak_rss_mb": f"max over {tally.executions} children",
    }
    for name, unit in END_TO_END:
        print(f"  {name:22s} {metrics[name]:12.4f} {unit:6s} ({notes[name]})")
    for name, unit in QUALITY:
        print(f"  {name:22s} {quality[name]:12.4f} {unit:6s} (of {attempted} attempted)")
    if tally.failures:
        print("  failures by operation: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.failures.items())))
        print("  known defects: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.known.items())))
    if layers is not None:
        print(f"per-layer (totals per pass, {passes} passes):")
        for name, value in sorted(layers.items()):
            print(f"  {name:34s} {value:14.4f}")
    for problem in tally.problems[:20]:
        print(f"PROBLEM: {problem}")


if __name__ == "__main__":
    sys.exit(main())
