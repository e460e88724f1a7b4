"""Run one operation in a child forked from an already-imported parent.

The parent imports ``morera.cli`` once and never runs program code, so every
child starts in the state a fresh CLI process has just after import: the
module-level memo caches are empty, whatever caches the program has.  The
child times only the operation itself, captures stdout and stderr, and sends
its result back through a pipe; the parent reads the child's peak RSS from
``wait4``.  Fork and pipe costs fall outside the timed region.
"""

from __future__ import annotations

import io
import json
import os
import signal
import sys
import traceback
from time import perf_counter

import numpy as np

from morera import analysis, cli, exprparser, fiber, funczoo

import tracing

OP_TIMEOUT_S = 60


def _execute(op) -> dict:
    """Run ``op`` in this process; the returned dict is JSON-serializable."""
    out, err = io.StringIO(), io.StringIO()
    result = {"code": None, "error": None, "value": None, "file": None}
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = perf_counter()
    try:
        if op.kind == "cli":
            result["code"] = cli.main(list(op.argv))
        elif op.kind == "lib-verdict":
            c = op.lib["c"]
            verdict = analysis.verdict(lambda z: np.exp(c * z))
            sys.stdout.write(json.dumps(verdict.to_dict(), sort_keys=True))
        else:
            if "builtin" in op.lib:
                f = funczoo.builtin(op.lib["builtin"]).oracle
            else:
                f = exprparser.compile_function(exprparser.parse(op.lib["expr"]))
            nodes = op.lib.get("nodes", fiber.DEFAULT_NODES)
            value = fiber.fiber_integral(f, complex(*op.lib["z"]), nodes)
            result["value"] = [value.real, value.imag]
            sys.stdout.write(repr(value))
    except SystemExit as exc:
        result["code"] = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
        err.write(traceback.format_exc())
    finally:
        elapsed = perf_counter() - start
        sys.stdout, sys.stderr = saved
    result["ms"] = 1e3 * elapsed
    result["stdout"] = out.getvalue()
    result["stderr"] = err.getvalue()
    if op.output_file and os.path.exists(op.output_file):
        with open(op.output_file) as handle:
            result["file"] = handle.read()
        os.unlink(op.output_file)
    return result


def run_forked(op, trace: bool) -> dict:
    """Run ``op`` in a forked child; adds ``peak_rss_mb`` (and spans if traced)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 0
        try:
            # A hung operation is killed (SIGALRM) and counted as failed.
            signal.alarm(OP_TIMEOUT_S)
            os.close(read_fd)
            recorder = None
            if trace:
                recorder = tracing.Recorder()
                tracing.install(recorder)
            result = _execute(op)
            if recorder is not None:
                result["layers"] = tracing.layer_metrics(recorder.spans, recorder.counters)
                result["spans"] = [[s[0], s[1], s[2], s[3]] for s in recorder.spans]
            data = json.dumps(result).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        except BaseException:
            traceback.print_exc()
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        result = {"code": None, "error": f"child died (wait status {status})", "ms": float("nan"),
                  "stdout": "", "stderr": "", "value": None, "file": None}
    else:
        result = json.loads(data)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result
