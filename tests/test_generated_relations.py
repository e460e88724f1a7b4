"""Relations of the verdict over generated expressions, needing no closed form.

Expressions are drawn from the grammar of ``exprparser`` to depth 3: sums,
differences and products, integer powers 2 to 4, exp, sin and cos, of z and
complex literals, with ``zbar`` among the leaves in some draws.  Each draw is
checked against three relations:

- truth by construction: a draw without ``zbar`` is entire, so it is never
  ``morera-failure`` or ``inconsistent``;
- rotation and reflection, as in ``tests/test_relations.py``: f(z rot) at
  the pencil point p, rot = -conj(p), has the class of f at -1, and
  conj(f(conj z)) at conj(p) has the class of f at p;
- ``verdict --expr TEXT`` prints the report the library gives for the oracle
  compiled from TEXT, under the configuration the command line builds.

The draws are derandomized (``tests/conftest.py``), so every run checks the
same expressions.  A draw that breaks a relation gets fixed parameters and
a strict xfail naming its ROADMAP item; no relation is loosened.
"""

import cmath
import functools
import io
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from morera import cli
from morera.analysis import (
    CLASS_INCONSISTENT,
    CLASS_MORERA_FAILURE,
    PipelineConfig,
    dumps_report,
    report_document,
    verdict,
)
from morera.exprparser import compile_function, noninteger_power_warnings, parse, to_source

LITERALS = ["2", "3", "0.5", "i", "0.5i", "(1-2i)", "(0.3+0.7i)"]
PER_EXAMPLE = settings(max_examples=60, deadline=timedelta(seconds=5))


def expressions(zbar: bool, depth: int = 3) -> st.SearchStrategy[str]:
    """Expression text of at most ``depth`` nested operations, with ``zbar`` a leaf if asked."""
    leaves = st.sampled_from(["z"] * 4 + LITERALS + (["zbar"] * 2 if zbar else []))
    if depth == 0:
        return leaves
    sub = expressions(zbar, depth - 1)
    return st.one_of(
        leaves,
        st.tuples(sub, st.sampled_from("+-*"), sub).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(sub, st.integers(2, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(["exp", "sin", "cos"]), sub).map(lambda t: f"{t[0]}({t[1]})"),
    )


# Not every draw meets a zbar leaf, so these hold entire draws too.
MIXED = expressions(zbar=True)


@functools.lru_cache(maxsize=None)
def classification(text: str, transform: str, p: complex) -> str:
    """The verdict class of ``text`` at the pencil point ``p``, rotated by
    -conj(``p``), reflected, or as given (``transform``)."""
    f = compile_function(parse(text))
    if transform == "rotated":
        rot = -p.conjugate()
        g = lambda z: f(np.asarray(z, dtype=complex) * rot)
    elif transform == "reflected":
        g = lambda z: np.conj(f(np.conj(np.asarray(z, dtype=complex))))
    else:
        g = f
    return verdict(g, PipelineConfig(p=p)).classification


@PER_EXAMPLE
@given(expressions(zbar=False))
def test_entire_expression_is_not_a_failure(text):
    assert classification(text, "given", -1 + 0j) not in (CLASS_MORERA_FAILURE, CLASS_INCONSISTENT)


@PER_EXAMPLE
@given(MIXED)
def test_rotation(text):
    p = cmath.exp(2.1j)
    assert classification(text, "rotated", p) == classification(text, "given", -1 + 0j)


@PER_EXAMPLE
@given(MIXED)
def test_reflection(text):
    assert classification(text, "reflected", -1j) == classification(text, "given", 1j)


@PER_EXAMPLE
@given(MIXED)
def test_cli_prints_the_library_report(text):
    argv = ["verdict", "--expr", text]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        cli.main(argv)
    config = cli._pipeline_config(cli.parse_args(argv))
    node = parse(text)
    result = verdict(compile_function(node), config)
    desc = {"source": "expr", "text": to_source(node)}
    assert out.getvalue() == dumps_report(report_document(result, config, desc, noninteger_power_warnings(node)))
