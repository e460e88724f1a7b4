import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morera.errors import EvalError, ParseError
from morera.exprparser import (
    BinOp,
    Call,
    Num,
    Unary,
    Var,
    _is_integer,
    compile_function,
    evaluate,
    noninteger_power_warnings,
    parse,
    to_source,
)

MALFORMED = [
    "z +* 2",
    "z +",
    "(z",
    "z)",
    "conj(z",
    "conj z",
    "2 **",
    "sin()",
    "",
    "@",
    "z z",
    "1..2",
    "foo(z)",
    "z ^",
    "exp(z,z)",
    "3i4",
    ")z(",
    "z / ",
    "zbar(",
    "--",
]

VALID = [
    "z",
    "zbar",
    "i",
    "-z",
    "z + 1",
    "z - 1",
    "2*z",
    "z/2",
    "z^2",
    "z^-2",
    "z^2^3",
    "-z^2",
    "z^2 / conj(z)",
    "exp(z) + 3.5i",
    "sin(z)*cos(z)",
    "log(z + 2)",
    "sqrt(z + 4)",
    "abs(z)",
    "re(z) + im(z)*i",
    "conj(z)^3",
    "(z + 1)*(z - 1)",
    "z*(1 - z)",
    "1/(z - 2)",
    "0.5*z^3 - 2.25",
    ".5 + z",
    "2.*z",
    "z - -1",
    "-(z + i)",
    "z^2*zbar",
    "((z))",
    "1 + 2 - 3 + z",
    "2/3/z",
    "z*i - i*z",
    "exp(-z^2)",
    "conj(conj(z))",
    "im(conj(z))",
    "re(z^2)",
    "abs(z - 0.5)",
    "z^3 - 2",
    "3.25i",
    "z/ (z - 1.5)",
    "cos(0.5*z)",
    "sin(z + i)",
    "z^2 - zbar^2",
    "z - 1.0",
    "sqrt(abs(z))",
    "z*z*z",
    "-1.5i + z",
    "(z^2)^3",
    "z^(2 + 1)",
]


class TestParse:
    def test_counterexample_ast(self):
        node = parse("z^2 / conj(z)")
        assert node == BinOp("/", BinOp("^", Var("z"), Num(2.0)), Call("conj", Var("z")))

    def test_imaginary_literal(self):
        node = parse("exp(z) + 3.5i")
        assert node == BinOp("+", Call("exp", Var("z")), Num(3.5j))

    def test_error_offset_example(self):
        with pytest.raises(ParseError) as err:
            parse("z +* 2")
        assert err.value.offset == 3

    def test_zbar_is_conj(self):
        assert parse("zbar") == Call("conj", Var("z"))

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_inputs_have_positions(self, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert 0 <= err.value.offset <= len(text)
        assert err.value.expected

    def test_truncated_prefixes_of_valid_expression(self):
        text = "exp(z) + 3.5i*conj(z)"
        for cut in range(1, len(text)):
            prefix = text[:cut]
            try:
                parse(prefix)
            except ParseError as err:
                assert 0 <= err.offset <= len(prefix)

    @pytest.mark.parametrize("text", VALID)
    def test_roundtrip_is_stable(self, text):
        first = parse(text)
        printed = to_source(first)
        assert parse(printed) == first

    def test_precedence(self):
        assert evaluate(parse("2^3^2"), 0.0) == 512  # right-associative
        assert evaluate(parse("-2^2"), 0.0) == -4  # ^ binds tighter than unary -
        assert evaluate(parse("2*3 + 4"), 0.0) == 10
        assert evaluate(parse("2 + 3*4"), 0.0) == 14
        assert evaluate(parse("z^-1"), 2.0) == 0.5
        assert evaluate(parse("2^-2"), 0.0) == 0.25


class TestEvaluate:
    def test_counterexample_on_reals(self):
        assert evaluate(parse("z^2/conj(z)"), 0.6) == pytest.approx(0.6)

    def test_conj(self):
        assert evaluate(parse("conj(z)"), 1j) == -1j

    def test_division_by_zero(self):
        with pytest.raises(EvalError) as err:
            evaluate(parse("z/ (z - z)"), 2.0 + 1.0j)
        assert err.value.z == 2.0 + 1.0j

    def test_log_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse("log(z)"), 0.0)

    def test_real_valued_helpers_return_real_complex(self):
        for text, expected in [("abs(z)", 5.0), ("re(z)", 3.0), ("im(z)", -4.0)]:
            value = evaluate(parse(text), 3.0 - 4.0j)
            assert value == complex(expected, 0.0)

    def test_principal_branches(self):
        assert evaluate(parse("sqrt(z)"), -1.0 + 0.0j) == pytest.approx(1j)
        assert evaluate(parse("log(z)"), -1.0 + 0.0j) == pytest.approx(1j * cmath.pi)

    def test_matches_hand_coded_oracles(self):
        cases = [
            ("z^3 - 2", lambda z: z**3 - 2),
            ("exp(z)", cmath.exp),
            ("1/(z - 2)", lambda z: 1 / (z - 2)),
            ("z^2/conj(z)", lambda z: z**2 / z.conjugate()),
            ("conj(z)", lambda z: z.conjugate()),
            ("abs(z)^2", lambda z: complex(abs(z) ** 2)),
            ("sin(z)*cos(z)", lambda z: cmath.sin(z) * cmath.cos(z)),
            ("log(z + 2)", lambda z: cmath.log(z + 2)),
            ("sqrt(z + 4)", lambda z: cmath.sqrt(z + 4)),
            ("-z^2 + 3.5i*z", lambda z: -(z**2) + 3.5j * z),
        ]
        rng = np.random.default_rng(17)
        points = [complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)) for _ in range(100)]
        for text, oracle in cases:
            node = parse(text)
            f = compile_function(node)
            for z in points:
                if abs(z) < 1e-3:
                    continue
                assert abs(f(z) - oracle(z)) <= 1e-14 * max(1.0, abs(oracle(z)))

    def test_noninteger_power_warning(self):
        assert noninteger_power_warnings(parse("z^2 + z^3")) == []
        warnings = noninteger_power_warnings(parse("z^0.5"))
        assert len(warnings) == 1 and "principal" in warnings[0]
        assert len(noninteger_power_warnings(parse("z^z"))) == 1
        assert noninteger_power_warnings(parse("z^-3")) == []


# --- Hypothesis: random parser-producible ASTs round-trip through printing ---

_literals = st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.25, 10.0, 0.125])
_leaf = st.one_of(
    st.just(Var("z")),
    st.builds(lambda v: Num(complex(v, 0.0)), _literals),
    st.builds(lambda v: Num(complex(0.0, v)), _literals.filter(lambda v: v != 0.0)),
    st.just(Num(1j)),
)


def _exponents():
    ints = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0])
    return st.builds(lambda v: Num(complex(v, 0.0)), ints)


_expr = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.builds(Unary, st.just("-"), children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(BinOp, st.just("^"), children, _exponents()),
        st.builds(Call, st.sampled_from(["conj", "abs", "re", "im", "exp", "sin", "cos"]), children),
    ),
    max_leaves=24,
)


@given(_expr)
@settings(max_examples=300, deadline=None)
def test_print_parse_roundtrip(node):
    assert parse(to_source(node)) == node


# --- Hypothesis: the numpy evaluator against a cmath reference ---


def _reference_evaluate(node, z: complex) -> complex:
    """Point-by-point cmath evaluation: the reference for :func:`evaluate`."""
    z = complex(z)

    def ev(n) -> complex:
        if isinstance(n, Num):
            return n.value
        if isinstance(n, Var):
            return z
        if isinstance(n, Unary):
            return -ev(n.operand)
        if isinstance(n, Call):
            v = ev(n.arg)
            if n.func == "conj":
                return v.conjugate()
            if n.func == "abs":
                return complex(abs(v))
            if n.func == "re":
                return complex(v.real)
            if n.func == "im":
                return complex(v.imag)
            try:
                return getattr(cmath, n.func)(v)
            except (ValueError, OverflowError) as exc:
                raise EvalError(f"{n.func}({v}) undefined at z = {z}: {exc}", z=z) from None
        if isinstance(n, BinOp):
            a = ev(n.left)
            b = ev(n.right)
            try:
                if n.op == "+":
                    return a + b
                if n.op == "-":
                    return a - b
                if n.op == "*":
                    return a * b
                if n.op == "/":
                    return a / b
                if _is_integer(b):
                    return a ** int(b.real)
                return a**b
            except (ZeroDivisionError, ValueError, OverflowError) as exc:
                raise EvalError(f"arithmetic error at z = {z}: {exc}", z=z) from None
        raise TypeError(f"not an expression node: {n!r}")

    result = ev(node)
    if not cmath.isfinite(result):
        raise EvalError(f"non-finite value {result} at z = {z}", z=z)
    return result


def _defined(evaluator, node, z):
    try:
        return evaluator(node, z)
    except EvalError:
        return None


# Points inside the unit disc, plus the center and a point on the real axis.
_rng = np.random.default_rng(31)
_POINTS = np.concatenate(
    [[0.0, 0.5], np.sqrt(_rng.uniform(0, 0.98, 62)) * np.exp(2j * np.pi * _rng.uniform(0, 1, 62))]
)
_LARGE = 1e12


@given(_expr)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_vectorized_evaluation_matches_reference(node):
    array = evaluate(node, _POINTS)
    assert array.shape == _POINTS.shape
    for z, element in zip(_POINTS, array):
        point = _defined(evaluate, node, complex(z))
        if point is None:
            assert not np.isfinite(element)
        else:
            assert point == element
        reference = _defined(_reference_evaluate, node, complex(z))
        if reference is None or point is None:
            other = reference if point is None else point
            assert other is None or abs(other) > _LARGE, (to_source(node), z)
        elif abs(reference) < _LARGE:
            assert abs(point - reference) <= 1e-10 * max(1.0, abs(reference)), (to_source(node), z)


class TestUndefinedPoints:
    def test_real_helpers_stay_complex(self):
        node = parse("sqrt(-re(z))")
        assert evaluate(node, 0.25) == -0.5j
        assert evaluate(node, np.array([0.25]))[0] == -0.5j

    def test_absorbed_nonfinite_value_is_undefined(self):
        node = parse("(1/(z - z))^0")
        with pytest.raises(EvalError) as err:
            evaluate(node, 0.3)
        assert err.value.z == 0.3
        values = evaluate(node, np.array([0.3, -0.1j]))
        assert np.isnan(values).all()

    def test_array_marks_only_undefined_points(self):
        values = compile_function(parse("1/(z - 0.5)"))(np.array([0.5, 0.0, 1.5]))
        assert np.isnan(values[0])
        assert list(values[1:]) == [-2.0, 1.0]
