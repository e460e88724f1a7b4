"""A small expression language for functions of z and conj(z).

Grammar (whitespace insignificant):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' exponent)?          # right-associative
    exponent:= '-' exponent | power
    atom    := number | 'z' | 'zbar' | 'i' | name '(' expr ')' | '(' expr ')'

Numbers are decimal literals with an optional exponent ('1e-07', '2.5E3')
and an optional trailing 'i' (imaginary unit); a literal that overflows a
float is a parse error.  'zbar' abbreviates conj(z).  '^' binds tighter
than unary minus, so -z^2 is -(z^2).  Functions: conj, abs, re, im, exp,
sin, cos, log, sqrt (principal branches); abs/re/im return real values.

Parse errors carry the byte offset of the offending position.  Evaluation is
one numpy walk of the AST that takes a single point or an array of points.
A point where a subexpression is undefined (division by zero, log 0,
overflow) raises :class:`~morera.errors.EvalError` carrying the point; in an
array it becomes NaN, which the sampling layer reports with its circle and
angle.
"""

from __future__ import annotations

import re as _re
from typing import Iterator, Union

import numpy as np

from ._record import Record
from .errors import EvalError, ParseError

# Dispatch tables of the evaluator; abs/re/im are real-valued, and their
# results are cast back to complex at once (so sqrt(-re(z)) stays on the
# principal branch instead of becoming a real NaN).
_CALLS = {
    "conj": np.conjugate,
    "abs": np.abs,
    "re": np.real,
    "im": np.imag,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "log": np.log,
    "sqrt": np.sqrt,
}
_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
FUNCTIONS = tuple(_CALLS)

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?P<imag>i\b)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\+|-|\*|/|\(|\)))"
)


class Num(Record):
    """A complex literal."""

    value: complex


class Var(Record):
    """The variable z."""

    name: str  # always "z"


class Unary(Record):
    """Negation of an operand."""

    op: str  # "-"
    operand: "Expr"


class BinOp(Record):
    """A binary operation on two operands."""

    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


class Call(Record):
    """A named function applied to one argument."""

    func: str
    arg: "Expr"


Expr = Union[Num, Var, Unary, BinOp, Call]


class _Token(Record):
    """One token of the source text, at character ``offset``."""

    kind: str  # number | name | op | end
    text: str
    offset: int
    value: complex = 0j


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            offset = n - len(stripped)
            raise ParseError(offset, f"a token (found {stripped[0]!r})")
        if m.group("number") is not None:
            mag = float(m.group("number"))
            if np.isinf(mag):
                raise ParseError(m.start("number"), f"a finite number (found {m.group('number')!r})")
            value = complex(0.0, mag) if m.group("imag") else complex(mag, 0.0)
            tokens.append(_Token("number", m.group(0).strip(), m.start("number"), value))
        elif m.group("name") is not None:
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.current
        if tok.kind != "op" or tok.text != text:
            raise ParseError(tok.offset, f"'{text}'")
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        if self.current.kind == "op" and self.current.text == "-":
            self.advance()
            return Unary("-", self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.current.kind == "op" and self.current.text == "^":
            self.advance()
            return BinOp("^", base, self.parse_exponent())
        return base

    def parse_exponent(self) -> Expr:
        # Exponents admit a leading sign: z^-2 is z^(-2); '^' stays
        # right-associative: a^b^c is a^(b^c).
        if self.current.kind == "op" and self.current.text == "-":
            self.advance()
            return Unary("-", self.parse_exponent())
        return self.parse_power()

    def parse_atom(self) -> Expr:
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return Num(tok.value)
        if tok.kind == "name":
            self.advance()
            if tok.text == "z":
                return Var("z")
            if tok.text == "zbar":
                return Call("conj", Var("z"))
            if tok.text == "i":
                return Num(1j)
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            raise ParseError(tok.offset, f"z, zbar, i, a number, or one of {', '.join(FUNCTIONS)}")
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(tok.offset, "a number, variable, function call, or '('")


def parse(source: str) -> Expr:
    """Parse expression text into an AST; raises positioned :class:`ParseError`."""
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    tok = parser.current
    if tok.kind != "end":
        raise ParseError(tok.offset, "end of input or an operator")
    return node


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PRECEDENCE = 3


def _format_number(value: complex) -> str:
    if value == 1j:
        return "i"
    if value.imag == 0.0:
        text, suffix = repr(value.real), ""
    else:
        text, suffix = repr(value.imag), "i"
    if text.endswith(".0"):
        text = text[:-2]
    return text + suffix


def to_source(node: Expr, parent_prec: int = 0) -> str:
    """Canonical text for an AST; parse(to_source(e)) reproduces e."""
    if isinstance(node, Num):
        return _format_number(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    if isinstance(node, Unary):
        inner = to_source(node.operand, _UNARY_PRECEDENCE)
        text = f"-{inner}"
        return f"({text})" if parent_prec > _UNARY_PRECEDENCE else text
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        if node.op == "^":
            # right-associative; also parenthesize unary/binary bases
            left = to_source(node.left, prec + 1)
            right = to_source(node.right, prec)
        else:
            left = to_source(node.left, prec)
            right = to_source(node.right, prec + 1)
        text = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not an expression node: {node!r}")


def _is_integer(value: complex) -> bool:
    return value.imag == 0.0 and float(value.real).is_integer()


def nodes(node: Expr) -> Iterator[Expr]:
    """Every node of the AST, each parent before its children and left before right."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, BinOp):
            stack += (n.right, n.left)
        elif isinstance(n, Unary):
            stack.append(n.operand)
        elif isinstance(n, Call):
            stack.append(n.arg)


def noninteger_power_warnings(node: Expr) -> list[str]:
    """Warnings for '^' with a non-integer exponent (principal branch in use)."""
    warnings = []

    def literal(n: Expr):
        if isinstance(n, Num):
            return n.value
        if isinstance(n, Unary) and n.op == "-":
            inner = literal(n.operand)
            return None if inner is None else -inner
        return None

    for n in nodes(node):
        if isinstance(n, BinOp) and n.op == "^":
            value = literal(n.right)
            if value is None or not _is_integer(value):
                warnings.append(
                    f"power '{to_source(n)}' has a non-integer exponent; the principal "
                    "branch is used and continuity on the disc is not guaranteed"
                )
    return warnings


def evaluate(node: Expr, z):
    """Evaluate an AST at a point or elementwise on an array of points.

    A point returns a ``complex`` and raises :class:`EvalError` where the
    expression is undefined; an array returns a complex array of the same
    shape with NaN at its undefined points.  A point is undefined when any
    subexpression is non-finite there (division by zero, log 0, overflow),
    even if a later operation would absorb it, as in (1/0)^0.
    """
    points = np.asarray(z, dtype=complex)
    finite = np.array(np.isfinite(points))  # an array even for a point, updated in place

    def ev(n: Expr):
        if isinstance(n, Var):
            return points
        if isinstance(n, Num):
            value = n.value
        elif isinstance(n, Unary):
            value = np.negative(ev(n.operand))
        elif isinstance(n, Call):
            value = np.asarray(_CALLS[n.func](ev(n.arg)), dtype=complex)
        elif isinstance(n, BinOp):
            value = _BINOPS[n.op](ev(n.left), ev(n.right))
        else:
            raise TypeError(f"not an expression node: {n!r}")
        ok = np.isfinite(value)
        if not ok.all():  # constants and most subexpressions are finite everywhere
            np.logical_and(finite, ok, out=finite)
        return value

    with np.errstate(all="ignore"):
        value = ev(node)
    if points.ndim == 0:
        if not finite:
            raise EvalError(f"expression undefined (non-finite) at z = {complex(points)}", z=complex(points))
        return complex(value)
    return np.where(finite, value, complex(np.nan, np.nan))


def compile_function(node: Expr):
    """Oracle f(z) from an AST, taking a point or an array like :func:`evaluate`."""

    def oracle(z):
        return evaluate(node, z)

    return oracle
