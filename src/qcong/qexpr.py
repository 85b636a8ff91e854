"""A small expression language over the series primitives.

Grammar (whitespace insignificant, `^` binds tightest, then `*` `/`, then
`+` `-`, all left associative)::

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" ["-"] INT)*
    atom   := INT | "q" | "C" | "Ck" "[" INT "]" | "f" "[" INT "]"
            | "omega" "(" qarg ")" | "B" "(" qarg ")" | "f3" "(" qarg ")"
            | "pochinf" "[" SINT "," INT "," INT "]"
            | "pochfin" "[" SINT "," INT "," INT "," INT "]"
            | "D" "[" INT "," INT "]" "(" expr ")"
            | "(" expr ")"
    qarg   := ["-"] "q" ["^" INT]

`f[m]` is the product of (1 - q^(m*j)) over j >= 1, `C` and `Ck[k]` are the
two-color counting series, `omega`/`B`/`f3` accept an argument of the form
sign * q^power, and `D[m,r](...)` extracts the coefficients at exponents
m*n + r.  Division is literal series division: the denominator must have a
unit constant term.  Only integer literals exist; there are no rationals.

Every named atom but `D` is one row of `_ATOMS` (its source name, node class
and argument shape), which the parser, the printer and the parse errors
read, and one builder: in `_BUILDERS` when it is built from its fields, in
`_MOCK_THETA` when it takes a `qarg`.  A new atom is a node class, a row in
`_ATOMS` and a builder; nothing else changes.
"""

from __future__ import annotations

import operator
import re
from dataclasses import astuple, dataclass
from typing import Callable, Optional, Union

from .engine import series_c, series_ck
from .mock_theta import b_eulerian, f3_series, omega_series
from .products import pentagonal_series, pochhammer_fin, pochhammer_inf
from .series import (
    EXACT,
    CoefficientRing,
    Series,
    constant_series,
    dissect,
    invert,
    monomial,
    mul,
    power,
    substitute_power,
    truncate,
)


class ParseError(ValueError):
    """Syntax or bounds error, carrying the byte offset into the source."""

    def __init__(self, offset: int, message: str, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        if expected:
            message = f"{message}; expected one of: {', '.join(expected)}"
        super().__init__(f"offset {offset}: {message}")


# ----------------------------------------------------------------- nodes


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Q:
    pass


@dataclass(frozen=True)
class EtaF:
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("f[m] needs m >= 1")


@dataclass(frozen=True)
class PochInf:
    sign: int
    s: int
    m: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("pochhammer sign must be 1 or -1")
        if self.s < 1 or self.m < 1:
            raise ValueError("pochhammer needs s >= 1 and m >= 1")


@dataclass(frozen=True)
class PochFin:
    sign: int
    s: int
    m: int
    n: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("pochhammer sign must be 1 or -1")
        if self.s < 1 or self.m < 1 or self.n < 0:
            raise ValueError("pochhammer needs s >= 1, m >= 1, n >= 0")


@dataclass(frozen=True)
class _QArg:
    """A mock theta function at the argument sign * q^qpow; the dataclass
    equality compares classes, so Omega(1, 1) != BFun(1, 1)."""

    sign: int
    qpow: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("argument sign must be 1 or -1")
        if self.qpow < 1:
            raise ValueError("argument power must be >= 1")


class Omega(_QArg):
    pass


class BFun(_QArg):
    pass


class F3(_QArg):
    pass


@dataclass(frozen=True)
class CSeries:
    pass


@dataclass(frozen=True)
class CkSeries:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("Ck[k] needs k >= 1")


@dataclass(frozen=True)
class _Binary:
    left: "QExpr"
    right: "QExpr"


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Div(_Binary):
    pass


@dataclass(frozen=True)
class Pow:
    base: "QExpr"
    exponent: int


@dataclass(frozen=True)
class Dissect:
    m: int
    r: int
    child: "QExpr"

    def __post_init__(self):
        if self.m < 1 or not 0 <= self.r < self.m:
            raise ValueError(
                f"dissection needs 0 <= r < m, got m={self.m}, r={self.r}")


QExpr = Union[Num, Q, EtaF, PochInf, PochFin, Omega, BFun, F3, CSeries,
              CkSeries, Add, Sub, Mul, Div, Pow, Dissect]


# ------------------------------------------------------------- tokenizer


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([+\-*/^()\[\],]))")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            offset = len(src) - len(stripped)
            raise ParseError(offset, f"unexpected character {stripped[0]!r}")
        offset = match.start(match.lastindex)
        kind = ("int", "name", "sym")[match.lastindex - 1]
        tokens.append((kind, match.group(match.lastindex), offset))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


# {source name: (node class, argument shape)} for every named atom but D.
# A shape "[...]" lists the fields in brackets, each an INT or a SINT;
# "(qarg)" is one parenthesised sign * q^power.
_ATOMS = {
    "q": (Q, ""),
    "C": (CSeries, ""),
    "Ck": (CkSeries, "[int]"),
    "f": (EtaF, "[int]"),
    "f3": (F3, "(qarg)"),
    "omega": (Omega, "(qarg)"),
    "B": (BFun, "(qarg)"),
    "pochinf": (PochInf, "[sint,int,int]"),
    "pochfin": (PochFin, "[sint,int,int,int]"),
}
_ATOM_NAMES = {cls: (name, shape) for name, (cls, shape) in _ATOMS.items()}
_ATOM_EXPECTED = ("integer", *_ATOMS, "D", "(", "-")


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def match_sym(self, *symbols: str) -> str | None:
        kind, text, _ = self.peek()
        if kind == "sym" and text in symbols:
            self.pos += 1
            return text
        return None

    def expect_sym(self, symbol: str) -> None:
        kind, text, offset = self.peek()
        if kind != "sym" or text != symbol:
            raise ParseError(offset, f"got {text!r}" if text else "got end of input",
                             expected=(symbol,))
        self.pos += 1

    def expect_int(self) -> int:
        kind, text, offset = self.peek()
        if kind != "int":
            raise ParseError(offset, f"got {text!r}" if text else "got end of input",
                             expected=("integer",))
        self.pos += 1
        return int(text)

    def signed_int(self) -> int:
        negative = self.match_sym("-") is not None
        value = self.expect_int()
        return -value if negative else value

    def node(self, offset: int, ctor: Callable, *args) -> QExpr:
        # semantic bounds (dissection residue, argument signs, ...) live on
        # the node constructors; surface them with the source position
        try:
            return ctor(*args)
        except ValueError as exc:
            raise ParseError(offset, str(exc)) from None

    # precedence ladder

    def expr(self) -> QExpr:
        node = self.term()
        while True:
            op = self.match_sym("+", "-")
            if op is None:
                return node
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)

    def term(self) -> QExpr:
        node = self.factor()
        while True:
            op = self.match_sym("*", "/")
            if op is None:
                return node
            right = self.factor()
            node = Mul(node, right) if op == "*" else Div(node, right)

    def factor(self) -> QExpr:
        node = self.atom()
        while self.match_sym("^"):
            node = Pow(node, self.signed_int())
        return node

    def atom(self) -> QExpr:
        kind, text, offset = self.peek()
        if kind == "int":
            self.pos += 1
            return Num(int(text))
        if kind == "sym" and text == "-":
            self.pos += 1
            inner = self.factor()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Sub(Num(0), inner)
        if kind == "sym" and text == "(":
            self.pos += 1
            node = self.expr()
            self.expect_sym(")")
            return node
        if kind == "name":
            self.pos += 1
            return self.named_atom(text, offset)
        raise ParseError(offset, f"got {text!r}" if text else "got end of input",
                         expected=_ATOM_EXPECTED)

    def named_atom(self, name: str, offset: int) -> QExpr:
        if name in _ATOMS:
            ctor, shape = _ATOMS[name]
            args = []
            if shape == "(qarg)":
                self.expect_sym("(")
                args = self.qarg()
                self.expect_sym(")")
            elif shape:
                self.expect_sym("[")
                for i, kind in enumerate(shape[1:-1].split(",")):
                    if i:
                        self.expect_sym(",")
                    args.append(self.signed_int() if kind == "sint"
                                else self.expect_int())
                self.expect_sym("]")
            return self.node(offset, ctor, *args)
        if name == "D":
            self.expect_sym("[")
            m = self.expect_int()
            self.expect_sym(",")
            r = self.expect_int()
            self.expect_sym("]")
            self.expect_sym("(")
            child = self.expr()
            self.expect_sym(")")
            return self.node(offset, Dissect, m, r, child)
        raise ParseError(offset, f"unknown name {name!r}", expected=_ATOM_EXPECTED)

    def qarg(self) -> tuple[int, int]:
        sign = -1 if self.match_sym("-") else 1
        kind, text, offset = self.peek()
        if kind != "name" or text != "q":
            raise ParseError(offset, f"got {text!r}" if text else "got end of input",
                             expected=("q",))
        self.pos += 1
        qpow = self.expect_int() if self.match_sym("^") else 1
        return sign, qpow


def parse(src: str) -> QExpr:
    parser = _Parser(src)
    node = parser.expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ParseError(offset, f"trailing input starting at {text!r}",
                         expected=("end of input",))
    return node


# --------------------------------------------------------------- printer


_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4

# {binary node: (its operator in source, its precedence, its series operation)}
_BINARY = {Add: (" + ", _PREC_ADD, operator.add),
           Sub: (" - ", _PREC_ADD, operator.sub),
           Mul: ("*", _PREC_MUL, mul),
           Div: ("/", _PREC_MUL, lambda a, b: mul(a, invert(b)))}


def _source(e: QExpr, context: int) -> str:
    if isinstance(e, Num):
        mine, text = _PREC_ATOM, str(e.value)
    elif type(e) in _ATOM_NAMES:
        name, shape = _ATOM_NAMES[type(e)]
        if shape == "(qarg)":
            arg = "-q" if e.sign < 0 else "q"
            text = f"{name}({arg})" if e.qpow == 1 else f"{name}({arg}^{e.qpow})"
        else:
            text = f"{name}[{','.join(map(str, astuple(e)))}]" if shape else name
        mine = _PREC_ATOM
    elif isinstance(e, Dissect):
        mine, text = _PREC_ATOM, f"D[{e.m},{e.r}]({_source(e.child, 0)})"
    elif isinstance(e, Pow):
        base = _source(e.base, _PREC_POW)
        if isinstance(e.base, Num) and e.base.value < 0:
            base = f"({base})"
        mine, text = _PREC_POW, f"{base}^{e.exponent}"
    elif isinstance(e, _Binary):
        op, mine, _ = _BINARY[type(e)]
        text = f"{_source(e.left, mine)}{op}{_source(e.right, mine + 1)}"
    else:
        raise TypeError(f"not a QExpr node: {e!r}")
    return f"({text})" if mine < context else text


def to_source(e: QExpr) -> str:
    """Canonical text form; parse(to_source(e)) reproduces e exactly."""
    return _source(e, 0)


# ------------------------------------------------------------- evaluator


# the leaves built from their fields: builder(*fields, order, ring)
_BUILDERS = {Num: lambda value, order, ring: constant_series(ring, order, value),
             Q: lambda order, ring: monomial(ring, order, 1),
             EtaF: pentagonal_series, PochInf: pochhammer_inf,
             PochFin: pochhammer_fin, CSeries: series_c, CkSeries: series_ck}
# omega, B and f3 at argument q; at sign * q^k evaluate substitutes into it
_MOCK_THETA = {Omega: omega_series, BFun: b_eulerian, F3: f3_series}


def _child(e: QExpr, order: int) -> Optional[tuple[QExpr, int]]:
    """The (node, order) `evaluate` reads for a dissection, or for omega, B
    or f3 at an argument other than q; None for any other node."""
    if isinstance(e, Dissect):  # so the result keeps full length
        return e.child, e.m * (order - 1) + e.r + 1
    if isinstance(e, _QArg) and (e.sign, e.qpow) != (1, 1):
        # at argument q, long enough that the substituted series covers order
        return type(e)(1, 1), (order + e.qpow - 2) // e.qpow + 1
    return None


def reads(e: QExpr, order: int) -> dict:
    """{leaf: the most coefficients `evaluate(e, order)` reads of it}, by the
    rule evaluate applies (`_child`). A leaf reads no other node: a number,
    q, f[m], a Pochhammer product, C, Ck[k], or omega, B or f3 at q."""
    out: dict = {}
    stack = [(e, order)]
    while stack:
        node, n = stack.pop()
        child = _child(node, n)
        if child is not None:
            stack.append(child)
        elif isinstance(node, _Binary):
            stack += [(node.left, n), (node.right, n)]
        elif isinstance(node, Pow):
            stack.append((node.base, n))
        else:
            out[node] = max(out.get(node, 0), n)
    return out


def evaluate(e: QExpr, order: int, ring: CoefficientRing = EXACT,
             memo: Optional[dict] = None) -> Series:
    """Evaluate bottom-up with every node truncated to `order`.

    A dissection, or omega, B or f3 at an argument other than q, reads its
    child at the order `reads` reports; division and negative powers
    require the denominator to be a unit and raise NonUnitError otherwise.

    `memo` maps nodes to series already computed in `ring`; one memo serves
    one ring. A node found there with at least `order` coefficients is
    reused, truncated; any other node is computed and stored. omega, B and
    f3 at any argument read their argument-q node through the memo, so a
    caller can seed it (say `BFun(1, 1)` or `CSeries()`) with shared series.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if memo is None:
        return _evaluate(e, order, ring, None)
    hit = memo.get(e)
    if hit is not None and hit.order >= order:
        return truncate(hit, order)
    out = memo[e] = _evaluate(e, order, ring, memo)
    return out


def _evaluate(e: QExpr, order: int, ring: CoefficientRing,
              memo: Optional[dict]) -> Series:
    if type(e) in _BUILDERS:
        return _BUILDERS[type(e)](*astuple(e), order, ring)
    child = _child(e, order)
    if isinstance(e, _QArg):
        if child is None:
            return _MOCK_THETA[type(e)](order, ring)
        base = evaluate(*child, ring, memo)
        return truncate(substitute_power(base, e.qpow, e.sign), order)
    if isinstance(e, Pow):
        return power(evaluate(e.base, order, ring, memo), e.exponent)
    if isinstance(e, Dissect):
        return dissect(evaluate(*child, ring, memo), e.m, e.r)
    if not isinstance(e, _Binary):
        raise TypeError(f"not a QExpr node: {e!r}")
    _, _, operation = _BINARY[type(e)]
    return operation(evaluate(e.left, order, ring, memo),
                     evaluate(e.right, order, ring, memo))
