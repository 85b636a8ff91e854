"""A small expression language over the series primitives.

Grammar (whitespace insignificant, `^` binds tightest, then `*` `/`, then
`+` `-`, all left associative)::

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" ["-"] INT)*
    atom   := INT | "q" | "C" | ("Ck" | "f" | "appell") "[" INT "]"
            | "omega" "(" qarg ")" | "B" "(" qarg ")" | "f3" "(" qarg ")"
            | "pochinf" "[" SINT "," INT "," INT "]"
            | "pochfin" "[" SINT "," INT "," INT "," INT "]"
            | "D" "[" INT "," INT "]" "(" expr ")"
            | "(" expr ")"
    qarg   := ["-"] "q" ["^" INT]

`f[m]` is the product of (1 - q^(m*j)) over j >= 1, `C` and `Ck[k]` are the
two-color counting series, `appell[a]` is the Appell-Lerch sum
`mock_theta.appell_sum(a)`, `omega`/`B`/`f3` accept an argument of the form
sign * q^power, and `D[m,r](e)` (m >= 1, any r >= 0) is the sum over n of
e[m*n + r] * q^n.  Division is literal series division: the denominator
must have a unit constant term.  Only integer literals exist.

Every named atom, `D` included, is one row of `_ATOMS` (its source name,
node class and argument shape), and every operator one row of `_BINARY`;
the parser, the printer and the parse errors read both.  `_children` is the
one rule for the nodes a node is evaluated from, which `evaluate` and
`reads` both follow; a node without children is a leaf, built by its row in
`_BUILDERS`.  A new leaf atom is a node class, a row in `_ATOMS` and a
builder; nothing else changes.
"""

from __future__ import annotations

import operator
import re
from dataclasses import astuple, dataclass, fields
from functools import lru_cache
from typing import Optional, Union

from .mock_theta import (appell_sum, b_eulerian, f3_series, omega_series,
                         series_c, series_ck)
from .products import pentagonal_series, pochhammer_fin, pochhammer_inf
from .series import (
    EXACT,
    CoefficientRing,
    Series,
    dissect,
    monomial,
    mul,
    power,
    substitute_power,
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
class Appell:
    a: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("appell[a] needs a >= 1")


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
        if self.m < 1 or self.r < 0:
            raise ValueError(
                f"dissection needs m >= 1 and r >= 0, got m={self.m}, r={self.r}")


QExpr = Union[Num, Q, EtaF, Appell, PochInf, PochFin, Omega, BFun, F3,
              CSeries, CkSeries, Add, Sub, Mul, Div, Pow, Dissect]


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


# {source name: (node class, argument shape)} for every named atom, the shape
# split into pieces once, here: "int", "sint" (a signed INT), "qarg" (two
# fields) and "expr" stand for the node's fields in order, and every other
# piece is a symbol that must follow the name in the source.
_ATOMS = {name: (cls, re.findall(r"[a-z]+|\S", shape)) for name, (cls, shape) in {
    "q": (Q, ""),
    "C": (CSeries, ""),
    "Ck": (CkSeries, "[int]"),
    "f": (EtaF, "[int]"),
    "appell": (Appell, "[int]"),
    "f3": (F3, "(qarg)"),
    "omega": (Omega, "(qarg)"),
    "B": (BFun, "(qarg)"),
    "pochinf": (PochInf, "[sint,int,int]"),
    "pochfin": (PochFin, "[sint,int,int,int]"),
    "D": (Dissect, "[int,int](expr)"),
}.items()}
_ATOM_NAMES = {cls: (name, pieces) for name, (cls, pieces) in _ATOMS.items()}
_ATOM_EXPECTED = ("integer", *_ATOMS, "(", "-")

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4

# {binary node: (its operator in source, its precedence, its series operation)}
_BINARY = {Add: (" + ", _PREC_ADD, operator.add),
           Sub: (" - ", _PREC_ADD, operator.sub),
           Mul: ("*", _PREC_MUL, mul),
           Div: ("/", _PREC_MUL, mul)}
# {precedence: {operator symbol: binary node}}, the parser's view of _BINARY
_LEVELS = {prec: {sym.strip(): node for node, (sym, p, _) in _BINARY.items() if p == prec}
           for _, prec, _ in _BINARY.values()}


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        # the methods that read the single fields an atom's shape names
        self.readers = {"int": self.expect_int, "sint": self.signed_int, "expr": self.expr}

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
        sign = -1 if self.match_sym("-") else 1
        return sign * self.expect_int()

    def expr(self, prec: int = min(_LEVELS)) -> QExpr:
        """The operators of precedence `prec` or tighter, left associative."""
        if prec not in _LEVELS:
            return self.factor()
        ops, node = _LEVELS[prec], self.expr(prec + 1)
        while (token := self.peek())[0] == "sym" and token[1] in ops:
            self.pos += 1
            node = ops[token[1]](node, self.expr(prec + 1))
        return node

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
        if name not in _ATOMS:
            raise ParseError(offset, f"unknown name {name!r}", expected=_ATOM_EXPECTED)
        ctor, pieces = _ATOMS[name]
        args = []
        for piece in pieces:
            if piece == "qarg":
                args += self.qarg()
            elif piece in self.readers:
                args.append(self.readers[piece]())
            else:
                self.expect_sym(piece)
        # semantic bounds (dissection residue, argument signs, ...) live on
        # the node constructors; surface them with the source position
        try:
            return ctor(*args)
        except ValueError as exc:
            raise ParseError(offset, str(exc)) from None

    def qarg(self) -> tuple[int, int]:
        sign = -1 if self.match_sym("-") else 1
        kind, text, offset = self.peek()
        if kind != "name" or text != "q":
            raise ParseError(offset, f"got {text!r}" if text else "got end of input",
                             expected=("q",))
        self.pos += 1
        qpow = self.expect_int() if self.match_sym("^") else 1
        return sign, qpow


@lru_cache(maxsize=256)
def parse(src: str) -> QExpr:
    """The tree of `src`, parsed once per source: trees are immutable."""
    parser = _Parser(src)
    node = parser.expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ParseError(offset, f"trailing input starting at {text!r}",
                         expected=("end of input",))
    return node


# --------------------------------------------------------------- printer


def _source(e: QExpr, context: int) -> str:
    if isinstance(e, Num):
        mine, text = _PREC_ATOM, str(e.value)
    elif type(e) in _ATOM_NAMES:
        name, pieces = _ATOM_NAMES[type(e)]
        values = (getattr(e, f.name) for f in fields(e))
        mine, text = _PREC_ATOM, name
        for piece in pieces:
            if piece == "qarg":
                sign, qpow = next(values), next(values)
                text += ("-q" if sign < 0 else "q") + ("" if qpow == 1 else f"^{qpow}")
            elif piece == "expr":
                text += _source(next(values), 0)
            else:
                text += str(next(values)) if piece.endswith("int") else piece
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


# the leaves built from their fields: builder(*fields, order, ring); omega,
# B and f3 are leaves only at argument q
_BUILDERS = {Num: lambda value, order, ring: monomial(ring, order, 0, value),
             Q: lambda order, ring: monomial(ring, order, 1),
             EtaF: pentagonal_series, Appell: appell_sum, PochInf: pochhammer_inf,
             PochFin: pochhammer_fin, CSeries: series_c, CkSeries: series_ck,
             Omega: lambda sign, qpow, order, ring: omega_series(order, ring),
             BFun: lambda sign, qpow, order, ring: b_eulerian(order, ring),
             F3: lambda sign, qpow, order, ring: f3_series(order, ring)}


def _children(e: QExpr, order: int) -> list[tuple[QExpr, int]]:
    """The (node, order) pairs `evaluate(e, order)` evaluates `e` from; none
    for a leaf."""
    if isinstance(e, _Binary):
        # a/b is a * b^-1, a node the memo keeps: each denominator inverts once
        right = Pow(e.right, -1) if isinstance(e, Div) else e.right
        return [(e.left, order), (right, order)]
    if isinstance(e, Pow):
        return [(e.base, order)]
    if isinstance(e, Dissect):  # so the result keeps full length
        return [(e.child, e.m * (order - 1) + e.r + 1)]
    if isinstance(e, _QArg) and (e.sign, e.qpow) != (1, 1):
        # at argument q, long enough that the substituted series covers order
        return [(type(e)(1, 1), (order + e.qpow - 2) // e.qpow + 1)]
    return []


def reads(e: QExpr, order: int) -> dict:
    """{leaf: the most coefficients `evaluate(e, order)` reads of it}, by the
    rule evaluate follows (`_children`). A leaf has no children: a number,
    or a named atom other than D, with omega, B and f3 only at argument q."""
    out: dict = {}
    stack = [(e, order)]
    while stack:
        node, n = stack.pop()
        children = _children(node, n)
        if children:
            stack += children
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
        return hit.truncate(order)
    out = memo[e] = _evaluate(e, order, ring, memo)
    return out


def _evaluate(e: QExpr, order: int, ring: CoefficientRing,
              memo: Optional[dict]) -> Series:
    parts = [evaluate(*child, ring, memo) for child in _children(e, order)]
    if not parts:
        return _BUILDERS[type(e)](*astuple(e), order, ring)
    if isinstance(e, Dissect):
        return dissect(*parts, e.m, e.r)
    if isinstance(e, _QArg):
        return substitute_power(*parts, e.qpow, e.sign, order)
    if isinstance(e, Pow):
        return power(*parts, e.exponent)
    return _BINARY[type(e)][2](*parts)
