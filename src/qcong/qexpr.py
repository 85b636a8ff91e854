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
must have a unit constant term.  Only integer literals exist, and an INT
is a run of the ASCII digits 0-9.

Every named atom is one row of `_ATOMS` (source name, argument shape and
builder), and every operator one row of `_BINARY`; the parser, the printer
and the evaluator read both.  A leaf is one `Atom(name, args)`, and D, which
has a child, a `Dissect`.  The kernel that reads a field checks it, as the
node is made.  `_children` is the one rule for the nodes a node is
evaluated from and how deep it reads them, which `evaluate` and `reads`
follow forwards and `reach` inverts.  A new leaf atom is one row.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .mock_theta import (appell_sum, b_eulerian, f3_series, omega_series,
                         pentagonal_series, pochhammer_fin, pochhammer_inf,
                         series_c, series_ck)
from .series import (
    EXACT,
    CoefficientRing,
    RingMismatchError,
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
class Atom:
    """The atom `name` of `_ATOMS` with its integer fields `args` in shape
    order: `Atom("f", (2,))` is f[2], `Atom("B", (-1, 1))` is B(-q)."""

    name: str
    args: tuple[int, ...] = ()

    def __post_init__(self):
        # the kernel that reads the fields checks them, at one coefficient
        pieces, build = _ATOMS[self.name]
        if "qarg" in pieces:  # sign * q^power
            sign, qpow = self.args
            substitute_power(_ONE, qpow, sign, 1)
        elif pieces or self.args:  # q and C, with no fields, build nothing
            build(*self.args, 1, EXACT)


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
        dissect(_ONE, self.m, self.r)


QExpr = Union[Num, Atom, Add, Sub, Mul, Div, Pow, Dissect]

# the one-coefficient series the nodes' field checks run their kernels on
_ONE = monomial(EXACT, 1, 0)


# ------------------------------------------------------------- tokenizer


# a token is an integer, a name or a symbol; any other character is refused
_TOKEN_RE = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                       r"|(?P<sym>[+\-*/^()\[\],])|(?P<bad>\S))")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(src):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(match.start(kind), f"unexpected character {match[kind]!r}")
        tokens.append((kind, match[kind], match.start(kind)))
    return tokens + [("end", "", len(src))]


def _at_q(build):
    """omega, B or f3's builder: a leaf only at argument q (`_children`)."""
    return lambda sign, qpow, order, ring: build(order, ring)


# {source name: (argument shape, builder)} for every named atom, the shape
# split into pieces once, here: "int", "sint" (a signed INT), "qarg" (two
# fields, sign and power) and "expr" stand for the node's fields in order,
# and every other piece is a symbol that must follow the name in the source.
# A leaf's builder takes (*fields, order, ring); D's is `dissect`.
_ATOMS = {name: (re.findall(r"[a-z]+|\S", shape), build) for name, (shape, build) in {
    "q": ("", lambda order, ring: monomial(ring, order, 1)),
    "C": ("", series_c),
    "Ck": ("[int]", series_ck),
    "f": ("[int]", pentagonal_series),
    "appell": ("[int]", appell_sum),
    "f3": ("(qarg)", _at_q(f3_series)),
    "omega": ("(qarg)", _at_q(omega_series)),
    "B": ("(qarg)", _at_q(b_eulerian)),
    "pochinf": ("[sint,int,int]", pochhammer_inf),
    "pochfin": ("[sint,int,int,int]", pochhammer_fin),
    "D": ("[int,int](expr)", dissect),
}.items()}
# omega, B and f3 at argument q: the leaves their other arguments read
_AT_Q = {name: Atom(name, (1, 1)) for name, (pieces, _) in _ATOMS.items()
         if "qarg" in pieces}
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
        self.readers = {"int": self.integer, "sint": lambda: self.integer(signed=True),
                        "expr": self.expr}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def match_sym(self, *symbols: str) -> str | None:
        kind, text, _ = self.peek()
        if kind == "sym" and text in symbols:
            self.pos += 1
            return text
        return None

    def take(self, kind: str, text: str | None = None, expected: tuple[str, ...] = ()) -> str:
        """The next token's text, when it is of `kind` (and spelled `text`,
        if given); else the one error naming what came instead, which lists
        `expected`, by default `text`."""
        got_kind, got, offset = self.peek()
        if got_kind != kind or text not in (None, got):
            raise ParseError(offset, f"got {got!r}" if got else "got end of input",
                             expected=expected or (text,))
        self.pos += 1
        return got

    def integer(self, signed: bool = False) -> int:
        sign = -1 if signed and self.match_sym("-") else 1
        return sign * int(self.take("int", expected=("integer",)))

    def expr(self, prec: int = min(_LEVELS)) -> QExpr:
        """The operators of precedence `prec` or tighter, left associative."""
        if prec not in _LEVELS:
            return self.factor()
        ops, node = _LEVELS[prec], self.expr(prec + 1)
        while symbol := self.match_sym(*ops):
            node = ops[symbol](node, self.expr(prec + 1))
        return node

    def factor(self) -> QExpr:
        node = self.atom()
        while self.match_sym("^"):
            node = Pow(node, self.integer(signed=True))
        return node

    def atom(self) -> QExpr:
        kind, _, offset = self.peek()
        if kind == "int":
            return Num(self.integer())
        if self.match_sym("-"):
            inner = self.factor()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Sub(Num(0), inner)
        if self.match_sym("("):
            node = self.expr()
            self.take("sym", ")")
            return node
        return self.named_atom(self.take("name", expected=_ATOM_EXPECTED), offset)

    def named_atom(self, name: str, offset: int) -> QExpr:
        if name not in _ATOMS:
            raise ParseError(offset, f"unknown name {name!r}", expected=_ATOM_EXPECTED)
        pieces, args = _ATOMS[name][0], []
        for piece in pieces:
            if piece == "qarg":
                args += self.qarg()
            elif piece in self.readers:
                args.append(self.readers[piece]())
            else:
                self.take("sym", piece)
        # the kernels check the fields as the node is made; their errors
        # are raised here with the source position
        try:
            return Dissect(*args) if name == "D" else Atom(name, tuple(args))
        except ValueError as exc:
            raise ParseError(offset, str(exc)) from None

    def qarg(self) -> tuple[int, int]:
        sign = -1 if self.match_sym("-") else 1
        self.take("name", "q")
        return sign, self.integer() if self.match_sym("^") else 1


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
    elif isinstance(e, (Atom, Dissect)):
        name, values = ((e.name, iter(e.args)) if isinstance(e, Atom)
                        else ("D", iter((e.m, e.r, e.child))))
        mine, text = _PREC_ATOM, name
        for piece in _ATOMS[name][0]:
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


def _children(e: QExpr) -> list[tuple[QExpr, int, int, int]]:
    """The one read rule: a (node, m, r, d) per child `evaluate(e, n)` is
    built from, which it reads to m*(n-1)//d + r + 1 coefficients; none for
    a leaf. D[m,r] reads (m, r, 1), an argument +-q^k (1, 0, k), that is
    ceil(n/k), and an operator or power (1, 0, 1)."""
    if isinstance(e, _Binary):
        # a/b is a * b^-1, a node the memo keeps: each denominator inverts once
        right = Pow(e.right, -1) if isinstance(e, Div) else e.right
        return [(e.left, 1, 0, 1), (right, 1, 0, 1)]
    if isinstance(e, Pow):
        return [(e.base, 1, 0, 1)]
    if isinstance(e, Dissect):  # so the result keeps full length
        return [(e.child, e.m, e.r, 1)]
    if isinstance(e, Atom) and e.name in _AT_Q and e.args != (1, 1):
        return [(_AT_Q[e.name], 1, 0, e.args[1])]
    return []


def _child_orders(e: QExpr, order: int) -> list[tuple[QExpr, int]]:
    """The (node, order) pairs `evaluate(e, order)` evaluates `e` from."""
    return [(child, m * (order - 1) // d + r + 1) for child, m, r, d in _children(e)]


def reads(e: QExpr, order: int) -> dict:
    """{leaf: the most coefficients `evaluate(e, order)` reads of it}, by the
    rule evaluate follows (`_children`). A leaf has no children: a number,
    or a named atom other than D, with omega, B and f3 only at argument q."""
    out: dict = {}
    stack = [(e, order)]
    while stack:
        node, n = stack.pop()
        if children := _child_orders(node, n):
            stack += children
        else:
            out[node] = max(out.get(node, 0), n)
    return out


def reach(e: QExpr, known: dict) -> Optional[int]:
    """The largest n at which `evaluate(e, n)` reads no leaf of `known`
    ({leaf: series}) past that series' end, or None when e reads none of
    them: `_children`'s rule inverted, edge by edge."""
    if e in known:
        return known[e].order
    ends = [max(0, (d * (k - r) - 1) // m + 1) for child, m, r, d in _children(e)
            if (k := reach(child, known)) is not None]
    return min(ends, default=None)


def evaluate(e: QExpr, order: int, ring: CoefficientRing = EXACT,
             memo: Optional[dict] = None) -> Series:
    """Evaluate bottom-up with every node truncated to `order`.

    A dissection, or omega, B or f3 at an argument other than q, reads its
    child at the order `reads` reports; division and negative powers
    require the denominator to be a unit and raise NonUnitError otherwise.

    `memo` maps nodes to series already computed in `ring`; one memo serves
    one ring, and a node found there in another raises RingMismatchError. A
    node found with at least `order` coefficients is reused, truncated; any
    other node is computed and stored. omega, B and f3 at any argument read
    their argument-q node through the memo, so a caller can seed it (say
    `parse("B(q)")` or `parse("C")`) with shared series.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if memo is None:
        return _evaluate(e, order, ring, None)
    hit = memo.get(e)
    if hit is not None and hit.ring != ring:
        raise RingMismatchError(f"the memo holds {to_source(e)} in {hit.ring}, not {ring}")
    if hit is not None and hit.order >= order:
        return hit.truncate(order)
    out = memo[e] = _evaluate(e, order, ring, memo)
    return out


def _evaluate(e: QExpr, order: int, ring: CoefficientRing,
              memo: Optional[dict]) -> Series:
    parts = [evaluate(*child, ring, memo) for child in _child_orders(e, order)]
    if isinstance(e, Num):
        return monomial(ring, order, 0, e.value)
    if not parts:
        return _ATOMS[e.name][1](*e.args, order, ring)
    if isinstance(e, Dissect):
        return dissect(*parts, e.m, e.r)
    if isinstance(e, Atom):  # omega, B or f3 at sign * q^power
        sign, qpow = e.args
        return substitute_power(*parts, qpow, sign, order)
    if isinstance(e, Pow):
        return power(*parts, e.exponent)
    return _BINARY[type(e)][2](*parts)
