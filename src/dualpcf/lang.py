"""Abstract syntax, concrete grammar, parser and printer for the language.

Surface programs are plain simply-typed lambda terms over the constant
signature, with natural literals and the boolean literals `tt`/`ff`
(`NatLit`, `BoolLit`); the evaluator additionally uses cost-tagged terms
and raw interval / dual-interval literals, which the parser never produces.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from typing import Optional, Tuple

from .numeric import DualInterval, Interval


class Struct:
    """Base of the syntax nodes and the machine's outcomes: equality,
    hashing and `repr` over the fields a class lists in `_fields`.  Its
    other slots, such as a source position, take part in none of them."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({fields})"


# ---------------------------------------------------------------------------
# Types


class Type(Struct):
    """A type.  Types are interned (hash-consed): building a type equal to
    one already built returns that object, so equality and hashing are by
    identity, and a copy or a pickle round trip returns the same object.
    The tables keep every type built, of which programs name few."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class Ground(Type):
    __slots__ = _fields = ("name",)  # "o", "nu", "pi", "delta"
    _table: dict = {}

    def __new__(cls, name: str):
        self = cls._table.get(name)
        if self is None:
            self = object.__new__(cls)
            self.name = name
            # one atomic call: threads building the same type get one object
            self = cls._table.setdefault(name, self)
        return self

    def __reduce__(self):
        return Ground, (self.name,)

    def __str__(self) -> str:
        return self.name


class Arrow(Type):
    __slots__ = _fields = ("src", "dst")
    _table: dict = {}

    def __new__(cls, src: Type, dst: Type):
        self = cls._table.get((src, dst))
        if self is None:
            self = object.__new__(cls)
            self.src = src
            self.dst = dst
            self = cls._table.setdefault((src, dst), self)
        return self

    def __reduce__(self):
        return Arrow, (self.src, self.dst)

    def __str__(self) -> str:
        s = f"({self.src})" if isinstance(self.src, Arrow) else str(self.src)
        return f"{s} -> {self.dst}"


BOOL = Ground("o")
NAT = Ground("nu")
REAL = Ground("pi")
DUAL = Ground("delta")


def arrow(*tys: Type) -> Type:
    out = tys[-1]
    for t in reversed(tys[:-1]):
        out = Arrow(t, out)
    return out


def uncurry(ty: Type) -> Tuple[Tuple[Type, ...], Type]:
    """Split a type into its argument list and final codomain."""
    args = []
    while isinstance(ty, Arrow):
        args.append(ty.src)
        ty = ty.dst
    return tuple(args), ty


# ---------------------------------------------------------------------------
# Expressions


class Expr(Struct):
    __slots__ = ()

    def __str__(self) -> str:
        return print_expr(self)


class Const(Expr):
    __slots__ = ("name", "targs", "pos")
    _fields = ("name", "targs")

    def __init__(self, name: str, targs: Tuple[Type, ...] = (),
                 pos: Optional[Tuple[int, int]] = None):
        self.name = name
        self.targs = targs
        self.pos = pos


class Var(Expr):
    __slots__ = ("name", "pos")
    _fields = ("name",)

    def __init__(self, name: str, pos: Optional[Tuple[int, int]] = None):
        self.name = name
        self.pos = pos


class App(Expr):
    __slots__ = ("fn", "arg", "code")
    _fields = ("fn", "arg")

    def __init__(self, fn: Expr, arg: Expr):
        self.fn = fn
        self.arg = arg
        # the machine's code of a closed application, compiled on first use
        self.code = None


class Lam(Expr):
    __slots__ = ("var", "ty", "body", "code")
    _fields = ("var", "ty", "body")

    def __init__(self, var: str, ty: Optional[Type], body: Expr):
        self.var = var
        self.ty = ty
        self.body = body
        self.code = None  # as for App


class If(Expr):
    __slots__ = ("cond", "then", "els", "ty")
    _fields = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Expr, els: Expr,
                 ty: Optional[Type] = None):
        self.cond = cond
        self.then = then
        self.els = els
        self.ty = ty


class NatLit(Expr):
    __slots__ = ("n", "pos")
    _fields = ("n",)

    def __init__(self, n: int, pos: Optional[Tuple[int, int]] = None):
        self.n = n
        self.pos = pos


class BoolLit(Expr):
    __slots__ = ("b", "pos")
    _fields = ("b",)

    def __init__(self, b: bool, pos: Optional[Tuple[int, int]] = None):
        self.b = b
        self.pos = pos


# --- evaluation-only forms (never produced by the parser) ---


class CostTagged(Expr):
    __slots__ = _fields = ("expr", "n")

    def __init__(self, expr: Expr, n: int):
        self.expr = expr
        self.n = n


class IvLit(Expr):
    __slots__ = _fields = ("iv",)

    def __init__(self, iv: Interval):
        self.iv = iv


class DualLit(Expr):
    __slots__ = _fields = ("dv",)

    def __init__(self, dv: DualInterval):
        self.dv = dv


# int or sup at its carrier, with its (m, n) unfolding state: m bisection
# levels remain, and each cell is evaluated at cost n
class IntSupAt(Expr):
    __slots__ = _fields = ("kind", "carrier", "m", "n")

    def __init__(self, kind: str, carrier: Type, m: int, n: int):
        self.kind = kind  # "int" | "sup"
        self.carrier = carrier
        self.m = m
        self.n = n


# The pi or delta carrier of an overloaded constant, in its type
CARRIER = Ground("carrier")
_BINARY = arrow(CARRIER, CARRIER, CARRIER)
_ON_CELLS = Arrow(Arrow(REAL, CARRIER), CARRIER)

# The signature: the type of each constant but `Y` and `L`, which take
# type arguments.  "In" is evaluation-only; the parser rejects it.
SIGNATURES = {
    "+": _BINARY, "-": _BINARY, "*": _BINARY, "min": _BINARY, "max": _BINARY,
    "/": arrow(CARRIER, NAT, CARRIER), "pr": Arrow(CARRIER, CARRIER),
    "int": _ON_CELLS, "sup": _ON_CELLS,
    "in_pi": Arrow(NAT, REAL), "in_delta": Arrow(REAL, DUAL),
    "succ": Arrow(NAT, NAT), "pred": Arrow(NAT, NAT),
    "iszero": Arrow(NAT, BOOL), "lt0": Arrow(REAL, BOOL),
    "In": Arrow(DUAL, REAL),
}


def spine(e: Expr):
    """Split an application into its head and its list of arguments."""
    args = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fn
    return e, args[::-1]


def app_spine(head: Expr, args) -> Expr:
    """Apply head to the arguments in order: the inverse of `spine`."""
    for a in args:
        head = App(head, a)
    return head


_FRESH = [0]


def fresh_var(hint: str = "x") -> str:
    _FRESH[0] += 1
    return f"%{hint}{_FRESH[0]}"


# ---------------------------------------------------------------------------
# Lexer


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


# One pattern per token, with the whitespace and comments before it: a
# token's kind is the number of the group that matched (`lastindex`), and
# it is a tuple (kind, text, offset).  At the end of the source the empty
# EOF group matches; an unexpected character's group takes the rest of the
# source, so that the scan ends on it.
ARROW, NUM, IDENT, SYM, EOF, BAD = range(1, 7)
_TOKEN_RE = re.compile(
    r"""
    \s*(?:\#[^\n]*\s*)*
    (?: (->|→)
      | (\d+)
      | ([A-Za-z_][A-Za-z0-9_']*|ν|π|δ|λ)
      | ([()\[\].,:=<\\+\-*/])
      | (\Z)
      | (.[\s\S]*) )
    """,
    re.VERBOSE,
)

KEYWORDS = {"fun", "let", "in", "if", "then", "else"}
TYPE_NAMES = {
    "o": BOOL, "bool": BOOL,
    "nu": NAT, "nat": NAT, "ν": NAT,
    "pi": REAL, "real": REAL, "π": REAL,
    "delta": DUAL, "dual": DUAL, "δ": DUAL,
}


def _shown(t) -> str:
    """A token as a parse error names it."""
    return "end of input" if t[0] == EOF else repr(t[1])


def _lex(src: str):
    toks = [(k := m.lastindex, m[k], m.start(k))
            for m in _TOKEN_RE.finditer(src)]
    if len(toks) > 1 and toks[-2][0] == BAD:
        off = toks[-2][2]
        raise ParseError(f"unexpected character {src[off]!r}",
                         *_positions(src)(off))
    return toks


def _positions(src: str):
    """The function from an offset in src to its (line, column), both
    from 1."""
    if "\n" not in src:
        return lambda off: (1, off + 1)
    newlines = [m.start() for m in re.finditer("\n", src)]

    def pos(off: int) -> Tuple[int, int]:
        line = bisect_left(newlines, off)  # the newlines before off
        return line + 1, off - newlines[line - 1] if line else off + 1
    return pos


# ---------------------------------------------------------------------------
# Parser

# How tightly each infix operator binds, for the parser and the printer;
# all are left associative, and `<` is only the unchained zero test `0 < e`.
# Application binds tighter than all of them.
_PREC = {"<": 0, "+": 1, "-": 1, "*": 2, "/": 2}
_APP = 3


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.i = 0
        self.pos = _positions(src)

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += t[0] != EOF  # the end of input stays the next token
        return t

    def fail(self, msg: str, t):
        raise ParseError(msg, *self.pos(t[2]))

    def expect(self, text: str):
        t = self.next()
        if t[1] != text:
            self.fail(f"expected {text!r}, found {_shown(t)}", t)
        return t

    # -- types --

    def parse_type(self) -> Type:
        lhs = self.parse_type_atom()
        if self.peek()[0] == ARROW:
            self.i += 1
            return Arrow(lhs, self.parse_type())
        return lhs

    def parse_type_atom(self) -> Type:
        t = self.next()
        if t[1] == "(":
            ty = self.parse_type()
            self.expect(")")
            return ty
        ty = TYPE_NAMES.get(t[1])
        if ty is None:
            self.fail(f"expected a type, found {_shown(t)}", t)
        return ty

    # -- expressions --

    def parse_expr(self, env) -> Expr:
        text = self.toks[self.i][1]
        if text in ("fun", "λ", "\\"):
            self.i += 1
            binders = [self.parse_binder()]
            while self.peek()[1] != ".":
                binders.append(self.parse_binder())
            self.expect(".")
            inner_env = env | {name for name, _ in binders}
            body = self.parse_expr(inner_env)
            for name, ty in reversed(binders):
                body = Lam(name, ty, body)
            return body
        if text == "let":
            self.i += 1
            name_tok = self.next()
            if name_tok[0] != IDENT or name_tok[1] in KEYWORDS:
                self.fail("expected a name after 'let'", name_tok)
            ty = None
            if self.peek()[1] == ":":
                self.i += 1
                ty = self.parse_type()
            self.expect("=")
            value = self.parse_expr(env)
            self.expect("in")
            body = self.parse_expr(env | {name_tok[1]})
            return App(Lam(name_tok[1], ty, body), value)
        if text == "if":
            self.i += 1
            cond = self.parse_expr(env)
            self.expect("then")
            then = self.parse_expr(env)
            self.expect("else")
            els = self.parse_expr(env)
            return If(cond, then, els)
        return self.parse_ops(env)

    def parse_binder(self):
        """`x`, `x: T` or `(x: T)`."""
        paren = self.peek()[1] == "("
        if paren:
            self.i += 1
        t = self.next()
        if t[0] != IDENT or t[1] in KEYWORDS:
            self.fail(f"expected a binder, found {_shown(t)}", t)
        ty = None
        if paren or self.peek()[1] == ":":
            self.expect(":")
            ty = self.parse_type()
        if paren:
            self.expect(")")
        return (t[1], ty)

    def parse_ops(self, env, level: int = 0) -> Expr:
        """Precedence climbing over `_PREC`: the operators binding at
        least as tightly as level, left associative.  A leading `-` is
        `0 - e`, where e is an application or again starts with `-`."""
        _, text, off = self.toks[self.i]
        if text == "-":
            self.i += 1
            lhs = App(App(Const("-", pos=self.pos(off)), NatLit(0)),
                      self.parse_ops(env, _APP))
        else:
            lhs = self.parse_app(env)
        while _PREC.get(self.toks[self.i][1], -1) >= level:
            _, op, off = t = self.next()
            if op == "<":  # once, and only as the zero test
                if lhs != NatLit(0):
                    self.fail("only the zero test '0 < e' is supported", t)
                return App(Const("lt0", pos=self.pos(off)),
                           self.parse_ops(env, _PREC[op] + 1))
            lhs = App(App(Const(op, pos=self.pos(off)), lhs),
                      self.parse_ops(env, _PREC[op] + 1))
        return lhs

    def parse_app(self, env) -> Expr:
        e = self.parse_atom(env)
        while True:
            kind, text, _ = self.toks[self.i]
            if text == "(":
                # argument lists: f(a, b) is sugar for f a b
                self.i += 1
                args = [self.parse_expr(env)]
                while self.peek()[1] == ",":
                    self.i += 1
                    args.append(self.parse_expr(env))
                self.expect(")")
                e = app_spine(e, args)
            elif kind == NUM or (kind == IDENT and text not in KEYWORDS
                                 and text != "λ"):
                e = App(e, self.parse_atom(env))
            else:
                return e

    def parse_atom(self, env) -> Expr:
        t = self.toks[self.i]
        self.i += 1
        kind, name, off = t
        if kind == NUM:
            try:
                return NatLit(int(name), pos=self.pos(off))
            except ValueError:  # past Python's limit on digits
                self.fail(f"numeral too long: {len(name)} digits", t)
        if name == "(":
            e = self.parse_expr(env)
            self.expect(")")
            return e
        if kind != IDENT:
            self.fail(f"expected an expression, found {_shown(t)}", t)
        if name in ("Y", "L"):
            self.expect("[")
            targs = [self.parse_type()]
            while self.peek()[1] == ",":
                self.i += 1
                targs.append(self.parse_type())
            self.expect("]")
            return Const(name, tuple(targs), pos=self.pos(off))
        if name in ("tt", "ff"):
            return BoolLit(name == "tt", pos=self.pos(off))
        if name == "In":
            self.fail("'In' is not available in surface programs", t)
        # a binder may take the zero test's name, but no other constant's
        if name in SIGNATURES and (name != "lt0" or name not in env):
            return Const(name, pos=self.pos(off))
        if name in env:
            return Var(name, pos=self.pos(off))
        self.fail(f"unbound variable {name!r}", t)


def parse(src: str) -> Expr:
    p = _Parser(src)
    e = p.parse_expr(frozenset())
    t = p.peek()
    if t[0] != EOF:
        p.fail(f"trailing input {t[1]!r}", t)
    return e


# ---------------------------------------------------------------------------
# Printer


def _print_ty_args(targs) -> str:
    return "[" + ", ".join(str(t) for t in targs) + "]" if targs else ""


def print_expr(e: Expr) -> str:
    return _pp(e, 0)


# levels: 0 top (lambda, if), those of `_PREC` and `_APP`, and atoms above
def _pp(e: Expr, prec: int) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, NatLit):
        return str(e.n)
    if isinstance(e, Const):
        if e.name == "lt0":
            return "(0 <)"
        return e.name + _print_ty_args(e.targs)
    if isinstance(e, Lam):
        binder = f"{e.var}: {e.ty}" if e.ty is not None else e.var
        s = f"fun {binder}. {_pp(e.body, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(e, If):
        s = f"if {_pp(e.cond, 0)} then {_pp(e.then, 0)} else {_pp(e.els, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(e, App):
        # an operator's application prints infix, and any other application
        # is the juxtaposition at level _APP: each left associative
        fn = e.fn
        if isinstance(fn, Const) and fn.name == "lt0":
            fn, sep, lvl = NatLit(0), " < ", _PREC["<"]
        elif isinstance(fn, App) and isinstance(fn.fn, Const) \
                and fn.fn.name in _PREC:
            fn, sep, lvl = fn.arg, f" {fn.fn.name} ", _PREC[fn.fn.name]
        else:
            sep, lvl = " ", _APP
        s = f"{_pp(fn, lvl)}{sep}{_pp(e.arg, lvl + 1)}"
        return f"({s})" if prec > lvl else s
    if isinstance(e, CostTagged):
        return f"⟨{_pp(e.expr, 0)}, {e.n}⟩"
    if isinstance(e, IntSupAt):
        return f"⟨{e.kind}, ({e.m},{e.n})⟩"
    if isinstance(e, IvLit):
        return str(e.iv)
    if isinstance(e, DualLit):
        s = str(e.dv)
        return f"({s})" if prec > 1 else s
    if isinstance(e, BoolLit):
        return "tt" if e.b else "ff"
    raise TypeError(f"cannot print {e!r}")
