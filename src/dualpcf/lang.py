"""Abstract syntax, concrete grammar, parser and printer for the language.

Surface programs are plain simply-typed lambda terms over the constant
signature, with natural literals and the boolean literals `tt`/`ff`
(`NatLit`, `BoolLit`); the evaluator additionally uses cost-tagged terms
and raw interval / dual-interval literals, which the parser never produces.
"""
from __future__ import annotations

import re
from typing import Optional, Tuple

from .numeric import DualInterval, Interval


class Struct:
    """Base of the syntax nodes and the machine's values: equality,
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
    __slots__ = ()


class Ground(Type):
    __slots__ = _fields = ("name",)  # "o", "nu", "pi", "delta"

    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name


class Arrow(Type):
    __slots__ = _fields = ("src", "dst")

    def __init__(self, src: Type, dst: Type):
        self.src = src
        self.dst = dst

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
    __slots__ = ("fn", "arg", "free", "code")
    _fields = ("fn", "arg")

    def __init__(self, fn: Expr, arg: Expr,
                 free: Optional[Tuple[str, ...]] = None):
        self.fn = fn
        self.arg = arg
        # Set by elaboration on an application under a lambda that does
        # not mention that lambda's variable: its free variables, sorted.
        # The machine shares the value of such an application per cost tag.
        self.free = free
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


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow>->|→)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*|ν|π|δ|λ)
  | (?P<sym>[()\[\].,:=<\\+\-*/])
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


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _shown(t: Token) -> str:
    """A token as a parse error names it."""
    return "end of input" if t.kind == "eof" else repr(t.text)


def _lex(src: str):
    toks = []
    pos = 0
    line, col = 1, 1
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind != "ws":
            toks.append(Token(kind, text, line, col))
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {_shown(t)}", t.line, t.col)
        return t

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- types --

    def parse_type(self) -> Type:
        lhs = self.parse_type_atom()
        if self.peek().kind == "arrow":
            self.next()
            return Arrow(lhs, self.parse_type())
        return lhs

    def parse_type_atom(self) -> Type:
        t = self.peek()
        if t.text == "(":
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return ty
        if t.text in TYPE_NAMES:
            self.next()
            return TYPE_NAMES[t.text]
        self.error(f"expected a type, found {_shown(t)}")

    # -- expressions --

    def parse_expr(self, env) -> Expr:
        t = self.peek()
        if t.text in ("fun", "λ", "\\"):
            self.next()
            binders = []
            while True:
                b = self.parse_binder()
                binders.append(b)
                if self.peek().text == ".":
                    break
            self.expect(".")
            inner_env = env | {name for name, _ in binders}
            body = self.parse_expr(inner_env)
            for name, ty in reversed(binders):
                body = Lam(name, ty, body)
            return body
        if t.text == "let":
            self.next()
            name_tok = self.next()
            if name_tok.kind != "ident" or name_tok.text in KEYWORDS:
                raise ParseError("expected a name after 'let'",
                                 name_tok.line, name_tok.col)
            ty = None
            if self.peek().text == ":":
                self.next()
                ty = self.parse_type()
            self.expect("=")
            value = self.parse_expr(env)
            self.expect("in")
            body = self.parse_expr(env | {name_tok.text})
            return App(Lam(name_tok.text, ty, body), value)
        if t.text == "if":
            self.next()
            cond = self.parse_expr(env)
            self.expect("then")
            then = self.parse_expr(env)
            self.expect("else")
            els = self.parse_expr(env)
            return If(cond, then, els)
        return self.parse_cmp(env)

    def parse_binder(self):
        t = self.next()
        if t.text == "(":
            name_tok = self.next()
            self.expect(":")
            ty = self.parse_type()
            self.expect(")")
            return (name_tok.text, ty)
        if t.kind != "ident" or t.text in KEYWORDS:
            raise ParseError(f"expected a binder, found {_shown(t)}", t.line,
                             t.col)
        ty = None
        if self.peek().text == ":":
            self.next()
            ty = self.parse_type()
        return (t.text, ty)

    def parse_cmp(self, env) -> Expr:
        lhs = self.parse_add(env)
        if self.peek().text == "<":
            t = self.next()
            if lhs != NatLit(0):
                raise ParseError("only the zero test '0 < e' is supported",
                                 t.line, t.col)
            rhs = self.parse_add(env)
            return App(Const("lt0", pos=(t.line, t.col)), rhs)
        return lhs

    def parse_add(self, env) -> Expr:
        lhs = self.parse_mul(env)
        while self.peek().text in ("+", "-"):
            t = self.next()
            rhs = self.parse_mul(env)
            lhs = App(App(Const(t.text, pos=(t.line, t.col)), lhs), rhs)
        return lhs

    def parse_mul(self, env) -> Expr:
        lhs = self.parse_unary(env)
        while self.peek().text in ("*", "/"):
            t = self.next()
            rhs = self.parse_unary(env)
            lhs = App(App(Const(t.text, pos=(t.line, t.col)), lhs), rhs)
        return lhs

    def parse_unary(self, env) -> Expr:
        t = self.peek()
        if t.text == "-":
            self.next()
            inner = self.parse_unary(env)
            return App(App(Const("-", pos=(t.line, t.col)), NatLit(0)), inner)
        return self.parse_app(env)

    def parse_app(self, env) -> Expr:
        e = self.parse_atom(env)
        while self._starts_atom():
            if self.peek().text == "(":
                # argument lists: f(a, b) is sugar for f a b
                self.next()
                args = [self.parse_expr(env)]
                while self.peek().text == ",":
                    self.next()
                    args.append(self.parse_expr(env))
                self.expect(")")
                for a in args:
                    e = App(e, a)
            else:
                e = App(e, self.parse_atom(env))
        return e

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t.kind == "num" or t.text == "(":
            return True
        return t.kind == "ident" and t.text not in KEYWORDS and t.text != "λ"

    def parse_atom(self, env) -> Expr:
        t = self.next()
        if t.kind == "num":
            return NatLit(int(t.text), pos=(t.line, t.col))
        if t.text == "(":
            e = self.parse_expr(env)
            self.expect(")")
            return e
        if t.kind == "ident":
            name = t.text
            if name in ("Y", "L"):
                self.expect("[")
                targs = [self.parse_type()]
                while self.peek().text == ",":
                    self.next()
                    targs.append(self.parse_type())
                self.expect("]")
                return Const(name, tuple(targs), pos=(t.line, t.col))
            if name in ("tt", "ff"):
                return BoolLit(name == "tt", pos=(t.line, t.col))
            if name == "In":
                raise ParseError("'In' is not available in surface programs",
                                 t.line, t.col)
            # a binder may take the zero test's name, but no other constant's
            if name in SIGNATURES and (name != "lt0" or name not in env):
                return Const(name, pos=(t.line, t.col))
            if name in env:
                return Var(name, pos=(t.line, t.col))
            raise ParseError(f"unbound variable {name!r}", t.line, t.col)
        raise ParseError(f"expected an expression, found {_shown(t)}", t.line,
                         t.col)


def parse(src: str) -> Expr:
    p = _Parser(src)
    e = p.parse_expr(frozenset())
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return e


# ---------------------------------------------------------------------------
# Printer


def _print_ty_args(targs) -> str:
    return "[" + ", ".join(str(t) for t in targs) + "]" if targs else ""


def print_expr(e: Expr) -> str:
    return _pp(e, 0)


# precedence levels: 0 top (lambda/if), 1 additive, 2 multiplicative,
# 3 application, 4 atom
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
        # render binary operator applications infix
        if isinstance(e.fn, App) and isinstance(e.fn.fn, Const) \
                and e.fn.fn.name in ("+", "-", "*", "/"):
            op = e.fn.fn.name
            lvl = 1 if op in ("+", "-") else 2
            s = f"{_pp(e.fn.arg, lvl)} {op} {_pp(e.arg, lvl + 1)}"
            return f"({s})" if prec > lvl else s
        if isinstance(e.fn, Const) and e.fn.name == "lt0":
            s = f"0 < {_pp(e.arg, 1)}"
            return f"({s})" if prec > 0 else s
        s = f"{_pp(e.fn, 3)} {_pp(e.arg, 4)}"
        return f"({s})" if prec > 3 else s
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
