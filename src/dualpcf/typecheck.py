"""Simple type checker with coercion insertion.

Checking a surface term produces an elaborated term in which the
overloaded arithmetic constants are resolved to a carrier (`pi` or
`delta`, preferring `delta` when any operand is dual) and the two cast
constants are inserted wherever a natural meets a real context or a real
meets a dual context.  The derivative operator's point and direction
arguments are elaborated at the dual-flavoured types, with the pointwise
cast ladder inserted for real-flavoured arguments.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

from .lang import (
    App, Arrow, BOOL, BoolLit, Const, DUAL, Expr, Ground, If, Lam, NAT,
    NatLit, REAL, Type, Var, arrow, fresh_var, spine, uncurry,
)

MISMATCH = "Mismatch"
ZERO_TEST_ON_DUAL = "ZeroTestOnDual"
L_INSIDE_L_ARGUMENT = "LInsideLArgument"
BAD_L_SHAPE = "BadLShape"
UNBOUND_VAR = "UnboundVar"


class TypeCheckError(Exception):
    def __init__(self, kind: str, message: str,
                 pos: Optional[Tuple[int, int]] = None):
        super().__init__(kind, message, pos)
        self.kind = kind
        self.message = message
        self.pos = pos

    def __str__(self) -> str:
        loc = f"{self.pos[0]}:{self.pos[1]}: " if self.pos else ""
        return f"{loc}{self.kind}: {self.message}"


def _pos(e: Expr) -> Optional[Tuple[int, int]]:
    """The first source position in e, left to right, which a type error
    about e reports; None for a term built without any."""
    if isinstance(e, App):
        return _pos(e.fn) or _pos(e.arg)
    if isinstance(e, Lam):
        return _pos(e.body)
    if isinstance(e, If):
        return _pos(e.cond) or _pos(e.then) or _pos(e.els)
    return getattr(e, "pos", None)


NUMERIC = (NAT, REAL, DUAL)

# fixed (non-overloaded) constant signatures
_FIXED_SIG: Dict[str, Type] = {
    "in_pi": Arrow(NAT, REAL),
    "in_delta": Arrow(REAL, DUAL),
    "succ": Arrow(NAT, NAT),
    "pred": Arrow(NAT, NAT),
    "iszero": Arrow(NAT, BOOL),
    "lt0": Arrow(REAL, BOOL),
    "In": Arrow(DUAL, REAL),
}

_BINOPS = ("+", "-", "*", "min", "max")


def is_continuous_type(ty: Type) -> bool:
    """True iff the final codomain of ty is `pi` or `delta`."""
    _, cod = uncurry(ty)
    return cod in (REAL, DUAL)


def is_l_admissible(ty: Type) -> bool:
    """True iff ty may appear in the derivative operator's type list."""
    if ty == DUAL:
        return True
    args, cod = uncurry(ty)
    return (cod == DUAL and len(args) >= 1
            and all(isinstance(a, Ground) for a in args))


def contains_l(e: Expr) -> bool:
    if isinstance(e, Const):
        return e.name == "L"
    if isinstance(e, App):
        return contains_l(e.fn) or contains_l(e.arg)
    if isinstance(e, Lam):
        return contains_l(e.body)
    if isinstance(e, If):
        return contains_l(e.cond) or contains_l(e.then) or contains_l(e.els)
    return False


def _numeric_rank(ty: Type) -> int:
    return {NAT: 0, REAL: 1, DUAL: 2}[ty]


class _Checker:
    def infer(self, e: Expr, env: Dict[str, Type]) -> Tuple[Expr, Type]:
        if isinstance(e, NatLit):
            return e, NAT
        if isinstance(e, BoolLit):
            return e, BOOL
        if isinstance(e, Var):
            if e.name not in env:
                raise TypeCheckError(UNBOUND_VAR, f"unbound variable {e.name!r}",
                                     e.pos)
            return e, env[e.name]
        if isinstance(e, Const):
            return self.infer_const(e)
        if isinstance(e, Lam):
            if e.ty is None:
                raise TypeCheckError(MISMATCH,
                                     f"cannot infer unannotated binder {e.var!r}",
                                     _pos(e))
            body, bty = self.infer(e.body, {**env, e.var: e.ty})
            return Lam(e.var, e.ty, body), Arrow(e.ty, bty)
        if isinstance(e, If):
            return self.elab_if(e, env, None)
        if isinstance(e, App):
            return self.elab_app(e, env, None)
        raise TypeCheckError(MISMATCH, f"cannot type {e!r}", _pos(e))

    def check(self, e: Expr, env: Dict[str, Type], want: Type) -> Expr:
        if isinstance(e, Lam) and isinstance(want, Arrow):
            ty = e.ty if e.ty is not None else want.src
            if ty != want.src:
                raise TypeCheckError(
                    MISMATCH,
                    f"binder {e.var!r} has type {ty}, expected {want.src}",
                    _pos(e))
            body = self.check(e.body, {**env, e.var: ty}, want.dst)
            return Lam(e.var, ty, body)
        if isinstance(e, If):
            out, _ = self.elab_if(e, env, want)
            return out
        if isinstance(e, App):
            out, got = self.elab_app(e, env, want)
            return self.coerce(out, got, want)
        out, got = self.infer(e, env)
        return self.coerce(out, got, want)

    # -- constants ----------------------------------------------------

    def infer_const(self, c: Const) -> Tuple[Expr, Type]:
        if c.name in _FIXED_SIG:
            return c, _FIXED_SIG[c.name]
        if c.name == "Y":
            if len(c.targs) != 1:
                raise TypeCheckError(MISMATCH, "Y requires one type argument",
                                     c.pos)
            t = c.targs[0]
            return c, Arrow(Arrow(t, t), t)
        if c.name in _BINOPS:
            carrier = c.targs[0] if c.targs else DUAL
            return (Const(c.name, (carrier,), pos=c.pos),
                    arrow(carrier, carrier, carrier))
        if c.name == "/":
            carrier = c.targs[0] if c.targs else DUAL
            return (Const(c.name, (carrier,), pos=c.pos),
                    arrow(carrier, NAT, carrier))
        if c.name == "pr":
            carrier = c.targs[0] if c.targs else DUAL
            return Const(c.name, (carrier,), pos=c.pos), Arrow(carrier, carrier)
        if c.name in ("int", "sup"):
            carrier = c.targs[0] if c.targs else DUAL
            return (Const(c.name, (carrier,), pos=c.pos),
                    Arrow(Arrow(REAL, carrier), carrier))
        if c.name == "L":
            raise TypeCheckError(
                BAD_L_SHAPE, "the derivative operator must be fully applied",
                c.pos)
        raise TypeCheckError(MISMATCH, f"unknown constant {c.name!r}", c.pos)

    # -- coercions ----------------------------------------------------

    def coerce(self, e: Expr, have: Type, want: Type) -> Expr:
        if have == want:
            return e
        if have == NAT and want == REAL:
            return App(Const("in_pi"), e)
        if have == NAT and want == DUAL:
            return App(Const("in_delta"), App(Const("in_pi"), e))
        if have == REAL and want == DUAL:
            return App(Const("in_delta"), e)
        if isinstance(have, Arrow) and isinstance(want, Arrow) \
                and have.src == want.src:
            x = fresh_var("c")
            body = self.coerce(App(e, Var(x)), have.dst, want.dst)
            if body != App(e, Var(x)):
                return Lam(x, have.src, body)
        raise TypeCheckError(MISMATCH, f"expected {want}, found {have}",
                             _pos(e))

    def _join_numeric(self, e: If, a: Type, b: Type) -> Type:
        if a in NUMERIC and b in NUMERIC:
            return a if _numeric_rank(a) >= _numeric_rank(b) else b
        if a == b:
            return a
        raise TypeCheckError(MISMATCH,
                             f"incompatible branch types {a} and {b}",
                             _pos(e))

    def _carrier(self, c: Const, carrier: Type, want: Optional[Type]) -> Type:
        """An overloaded constant's carrier: its operands' carrier, unless
        the context wants a numeric type that can hold it."""
        if want not in (REAL, DUAL):
            return carrier
        if want == REAL and carrier == DUAL:
            raise TypeCheckError(MISMATCH, "dual operand in a real context",
                                 c.pos)
        return want

    # -- composite forms ----------------------------------------------

    def elab_if(self, e: If, env, want: Optional[Type]) -> Tuple[Expr, Type]:
        cond = self.check(e.cond, env, BOOL)
        if want is not None:
            then = self.check(e.then, env, want)
            els = self.check(e.els, env, want)
            return If(cond, then, els, want), want
        then, tt = self.infer(e.then, env)
        els, te = self.infer(e.els, env)
        ty = self._join_numeric(e, tt, te)
        return If(cond, self.coerce(then, tt, ty),
                  self.coerce(els, te, ty), ty), ty

    def elab_app(self, e: App, env, want: Optional[Type]) -> Tuple[Expr, Type]:
        head, args = spine(e)
        if isinstance(head, Const):
            name = head.name
            if name in _BINOPS and len(args) == 2:
                return self.elab_binop(head, args[0], args[1], env, want)
            if name == "/" and len(args) == 2:
                return self.elab_div(head, args[0], args[1], env, want)
            if name == "pr" and len(args) == 1:
                return self.elab_pr(head, args[0], env, want)
            if name in ("int", "sup") and len(args) == 1:
                return self.elab_intsup(head, args[0], env, want)
            if name == "lt0" and len(args) == 1:
                return self.elab_lt0(head, args[0], env)
            if name == "L":
                return self.elab_l(head, args, env)
        # generic application
        fn = e.fn
        if isinstance(fn, Lam) and fn.ty is None:
            # applied unannotated lambda (let-sugar): infer the argument
            arg, aty = self.infer(e.arg, env)
            body, bty = self.infer(fn.body, {**env, fn.var: aty})
            return App(Lam(fn.var, aty, body), arg), bty
        fn, fty = self.infer(fn, env)
        if not isinstance(fty, Arrow):
            raise TypeCheckError(MISMATCH,
                                 f"cannot apply a value of type {fty}",
                                 _pos(e.fn))
        arg = self.check(e.arg, env, fty.src)
        return App(fn, arg), fty.dst

    def elab_binop(self, c: Const, a: Expr, b: Expr, env,
                   want: Optional[Type]) -> Tuple[Expr, Type]:
        ae, at = self.infer(a, env)
        be, bt = self.infer(b, env)
        for t in (at, bt):
            if t not in NUMERIC:
                raise TypeCheckError(MISMATCH,
                                     f"arithmetic on non-numeric type {t}",
                                     c.pos)
        carrier = self._carrier(c, DUAL if DUAL in (at, bt) else REAL, want)
        op = Const(c.name, (carrier,), pos=c.pos)
        return App(App(op, self.coerce(ae, at, carrier)),
                   self.coerce(be, bt, carrier)), carrier

    def elab_div(self, c: Const, a: Expr, b: Expr, env,
                 want: Optional[Type]) -> Tuple[Expr, Type]:
        ae, at = self.infer(a, env)
        if at not in NUMERIC:
            raise TypeCheckError(MISMATCH,
                                 f"division on non-numeric type {at}", c.pos)
        carrier = self._carrier(c, DUAL if at == DUAL else REAL, want)
        be = self.check(b, env, NAT)
        op = Const("/", (carrier,), pos=c.pos)
        return App(App(op, self.coerce(ae, at, carrier)), be), carrier

    def elab_pr(self, c: Const, a: Expr, env,
                want: Optional[Type]) -> Tuple[Expr, Type]:
        ae, at = self.infer(a, env)
        if at not in NUMERIC:
            raise TypeCheckError(MISMATCH, f"pr on non-numeric type {at}",
                                 c.pos)
        carrier = self._carrier(c, DUAL if at == DUAL else REAL, want)
        return App(Const("pr", (carrier,), pos=c.pos),
                   self.coerce(ae, at, carrier)), carrier

    def elab_intsup(self, c: Const, f: Expr, env,
                    want: Optional[Type]) -> Tuple[Expr, Type]:
        fe, fty = self.infer(f, env)
        if not isinstance(fty, Arrow) or fty.src != REAL:
            raise TypeCheckError(
                MISMATCH, f"{c.name} needs a function on reals, found {fty}",
                c.pos)
        if want in (REAL, DUAL):
            carrier = want
        else:
            carrier = fty.dst if fty.dst in (REAL, DUAL) else DUAL
        fe = self.coerce(fe, fty, Arrow(REAL, carrier))
        return App(Const(c.name, (carrier,), pos=c.pos), fe), carrier

    def elab_lt0(self, c: Const, a: Expr, env) -> Tuple[Expr, Type]:
        ae, at = self.infer(a, env)
        if at == DUAL:
            raise TypeCheckError(ZERO_TEST_ON_DUAL,
                                 "the zero test cannot be applied to dual values",
                                 c.pos)
        ae = self.coerce(ae, at, REAL)
        return App(Const("lt0", pos=c.pos), ae), BOOL

    def elab_l(self, c: Const, args, env) -> Tuple[Expr, Type]:
        tys = list(c.targs)
        if not tys:
            raise TypeCheckError(BAD_L_SHAPE,
                                 "the derivative operator needs type arguments",
                                 c.pos)
        for ty in tys:
            if not is_l_admissible(ty):
                raise TypeCheckError(
                    BAD_L_SHAPE, f"inadmissible derivative argument type {ty}",
                    c.pos)
        k = len(tys)
        if len(args) != 1 + 2 * k:
            raise TypeCheckError(
                BAD_L_SHAPE,
                f"the derivative operator expects {1 + 2 * k} arguments "
                f"(function, {k} points, {k} directions), found {len(args)}",
                c.pos)
        for a in args:
            if contains_l(a):
                raise TypeCheckError(
                    L_INSIDE_L_ARGUMENT,
                    "the derivative operator cannot appear inside its own "
                    "arguments", c.pos)
        fty = arrow(*tys, DUAL)
        fe = self.check(args[0], env, fty)
        out: Expr = Const("L", tuple(tys), pos=c.pos)
        out = App(out, fe)
        for j, a in enumerate(args[1:]):
            out = App(out, self.check(a, env, tys[j % k]))
        return out, REAL


def _mark_shared(e: Expr, x: Optional[str]) -> Tuple[Expr, frozenset]:
    """e with each application under the lambda binding x that does not
    mention x (a free expression, in full laziness's terms) marked with its
    free variables, and the free variables of e.  A node whose children and
    mark are unchanged is returned itself, not rebuilt."""
    if isinstance(e, Var):
        return e, frozenset((e.name,))
    if isinstance(e, App):
        fn, ffv = _mark_shared(e.fn, x)
        arg, afv = _mark_shared(e.arg, x)
        fv = ffv | afv
        free = tuple(sorted(fv)) if x is not None and x not in fv else None
        if fn is e.fn and arg is e.arg and free == e.free:
            return e, fv
        return App(fn, arg, free), fv
    if isinstance(e, Lam):
        body, fv = _mark_shared(e.body, e.var)
        if body is not e.body:
            e = Lam(e.var, e.ty, body)
        return e, fv - {e.var}
    if isinstance(e, If):
        (cond, cfv), (then, tfv), (els, efv) = (
            _mark_shared(b, x) for b in (e.cond, e.then, e.els))
        if cond is not e.cond or then is not e.then or els is not e.els:
            e = If(cond, then, els, e.ty)
        return e, cfv | tfv | efv
    return e, frozenset()


def elaborate(e: Expr, env: Optional[Dict[str, Type]] = None) -> Tuple[Expr, Type]:
    """Type-check a surface term, returning the coercion-elaborated term
    with its sharing candidates marked (see `App.free`)."""
    out, ty = _Checker().infer(e, env or {})
    return _mark_shared(out, None)[0], ty


def typecheck(e: Expr) -> Type:
    return elaborate(e)[1]
