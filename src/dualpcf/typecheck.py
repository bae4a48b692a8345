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
    App, Arrow, BOOL, BoolLit, CARRIER, Const, DUAL, Expr, Ground, If, Lam,
    NAT, NatLit, REAL, SIGNATURES, Type, Var, arrow, fresh_var, spine,
    uncurry,
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


def _at(ty: Type, carrier: Optional[Type]) -> Type:
    """ty with CARRIER replaced by carrier."""
    if isinstance(ty, Arrow):
        return Arrow(_at(ty.src, carrier), _at(ty.dst, carrier))
    return carrier if ty is CARRIER else ty


# The type of each constant at each carrier it takes, or at None if its
# type has no carrier: made once, so elaboration only looks types up.
_TYPES = {(name, c): _at(ty, c) for name, ty in SIGNATURES.items()
          for c in ((REAL, DUAL) if _at(ty, REAL) != ty else (None,))}

# Each overloaded constant but int and sup: the number of its operands at
# the carrier, which lead, and the types of the operands after them.
_OPERANDS = {name: (k, args[k:]) for name, ty in SIGNATURES.items()
             for args in [uncurry(ty)[0]] if (k := args.count(CARRIER))}


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


_L_IN_L = "the derivative operator cannot appear inside its own arguments"


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


class _Checker:
    """Elaboration in one pass: each method returns the elaborated term,
    with its type where the caller does not fix it."""

    def __init__(self):
        self.in_l = False  # within the arguments of an L

    def infer(self, e: Expr, env: Dict[str, Type]) -> Tuple[Expr, Type]:
        cls = e.__class__
        if cls is App:
            return self.elab_app(e, env, None)
        if cls is Var:
            ty = env.get(e.name)
            if ty is None:
                raise TypeCheckError(UNBOUND_VAR, f"unbound variable {e.name!r}",
                                     e.pos)
            return e, ty
        if cls is NatLit:
            return e, NAT
        if cls is Const:
            return self.infer_const(e)
        if cls is BoolLit:
            return e, BOOL
        if cls is Lam:
            if e.ty is None:
                raise TypeCheckError(MISMATCH,
                                     f"cannot infer unannotated binder {e.var!r}",
                                     _pos(e))
            body, bty = self.infer(e.body, {**env, e.var: e.ty})
            return Lam(e.var, e.ty, body), Arrow(e.ty, bty)
        if cls is If:
            return self.elab_if(e, env, None)
        raise TypeCheckError(MISMATCH, f"cannot type {e!r}", _pos(e))

    def check(self, e: Expr, env: Dict[str, Type], want: Type) -> Expr:
        if isinstance(e, Lam) and isinstance(want, Arrow):
            ty = e.ty if e.ty is not None else want.src
            if ty != want.src:
                raise TypeCheckError(
                    MISMATCH,
                    f"binder {e.var!r} has type {ty}, expected {want.src}",
                    _pos(e))
            return Lam(e.var, ty, self.check(e.body, {**env, e.var: ty},
                                             want.dst))
        if isinstance(e, If):
            return self.elab_if(e, env, want)[0]
        if isinstance(e, App):
            out, got = self.elab_app(e, env, want)
        else:
            out, got = self.infer(e, env)
        return self.coerce(out, got, want)

    def coerce(self, e: Expr, have: Type, want: Type) -> Expr:
        """e, of type have, at type want: the casts `in_pi` and `in_delta`
        inserted, pointwise under a lambda at an arrow type."""
        if have is want:
            return e
        if have is NAT and want is REAL:
            return App(Const("in_pi"), e)
        if have is NAT and want is DUAL:
            return App(Const("in_delta"), App(Const("in_pi"), e))
        if have is REAL and want is DUAL:
            return App(Const("in_delta"), e)
        if isinstance(have, Arrow) and isinstance(want, Arrow) \
                and have.src is want.src:
            # have != want, so the codomains differ and the body is new
            x = fresh_var("c")
            return Lam(x, have.src,
                       self.coerce(App(e, Var(x)), have.dst, want.dst))
        raise TypeCheckError(MISMATCH, f"expected {want}, found {have}",
                             _pos(e))

    # -- constants ----------------------------------------------------

    def infer_const(self, c: Const) -> Tuple[Expr, Type]:
        ty = _TYPES.get((c.name, None))
        if ty is not None:
            return c, ty
        if c.name in SIGNATURES:
            carrier = c.targs[0] if c.targs else DUAL
            return (Const(c.name, (carrier,), pos=c.pos),
                    _TYPES[c.name, carrier])
        if c.name == "Y":
            if len(c.targs) != 1:
                raise TypeCheckError(MISMATCH, "Y requires one type argument",
                                     c.pos)
            t = c.targs[0]
            return c, Arrow(Arrow(t, t), t)
        if c.name == "L":
            raise TypeCheckError(
                BAD_L_SHAPE, "the derivative operator must be fully applied",
                c.pos)
        raise TypeCheckError(MISMATCH, f"unknown constant {c.name!r}", c.pos)

    # -- coercions ----------------------------------------------------

    def _join_numeric(self, e: If, a: Type, b: Type) -> Type:
        if a in NUMERIC and b in NUMERIC:
            return max(a, b, key=NUMERIC.index)
        if a == b:
            return a
        raise TypeCheckError(MISMATCH,
                             f"incompatible branch types {a} and {b}",
                             _pos(e))

    # -- composite forms ----------------------------------------------

    def elab_if(self, e: If, env, want: Optional[Type]) -> Tuple[Expr, Type]:
        cond = self.check(e.cond, env, BOOL)
        if want is not None:
            return If(cond, self.check(e.then, env, want),
                      self.check(e.els, env, want), want), want
        then, tt = self.infer(e.then, env)
        els, te = self.infer(e.els, env)
        ty = self._join_numeric(e, tt, te)
        return (If(cond, self.coerce(then, tt, ty), self.coerce(els, te, ty),
                   ty), ty)

    def elab_app(self, e: App, env, want: Optional[Type]
                 ) -> Tuple[Expr, Type]:
        head, args = spine(e)
        if isinstance(head, Const):
            name = head.name
            operands = _OPERANDS.get(name)
            if operands and len(args) == operands[0] + len(operands[1]):
                return self.elab_overloaded(head, operands, args, env, want)
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
        return App(fn, self.check(e.arg, env, fty.src)), fty.dst

    def elab_overloaded(self, c: Const, operands, args, env,
                        want: Optional[Type]) -> Tuple[Expr, Type]:
        """An overloaded constant applied to all its operands.  The first k,
        at the carrier, are inferred, must be numeric and are coerced to it;
        the others are checked at their types.  The carrier is the one the
        context wants, if pi or delta, and otherwise delta if an operand is
        dual and pi if none is.  Every such constant returns its carrier."""
        k, rest = operands
        inferred = [self.infer(a, env) for a in args[:k]]
        carrier = REAL
        for _, ty in inferred:
            if ty not in NUMERIC:
                raise TypeCheckError(
                    MISMATCH, f"arithmetic on non-numeric type {ty}", c.pos)
            if ty is DUAL:
                carrier = DUAL
        if want in (REAL, DUAL):
            if want == REAL and carrier is DUAL:
                raise TypeCheckError(
                    MISMATCH, "dual operand in a real context", c.pos)
            carrier = want
        out: Expr = Const(c.name, (carrier,), pos=c.pos)
        for a, ty in inferred:
            out = App(out, self.coerce(a, ty, carrier))
        for a, ty in zip(args[k:], rest):
            out = App(out, self.check(a, env, ty))
        return out, carrier

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
        return App(Const("lt0", pos=c.pos), self.coerce(ae, at, REAL)), BOOL

    def elab_l(self, c: Const, args, env) -> Tuple[Expr, Type]:
        if self.in_l:
            raise TypeCheckError(L_INSIDE_L_ARGUMENT, _L_IN_L, c.pos)
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
        # an L met in the arguments raises, and any error there is read
        # as that error if an argument holds an L, ahead of type errors
        self.in_l = True
        try:
            out = App(Const("L", tuple(tys), pos=c.pos),
                      self.check(args[0], env, arrow(*tys, DUAL)))
            for j, a in enumerate(args[1:]):
                out = App(out, self.check(a, env, tys[j % k]))
        except TypeCheckError:
            if any(map(contains_l, args)):
                raise TypeCheckError(L_INSIDE_L_ARGUMENT, _L_IN_L,
                                     c.pos) from None
            raise
        finally:
            self.in_l = False
        return out, REAL


def elaborate(e: Expr, env: Optional[Dict[str, Type]] = None,
              want: Optional[Type] = None) -> Tuple[Expr, Type]:
    """Type-check a surface term, returning the coercion-elaborated term
    and its type: the type inferred, or `want` if given, with the casts
    to it inserted."""
    if want is None:
        return _Checker().infer(e, env or {})
    return _Checker().check(e, env or {}, want), want
