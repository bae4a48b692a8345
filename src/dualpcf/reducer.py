"""The literal one-step reducer: `step` applies exactly one reduction rule
to a term, substituting with `subst`, and `run_steps` iterates it to a
normal form.

The conformance tests compare it with the environment machine of
`dualpcf.machine`, whose ground-rule table, Y unfolding, L body and
int/sup combine it shares.  The evaluator does not use it, so `import
dualpcf` does not load it.
"""
from __future__ import annotations

from typing import Optional

from .lang import (
    App, BoolLit, Const, CostTagged, Expr, If, IntSupAt, IvLit, Lam, NatLit,
    REAL, Type, Var, app_spine, fresh_var, spine,
)
from .machine import (
    BudgetError, StraddledZeroTest, StuckTerm, _ARITY, _PAYLOAD, _lit, _rule,
    _unlit, ground_rules, intsup_combine, l_body, straddled_if, unfold_y,
)
from .numeric import IV_ONE, IV_UNIT
from .typecheck import is_continuous_type

_LITERALS = tuple(_PAYLOAD)


def free_vars(e: Expr) -> set:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, App):
        return free_vars(e.fn) | free_vars(e.arg)
    if isinstance(e, Lam):
        return free_vars(e.body) - {e.var}
    if isinstance(e, If):
        return free_vars(e.cond) | free_vars(e.then) | free_vars(e.els)
    if isinstance(e, CostTagged):
        return free_vars(e.expr)
    return set()


def subst(e: Expr, x: str, v: Expr) -> Expr:
    """Capture-avoiding substitution of v for x in e.

    The free variables of v are computed at most once, and binders are
    renamed only on an actual collision, so the common case of a closed v
    pays nothing extra.
    """
    fv = free_vars(v) if isinstance(v, (Var, Lam, App, If)) else frozenset()
    return _subst(e, x, v, fv)


def _subst(e: Expr, x: str, v: Expr, fv) -> Expr:
    if isinstance(e, Var):
        return v if e.name == x else e
    if isinstance(e, App):
        return App(_subst(e.fn, x, v, fv), _subst(e.arg, x, v, fv))
    if isinstance(e, Lam):
        if e.var == x:
            return e
        if e.var in fv:
            nv = fresh_var("r")
            body = _subst(e.body, e.var, Var(nv), frozenset())
            return Lam(nv, e.ty, _subst(body, x, v, fv))
        return Lam(e.var, e.ty, _subst(e.body, x, v, fv))
    if isinstance(e, If):
        return If(_subst(e.cond, x, v, fv), _subst(e.then, x, v, fv),
                  _subst(e.els, x, v, fv), e.ty)
    if isinstance(e, CostTagged):
        return CostTagged(_subst(e.expr, x, v, fv), e.n)
    return e


def _const_app(name: str, carrier: Type, args) -> Expr:
    return app_spine(Const(name, (carrier,)), args)


def _rescaled(f: Expr, upper_half: bool) -> Expr:
    """f on the lower or upper half of [0,1], stretched back to [0,1]."""
    x = fresh_var("t")
    t = _const_app("+", REAL, [Var(x), IvLit(IV_ONE)]) if upper_half \
        else Var(x)
    return Lam(x, REAL, App(f, _const_app("/", REAL, [t, NatLit(2)])))


def _is_value(e: Expr) -> bool:
    if isinstance(e, _LITERALS) or isinstance(e, (Lam, Const, IntSupAt)):
        return True
    if isinstance(e, CostTagged):
        return isinstance(e.expr, (Lam, Const))
    if isinstance(e, App):
        # unsaturated constant application over values
        head, args = spine(e)
        name = _const_name(head)
        if name in _ARITY and len(args) < _ARITY[name]:
            return all(_is_value(a) for a in args)
        if name == "L":
            c = head.expr if isinstance(head, CostTagged) else head
            return len(args) < 1 + 2 * len(c.targs)
    return False


def _const_name(head: Expr) -> Optional[str]:
    if isinstance(head, CostTagged):
        head = head.expr
    if isinstance(head, Const):
        return head.name
    return None


def step(e: Expr, overrides=None) -> Optional[Expr]:
    """Apply exactly one reduction rule; None if e is a normal form."""
    if isinstance(e, CostTagged):
        inner, n = e.expr, e.n
        if isinstance(inner, _LITERALS):
            return inner  # de-tagging
        if isinstance(inner, Const):
            if inner.name in ("int", "sup"):
                return IntSupAt(inner.name, inner.targs[0], n, n)
            if inner.name == "Y":
                if is_continuous_type(inner.targs[0]):
                    return None  # value: reduced when applied
                return inner  # constant de-tagging
            if inner.name == "L":
                return None  # value: reduced when applied
            return inner  # constant de-tagging
        if isinstance(inner, Lam):
            return None  # tagged closure: a value
        if isinstance(inner, App):
            head, args = spine(inner)
            name = _const_name(head)
            if name in _ARITY and len(args) == _ARITY[name]:
                # cost distribution over an operator application
                return app_spine(head, [CostTagged(a, n) for a in args])
            return App(CostTagged(inner.fn, n), inner.arg)
        if isinstance(inner, If):
            return If(CostTagged(inner.cond, n), CostTagged(inner.then, n),
                      CostTagged(inner.els, n), inner.ty)
        if isinstance(inner, CostTagged):
            e2 = step(inner, overrides)
            return CostTagged(e2, n) if e2 is not None else inner
        return None
    if isinstance(e, App):
        head, args = spine(e)
        name = _const_name(head)
        if name in _ARITY and len(args) == _ARITY[name]:
            # reduce leftmost non-value argument, then fire the delta rule
            for i, a in enumerate(args):
                if not _is_value(a):
                    a2 = step(a, overrides)
                    if a2 is None:
                        raise StuckTerm(f"stuck operand {a}")
                    return app_spine(head, args[:i] + [a2] + args[i + 1:])
            h = head.expr if isinstance(head, CostTagged) else head
            rule = _rule(ground_rules(overrides), name,
                         h.targs[0].name if h.targs else None)
            # a zero test on a straddling interval raises here
            return _lit(rule(*[_unlit(a) for a in args]))
        if isinstance(e.fn, CostTagged) and isinstance(e.fn.expr, Lam):
            lam, m = e.fn.expr, e.fn.n
            return CostTagged(subst(lam.body, lam.var, e.arg), m)
        if isinstance(e.fn, Lam):
            return subst(e.fn.body, e.fn.var, e.arg)
        if isinstance(e.fn, IntSupAt):
            node, f = e.fn, e.arg
            if node.m == 0:
                return App(CostTagged(f, node.n), IvLit(IV_UNIT))
            half = IntSupAt(node.kind, node.carrier, node.m - 1, node.n)
            return intsup_combine(node.kind, node.carrier,
                                  App(half, _rescaled(f, False)),
                                  App(half, _rescaled(f, True)), _const_app,
                                  NatLit(2))
        if isinstance(e.fn, CostTagged) and isinstance(e.fn.expr, Const):
            c, n = e.fn.expr, e.fn.n
            if c.name == "Y" and is_continuous_type(c.targs[0]):
                return unfold_y(c.targs[0], e.arg, n)
            if c.name in ("int", "sup"):
                return App(IntSupAt(c.name, c.targs[0], n, n), e.arg)
        if name == "L":
            h = head.expr if isinstance(head, CostTagged) else head
            k = len(h.targs)
            if len(args) == 1 + 2 * k and isinstance(head, CostTagged):
                return App(Const("In"), CostTagged(l_body(h.targs, args),
                                                   head.n))
        if name == "Y" and len(args) == 1 and isinstance(head, Const) \
                and not is_continuous_type(head.targs[0]):
            return unfold_y(head.targs[0], args[0], None)
        e2 = step(e.fn, overrides)
        if e2 is None:
            raise StuckTerm(f"stuck application head {e.fn}")
        return App(e2, e.arg)
    if isinstance(e, If):
        cond = e.cond
        if isinstance(cond, BoolLit):
            return e.then if cond.b else e.els
        try:
            e2 = step(cond, overrides)
        except StraddledZeroTest:
            # only the step firing the zero test raises it, since a
            # conditional in cond catches its own
            return straddled_if(e.ty)
        if e2 is None:
            raise StuckTerm(f"stuck conditional scrutinee {e.cond}")
        return If(e2, e.then, e.els, e.ty)
    return None


def run_steps(e: Expr, max_steps: int = 1000, overrides=None):
    """Iterate `step` to a normal form; returns (normal form, step count)."""
    for i in range(max_steps):
        e2 = step(e, overrides)
        if e2 is None:
            return e, i
        e = e2
    raise BudgetError(max_steps)
