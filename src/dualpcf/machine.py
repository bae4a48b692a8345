"""Cost-indexed call-by-name evaluator.

`Machine` is an environment machine (Sestoft, "Deriving a lazy abstract
machine", JFP 1997).  It applies the reduction rules depth-first in the
order fixed by the evaluation contexts (function position first, then
operator arguments left to right) and never substitutes.  An argument
becomes a thunk, the code of the unevaluated term with its environment,
and a lambda value a closure over its environment and cost tag.  Each use
of a variable forces its thunk at the cost tag in force where the
variable occurs, the tag substitution would have given the argument
there.  `dualpcf.reducer.step`, the literal one-redex-at-a-time reducer
that substitutes, uses the same ground-rule table, Y unfolding and L
body; the conformance tests compare the two.

Each elaborated node is compiled once to a closure `run(m, env, tag)`
over its compiled children (Feeley and Lapalme, "Using closures for code
generation", 1987), with what elaboration fixed resolved then: a variable
is an index into a tuple environment, innermost binder first, and a
constant holds its rule.  A beta step and the forcing of a variable in
tail position return a tail transfer `(run, env, tag)` to a trampoline loop
(Ganz, Friedman and Wand, "Trampolined style", ICFP 1999), so a
tail-recursive loop runs in constant Python stack.  A node compiled
outside every lambda is closed and keeps its code (`App.code`,
`Lam.code`), so a term evaluated again is not compiled again; a run with
`overrides` compiles against its own rules and keeps nothing.  The Y
unfolding, the L body and the bottom of a straddled conditional are
compiled once per type, or per type arguments.

A known call, a first-order constant applied to all its operands (`c a`
for `c` of arity 1, `c a b` for arity 2), fires the rule that constant
resolved to, as eval/apply does (Marlow and Peyton Jones, "Making a fast
curry", ICFP 2004): one step per application node, then the operands'
values at the current tag, left to right, with no partial value and no
argument thunk.  Any other constant evaluates to a `ConstVal`, whose
arity and firing are fixed when the constant is compiled, with its Y
unfolding or L body: a generic application ticks its step, adds its
argument thunk and fires once there are arity of them.  int, sup, Y at a
continuous type and L fire at the cost tag where the constant was
evaluated, a first-order rule and Y at a discrete type at the tag of the
application that saturates it.  `Machine` runs a bisection's 2^m cells
in one loop; each cell is one step that applies f, evaluated once if
that ticks no step, to a value thunk holding the cell.  The cells go
into a fold (`add(v)`, then `result(m)`) fixed when the int or sup
constant is compiled.  On exact endpoints the rule's tree of `l/2 + r/2`
is the cells' sum over 2^m, so int keeps one running sum, and `max` at
`real` is associative, so sup at `real` keeps one running max.  sup at
`delta`, whose `max` is not associative, keeps the tree of the `max`
rule (`numeric.DualMax`), and a run with `overrides` the literal tree of
its own rules (`_Tree`), so an overridden `+`, `/` or `max` acts there,
as in `step`, which builds the combine as a term.

Where evaluating f ticked no step and gave a closure, the cells after
cell 0 run that closure's own body once per range of cells
(`Machine._pieces`).  Each cell is `[i, i+1] / 2^m`, so a range of them
is one interval whose numerators are integer polynomials in i
(`numeric.Poly`), and the rules of `Interval` and `DualInterval` run on
it unchanged; the denominators do not depend on i.  Each sign test the
body makes is decided for the whole range, or raises `Undecided`, and
the range is halved (Moore, "Interval Analysis", 1966), down to single
cells, which run as they are.  So the body takes the same branches and
the same steps at every cell of a range, and its value at each i is the
cell's: a run's steps count once per cell, and the exact sums of its
numerators over the range (Graham, Knuth and Patashnik, "Concrete
Mathematics", ch. 2) are what the per-cell fold adds, in the same form.
A sup takes each numerator's max at the end of the range where its
forward difference has one sign, or halves the range where neither sign
is decided.  A dual sup runs on the aligned blocks of its tree, the
ranges [2^k, 2^(k+1)) after cell 0, each a whole subtree: the std part
of dual `max` is `iv_max`, so the subtree's is the running max's, and
where every cell has one inf part, that is the subtree's.  A block whose
inf part varies with the cell is undone, and it and the cells after it
tick.  A bisection the body starts ticks all its cells on the range's
cell, so its value is a polynomial in i too, and its steps, the same at
every i, count once per outer cell; only the outer range is ever
halved.  Each range is folded, with its cells' steps, once its run
succeeds.  A range whose run is undetermined or stopped by the
recursion depth is undone, and its cells tick one at a time before the
ranges after it run; one whose cells' steps would pass the budget is
halved down to the one cell where it falls, which ticks.  Under the
literal tree of a run with `overrides`, whose combine takes values, not
ranges, every cell ticks.  So values, steps and budget stops are those
of the ticking loop.

The cost index bounds recursion unfolding at continuous types and the
bisection depth of integration and supremum.  A separate global step
budget guards against divergence of the unbounded fixed point.
"""
from __future__ import annotations

import operator
import sys
from fractions import Fraction
from typing import Optional, Tuple

from .lang import (
    App, Arrow, BoolLit, Const, CostTagged, DUAL, DualLit, Expr, If, IvLit,
    Lam, NatLit, REAL, SIGNATURES, Struct, Type, Var, app_spine, fresh_var,
    uncurry,
)
from .numeric import (
    DUAL_BOTTOM, DualInterval, DualMax, DualSum, IV_BOTTOM, IV_ONE,
    IV_ZERO, Interval, IntervalMax, IntervalSum, Undecided, Varying,
    dual_max, dual_min, dual_pr, in_dual, iv_max, iv_min, iv_pr,
    iv_unchecked, poly_cells,
)
from .typecheck import is_continuous_type

sys.setrecursionlimit(100_000)

DEFAULT_BUDGET = 10_000_000

# the constants whose value depends on the cost tag
_COST_INDEXED = frozenset(("int", "sup", "Y", "L"))
# the number of operands of each first-order constant
_ARITY = {name: len(uncurry(ty)[0]) for name, ty in SIGNATURES.items()
          if name not in _COST_INDEXED}


class StuckTerm(RuntimeError):
    """An untypeable configuration was reached: an interpreter bug."""


class UndeterminedSignal(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class StraddledZeroTest(UndeterminedSignal):
    """A zero test on a straddling interval, which has no value; a
    conditional testing it catches it (`straddled_if`)."""


class BudgetError(Exception):
    def __init__(self, steps: int):
        super().__init__(f"step budget exhausted after {steps} steps")
        self.steps = steps


class CeilingReached(Exception):
    def __init__(self, best, cost: int):
        super().__init__(f"refinement ceiling reached at cost {cost}")
        self.best = best
        self.cost = cost


# -- runtime values ---------------------------------------------------------

# Ground values are numbers: an `Interval` (real), a `DualInterval`
# (dual), an `int` (nat) or a `bool`; a zero test on a straddling interval
# has none and raises `StraddledZeroTest`.  A literal node evaluates to
# its payload; only `step`, which rewrites terms, wraps a rule's result in
# a literal node again.  An environment is a tuple of thunks, innermost
# binder first.  The remaining values:


class Thunk(Struct):
    """A call-by-name argument: the code of an unevaluated term and its
    environment.  It has no cost tag of its own: each use runs it at the
    tag in force where the variable occurs, the tag `subst` would give it.
    `run` may end in a tail transfer; `op` gives the value a primitive's
    operand needs.  A value thunk, an int/sup cell or range of cells,
    holds its value as `env`, and its code returns it.  Thunks compare by
    identity."""
    __slots__ = ("run", "op", "env")
    _fields = ("run",)  # shown by repr
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, run, op, env):
        self.run = run
        self.op = op
        self.env = env


# builds a thunk or closure without a Python-level `__init__`; the hot
# paths then store the slots themselves
_new = object.__new__


class Closure(Struct):
    __slots__ = ("body", "env", "tag")
    _fields = ("body", "tag")  # shown by repr
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, body, env: tuple, tag: int):
        self.body = body  # the run of the lambda's body
        self.env = env
        self.tag = tag


class ConstVal(Struct):
    """A constant's value, applied to the thunks `args`, fewer than its
    arity.  `fire(m, args, tag, at)`, fixed when the constant is compiled,
    applies its rule once `arity` thunks are there: `tag` is the cost tag
    the constant was evaluated at, `at` that of the saturating
    application."""
    __slots__ = _fields = ("name", "arity", "fire", "tag", "args")

    def __init__(self, name: str, arity: int, fire, tag: int,
                 args: Tuple[Thunk, ...]):
        self.name = name
        self.arity = arity
        self.fire = fire
        self.tag = tag
        self.args = args


# -- outcomes ---------------------------------------------------------------


class Outcome(Struct):
    """The result of a run, compared by its fields."""
    __slots__ = _fields = ("steps",)
    __hash__ = None  # mutable: `eval_refine` sets a `Value`'s value

    def __init__(self, steps: int = 0):
        self.steps = steps


class Value(Outcome):
    __slots__ = ("value",)
    _fields = Outcome._fields + __slots__

    def __init__(self, steps: int = 0, value=None):
        super().__init__(steps)
        self.value = value


class Undetermined(Outcome):
    __slots__ = ("reason",)
    _fields = Outcome._fields + __slots__

    def __init__(self, steps: int = 0, reason: str = ""):
        super().__init__(steps)
        self.reason = reason


class BudgetExhausted(Outcome):
    """A run stopped by the step budget, or by the interpreter's recursion
    depth on a divergent term: `reason` names which ran out."""
    __slots__ = ("reason",)
    _fields = Outcome._fields + __slots__

    def __init__(self, steps: int = 0, reason: str = "step budget"):
        super().__init__(steps)
        self.reason = reason


# -- ground rules, shared by the recursive evaluator and by `step` ----------


def _nat_iv(n: int) -> Interval:
    return iv_unchecked(n, n, 0, 1)


def _as_dual(v) -> DualInterval:
    """The dual number of a real or dual literal node: a helper for the
    rules passed as `overrides`, which receive literal nodes."""
    if isinstance(v, DualLit):
        return v.dv
    if isinstance(v, IvLit):
        return in_dual(v.iv)
    if isinstance(v, NatLit):
        return in_dual(_nat_iv(v.n))
    raise StuckTerm(f"expected a real value, found {v}")


def _lt0(iv: Interval):
    # the signs of the numerators are those of the ends (bottom: -1, 1)
    if iv.a > 0:
        return True
    if iv.b < 0:
        return False
    raise StraddledZeroTest("zero test on a straddling interval")


# The delta-rule of each saturated first-order constant, keyed by its name
# and carrier name: the numeric operation itself, applied to values.  The
# elaborator fixes the carrier of every overloaded constant and coerces
# each operand to it, so no rule looks at its operands to pick one.
GROUND_RULES = {
    ("+", "pi"): operator.add, ("+", "delta"): operator.add,
    ("-", "pi"): operator.sub, ("-", "delta"): operator.sub,
    ("*", "pi"): operator.mul, ("*", "delta"): operator.mul,
    ("min", "pi"): iv_min, ("min", "delta"): dual_min,
    ("max", "pi"): iv_max, ("max", "delta"): dual_max,
    ("/", "pi"): Interval.div_nat, ("/", "delta"): DualInterval.div_nat,
    ("pr", "pi"): iv_pr, ("pr", "delta"): dual_pr,
    ("in_pi", None): _nat_iv,
    ("in_delta", None): in_dual,
    ("succ", None): lambda n: n + 1,
    ("pred", None): lambda n: max(0, n - 1),
    ("iszero", None): lambda n: n == 0,
    ("lt0", None): _lt0,
    ("In", None): lambda d: d.inf,
}

# The payload of each literal node, and the literal node of each value.
_PAYLOAD = {cls: operator.attrgetter(field) for cls, field in (
    (NatLit, "n"), (BoolLit, "b"), (IvLit, "iv"), (DualLit, "dv"))}
_LIT = {int: NatLit, bool: BoolLit, Interval: IvLit, DualInterval: DualLit}


def _unlit(e):
    """The value of a literal node; any other term is returned as it is."""
    payload = _PAYLOAD.get(e.__class__)
    return e if payload is None else payload(e)


def _lit(v) -> Expr:
    return _LIT[v.__class__](v)


def _override_rule(fn, carrier: Optional[str]):
    """An `overrides` entry as a rule on values: `fn` takes the carrier
    name and literal nodes, and returns a literal node."""
    return lambda *vals: _unlit(fn(carrier, [_lit(v) for v in vals]))


def ground_rules(overrides=None) -> dict:
    """The delta-rule of each (constant, carrier name): `GROUND_RULES`.

    Rules act on values (`Interval`, `DualInterval`, `int`, `bool`) and
    return one; a zero test on a straddling interval raises
    `StraddledZeroTest`.
    The carrier name is "pi" or "delta", and None for constants with a
    fixed signature.  An entry `overrides[name]`, called as
    `fn(carrier name, literal nodes)` and returning a literal node,
    replaces the constant's rule wherever it fires, the int/sup combine
    included, in both `Machine` and `step`.  Only `step` fires `+` and
    `/` at `pi` outside the combine: its bisection rule moves each cell
    with them (`reducer._rescaled`), while `Machine` computes the cells
    directly.
    So an override of `+` or `/` at `pi` changes the cells of an int/sup
    under `step` alone, and the two reducers then disagree.
    """
    if not overrides:
        return GROUND_RULES
    return {key: _override_rule(overrides[key[0]], key[1])
            if key[0] in overrides else rule
            for key, rule in GROUND_RULES.items()}


def _rule(rules: dict, name: str, carrier: Optional[str]):
    rule = rules.get((name, carrier))
    if rule is None:
        raise StuckTerm(f"no ground rule for constant {name!r} "
                        f"at carrier {carrier!r}")
    return rule


def intsup_combine(kind: str, carrier, lower, upper, op, two):
    """The bisection rule's combine at the carrier: `l/2 + r/2` for int,
    `max l r` for sup.  `op(name, carrier, args)` applies one constant:
    `step` builds the term, and a `Machine` run with `overrides` fires
    the rules on values (without them it sums an int's cells once, which
    equals the tree of these combines).  `two` is the natural 2 in the
    same form: `NatLit(2)` or `2`."""
    if kind == "int":
        return op("+", carrier, [op("/", carrier, [lower, two]),
                                 op("/", carrier, [upper, two])])
    return op("max", carrier, [lower, upper])


def bottom_expr(ty: Type) -> Expr:
    """The bottom literal of a continuous type, lambda-wrapped as needed."""
    if ty == DUAL:
        return DualLit(DUAL_BOTTOM)
    if ty == REAL:
        return IvLit(IV_BOTTOM)
    if isinstance(ty, Arrow):
        return Lam(fresh_var("b"), ty.src, bottom_expr(ty.dst))
    raise StuckTerm(f"no bottom literal at type {ty}")


def straddled_if(ty: Type) -> Expr:
    """The rule for a conditional at type ty whose zero test straddles
    zero: bottom at a continuous type, undetermined at any other."""
    if not is_continuous_type(ty):
        raise UndeterminedSignal(
            "conditional on a zero-straddling test at a non-continuous type")
    return bottom_expr(ty)


def unfold_y(ty: Type, f: Expr, n: Optional[int]) -> Expr:
    """The fixed-point rule: `Y f` unfolds to `f (Y f)`.  Bounded by cost
    n, the unfolding runs at cost n - 1 and cost 0 gives bottom; n None
    (a discrete type) unfolds without bound."""
    if n == 0:
        return bottom_expr(ty)
    body = App(f, App(Const("Y", (ty,)), f))
    return body if n is None else CostTagged(body, n - 1)


def lift_eps(ty: Type, e: Expr) -> Expr:
    """The epsilon-scaling macro at an admissible type, applied to e."""
    if ty == DUAL:
        unit = DualLit(DualInterval(IV_ZERO, IV_ONE))
        return App(App(Const("*", (DUAL,)), unit), e)
    if isinstance(ty, Arrow):
        x = fresh_var("e")
        return Lam(x, ty.src, lift_eps(ty.dst, App(e, Var(x))))
    raise StuckTerm(f"epsilon macro undefined at type {ty}")


def lift_plus(ty: Type, a: Expr, b: Expr) -> Expr:
    """The pointwise dual addition macro at an admissible type."""
    if ty == DUAL:
        return App(App(Const("+", (DUAL,)), a), b)
    if isinstance(ty, Arrow):
        x = fresh_var("p")
        return Lam(x, ty.src, lift_plus(ty.dst, App(a, Var(x)), App(b, Var(x))))
    raise StuckTerm(f"plus macro undefined at type {ty}")


def l_body(targs, args) -> Expr:
    """The derivative operator's body for `L[targs] f x1..xk d1..dk`: f
    applied to each point plus epsilon times its direction, lifted to the
    argument's type.  Its infinitesimal part is the derivative."""
    k = len(targs)
    f, points, dirs = args[0], args[1:1 + k], args[1 + k:]
    return app_spine(f, [lift_plus(ty, p, lift_eps(ty, d))
                         for ty, p, d in zip(targs, points, dirs)])


# -- the compiled environment machine --------------------------------------


# The rule templates compiled against `GROUND_RULES`, by key (see
# `Machine._template`)
_TEMPLATES: dict = {}
_F = "%F"  # the Y unfolding's reserved variable; the L body's are %L<i>


def _drive(m, v):
    """Continue tail transfers `(run, env, tag)` until a value results;
    no value is a tuple."""
    while v.__class__ is tuple:
        run, env, tag = v
        v = run(m, env, tag)
    return v


def _valued(run):
    return lambda m, env, tag: _drive(m, run(m, env, tag))


def _over_budget(m):
    """The error of a run whose steps passed the budget, stopped where
    ticking one step at a time stops it."""
    m.steps = m.budget + 1
    return BudgetError(m.steps)


# the code of a value thunk, whose environment is its value
_its_value = lambda m, value, tag: value


def _applied(m, f_run, tag):
    """The run of `App(f, DualLit(m.arg))` at the tag, f's code `f_run`:
    f's value, which a closed lambda gives from its kept code, applied to
    a value thunk holding arg in one step, as the generic run of
    `_compile_app` applies it.  Called where that run would be, so a
    recursion-depth stop falls on the same step."""
    fv = f_run(m, (), tag)
    if fv.__class__ is tuple:
        fv = _drive(m, fv)
    th = _new(Thunk)
    th.run = th.op = _its_value
    th.env = m.arg
    m.steps += 1
    if m.steps > m.budget:
        raise _over_budget(m)
    if fv.__class__ is Closure:  # a beta step: a tail transfer
        return fv.body, (th,) + fv.env, fv.tag
    return m._apply(fv, th, tag)


class _Tree(DualMax):
    """The literal combining tree of a bisection's cells under the combine
    of a run with `overrides`, which fires its rules on values: each of
    its cells ticks, and none is added as a block."""
    __slots__ = ("combine",)

    def __init__(self, combine):
        super().__init__()
        self.combine = combine


class Machine:
    __slots__ = ("budget", "arg", "steps", "_rules", "_cache", "_ranging")

    def __init__(self, budget: int = DEFAULT_BUDGET, overrides=None,
                 arg=None):
        self.budget = budget
        # a value each run applies its function term to, or None
        self.arg = arg
        # The rule of each (constant, carrier name), and the compiled rule
        # templates
        self._rules = ground_rules(overrides)
        self._cache = _TEMPLATES if self._rules is GROUND_RULES else {}
        self.steps = 0
        # whether a bisection is running its body on a range of cells
        self._ranging = False

    def evalc(self, e: Expr, tag: int):
        """Evaluate a closed term at cost `tag`, a natural, or with `arg`,
        the closed function term e applied to it.  Every tag the run meets
        is one too: a closure's tag, or the tag in force."""
        run = self._compile(e, ())[0]
        if self.arg is None:
            return _drive(self, run(self, (), tag))
        return _drive(self, _applied(self, run, tag))

    # -- the compiler --------------------------------------------------

    def _compile(self, e: Expr, scope: tuple):
        """Compile e, whose free variables `scope` names innermost first, to
        `(run, op)`: `run(m, env, tag)` returns e's value or a tail
        transfer, and `op` the value a primitive's operand needs.  An
        application or lambda compiled in the empty scope is closed and
        keeps its code."""
        cls = e.__class__
        keep = (not scope and (cls is App or cls is Lam)
                and self._rules is GROUND_RULES)
        if keep and e.code is not None:
            return e.code
        if cls is App:
            code = self._compile_app(e, scope)
        elif cls is Var:
            if e.name not in scope:
                raise StuckTerm(f"unbound variable {e.name}")
            i = scope.index(e.name)

            def run(m, env, tag):  # forcing the thunk: a tail transfer
                th = env[i]
                return th.run, th.env, tag

            def op(m, env, tag):
                th = env[i]
                return th.op(m, th.env, tag)

            code = run, op
        elif cls is If:
            cond, then, els = [self._compile(x, scope)[0]
                               for x in (e.cond, e.then, e.els)]
            ty = e.ty

            def run(m, env, tag):
                m.steps += 1
                if m.steps > m.budget:
                    raise _over_budget(m)
                try:
                    cv = _drive(m, cond(m, env, tag))
                except StraddledZeroTest:
                    bottom = m._template(("bottom", ty),
                                         lambda: straddled_if(ty))
                    return bottom[0], (), tag
                return (then if cv else els)(m, env, tag)

            code = run, _valued(run)
        else:
            if cls is Lam:
                body = self._compile(e.body, (e.var,) + scope)[0]

                def run(m, env, tag):
                    c = _new(Closure)
                    c.body = body
                    c.env = env
                    c.tag = tag
                    return c
            elif cls is Const:
                run = self._compile_const(e)
            elif cls in _PAYLOAD:
                v = _PAYLOAD[cls](e)
                run = lambda m, env, tag: v
            else:
                raise StuckTerm(f"cannot evaluate {e!r}")
            code = run, run
        if keep:
            e.code = code
        return code

    def _rule(self, c: Const):
        return _rule(self._rules, c.name, c.targs[0].name if c.targs else None)

    def _compile_const(self, c: Const):
        """The code of a constant: its `ConstVal` at the tag in force, with
        the firing of its one rule."""
        name, targs = c.name, c.targs
        if name in _ARITY:
            rule, arity = self._rule(c), _ARITY[name]

            def fire(m, args, tag, at):  # the operands' values at `at`
                return rule(*[a.op(m, a.env, at) for a in args])
        elif name in ("int", "sup"):
            fold, arity = self._fold(name, targs[0]), 1

            def fire(m, args, tag, at):  # bisected at the constant's tag
                return m._reduce_intsup(fold(), tag, args[0])
        elif name == "Y":
            ty, arity = targs[0], 1
            unfold = self._template(("Y", ty),
                                    lambda: unfold_y(ty, Var(_F), None), (_F,))
            if is_continuous_type(ty):
                bottom = self._template(("bottom", ty),
                                        lambda: bottom_expr(ty))

                def fire(m, args, tag, at):
                    # unfold_y: at cost n the unfolding runs at n - 1, and
                    # cost 0 gives bottom
                    if tag == 0:
                        return bottom[0], (), at
                    return unfold[0], args, tag - 1
            else:
                def fire(m, args, tag, at):  # unbounded, at the tag in force
                    return unfold[0], args, at
        else:
            arity = 1 + 2 * len(targs)
            xs = tuple(f"%L{i}" for i in range(arity))
            body = self._template(("L", targs),
                                  lambda: l_body(targs, [Var(x) for x in xs]),
                                  xs)

            def fire(m, args, tag, at):
                return _drive(m, body[0](m, args, tag)).inf
        return lambda m, env, tag: ConstVal(name, arity, fire, tag, ())

    def _fold(self, kind: str, carrier: Type):
        """The factory of an int or sup bisection's fold at the carrier,
        fixed with the run's rules: without `overrides`, the running sum
        of int, the running max of sup at `real` and the tree of dual
        `max` on blocks, else the literal tree."""
        rules = self._rules
        if rules is not GROUND_RULES:
            ground = lambda name, c, vals: rules[name, c.name](*vals)
            combine = lambda lv, rv: intsup_combine(kind, carrier, lv, rv,
                                                    ground, 2)
            return lambda: _Tree(combine)
        if kind == "int":
            return IntervalSum if carrier.name == "pi" else DualSum
        return IntervalMax if carrier.name == "pi" else DualMax

    def _compile_app(self, e: App, scope: tuple):
        fn, arg = e.fn, e.arg
        if fn.__class__ is Const and _ARITY.get(fn.name) == 1:
            # a known call: one step, then the rule on the operand's value
            rule = self._rule(fn)
            a_op = self._compile(arg, scope)[1]

            def run(m, env, tag):
                m.steps += 1
                if m.steps > m.budget:
                    raise _over_budget(m)
                return rule(a_op(m, env, tag))

            return run, run
        if fn.__class__ is App and fn.fn.__class__ is Const \
                and _ARITY.get(fn.fn.name) == 2:
            # two application nodes, two steps
            rule = self._rule(fn.fn)
            a_op = self._compile(fn.arg, scope)[1]
            b_op = self._compile(arg, scope)[1]

            def run(m, env, tag):
                m.steps += 2
                if m.steps > m.budget:
                    raise _over_budget(m)
                return rule(a_op(m, env, tag), b_op(m, env, tag))

            return run, run
        f_run = self._compile(fn, scope)[0]
        a_run, a_op = self._compile(arg, scope)
        # a variable argument passes on the thunk it is bound to, so
        # forwarding chains do not grow with each Y unfolding
        i = scope.index(arg.name) if arg.__class__ is Var else None

        def run(m, env, tag):
            fv = f_run(m, env, tag)
            if fv.__class__ is tuple:
                fv = _drive(m, fv)
            if i is None:
                th = _new(Thunk)
                th.run, th.op, th.env = a_run, a_op, env
            else:
                th = env[i]
            m.steps += 1
            if m.steps > m.budget:
                raise _over_budget(m)
            if fv.__class__ is Closure:  # a beta step: a tail transfer
                return fv.body, (th,) + fv.env, fv.tag
            return m._apply(fv, th, tag)

        return run, _valued(run)

    def _template(self, key, make, scope: tuple = ()) -> list:
        """`[run]` of the rule template `make()` builds, compiled once per
        key; the list exists before its code, so the Y unfolding can hold
        itself."""
        cell = self._cache.get(key)
        if cell is None:
            e = make()
            cell = self._cache[key] = [None]
            cell[0] = self._compile(e, scope)[0]
        return cell

    # -- application rules ----------------------------------------------

    def _apply(self, fv: ConstVal, th: Thunk, tag: int):
        """Apply a constant's value to an argument thunk at the tag in
        force; the step was ticked by the caller.  The result may be a
        tail transfer."""
        args = fv.args + (th,)
        if len(args) < fv.arity:
            return ConstVal(fv.name, fv.arity, fv.fire, fv.tag, args)
        return fv.fire(self, args, fv.tag, tag)

    def _reduce_intsup(self, total, n: int, f: Thunk):
        # int or sup at cost n bisects n times and runs f at n.  The
        # bisection rule rescales f with wrapper lambdas; composing those
        # affine maps sends [0,1] to an explicit dyadic cell, so each of
        # the 2^n cells applies f to its cell directly, one application
        # step.  The cells run left to right into the fold `total`.  Each
        # internal node of the combining tree ticks where the rule does,
        # before its left subtree: just before cell i, as many nodes as i
        # has trailing zero bits (n for cell 0).
        f_run, f_env = f.run, f.env
        if n > self.budget:  # cell 0's first tick passes it: build no 2**n
            raise _over_budget(self)
        closure = None  # f's value, once evaluating f ticked no step
        cells = 1 << n
        # cell 0, every cell under the literal tree or inside a range run,
        # and each range `_pieces` hands back tick here, in the loop's own
        # frame, so the recursion depth stops them where the ticking loop
        # does
        i, ticks_to = 0, cells if total.__class__ is _Tree \
            or self._ranging else 1
        # The dual max tree takes aligned blocks, whole subtrees: from i to
        # the next multiple of i's lowest set bit.  Once a block is handed
        # back, the cells after it tick too: an inf part that varies in one
        # block varies in the larger ones after it unless a branch changes,
        # so trying each would cost a range run apiece for nothing; and a
        # run stopped in the block stops there
        blocks = total.__class__ is DualMax
        while i < cells:
            if i >= ticks_to and closure is not None:
                i, ticks_to = self._pieces(
                    closure, total, i, i + (i & -i) if blocks else cells, n)
                if blocks and i < ticks_to:
                    ticks_to = cells
                continue
            self.steps += (i & -i).bit_length() - 1 if i else n
            if self.steps > self.budget:
                raise _over_budget(self)
            fv = closure
            if fv is None:
                before = self.steps
                fv = _drive(self, f_run(self, f_env, n))
                if fv.__class__ is Closure and self.steps == before:
                    closure = fv
            # the cell [i, i+1] / 2**n, bound as a value thunk
            th = _new(Thunk)
            th.run = th.op = _its_value
            th.env = iv_unchecked(i, i + 1, n, 1)
            self.steps += 1
            if self.steps > self.budget:
                raise _over_budget(self)
            if fv.__class__ is Closure:
                v = fv.body(self, (th,) + fv.env, fv.tag)
            else:
                v = self._apply(fv, th, n)
            if v.__class__ is tuple:
                v = _drive(self, v)
            total.add(v)
            i += 1
        return total.result(n)

    def _pieces(self, fv: Closure, total, lo: int, hi: int, n: int):
        """Fold cells lo to hi - 1 of a bisection at cost n into the running
        sum or max or the dual max tree `total`, left to right, one run of
        the body of `fv`, f's value, per range: on `poly_cells`, or on the
        one cell, and `add_cells` sums the value's numerators or takes
        their peaks.  A range where a sign test or a peak is `Undecided`,
        or whose cells' steps would pass the budget, is halved.  A
        bisection the body starts ticks its cells, whose values are then
        polynomials in the range's cell index too.  A folded range adds,
        per cell, its tree ticks, the application, and the run's steps.
        Returns `(lo, end)`, its run undone, for a range that is
        undetermined or stopped by the recursion depth, or a dual max
        block whose inf part is `Varying`; `(lo, lo + 1)` for the one cell
        where the budget falls; and `(hi, hi)` once every cell is
        folded."""
        ends = [hi]
        self._ranging = True
        try:
            while ends:
                end = ends[-1]
                cells, steps = end - lo, self.steps
                th = _new(Thunk)
                th.run = th.op = _its_value
                th.env = poly_cells(lo, end, n) if cells > 1 else \
                    iv_unchecked(lo, end, n, 1)
                try:
                    v = _drive(self, fv.body(self, (th,) + fv.env, fv.tag))
                    # per cell the application and the run; the tree
                    # ticks, the cells' trailing zero bits, sum to
                    # cells - popcount(end - 1) + popcount(lo - 1)
                    more = cells * (2 + self.steps - steps) \
                        - (end - 1).bit_count() + (lo - 1).bit_count()
                    if steps + more > self.budget:
                        # halved down to the one cell where it falls
                        if cells > 1:
                            raise Undecided
                        self.steps = steps
                        return lo, end
                    total.add_cells(v, cells)
                except Undecided:
                    self.steps = steps
                    ends.append((lo + end) // 2)
                except BudgetError:  # so does the range's first cell
                    self.steps = steps
                    return lo, lo + 1
                except (UndeterminedSignal, RecursionError, Varying):
                    self.steps = steps
                    return lo, end
                else:
                    self.steps = steps + more
                    ends.pop()
                    lo = end
        finally:
            self._ranging = False
        return hi, hi

    # -- public driver ------------------------------------------------

    def eval_at_cost(self, e: Expr, n: int) -> Outcome:
        """Normalize a closed, elaborated term of ground type at cost n.

        With the machine's `arg`, e is a closed function term, applied to
        a value thunk holding arg (see `_applied`): the outcome is that of
        `App(e, DualLit(arg))`, but no application is built or compiled.

        A run that exhausts the step budget, or the interpreter's recursion
        depth on a divergent term, ends in `BudgetExhausted` with that
        reason; a zero test on a zero-straddling interval that no
        conditional at a continuous type tests is `Undetermined`.  An entry
        of `overrides` replaces its constant's rule wherever that rule
        fires, the int/sup combine included (see `ground_rules`).  A
        negative cost raises `ValueError`.
        """
        if n < 0:
            raise ValueError(f"negative cost {n}")
        self.steps = 0
        try:
            v = self.evalc(e, n)
        except UndeterminedSignal as u:
            return Undetermined(self.steps, u.reason)
        except BudgetError:
            return BudgetExhausted(self.steps)
        except RecursionError:
            return BudgetExhausted(self.steps, "recursion depth")
        return Value(self.steps, v)


def eval_at_cost(e: Expr, n: int, budget: int = DEFAULT_BUDGET,
                 overrides=None, arg=None) -> Outcome:
    """`Machine.eval_at_cost` on a new machine, which applies e to `arg`
    if it is given."""
    return Machine(budget, overrides, arg).eval_at_cost(e, n)


def eval_refine(e: Expr, target_width, cost_ceiling: int = 4096,
                budget: int = DEFAULT_BUDGET, std_only: bool = False,
                arg=None) -> Tuple[Outcome, int]:
    """Evaluate at costs 1, 2, 4, ..., capped at the cost ceiling (the
    chain is 0 alone for ceiling 0), until both component widths reach
    the target (or only the standard part's width, with std_only).  With
    `arg`, each evaluation applies the function term e to it, as
    `eval_at_cost` does.

    Returns the last outcome and its cost: a `Value` holding a
    `DualInterval`, or the `Undetermined` or `BudgetExhausted` outcome
    that ended the chain.  A discrete result (a nat or bool) is exact and
    has nothing to refine, so its `Value` is returned at the chain's
    first cost.  Raises `CeilingReached` when the widths are still too
    wide at the cost ceiling.
    """
    if target_width.__class__ is not Fraction:
        target_width = Fraction(target_width)
    p, q = target_width.numerator, target_width.denominator

    def narrow(iv):  # width <= p/q, on the integers (bottom: never)
        return (iv.b - iv.a) * q <= p * (iv.d << iv.e)

    n = min(1, cost_ceiling)
    while True:
        out = eval_at_cost(e, n, budget, arg=arg)
        if not isinstance(out, Value) or \
                not isinstance(out.value, (Interval, DualInterval)):
            return out, n
        v = out.value
        if v.__class__ is Interval:
            out.value = v = in_dual(v)
        if narrow(v.std) and (std_only or narrow(v.inf)):
            return out, n
        if n >= cost_ceiling:
            raise CeilingReached(v, n)
        n = min(2 * n, cost_ceiling)

