"""Conformance machinery: logical-relation checks, a finite-difference
oracle for the directional derivative, and refinement-chain checks.

The relation on dual intervals ties together a base evaluation, a
perturbed evaluation, and a dual evaluation whose infinitesimal part must
stay consistent with the observed difference quotient.  Universally
quantified premises are approximated by randomized sampling of related
input triples, built from the witness shapes that appear in consistency
arguments: a base interval f, its shift f + r*g, and the dual
(f meet (f + r*g)) + eps g.

The finite-difference oracle computes only what the soundness check
reads: the hull of the difference quotients at one radius, 2^-12.  Its
grid evaluations apply the function to each point's value (the `arg` of
`eval_refine`), so nothing is compiled per point.  The soundness check
runs `App(f, DualLit(...))`, as `dualpcf eval` runs the program, so the
two paths are checked against each other.

The costs are fixed: the relation is checked on evaluations at cost
RELATION_COST, derivative soundness at each of SOUNDNESS_COSTS.  Every
function checked here is elaborated and applied to sampled values of its
argument types, so at type `delta` the machine returns a `DualInterval`
and at type `pi` an `Interval`.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Tuple

from .lang import (
    App, Arrow, Const, DUAL, DualLit, Expr, IvLit, Lam, REAL, Struct, Var,
    fresh_var,
)
from .machine import CeilingReached, eval_at_cost, eval_refine, Value
from .numeric import DualInterval, Interval, IV_ZERO
from .typecheck import elaborate

RELATION_COST = 4
SOUNDNESS_COSTS = (0, 1, 2)


class OracleInconclusive(Exception):
    pass


class Verdict(Struct):
    __slots__ = _fields = ("holds", "checked", "detail")

    def __init__(self, holds: bool, checked: int = 0, detail: str = ""):
        self.holds = holds
        self.checked = checked
        self.detail = detail

    def __bool__(self) -> bool:
        return self.holds


# -- ground relations -------------------------------------------------------


def relation_holds_ground(r, x1: DualInterval, x2: DualInterval,
                          x3: DualInterval) -> bool:
    """The dual-interval relation at perturbation size r > 0.

    Requires the standard part of x3 to refine the hull of the standard
    parts of x1 and x2, and r times the infinitesimal part of x3 to be
    consistent with the difference of the standard parts.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("perturbation size must be positive")
    hull = x1.std.meet(x2.std)
    if not x3.std.leq(hull):
        return False
    return x3.inf.scale(r).consistent(x2.std - x1.std)


def relation_holds_real(i1: Interval, i2: Interval, i3: Interval) -> bool:
    """The real-interval relation: i3 refines the hull and i1, i2 agree."""
    return i3.leq(i1.meet(i2)) and i1.consistent(i2)


# -- sampling of related triples -------------------------------------------


def _dyadic(rng: random.Random, span: int = 4, max_denom_log: int = 10):
    d = 1 << rng.randint(0, max_denom_log)
    return Fraction(rng.randint(-span * d, span * d), d)


def _dyadic_interval(rng: random.Random) -> Interval:
    # bias toward point intervals: thin witnesses make the consistency
    # condition sharp, which is what distinguishes a broken constant
    a = _dyadic(rng)
    if rng.random() < 0.5:
        return Interval.point(a)
    b = _dyadic(rng)
    if a > b:
        a, b = b, a
    return Interval(a, b)


def sample_related_duals(rng: random.Random, r) -> Tuple[DualInterval,
                                                         DualInterval,
                                                         DualInterval]:
    """A triple of dual intervals related at perturbation size r."""
    r = Fraction(r)
    roll = rng.random()
    if roll < 0.2:
        x = DualInterval(_dyadic_interval(rng), IV_ZERO)
        return x, x, x
    f = _dyadic_interval(rng)
    g = _dyadic_interval(rng)
    shifted = f + g.scale(r)
    x1 = DualInterval(f, IV_ZERO)
    x2 = DualInterval(shifted, IV_ZERO)
    x3 = DualInterval(f.meet(shifted), g)
    return x1, x2, x3


def sample_related_reals(rng: random.Random) -> Tuple[Interval, Interval,
                                                      Interval]:
    base = _dyadic_interval(rng)
    pad1 = abs(_dyadic(rng, span=1))
    pad2 = abs(_dyadic(rng, span=1))
    i1, i2 = base.inflate(pad1), base.inflate(pad2)
    return i1, i2, i1.meet(i2)


def _sample_related_args(ty, rng: random.Random, r):
    """Related argument triples at a ground or first-order arrow type."""
    if ty == DUAL:
        x1, x2, x3 = sample_related_duals(rng, r)
        return DualLit(x1), DualLit(x2), DualLit(x3)
    if ty == REAL:
        i1, i2, i3 = sample_related_reals(rng)
        return IvLit(i1), IvLit(i2), IvLit(i3)
    if isinstance(ty, Arrow) and ty.dst == DUAL:
        a1, a2, a3 = _sample_related_args(DUAL, rng, r)
        x = fresh_var("s")
        if rng.random() < 0.5:
            return (Lam(x, ty.src, a1), Lam(x, ty.src, a2), Lam(x, ty.src, a3))
        # translations x + c preserve the relation pointwise; x is
        # embedded into delta first, as elaboration would
        v = elaborate(Var(x), {x: ty.src}, DUAL)[0]
        mk = lambda c: Lam(x, ty.src, App(App(Const("+", (DUAL,)), v), c))
        return mk(a1), mk(a2), mk(a3)
    raise ValueError(f"no sampler for arguments of type {ty}")


def _eval_ground(e: Expr, cost: int, overrides=None):
    out = eval_at_cost(e, cost, overrides=overrides)
    if not isinstance(out, Value):
        raise OracleInconclusive(f"evaluation did not produce a value: {out}")
    return out.value


def relation_holds(r, ty, f1: Expr, f2: Expr, f3: Expr, fuel: int = 50,
                   seed: int = 0, overrides=None) -> Verdict:
    """Check the logical relation at ty on closed terms by sampling.

    At ground type this is a single direct check; at arrow types, related
    argument triples are sampled and the relation is checked on the
    results, recursively through the arrow spine.
    """
    rng = random.Random(seed)
    r = Fraction(r)

    def check(ty, e1, e2, e3):
        if ty in (DUAL, REAL):
            v1, v2, v3 = (_eval_ground(e, RELATION_COST, overrides)
                          for e in (e1, e2, e3))
            if ty == DUAL and not relation_holds_ground(r, v1, v2, v3):
                return f"ground violation: {v1} ; {v2} ; {v3}"
            if ty == REAL and not relation_holds_real(v1, v2, v3):
                return f"real violation: {v1} ; {v2} ; {v3}"
            return None
        if isinstance(ty, Arrow):
            a1, a2, a3 = _sample_related_args(ty.src, rng, r)
            return check(ty.dst, App(e1, a1), App(e2, a2), App(e3, a3))
        raise ValueError(f"relation undefined at type {ty}")

    checked = 0
    for _ in range(fuel):
        bad = check(ty, f1, f2, f3)
        checked += 1
        if bad is not None:
            return Verdict(False, checked, bad)
        if ty in (DUAL, REAL):
            break  # ground checks are deterministic
    return Verdict(True, checked)


# -- finite-difference oracle ----------------------------------------------


# The oracle's one radius r, and its tolerance: each function value is
# refined to within ORACLE_TOL * r / 4, and `check_L_soundness` pads the
# machine's derivative enclosure by ORACLE_TOL.
ORACLE_RADIUS = Fraction(1, 1 << 12)
ORACLE_TOL = Fraction(1, 256)
_WIDTH = ORACLE_TOL * ORACLE_RADIUS / 4
# r, 1/r and the grid's offsets j/4 * r as intervals, so that a grid
# point is interval arithmetic on its integer ratios
_R, _INV_R = Interval.point(ORACLE_RADIUS), Interval.point(1 / ORACLE_RADIUS)
_GRID = [(Interval.point(j) * _R).div_nat(4) for j in range(-4, 5)]


def _std_at(f: Expr, z: Interval) -> Interval:
    try:
        out, _ = eval_refine(f, _WIDTH, std_only=True,
                             arg=DualInterval(z, IV_ZERO))
    except CeilingReached:
        raise OracleInconclusive(
            f"refinement ceiling hit evaluating at {z.lo}") from None
    if not isinstance(out, Value):
        raise OracleInconclusive(f"evaluation did not produce a value: {out}")
    return out.value.std


def finite_diff_oracle(f: Expr, x, xp) -> Interval:
    """Outer estimate of the directional derivative of f at x along xp.

    The hull of the difference quotients (f(y + r*xp) - f(y)) / r at the
    one radius r = ORACLE_RADIUS, for y on a grid of nine points spaced
    r/4 apart and centred on x.  It bounds the limit-inferior/
    limit-superior envelope of the quotients up to their drift across
    the grid, which is O(r) times the curvature of f there.
    """
    x, step = Interval.point(x), Interval.point(xp) * _R
    hull = None
    for offset in _GRID:
        y = x + offset
        f0 = _std_at(f, y)
        q = (_std_at(f, y + step) - f0) * _INV_R
        hull = q if hull is None else hull.meet(q)
    return hull


def check_L_soundness(f: Expr, x, xp) -> Verdict:
    """The machine's infinitesimal part must cover every observed quotient.

    For each cost n of SOUNDNESS_COSTS, evaluates f(x + eps xp), with f of
    type `delta -> delta`, and checks that the oracle's
    quotient hull at its one radius lies inside the infinitesimal part,
    inflated by ORACLE_TOL.
    """
    hull = finite_diff_oracle(f, x, xp)
    # built once: a closed application keeps its code for the later costs
    fx = App(f, DualLit(DualInterval(Interval.point(x), Interval.point(xp))))
    checked = 0
    for n in SOUNDNESS_COSTS:
        v = _eval_ground(fx, n)
        padded = v.inf.inflate(ORACLE_TOL)
        if not padded.leq(hull):
            return Verdict(False, checked,
                           f"at cost {n}: machine {v.inf} does not cover "
                           f"oracle hull {hull}")
        checked += 1
    return Verdict(True, checked)


# -- refinement chains ------------------------------------------------------


def _leq_value(a, b) -> bool:
    # one program's values at two costs have one class
    if isinstance(a, (Interval, DualInterval)):
        return a.leq(b)
    return a == b


def check_monotone_refinement(e: Expr, costs) -> Verdict:
    """Assert that results refine (gain information) along the cost list."""
    costs = list(costs)
    prev = None
    for i, n in enumerate(costs):
        v = _eval_ground(e, n)
        if prev is not None and not _leq_value(prev, v):
            return Verdict(False, i,
                           f"cost {costs[i - 1]} gave {prev}, not refined by "
                           f"cost {n} giving {v}")
        prev = v
    return Verdict(True, len(costs))
