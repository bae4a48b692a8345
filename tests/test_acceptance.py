"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runtime limits stated in a criterion are asserted with the measured wall
time.  The refinement sweep (criterion 8) runs nested-integration
programs over a reduced cost range because their evaluation cost grows as
2^(k*n) in the nesting depth k; the reduction is printed explicitly.
"""
import random
import time
from fractions import Fraction

from dualpcf.analysis import (
    check_L_soundness, check_monotone_refinement, relation_holds,
)
from dualpcf.cli import _RELATION_CASES
from dualpcf.corpus import CORPUS, FIRST_ORDER_FUNCTIONS, load_corpus, load_first_order
from dualpcf.lang import App, Arrow, Const, DUAL, DualLit, parse
from dualpcf.machine import eval_at_cost, _as_dual
from dualpcf.numeric import DUAL_BOTTOM, DualInterval, Interval, IV_BOTTOM
from dualpcf.reducer import run_steps
from dualpcf.typecheck import elaborate


def _term(src):
    return elaborate(parse(src), {})[0]


def _value(e, n):
    out = eval_at_cost(e, n)
    return out.value


def report(num, desc, ok, extra=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}{extra}")
    assert ok, f"criterion {num} failed: {desc}{extra}"


def test_criterion_01_abs_subgradient():
    e, _ = load_corpus("abs_deriv")
    t0 = time.monotonic()
    results = [_value(e, n) for n in (1, 4)]
    elapsed = time.monotonic() - t0
    ok = all(v == Interval(-1, 1) for v in results) and elapsed < 1.0
    report(1, "derivative of |x| at 0 is exactly [-1,1]", ok,
           f" ({elapsed:.2f}s)")


def test_criterion_02_product_rule_steps():
    term = App(App(Const("*", (DUAL,)),
                   DualLit(DualInterval.of(2, 3))),
               DualLit(DualInterval.of(5, 7)))
    nf, steps = run_steps(term)
    ok = nf == DualLit(DualInterval.of(10, 29)) and steps <= 3
    report(2, "(2+eps3)*(5+eps7) -> 10+eps29 in <= 3 steps", ok,
           f" ({steps} steps)")


def test_criterion_03_dyadic_integration():
    e = _term("int (fun t: real. in_delta t)")
    t0 = time.monotonic()
    ok = True
    for m in range(0, 11):
        v = _value(e, m)
        err = Fraction(1, 2 ** (m + 1))
        ok = ok and v.std == Interval(Fraction(1, 2) - err,
                                      Fraction(1, 2) + err)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(3, "integral enclosures match the closed form for m=0..10", ok,
           f" ({elapsed:.2f}s)")


def test_criterion_04_sup_convergence():
    e = _term("sup (fun t: real. in_delta t)")
    t0 = time.monotonic()
    ok = True
    for m in range(0, 11):
        v = _value(e, m)
        ok = ok and v.std == Interval(1 - Fraction(1, 2 ** m), 1)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(4, "supremum enclosures match the closed form for m=0..10", ok,
           f" ({elapsed:.2f}s)")


def test_criterion_05_functional_derivative():
    e, _ = load_corpus("chebyshev_functional")
    t0 = time.monotonic()
    v = None
    for n in range(0, 13):
        v = _value(e, n)
        if v.width <= Fraction(1, 256):
            break
    elapsed = time.monotonic() - t0
    ok = (v is not None and v.width <= Fraction(1, 256)
          and v.contains(Fraction(1, 4)) and elapsed < 10.0)
    report(5, "functional derivative refines onto 1/4", ok,
           f" (result {v}, {elapsed:.2f}s)")


def _frac_src(q: Fraction) -> str:
    if q < 0:
        return f"((0 - {-q.numerator}) / {q.denominator})"
    return f"({q.numerator} / {q.denominator})"


def _poly_src(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        t = _frac_src(c) + " * t" * i
        terms.append(t)
    return "fun t: real. in_delta (" + " + ".join(terms) + ")"


def test_criterion_06_linear_functional_identity():
    rng = random.Random(20260823)
    t0 = time.monotonic()
    ok = True
    detail = ""
    for trial in range(10):
        f = _poly_src([Fraction(rng.randint(-4, 4), 8) for _ in range(4)])
        g = _poly_src([Fraction(rng.randint(-4, 4), 8) for _ in range(4)])
        lhs = _term(f"L[real -> delta] int ({f}) ({g})")
        rhs = _term(f"int ({g})")
        for cost in (0, 2, 4, 6, 8, 10):
            lv = _value(lhs, cost)
            rv = _value(rhs, cost).std
            if not lv.consistent(rv):
                ok, detail = False, f" (disjoint at trial {trial} cost {cost})"
                break
        if ok and not (lv.width < Fraction(1, 256)
                       and rv.width < Fraction(1, 256)):
            ok, detail = False, f" (width too large at trial {trial})"
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    report(6, "derivative of int along g matches int g on 10 random "
              "polynomial pairs", ok, detail + f" ({elapsed:.2f}s)")


def test_criterion_07_picard_ivp():
    e, _ = load_corpus("ivp_const_field")
    t0 = time.monotonic()
    good = None
    for n in range(0, 13):
        v = _value(e, n)
        if v.std.width <= Fraction(1, 64) and v.std.contains(Fraction(1, 2)):
            good = (n, v)
            break
    elapsed = time.monotonic() - t0
    ok = good is not None and elapsed < 60.0
    report(7, "Picard iteration for x'=1 encloses 1/2 within cost 12", ok,
           f" (cost {good[0] if good else '>12'}, {elapsed:.2f}s)")


def test_criterion_08_monotone_refinement():
    t0 = time.monotonic()
    ok = True
    notes = []
    for name, entry in CORPUS.items():
        e, _ = load_corpus(name)
        top = 4 if entry.heavy else 12
        if entry.heavy:
            notes.append(f"{name} capped at cost {top} (nested integration "
                         f"cost grows as 2^(k*n))")
        v = check_monotone_refinement(e, range(0, top + 1))
        if not v.holds:
            ok = False
            notes.append(f"{name}: {v.detail}")
    elapsed = time.monotonic() - t0
    report(8, "evaluation refines monotonically in cost on the whole corpus",
           ok, f" ({'; '.join(notes)}; {elapsed:.2f}s)")


def test_criterion_09_logical_relations():
    t0 = time.monotonic()
    ok = True
    detail = ""
    for name, src in _RELATION_CASES:
        f, ty = elaborate(parse(src), {})
        v = relation_holds(Fraction(1, 8), ty, f, f, f, fuel=1000, seed=42)
        if not v.holds:
            ok, detail = False, f" ({name}: {v.detail})"
            break

    def broken_max(carrier, vals):
        a, b = _as_dual(vals[0]), _as_dual(vals[1])
        if a.std.lo > b.std.hi:
            return DualLit(a)
        if b.std.lo > a.std.hi:
            return DualLit(b)
        std = IV_BOTTOM if (a.std.is_bottom or b.std.is_bottom) else \
            Interval(max(a.std.lo, b.std.lo), max(a.std.hi, b.std.hi))
        return DualLit(DualInterval(std, a.inf))

    mx = _term("fun x: delta. fun y: delta. max(x, y)")
    caught = not relation_holds(Fraction(1, 8), Arrow(DUAL, Arrow(DUAL, DUAL)),
                                mx, mx, mx, fuel=1000, seed=42,
                                overrides={"max": broken_max})
    elapsed = time.monotonic() - t0
    ok = ok and caught and elapsed < 120.0
    report(9, "logical relation holds for all constants; broken max caught",
           ok, detail + f" ({elapsed:.2f}s)")


def test_criterion_10_derivative_soundness():
    pairs = [(0, 1), (1, 1), (Fraction(-1, 2), 1), (Fraction(1, 2), -1),
             (2, Fraction(1, 2))]
    t0 = time.monotonic()
    ok = True
    detail = ""
    for name in FIRST_ORDER_FUNCTIONS:
        f = load_first_order(name)
        for x, xp in pairs:
            v = check_L_soundness(f, x, xp)
            if not v.holds:
                ok, detail = False, f" ({name}@({x},{xp}): {v.detail})"
                break
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report(10, "machine derivatives cover finite-difference quotients on 20 "
               "functions x 5 points", ok, detail + f" ({elapsed:.2f}s)")


def test_criterion_11_fixed_point_base_case():
    fs = ["fun x: delta. x",
          "fun x: delta. x * x + in_delta (in_pi 1)",
          "fun x: delta. max(x, 0 - x)"]
    ok = all(_value(_term(f"Y[delta] ({f})"), 0) == DUAL_BOTTOM for f in fs)
    report(11, "bounded fixed point at cost 0 yields bottom", ok)
