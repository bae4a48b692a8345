"""Evaluator tests: ground rules, cost semantics, and the one-step reducer."""
import gc
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from dualpcf import machine, reducer
from dualpcf.analysis import _GRID, _R, _WIDTH
from dualpcf.corpus import (
    CORPUS, FIRST_ORDER_FUNCTIONS, corpus_source, load_corpus,
    load_first_order,
)
from dualpcf.lang import (
    App, Arrow, CARRIER, Const, CostTagged, DUAL, DualLit, IvLit, Lam, NAT,
    REAL, SIGNATURES, Var, parse, uncurry,
)
from dualpcf.machine import (
    BudgetExhausted, CeilingReached, Closure, GROUND_RULES, Machine,
    StuckTerm, Thunk, Undetermined, Value, _lit, _unlit, eval_at_cost,
    eval_refine,
)
from dualpcf.numeric import (
    DUAL_BOTTOM, DualInterval, Interval, IV_BOTTOM, IV_ZERO,
)
from dualpcf.reducer import run_steps, step
from dualpcf.typecheck import elaborate

from conftest import TREE, bench_workloads, ticking


def ev(src, n=0, budget=10_000_000):
    e, _ = elaborate(parse(src), {})
    return eval_at_cost(e, n, budget)


def val(src, n=0):
    out = ev(src, n)
    assert isinstance(out, Value), out
    return out.value


# a zero test straddling zero that reaches a conditional at real through
# a lambda's parameter, and through a branch of a conditional at bool
STRADDLED_THROUGH_A_LAMBDA = \
    "(fun b: bool. if b then in_pi 1 else in_pi 2) (0 < in_pi 0)"
STRADDLED_THROUGH_A_BRANCH = \
    "if (if 0 < in_pi 1 then 0 < in_pi 0 else tt) then in_pi 1 else in_pi 2"


class TestGroundRules:
    def test_dual_arithmetic(self):
        assert val("in_delta (in_pi 2) * in_delta (in_pi 5)") == \
            DualInterval.of(10)
        assert val("(1 + 2) * 3 - 4") == Interval.point(5)

    def test_division_by_nat(self):
        assert val("in_pi 3 / 4") == Interval.point(Fraction(3, 4))

    def test_division_by_zero_is_bottom(self):
        assert val("in_pi 3 / 0") == IV_BOTTOM

    def test_nat_ops(self):
        assert val("succ (succ 0)") == 2
        assert val("pred 0") == 0
        assert val("iszero (pred 1)") is True

    def test_conditional(self):
        assert val("if 0 < in_pi 1 then in_pi 10 else in_pi 20") == \
            Interval.point(10)
        assert val("if 0 < in_pi 1 - in_pi 2 then in_pi 10 else in_pi 20") == \
            Interval.point(20)

    @pytest.mark.parametrize("iv", [Interval(-1, 1), IV_BOTTOM])
    def test_a_straddled_zero_test_raises(self, iv):
        with pytest.raises(machine.StraddledZeroTest) as exc:
            GROUND_RULES[("lt0", None)](iv)
        assert exc.value.reason == "zero test on a straddling interval"

    def test_undetermined_test_gives_bottom_at_real(self):
        # the scrutinee interval contains zero, so neither branch is taken,
        # also where the test reaches the conditional through a variable
        # or a branch of the conditional's own test
        for src in ("if 0 < in_pi 0 then in_pi 1 else in_pi 2",
                    STRADDLED_THROUGH_A_LAMBDA, STRADDLED_THROUGH_A_BRANCH):
            assert val(src) == IV_BOTTOM

    def test_undetermined_test_at_nat_is_undetermined(self):
        # in the second program the inner conditional, at bool, straddles
        for src in ("if 0 < in_pi 0 then 1 else 2",
                    "(fun x: real. if (if 0 < x then tt else ff) then x else 0)"
                    " 0"):
            out = ev(src)
            assert isinstance(out, Undetermined)
            with pytest.raises(machine.UndeterminedSignal) as exc:
                run_steps(CostTagged(elaborate(parse(src), {})[0], 0))
            assert exc.value.reason == out.reason

    @pytest.mark.parametrize("src", [
        "0 < in_pi 0",
        "lt0 (in_pi 0)",
        "(fun b: bool. b) (0 < in_pi 1 - in_pi 1)",
    ])
    def test_straddling_zero_test_as_result_is_undetermined(self, src):
        out = ev(src, 2)
        assert isinstance(out, Undetermined)
        assert out.reason == "zero test on a straddling interval"
        with pytest.raises(machine.UndeterminedSignal):
            run_steps(CostTagged(elaborate(parse(src), {})[0], 2))

    def test_max_on_points(self):
        assert val("max(in_pi 2, in_pi 3)") == Interval.point(3)
        assert val("min(1, 2)") == Interval.point(1)


@pytest.mark.parametrize("name,carrier", sorted(GROUND_RULES, key=str))
def test_ground_rule_maps_numbers_to_a_number(name, carrier):
    sample = {"pi": Interval(1, 2), "nu": 2,
              "delta": DualInterval(Interval(1, 2), Interval.point(3))}
    operands, _ = uncurry(SIGNATURES[name])
    out = GROUND_RULES[(name, carrier)](
        *[sample[carrier if ty is CARRIER else ty.name] for ty in operands])
    assert out.__class__ in (Interval, DualInterval, int, bool)


def _mentions_carrier(ty) -> bool:
    if isinstance(ty, Arrow):
        return _mentions_carrier(ty.src) or _mentions_carrier(ty.dst)
    return ty is CARRIER


def test_ground_rules_follow_the_signature():
    # a rule per carrier for an overloaded constant, one for any other
    for name, carrier in GROUND_RULES:
        assert (carrier is not None) == _mentions_carrier(SIGNATURES[name])
        assert carrier in (None, REAL.name, DUAL.name)


class TestCostSemantics:
    def test_integration_closed_form(self):
        for m in range(0, 6):
            v = val("int (fun t: real. in_delta t)", m)
            half = Fraction(1, 2)
            err = Fraction(1, 2 ** (m + 1))
            assert v.std == Interval(half - err, half + err)

    def test_sup_closed_form(self):
        for m in range(0, 6):
            v = val("sup (fun t: real. in_delta t)", m)
            assert v.std == Interval(1 - Fraction(1, 2 ** m), 1)

    def test_integral_of_constant_is_exact(self):
        assert val("int (fun t: real. in_delta (in_pi 3))", 0) == \
            DualInterval.of(3)

    def test_y_base_case_is_bottom(self):
        assert val("Y[delta] (fun x: delta. x)", 0) == DUAL_BOTTOM
        assert val("Y[delta] (fun x: delta. x + in_delta (in_pi 1))", 0) == \
            DUAL_BOTTOM

    def test_y_unfolds_with_cost(self):
        # f(x) = 1 has the constant fixed point regardless of depth
        src = "Y[delta] (fun x: delta. in_delta (in_pi 1))"
        assert val(src, 1) == DualInterval.of(1)

    def test_y_at_discrete_type_diverges_into_budget(self):
        src = "Y[nu -> nu] (fun f: nu -> nu. fun n: nu. f n) 0"
        out = ev(src, 5, budget=5000)
        assert isinstance(out, BudgetExhausted)
        assert out.reason == "step budget"

    def test_tail_recursive_loop_runs_into_the_budget(self):
        # a tail call returns to the trampoline loop, so the Python stack
        # stays flat: a machine that recursed per iteration would run out
        # of recursion depth near 300,000 steps
        src = "(Y[nu -> nu] (fun f: nu -> nu. fun n: nu. f (succ n))) 0"
        assert ev(src, 0, budget=500_000) == \
            BudgetExhausted(steps=500_001, reason="step budget")

    def test_y_at_discrete_type_diverges_into_recursion_depth(self):
        src = ("in_delta (in_pi (Y[nu -> nu] (fun f: nu -> nu. fun n: nu. "
               "succ (f n)) 0))")
        out = ev(src, 2)
        assert isinstance(out, BudgetExhausted)
        assert out.reason == "recursion depth"

    def test_y_at_discrete_type_terminates_when_productive(self):
        # recursive doubling: double(n) = if iszero n then 0 else
        # succ (succ (double (pred n)))
        src = ("Y[nu -> nu] (fun d: nu -> nu. fun n: nu. "
               "if iszero n then 0 else succ (succ (d (pred n)))) 5")
        assert val(src, 0) == 10

    @pytest.mark.parametrize("made,saturated", [(0, 3), (3, 0)])
    def test_y_at_discrete_type_unfolds_at_the_saturating_tag(self, made,
                                                              saturated):
        # No typed program saturates a discrete Y at a tag other than the
        # one it was evaluated at: only a value of continuous type leaves a
        # body run at a lower tag.  So the rule is pinned on the machine:
        # Y[nu] made at one tag, applied at the other.  The unfolding's
        # test reads `int (fun t: real. t)` at the tag it runs at: at 3 it
        # is [28, 36] / 64, minus 1/4 is [3/16, 5/16] and the result 1; at
        # 0 it is [0, 1], minus 1/4 straddles 0, undetermined at nu.
        m = Machine()
        y = m._compile(Const("Y", (NAT,)), ())[0](m, (), made)
        f, _ = elaborate(parse("fun x: nu. if 0 < int (fun t: real. t)"
                               " - 1 / 4 then 1 else 0"), {})
        f_run, f_op = m._compile(f, ())
        unfolding = m._apply(y, Thunk(f_run, f_op, ()), saturated)
        if saturated:
            assert machine._drive(m, unfolding) == 1
        else:
            with pytest.raises(machine.UndeterminedSignal):
                machine._drive(m, unfolding)

    def test_refinement_loop(self):
        e, _ = elaborate(parse("int (fun t: real. in_delta t)"), {})
        out, cost = eval_refine(e, Fraction(1, 100))
        assert out.value.std.width <= Fraction(1, 100)
        assert cost <= 8

    def test_refinement_ceiling(self):
        e, _ = elaborate(parse("int (fun t: real. in_delta t)"), {})
        with pytest.raises(CeilingReached) as exc:
            eval_refine(e, Fraction(1, 10 ** 9), cost_ceiling=4)
        assert exc.value.best.std.contains(Fraction(1, 2))

    @pytest.mark.parametrize("ceiling,costs", [
        (0, [0]), (1, [1]), (5, [1, 2, 4, 5]), (8, [1, 2, 4, 8]),
        (12, [1, 2, 4, 8, 12])])
    def test_refinement_chain_ends_at_the_ceiling(self, monkeypatch,
                                                   ceiling, costs):
        # doubling from 1, capped at the ceiling: never past it
        e, _ = elaborate(parse("int (fun t: real. in_delta t)"), {})
        seen, evaluate = [], machine.eval_at_cost

        def spy(e, n, *args, **kwargs):
            seen.append(n)
            return evaluate(e, n, *args, **kwargs)

        monkeypatch.setattr(machine, "eval_at_cost", spy)
        with pytest.raises(CeilingReached) as exc:
            eval_refine(e, 0, cost_ceiling=ceiling)
        assert seen == costs and exc.value.cost == ceiling
        assert exc.value.best == evaluate(e, ceiling).value

    @pytest.mark.parametrize("width,cost", [("1/4", 2), (0, 8)],
                             ids=["string", "zero"])
    def test_refinement_reads_its_width_as_a_fraction(self, width, cost):
        # int t has width 2**-n at cost n: "1/4" is reached at cost 2, and
        # 0 never, so the loop stops at the ceiling
        e, _ = elaborate(parse("int (fun t: real. in_delta t)"), {})

        def refine(w):
            try:
                return eval_refine(e, w, cost_ceiling=8)
            except CeilingReached as ceiling:
                return ceiling.best, ceiling.cost

        got = refine(width)
        assert got == refine(Fraction(width)) and got[1] == cost


class TestDerivativeOperator:
    def test_abs_at_zero(self):
        assert val("L[delta] (fun x: delta. max(x, 0 - x)) 0 1", 1) == \
            Interval(-1, 1)

    def test_smooth_chain(self):
        assert val("L[delta] (fun x: delta. (x + 1) * (x + 1)) 2 1") == \
            Interval.point(6)

    def test_direction_scaling(self):
        assert val("L[delta] (fun x: delta. x * x) 3 2") == Interval.point(12)

    def test_clamp_flat_region(self):
        assert val("L[delta] (fun x: delta. pr x) 2 1") == Interval.point(0)


class TestSingleStep:
    def test_product_rule_step_count(self):
        lhs = DualLit(DualInterval.of(2, 3))
        rhs = DualLit(DualInterval.of(5, 7))
        term = App(App(Const("*", (DUAL,)), lhs), rhs)
        out, steps = run_steps(term)
        assert out == DualLit(DualInterval.of(10, 29))
        assert steps <= 3

    def test_cost_tag_distributes_over_operators(self):
        e, _ = elaborate(parse("in_pi 1 + in_pi 2"), {})
        stepped = step(CostTagged(e, 4))
        assert isinstance(stepped, App)

    def test_tag_erases_on_literals(self):
        lit = IvLit(Interval.point(7))
        assert step(CostTagged(lit, 3)) == lit

    @pytest.mark.xfail(strict=True, raises=StuckTerm,
                       reason="`step` leaves the argument of a head that is "
                       "not a lambda untagged (ROADMAP item 7)")
    def test_a_y_head_applied_to_an_integral_steps(self):
        src = ("(Y[delta -> delta] (fun r: delta -> delta. pr))"
               " (int (fun t: real. in_delta t))")
        assert str(val(src, 2)) == "[3/8,5/8] + eps [0,0]"
        e, _ = elaborate(parse(src), {})
        nf, _ = run_steps(CostTagged(e, 2), max_steps=100_000)
        assert _unlit(nf) == val(src, 2)

    @pytest.mark.parametrize("src,n", [
        ("max(in_pi 1, in_pi 2)", 0),
        ("int (fun t: real. in_delta t)", 2),
        ("sup (fun t: real. in_delta t)", 2),
        ("L[delta] (fun x: delta. max(x, 0 - x)) 0 1", 1),
        ("(fun x: delta. x * x) (in_delta (in_pi 3))", 0),
        ("if 0 < in_pi 1 then in_pi 5 else in_pi 6", 0),
        ("iszero (pred 1)", 0),
        ("if tt then 1 else 2", 0),
        # boolean constants are literals under both reducers
        ("tt", 0),
        ("if iszero 0 then tt else ff", 0),
        ("Y[delta] (fun x: delta. in_delta (in_pi 1))", 2),
        ("Y[nu -> nu] (fun d: nu -> nu. fun n: nu. "
         "if iszero n then 0 else succ (succ (d (pred n)))) 2", 0),
        # constants passed as values take the generic path
        ("(fun g: delta -> delta -> delta. g (in_delta 1) (in_delta 2)) max",
         0),
        ("(fun g: delta -> delta. g (in_delta 3)) pr", 0),
        ("(fun h: delta -> delta. h (in_delta 1)) (max (in_delta 2))", 0),
        # a zero test straddling zero: the conditional at a continuous type
        # is bottom
        ("(fun x: real. if 0 < x then x else 0) 0", 0),
        ("int (fun t: real. if 0 < t - 1/2 then in_delta t else 0)", 1),
        (STRADDLED_THROUGH_A_LAMBDA, 0),
        (STRADDLED_THROUGH_A_BRANCH, 0),
    ] + [(name, n) for name in CORPUS for n in (0, 1, 2)])
    def test_step_agrees_with_evaluator(self, src, n):
        # src is a corpus program's name or a program's source
        e, _ = load_corpus(src) if src in CORPUS else elaborate(parse(src), {})
        nf, _ = run_steps(CostTagged(e, n), max_steps=100000)
        big = eval_at_cost(e, n)
        assert isinstance(big, Value)
        assert _unlit(nf) == big.value

    @pytest.mark.parametrize("src,expected", [
        # a binder shadowing the variable its argument mentions
        ("(fun x: real. (fun x: real. x + x) (x + 1)) (in_pi 3)", "[8,8]"),
        # g closes over the outer y; the callee binds y again before g runs
        ("(fun y: real. (fun g: real -> real. (fun y: real. g y) (in_pi 100))"
         " (fun z: real. z + y)) (in_pi 1)", "[101,101]"),
        # a built at cost 3, forced inside the Y unfolding at cost 2
        ("(fun a: delta. Y[delta] (fun x: delta. a))"
         " (int (fun t: real. in_delta t))", "[3/8,5/8] + eps [0,0]"),
        # the same, with a passed on as the point of an L application
        ("(fun a: delta. Y[real] (fun x: real."
         " L[delta] (fun z: delta. z * z) a 1))"
         " (int (fun t: real. in_delta t))", "[3/4,5/4]"),
        # an int/sup leaf applying a constant, not a closure, to its cell
        ("int in_delta", "[7/16,9/16] + eps [0,0]"),
        ("sup in_delta", "[7/8,1] + eps [0,0]"),
        # let with an inferred and an annotated binder
        ("let x = 1 in x + x", "[2,2]"),
        ("let f: real -> delta = fun t: real. in_delta t in int f",
         "[7/16,9/16] + eps [0,0]"),
        # a parenthesized binder type, and a real-valued function coerced
        # pointwise to a dual-valued one
        ("(fun g: (real -> delta) -> delta. g (fun t: real. in_delta t)) int",
         "[7/16,9/16] + eps [0,0]"),
        ("let g: real -> real = fun t: real. t in"
         " (fun h: real -> delta. int h) g", "[7/16,9/16] + eps [0,0]"),
    ], ids=["shadowed_binder", "closure_capture", "tag_in_y", "tag_in_l",
            "int_leaf_constant", "sup_leaf_constant", "let_inferred",
            "let_annotated", "parenthesized_binder_type", "arrow_coercion"])
    def test_environments_agree_with_substitution(self, src, expected):
        e, _ = elaborate(parse(src), {})
        big = eval_at_cost(e, 3)
        nf, _ = run_steps(CostTagged(e, 3), max_steps=100000)
        assert _unlit(nf) == big.value
        assert str(big.value) == expected

    @pytest.mark.parametrize("src", [
        # a constant returned from a Y unfolding carries the tag of that
        # unfolding: int and sup bisect at it, Y[delta] unfolds below it
        "(Y[(real -> delta) -> delta] (fun r: (real -> delta) -> delta. int))"
        " (fun t: real. in_delta t)",
        "(Y[(real -> delta) -> delta] (fun r: (real -> delta) -> delta. sup))"
        " (fun t: real. in_delta t)",
        "(Y[(delta -> delta) -> delta] (fun r: (delta -> delta) -> delta."
        " Y[delta])) (fun x: delta. int (fun t: real. in_delta t))",
    ], ids=["int", "sup", "y"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_returned_constants_keep_their_cost_tag(self, src, n):
        e, _ = elaborate(parse(src), {})
        nf, _ = run_steps(CostTagged(e, n), max_steps=100000)
        assert _unlit(nf) == eval_at_cost(e, n).value

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_returned_first_order_constant_fires_at_the_application(self, n):
        # a first-order rule reads its operands at the tag of the
        # application that saturates it, as its known call does.
        # `run_steps` is stuck here: it leaves the argument of an
        # application whose head is not a lambda untagged
        returned = val("(Y[delta -> delta] (fun r: delta -> delta. pr))"
                       " (int (fun t: real. in_delta t))", n)
        assert returned == val("pr (int (fun t: real. in_delta t))", n)

    def test_max_override_fires_in_both_reducers(self):
        # a `max` that keeps its left operand: sup's combine then keeps the
        # leftmost cell, under the evaluator and the one-step reducer alike,
        # at `delta` and at `real`, where the running max must not stand in
        left = {"max": lambda carrier, vals: vals[0]}
        at_real, _ = elaborate(parse("sup (fun t: real. t)"), {})
        for e, embed in ((load_corpus("sup_id")[0], DualInterval.of),
                         (at_real, lambda iv: iv)):
            for n in (1, 2, 3):
                big = eval_at_cost(e, n, overrides=left)
                nf, _ = run_steps(CostTagged(e, n), max_steps=100000,
                                  overrides=left)
                cell = embed(Interval(0, Fraction(1, 2 ** n)))
                assert big.value == _unlit(nf) == cell, n
                assert eval_at_cost(e, n).value != cell, n

    @pytest.mark.parametrize("name,override", [
        # a `+` that keeps its left operand: each node keeps l/2
        ("+", lambda vals: vals[0]),
        # a `/` that does not divide: each node sums its halves
        ("/", lambda vals: vals[0]),
    ], ids=["plus", "div"])
    def test_int_overrides_fire_in_both_reducers(self, name, override):
        # only at the dual carrier: `step`'s rescaling wrappers also apply
        # `+` and `/`, at pi, where `Machine` computes the cells directly
        def fn(carrier, vals):
            if carrier == "delta":
                return override(vals)
            return _lit(GROUND_RULES[name, carrier](*map(_unlit, vals)))
        e, _ = load_corpus("int_id")
        for n in (1, 2):
            big = eval_at_cost(e, n, overrides={name: fn})
            nf, _ = run_steps(CostTagged(e, n), max_steps=100000,
                              overrides={name: fn})
            assert big.value == nf.dv != eval_at_cost(e, n).value


@pytest.mark.parametrize("name", [
    name for name, entry in CORPUS.items() if entry.expected is not None])
def test_expected_limit_in_every_enclosure(name):
    # the `verify --suite refinement` ladder
    entry = CORPUS[name]
    e, _ = load_corpus(name)
    for n in range(5 if entry.heavy else 11):
        v = eval_at_cost(e, n).value
        std = v.std if isinstance(v, DualInterval) else v
        assert std.contains(entry.expected), (n, v)


@pytest.mark.parametrize("name,n,steps", [
    ("linear_functional", 10, 13_315),
    ("nested_int_xyz", 4, 25_120),
    ("ivp_const_field", 10, 6_147),
])
def test_step_counts_are_pinned(name, n, steps):
    # the machine-independent work measure that bench results are read by
    assert eval_at_cost(load_corpus(name)[0], n).steps == steps


# the steps of every corpus program at cost 4
_STEPS_AT_COST_4 = {
    "abs_deriv": 26, "chebyshev_functional": 89, "linear_functional": 211,
    "lagrangian_action": 3_300, "ivp_const_field": 99,
    "legendre_fenchel_halfsq": 208, "nested_int_xyz": 25_120, "int_id": 48,
    "sup_id": 48, "cbrt_sup": 304,
}


@pytest.mark.parametrize("name", list(CORPUS))
def test_steps_are_pinned_at_cost_4(name):
    assert eval_at_cost(load_corpus(name)[0], 4).steps == \
        _STEPS_AT_COST_4[name]


class TestRunningSum:
    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus_ladder_agrees_with_combining_tree(self, name):
        # the values and steps of the literal tree
        e, _ = load_corpus(name)
        for n in range(5 if CORPUS[name].heavy else 11):
            assert eval_at_cost(e, n) == eval_at_cost(e, n, overrides=TREE), n

    @pytest.mark.parametrize("src,printed", [
        ("int (fun t: real. if 0 < t - 1 / 3 then in_delta 1 else in_delta 0)",
         "[-inf,inf] + eps [-inf,inf]"),
        # bottom in the standard part only
        ("int (fun t: real. in_delta (if 0 < t - 1 / 3 then 1 else t))",
         "[-inf,inf] + eps [0,0]"),
        ("int (fun t: real. if 0 < t - 1 / 3 then 1 else t)", "[-inf,inf]"),
    ], ids=["delta", "delta_std", "real"])
    def test_a_bottom_cell_makes_the_sum_bottom(self, src, printed):
        # the zero test straddles in the cell holding 1/3, at every cost;
        # the later cells still run and tick as under the tree
        e, _ = elaborate(parse(src), {})
        for n in range(4):
            out = eval_at_cost(e, n)
            assert out == eval_at_cost(e, n, overrides=TREE), n
            assert str(out.value) == printed

    def test_an_integrand_that_ticks_is_evaluated_at_every_cell(self):
        # the integrand's beta step ticks, so its closure is not reused:
        # each cell counts that step again
        e, _ = elaborate(parse(
            "int ((fun g: real -> delta. g) (fun t: real. in_delta t))"), {})
        for n, steps in enumerate([4, 8, 16, 32]):
            out = eval_at_cost(e, n)
            assert out.steps == steps
            for b in sorted({1, out.steps // 2, out.steps - 1}):
                assert eval_at_cost(e, n, budget=b) == \
                    BudgetExhausted(steps=b + 1), (n, b)


def _runs(e, n):
    """The run of e at cost n, and the runs stopped by the budgets 1,
    steps // 2 and steps - 1."""
    out = eval_at_cost(e, n)
    budgets = sorted({1, out.steps // 2, out.steps - 1})
    return [out] + [eval_at_cost(e, n, budget=b)
                    for b in budgets if 0 < b < out.steps]


# a dual sup whose inf part varies with the cell: 16 distinct inf parts
# in 16 cells at cost 4
VARYING_SUP = "L[delta] (fun x: delta. sup (fun t: real. x * in_delta t)) 1 1"


class TestRangeRuns:
    # An integrand whose evaluation ticks no step and gives a closure runs
    # its own body once per range of the cells after the first and adds each
    # range's steps at once; a bisection the body starts ticks its cells
    # on the range.  A range that is undetermined, or stopped by the
    # recursion depth, is handed back to the ticking loop, and its cells
    # tick; one the budget stops is halved down to the cell where it
    # falls, which ticks.  The values, steps and budget stops are those of
    # the ticking loop

    @staticmethod
    def bisections(src, n=3, overrides=None, budget=10_000_000):
        """The range each call of `_pieces` in src's run at cost n handed
        back to the ticking loop, `(hi, hi)` where it folded every cell,
        checked against the ticking loop."""
        handed, pieces = [], Machine._pieces

        def spy(m, fv, total, lo, hi, n):
            handed.append(pieces(m, fv, total, lo, hi, n))
            return handed[-1]

        e, _ = elaborate(parse(src), {})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Machine, "_pieces", spy)
            out = eval_at_cost(e, n, budget, overrides)
        with pytest.MonkeyPatch.context() as patch:
            ticking(patch)
            assert eval_at_cost(e, n, budget, overrides) == out
        return handed

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus_ladder_agrees_with_ticking_loop(self, name):
        e, _ = load_corpus(name)
        for n in range(5 if CORPUS[name].heavy else 11):
            runs = _runs(e, n)
            with pytest.MonkeyPatch.context() as patch:
                ticking(patch)
                assert runs == _runs(e, n), n

    @pytest.mark.parametrize("src,bisections", [
        # the inner bisection of outer cell 0 runs as ranges, and the one
        # the outer range's run starts ticks its cells on that range
        ("int (fun x: real. int (fun y: real. x * y))", [(8, 8), (8, 8)]),
        ("sup (fun x: real. x * (1/2) - x * x / 2)", [(8, 8)]),
        ("int (fun t: real. in_delta t)", [(8, 8)]),
        ("int (fun t: real. (fun u: real. in_delta u) t)", [(8, 8)]),
        # a conditional decided on each range
        ("int (fun t: real. if 0 < t - 1 / 3 then in_delta t else in_delta 0)",
         [(8, 8)]),
        # a free variable bound to a thunk that is not a value: each run
        # forces it, as each cell does
        ("(fun x: real. int (fun t: real. in_delta (x * t))) (1 / 3)",
         [(8, 8)]),
    ], ids=["nested", "sup", "int_id", "generic", "conditional", "unevaluated"])
    def test_which_integrands_run_as_ranges(self, src, bisections):
        assert self.bisections(src) == bisections

    @pytest.mark.parametrize("src,bisections", [
        # the lifted integrand `fun p. f p + eps * g p` applies f and g,
        # variables bound to the thunks of lambdas
        ("L[real -> delta] int (fun t: real. in_delta ((1 / 3) + (2 / 5) * t"
         " * t * t)) (fun t: real. in_delta ((0 - 4 / 7) + (3 / 5) * t))",
         [(8, 8)]),
        # lagrangian_action's inner `int (fun s. g(s))`, alone and in place
        ("(fun g: real -> delta. int (fun s: real. g s))"
         " (fun t: real. in_delta (t * t))", [(8, 8)]),
        ("L[real -> delta] (fun g: real -> delta. int (fun t: real."
         " (int (fun s: real. g(s))) * g(t))) (fun t: real. in_delta t)"
         " (fun t: real. in_delta t)", [(8, 8), (8, 8)]),
        # the beta step binds the outer cell x to u
        ("int (fun x: real. int (fun y: real."
         " (fun u: real. in_delta (u * y)) x))", [(8, 8), (8, 8)]),
        # a head bound to a thunk whose forcing ticks, in each run as in
        # each cell: a conditional, an application
        ("(fun h: real -> delta. int (fun t: real. h t)) (if 0 < 1 / 3"
         " then (fun u: real. in_delta u) else (fun u: real. in_delta u))",
         [(8, 8)]),
        ("(fun h: real -> delta. int (fun t: real. h t))"
         " ((fun k: real -> delta. k) (fun u: real. in_delta u))", [(8, 8)]),
        # an argument that is not a variable
        ("int (fun t: real. (fun u: real. in_delta u) (t * t))", [(8, 8)]),
        # an applied body that mentions the cell as well as its argument
        ("int (fun t: real. (fun u: real. in_delta (t * t + u)) t)", [(8, 8)]),
        # and a second free variable, bound outside the bisection
        ("(fun x: real. int (fun t: real. (fun u: real. in_delta (t * x + u))"
         " t)) (1 / 3)", [(8, 8)]),
    ], ids=["L_cubics", "applied_variable", "lagrangian_action", "shifted",
            "conditional_head", "applied_head", "non_variable_argument",
            "body_mentions_cell", "body_mentions_cell_and_more"])
    def test_which_applications_are_inlined(self, src, bisections):
        assert self.bisections(src) == bisections

    @pytest.mark.parametrize("src,bisections", [
        ("int (fun x: real. int (fun y: real. x * y))", []),
        ("sup (fun x: real. x * (1/2) - x * x / 2)", []),
        ("L[real -> delta] int (fun t: real. in_delta ((1 / 3) + (2 / 5) * t"
         " * t * t)) (fun t: real. in_delta ((0 - 4 / 7) + (3 / 5) * t))",
         []),
        ("sup (fun t: real. in_delta (t * t - t))", []),
    ], ids=["nested", "sup", "L_cubics", "dual_sup"])
    @pytest.mark.parametrize("overrides", [
        TREE, {"*": lambda carrier, vals: vals[0]}], ids=["tree", "times"])
    def test_runs_with_overrides_keep_the_tree(self, src, bisections,
                                               overrides):
        # the tree fold fires the overridden `+`, `/` and `max` on values,
        # so every cell ticks and no range runs
        assert self.bisections(src, 3, overrides) == bisections
        e, _ = elaborate(parse(src), {})
        nf, _ = run_steps(CostTagged(e, 3), max_steps=100000,
                          overrides=overrides)
        assert _unlit(nf) == eval_at_cost(e, 3, overrides=overrides).value

    @pytest.mark.parametrize("seed", range(4))
    def test_l_ladder_agrees_with_ticking_loop(self, seed):
        rng = random.Random(seed)
        e, _ = elaborate(parse(f"L[real -> delta] int ({_cubic(rng)})"
                               f" ({_cubic(rng)})"), {})
        for n in range(7):
            runs = _runs(e, n)
            with pytest.MonkeyPatch.context() as patch:
                ticking(patch)
                assert runs == _runs(e, n), n

    @pytest.mark.parametrize("n,steps", [(2, 21), (3, 41), (4, 81)])
    def test_an_undetermined_cell_is_handed_back(self, n, steps):
        # the cell ending at 1/2 straddles the test, at nat: its run is
        # undetermined, so that one cell is handed back and the ticking
        # loop stops in it
        src = "int (fun t: real. in_pi (if 0 < t - 1 / 2 then 1 else 0))"
        half = 1 << (n - 1)
        assert self.bisections(src, n) == [(half - 1, half)]
        e, _ = elaborate(parse(src), {})
        assert eval_at_cost(e, n) == Undetermined(
            steps,
            "conditional on a zero-straddling test at a non-continuous type")

    @pytest.mark.parametrize("n,steps", [(2, 56), (3, 112)])
    def test_halving_a_range_undoes_its_run(self, n, steps):
        # the ranges holding 1/3 or 2/3 are undecided and halved, and the
        # steps their runs ticked are undone: the runs stay within a budget
        # of exactly the bisection's steps
        src = "int (fun t: real. (t - 1 / 3) * (t - 2 / 3))"
        assert self.bisections(src, n, budget=steps) == [(1 << n, 1 << n)]
        assert ev(src, n).steps == steps

    def test_a_recursive_bisection_ticks_on_the_range(self):
        # the recursive call's bisection starts in the outer bisection's
        # range run, and ticks its cells there: every range folds
        src = ("(Y[delta -> delta] (fun f: delta -> delta. fun x: delta."
               " int (fun t: real. x * x * in_delta t + f (x / 2))))"
               " (in_delta 1)")
        assert self.bisections(src, 2) == [(2, 2)]
        assert self.bisections(src, 3) == [(2, 2), (4, 4)]
        e, _ = elaborate(parse(src), {})
        for n in range(4):
            runs = _runs(e, n)
            with pytest.MonkeyPatch.context() as patch:
                ticking(patch)
                assert runs == _runs(e, n), n

    @pytest.mark.parametrize("n", range(3, 9))
    def test_a_branch_cell_0_did_not_take_runs_as_ranges(self, n):
        # `t * (1 / 5)` is first reached past 1/3; the ranges holding 1/3
        # are halved, and every range folds
        src = ("int (fun t: real. if 0 < t - 1 / 3"
               " then in_delta (t * (1 / 5)) else in_delta t)")
        assert self.bisections(src, n) == [(1 << n, 1 << n)]
        e, _ = elaborate(parse(src), {})
        runs = _runs(e, n)
        with pytest.MonkeyPatch.context() as patch:
            ticking(patch)
            assert runs == _runs(e, n)

    def test_a_bisection_past_the_middle_ticks_on_its_ranges(self):
        # past 1/2 the body starts a bisection of its own, which ticks its
        # cells on each range there: every range folds
        src = ("int (fun t: real. if 0 < t - 1 / 2"
               " then int (fun s: real. in_delta (s * t)) else in_delta t)")
        for n in range(2, 6):
            assert self.bisections(src, n) == [(1 << n, 1 << n)], n

    @pytest.mark.parametrize("name,steps", [
        ("lagrangian_action", 252), ("nested_int_xyz", 424),
        ("cbrt_sup", 76), ("sup_id", 12),
        pytest.param(VARYING_SUP, 56, id="varying_inf-56")])
    def test_every_budget_stops_one_step_past_it(self, name, steps):
        # nested bisections ticking on the ranges, a sup halving its
        # ranges, and dual sups folding blocks of their tree or handing
        # back one whose inf part varies: each budget below the run's
        # steps stops at the step after
        e, _ = load_corpus(name) if name in CORPUS \
            else elaborate(parse(name), {})
        full = eval_at_cost(e, 2)
        assert isinstance(full, Value) and full.steps == steps
        for b in range(steps):
            assert eval_at_cost(e, 2, budget=b) == \
                BudgetExhausted(steps=b + 1), b
        assert eval_at_cost(e, 2, budget=steps) == full

    @pytest.mark.parametrize("name", [
        "linear_functional", "lagrangian_action", "nested_int_xyz",
        "int_id", "sup_id", "cbrt_sup"])
    def test_a_budget_stop_hands_back_its_one_cell(self, name):
        # at cost 30 the cells' steps pass the default budget: the range
        # where it falls is halved down to one cell, the only range handed
        # back, which the loop ticks until the budget stops it
        handed, pieces = [], Machine._pieces

        def spy(m, fv, total, lo, hi, n):
            handed.append(pieces(m, fv, total, lo, hi, n))
            return handed[-1]

        e, _ = load_corpus(name)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Machine, "_pieces", spy)
            assert eval_at_cost(e, 30) == BudgetExhausted(steps=10_000_001)
        (lo, end), folded = handed[-1], handed[:-1]
        assert end == lo + 1 and all(a == b for a, b in folded), handed

    def test_an_inner_integral_runs_once_per_outer_range(self, monkeypatch):
        # lagrangian_action's inner `int g` does not mention the outer
        # variable: the outer range's run ticks its 2^n cells once, not
        # once per outer cell, so the count about doubles per cost step
        e, _ = load_corpus("lagrangian_action")
        fired = []
        mul = GROUND_RULES[("*", "delta")]

        def counting(a, b):
            nonlocal count
            count += 1
            return mul(a, b)

        for n in range(2, 7):
            count = 0
            with monkeypatch.context() as m:
                m.setitem(GROUND_RULES, ("*", "delta"), counting)
                out = eval_at_cost(e, n)
            assert str(out.value) == str(eval_at_cost(e, n).value)
            fired.append(count)
        assert all(b <= 2 * a for a, b in zip(fired, fired[1:])), fired

    def test_a_recursion_depth_stop_is_the_ticking_loops(self):
        # the range holding the last cell recurses until the depth runs
        # out: it is handed back, and the cell ticks in the loop's own
        # frame, where the ticking loop stops it, at the same step
        src = ("int (fun t: real. if 0 < t - 3 / 4 then in_pi"
               " ((Y[nat -> nat] (fun f: nat -> nat. fun n: nat. succ (f n)))"
               " 0) else t)")
        assert self.bisections(src) == [(7, 8)]
        e, _ = elaborate(parse(src), {})
        out = eval_at_cost(e, 3)
        assert out.reason == "recursion depth"
        with pytest.MonkeyPatch.context() as patch:
            ticking(patch)
            assert eval_at_cost(e, 3) == out


class TestClosedForm:
    # A running sum or max adds the integrand's values over a range of
    # cells in closed form, one run of its body on polynomial numerators
    # per piece

    @staticmethod
    def pieces(src, n):
        """The cells of each piece folded in closed form in src's run at
        cost n, checked against the ticking loop."""
        cells, pieces = [], Machine._pieces

        class Recorded:
            def __init__(self, total):
                self.total = total

            def add_cells(self, x, k):
                self.total.add_cells(x, k)  # an undecided peak: no piece
                cells.append(k)

        def spy(m, fv, fold, lo, hi, n):
            if fold.__class__ is not Recorded:
                fold = Recorded(fold)
            return pieces(m, fv, fold, lo, hi, n)

        e, _ = elaborate(parse(src), {})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Machine, "_pieces", spy)
            out = eval_at_cost(e, n)
        with pytest.MonkeyPatch.context() as patch:
            ticking(patch)
            assert eval_at_cost(e, n) == out
        return cells

    def test_a_polys_sweep_sums_each_bisection_in_one_piece(self):
        # seed 1: 64 bisections above cost 0, cells 1 to 2**n - 1 each
        cells, want = [], []
        for op in bench_workloads().Polys(1).ops:
            src, n, _ = op.args
            cells += self.pieces(src, n)
            want += [(1 << n) - 1] if n else []
        assert len(want) == 64 and cells == want

    def test_a_sign_change_in_the_range_splits_it(self):
        # t - 1/3 changes sign in cell 2**n // 3: the ranges holding it
        # are halved down to that one cell, which runs alone
        for n, cells in ((3, [1, 1, 1, 4]), (5, [7, 2, 1, 1, 4, 16]),
                         (8, [63, 16, 4, 1, 1, 2, 8, 32, 128])):
            got = self.pieces("int (fun t: real. (t - 1 / 3) * t)", n)
            assert got == cells, n

    @pytest.mark.parametrize("name,counts", [
        # x/2 - x*x/2 peaks at 1/2: rising cells, then falling ones
        ("legendre_fenchel_halfsq", [2] * 9),
        # x - 4*max(0, x**3 - 1/2): the max's sign test is undecided in
        # the ranges holding the cube root of 1/2, halved down to it
        ("cbrt_sup", [3, 4, 5, 6, 7, 8, 9, 10, 11]),
    ])
    def test_a_sup_at_real_takes_a_few_pieces(self, name, counts):
        src = corpus_source(name)
        got = []
        for n in range(2, 11):
            cells = self.pieces(src, n)
            assert sum(cells) == (1 << n) - 1, n
            assert len(cells) <= 2 * n + 1, n
            got.append(len(cells))
        assert got == counts

    def test_a_dual_sup_folds_aligned_blocks(self):
        # dual max is not associative, but every cell of sup_id has the
        # inf part [0,0]: each aligned block after cell 0, [2^k, 2^(k+1)),
        # folds as one subtree of the literal tree
        src = corpus_source("sup_id")
        for n in range(11):
            assert self.pieces(src, n) == [1 << k for k in range(n)], n

    def test_a_varying_inf_part_folds_cell_by_cell(self):
        # x * in_delta t has the inf part t, a different one at every
        # cell: each aligned block adds its cells' values one by one, and
        # cell 0 alone ticks
        for n in range(1, 8):
            assert self.pieces(VARYING_SUP, n) == [1 << k for k in range(n)]

    def test_a_branch_change_ticks_cell_0_alone(self):
        # the inf part is 1 - t's until t passes 1/2, then t's: the blocks
        # holding 1/2 are halved, and every cell after cell 0 folds
        src = ("L[delta] (fun x: delta. sup (fun t: real."
               " max(x * in_delta (1 - t), in_delta t))) 1 1")
        for n in range(1, 8):
            assert sum(self.pieces(src, n)) == (1 << n) - 1, n

    def test_a_bottom_factor_meets_a_polynomial(self):
        # (t / 0) * t: bottom times the cell, whose zero test on the
        # cell's numerators is decided: bottom at every cell, one piece
        for n in range(6):
            got = self.pieces("int (fun t: real. in_delta ((t / 0) * t))", n)
            assert got == ([(1 << n) - 1] if n else []), n


def _cubic(rng) -> str:
    """A cubic integrand as in the `polys` benchmark, with rational
    coefficients over 1, 2, 3, 5, 7 and 8."""
    terms = []
    for i in range(4):
        q = Fraction(rng.randint(-32, 32), rng.choice([1, 2, 3, 5, 7, 8]))
        c = f"({q.numerator} / {q.denominator})" if q >= 0 \
            else f"((0 - {-q.numerator}) / {q.denominator})"
        terms.append(c + " * t" * i)
    return "fun t: real. in_delta (" + " + ".join(terms) + ")"


def test_fresh_terms_leave_nothing_behind():
    # each term's compiled code lives on the term and dies with it: no
    # table outside a run may hold a compiled node
    rng = random.Random(17)

    def evaluate(pairs):
        for _ in range(pairs):
            f, g = _cubic(rng), _cubic(rng)
            for src, n in ((f"int ({g})", 4),
                           (f"L[real -> delta] int ({f}) ({g})", 1)):
                assert isinstance(ev(src, n), Value)

    evaluate(10)  # the rule templates, compiled once per type
    gc.collect()
    tracemalloc.start()
    try:
        evaluate(30)
        gc.collect()
        after_60 = tracemalloc.get_traced_memory()[0]
        evaluate(60)
        gc.collect()
        after_180 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # at most 100 bytes a program
    assert after_180 - after_60 < 12_000, (after_60, after_180)


class TestKnownCalls:
    # A first-order constant applied to all its operands fires its rule
    # directly; passed as a value, it takes the generic path through a
    # partial `ConstVal`, with one beta step more and the same value.

    @pytest.mark.parametrize("partial,saturated", [
        ("(fun g: delta -> delta -> delta. g (in_delta 1) (in_delta 2)) max",
         "max (in_delta 1) (in_delta 2)"),
        ("(fun g: delta -> delta. g (in_delta 3)) pr", "pr (in_delta 3)"),
        ("(fun h: delta -> delta. h (in_delta 1)) (max (in_delta 2))",
         "max (in_delta 2) (in_delta 1)"),
    ], ids=["binary", "unary", "partial"])
    def test_constant_as_value_takes_one_step_more(self, partial, saturated):
        p, s = ev(partial), ev(saturated)
        assert p.value == s.value
        assert p.steps == s.steps + 1

    def test_saturated_call_steps(self):
        # one step per application node and one per in_delta
        assert ev("max (in_delta 1) (in_delta 2)").steps == 6

    def test_saturated_calls_apply_nothing(self, monkeypatch):
        def no_apply(*args):
            raise AssertionError("a saturated call reached Machine._apply")
        src = "pr (in_delta (in_pi 2) * in_delta 3 - in_delta (1 / 3)) / 2"
        expected = val(src)
        monkeypatch.setattr(Machine, "_apply", no_apply)
        assert val(src) == expected == DualInterval.of(Fraction(1, 2))


def _verdict_values(x, xp):
    """The argument values of one `check_L_soundness` verdict at (x, xp):
    x + eps xp, and the 18 grid points of `finite_diff_oracle`, y and
    y + r xp for y on the grid, with no infinitesimal part."""
    x, step = Interval.point(x), Interval.point(xp) * _R
    grid = [x + offset for offset in _GRID]
    return [DualInterval(x, Interval.point(xp))] + [
        DualInterval(z, IV_ZERO) for y in grid for z in (y, y + step)]


class TestAppliedToAValue:
    # With `arg`, a closed function term is applied to a value with no
    # application built or compiled: the run is `App(f, DualLit(arg))`'s,
    # its value, steps and every stop

    @pytest.mark.parametrize("name", list(FIRST_ORDER_FUNCTIONS))
    def test_oracle_points_run_as_the_application(self, name):
        f = load_first_order(name)
        for x, xp in bench_workloads().ORACLE_PAIRS:
            for v in _verdict_values(x, xp):
                app = App(f, DualLit(v))
                for n in range(5):
                    assert eval_at_cost(f, n, arg=v) == eval_at_cost(app, n), \
                        (x, xp, v, n)
                assert eval_refine(f, _WIDTH, std_only=True, arg=v) == \
                    eval_refine(app, _WIDTH, std_only=True), (x, xp, v)

    @pytest.mark.parametrize("src", [
        # a bisection whose integrand reads an application of x that
        # every cell shares
        "fun x: delta. int (fun t: real. in_delta t * (x * x))",
        # undetermined: L reads x's standard part, 1/3, and the zero test
        # at nat straddles
        "fun x: delta. in_delta (in_pi (if 0 < L[delta] (fun y: delta."
        " y * x) 0 1 - 1 / 3 then 1 else 0))",
        # heads that are a Y, a constant, a partial known call
        "Y[delta -> delta] (fun r: delta -> delta. fun x: delta. x * r x)",
        "Y[delta -> delta] (fun r: delta -> delta. pr)",
        "pr",
        "max (in_delta 1)",
    ], ids=["shared", "undetermined", "y", "y_pr", "constant", "partial"])
    def test_runs_and_stops_are_the_applications(self, src):
        f, _ = elaborate(parse(src), {}, Arrow(DUAL, DUAL))
        v = DualInterval(Interval.point(Fraction(1, 3)), Interval.point(1))
        app = App(f, DualLit(v))
        times = {"*": lambda carrier, vals: vals[0]}
        for n in range(4):
            full = eval_at_cost(app, n)
            assert eval_at_cost(f, n, arg=v) == full, n
            for overrides in (TREE, times):
                assert eval_at_cost(f, n, overrides=overrides, arg=v) == \
                    eval_at_cost(app, n, overrides=overrides), n
            for b in range(min(full.steps, 40)):
                assert eval_at_cost(f, n, b, arg=v) == \
                    eval_at_cost(app, n, b), (n, b)

    @pytest.mark.parametrize("src", [
        "fun x: delta. x * in_delta (in_pi (Y[nat -> nat] (fun f: nat ->"
        " nat. fun n: nat. succ (f n)) 0))",
        "if iszero (Y[nat -> nat] (fun f: nat -> nat. fun n: nat. succ"
        " (f n)) 0) then (fun x: delta. x) else (fun x: delta. x * x)",
    ], ids=["body", "head"])
    def test_a_recursion_depth_stop_is_the_applications(self, src):
        # the body, or the head itself, recurses until the depth runs out:
        # the run calls f's code from as deep a frame as the application
        # does, so it stops at the same step
        f, _ = elaborate(parse(src), {}, Arrow(DUAL, DUAL))
        v = DualInterval.of(1)
        out = eval_at_cost(f, 0, arg=v)
        assert out.reason == "recursion depth"
        assert out == eval_at_cost(App(f, DualLit(v)), 0)

    def test_a_real_argument_runs_as_its_literal(self):
        f, _ = elaborate(parse("fun t: real. int (fun s: real. in_delta"
                               " (s * t))"), {})
        iv = Interval(Fraction(1, 3), Fraction(1, 2))
        for n in range(4):
            assert eval_at_cost(f, n, arg=iv) == \
                eval_at_cost(App(f, IvLit(iv)), n), n


def test_negative_cost_is_rejected():
    e, _ = elaborate(parse("in_pi 1"), {})
    with pytest.raises(ValueError, match="negative cost -1"):
        eval_at_cost(e, -1)


def test_machine_does_not_substitute(monkeypatch):
    def no_subst(*args):
        raise AssertionError("subst called by Machine")
    # the machine does not import `subst`, which the substituting reducer
    # `dualpcf.reducer` defines
    assert not hasattr(machine, "subst")
    monkeypatch.setattr(reducer, "subst", no_subst)
    for name in CORPUS:
        assert isinstance(eval_at_cost(load_corpus(name)[0], 2), Value), name


class TestSharedDenominator:
    @staticmethod
    def intervals(v):
        return (v.std, v.inf) if isinstance(v, DualInterval) else (v,)

    @pytest.mark.parametrize("name,n", [("int_id", 4), ("nested_int_xyz", 3)])
    def test_bisection_stays_on_the_power_of_two_path(self, name, n):
        e, _ = load_corpus(name)
        out = eval_at_cost(e, n)
        assert {iv.d for iv in self.intervals(out.value)} == {1}

    def test_non_dyadic_coefficient_prints_in_lowest_terms(self):
        # a third of int_id's [15/32,17/32] at the same cost
        v = val("int (fun t: real. in_delta (1 / 3 * t))", 4)
        assert str(v) == "[5/32,17/96] + eps [0,0]"
        assert v.std.d == 3
        assert (v.std.lo, v.std.hi) == (Fraction(5, 32), Fraction(17, 96))

    def test_evaluation_builds_no_fraction(self, monkeypatch):
        # a cubic pair as in the `polys` benchmark, over 3, 5 and 7
        f = "fun t: real. in_delta ((1 / 3) + (2 / 5) * t * t * t)"
        g = "fun t: real. in_delta ((0 - 4 / 7) + (3 / 5) * t + (5 / 3) * t * t)"
        # and a zero test on each cell
        h = "fun t: real. if 0 < t - 1 / 3 then in_delta t else in_delta 0"
        terms = [(load_corpus("nested_int_xyz")[0], 3),
                 (load_corpus("lagrangian_action")[0], 3),
                 (elaborate(parse(f"L[real -> delta] int ({f}) ({g})"), {})[0],
                  4),
                 (elaborate(parse(f"int ({h})"), {})[0], 4)]
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        outs = [eval_at_cost(e, n) for e, n in terms]
        monkeypatch.undo()
        assert made == []
        assert all(isinstance(out, Value) for out in outs)


class TestBudget:
    def test_counter_resets_per_run(self):
        m = Machine(budget=10_000)
        e, _ = elaborate(parse("in_pi 1 + in_pi 2"), {})
        m.eval_at_cost(e, 0)
        first = m.steps
        m.eval_at_cost(e, 0)
        assert m.steps == first

    def test_cost_past_the_budget_stops_at_the_first_tick(self):
        # the 2**m cells are built from their index, so the bisection
        # depth costs nothing before the budget check
        e, _ = load_corpus("int_id")
        t0 = time.perf_counter()
        out = eval_at_cost(e, 10 ** 8, budget=1000)
        assert out == BudgetExhausted(steps=1001)
        assert time.perf_counter() - t0 < 1.0

    def test_a_nested_run_stops_at_the_budget(self):
        # lagrangian_action at cost 10 passes the default budget: its
        # outer range is handed back, and its cells tick to the stop
        out = eval_at_cost(load_corpus("lagrangian_action")[0], 10)
        assert out == BudgetExhausted(steps=10_000_001)


def test_values_and_outcomes_compare_as_documented():
    # thunks and closures by identity; outcomes by their fields, and they
    # are mutable, so unhashable
    code, env = Machine()._compile(Lam("x", REAL, Var("x")), ()), ()
    th = Thunk(code[0], code[1], env)
    assert th == th and th != Thunk(code[0], code[1], env)
    assert Closure(code[0], env, 1) != Closure(code[0], env, 1)
    assert Value(3, 2) == Value(3, 2)
    assert Value(3, 2) != Value(4, 2)
    assert BudgetExhausted(5) != Undetermined(5)
    assert BudgetExhausted(5) != BudgetExhausted(5, "recursion depth")
    with pytest.raises(TypeError):
        hash(Value())
    assert not hasattr(Value(), "__dict__")
