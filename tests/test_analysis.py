"""Logical-relation checks, the finite-difference oracle, and refinement."""
import random
from fractions import Fraction

import pytest

from dualpcf.analysis import (
    check_L_soundness, check_monotone_refinement,
    finite_diff_oracle, relation_holds, relation_holds_ground,
    sample_related_duals,
)
from dualpcf.corpus import FIRST_ORDER_FUNCTIONS, load_corpus, load_first_order
from dualpcf.lang import App, Arrow, DUAL, DualLit, If, Lam, REAL, parse
from dualpcf.machine import Machine, _as_dual, eval_at_cost
from dualpcf.numeric import DualInterval, Interval, IV_BOTTOM
from dualpcf.typecheck import elaborate


def dual(slo, shi, ilo, ihi):
    return DualInterval(Interval(Fraction(slo), Fraction(shi)),
                        Interval(Fraction(ilo), Fraction(ihi)))


class TestGroundRelation:
    def test_positive_example(self):
        assert relation_holds_ground(1, dual(0, 0, 0, 0), dual(1, 1, 0, 0),
                                     dual(0, 1, 1, 1))

    def test_inconsistent_quotient(self):
        assert not relation_holds_ground(1, dual(0, 0, 0, 0), dual(1, 1, 0, 0),
                                         dual(0, 1, 5, 5))

    def test_reflexive_on_constants(self):
        for r in (1, Fraction(1, 7), 42):
            c = dual(3, 3, 0, 0)
            assert relation_holds_ground(r, c, c, c)

    def test_requires_positive_r(self):
        with pytest.raises(ValueError):
            relation_holds_ground(0, dual(0, 0, 0, 0), dual(0, 0, 0, 0),
                                  dual(0, 0, 0, 0))

    def test_weakening_x3_preserves(self):
        # widening the infinitesimal part keeps consistency
        rng = random.Random(11)
        for _ in range(200):
            x1, x2, x3 = sample_related_duals(rng, Fraction(1, 4))
            assert relation_holds_ground(Fraction(1, 4), x1, x2, x3)
            weaker = DualInterval(x3.std, x3.inf.meet(IV_BOTTOM))
            assert relation_holds_ground(Fraction(1, 4), x1, x2, weaker)


def _fn(src):
    return elaborate(parse(src), {})[0]


class TestRelationSampling:
    def test_abs_holds(self):
        f = _fn("fun x: delta. max(x, 0 - x)")
        assert relation_holds(Fraction(1, 8), Arrow(DUAL, DUAL), f, f, f,
                              fuel=100, seed=3)

    def test_constant_function_holds(self):
        f = _fn("fun x: delta. in_delta (in_pi 2)")
        assert relation_holds(1, Arrow(DUAL, DUAL), f, f, f, fuel=50, seed=3)

    def test_broken_max_is_caught(self):
        def broken_max(carrier, vals):
            a, b = _as_dual(vals[0]), _as_dual(vals[1])
            if a.std.lo > b.std.hi:
                return DualLit(a)
            if b.std.lo > a.std.hi:
                return DualLit(b)
            std = IV_BOTTOM if (a.std.is_bottom or b.std.is_bottom) else \
                Interval(max(a.std.lo, b.std.lo), max(a.std.hi, b.std.hi))
            return DualLit(DualInterval(std, a.inf))  # drops the merge

        f = _fn("fun x: delta. max(x, 0 - x)")
        v = relation_holds(Fraction(1, 8), Arrow(DUAL, DUAL), f, f, f,
                           fuel=500, seed=7, overrides={"max": broken_max})
        assert not v.holds
        assert "violation" in v.detail

    def test_real_arrow_relation(self):
        f = _fn("fun x: real. x + x")
        v = relation_holds(Fraction(1, 8), Arrow(REAL, REAL), f, f, f,
                           fuel=20, seed=1)
        assert (v.holds, v.checked) == (True, 20)
        # a third function whose results refine no hull of the other two
        g = _fn("fun x: real. x + 1")
        v = relation_holds(Fraction(1, 8), Arrow(REAL, REAL), f, f, g,
                           fuel=20, seed=1)
        assert (v.holds, v.checked) == (False, 1)
        assert v.detail.startswith("real violation: ")


class TestOracle:
    def test_abs_hull_is_subgradient_interval(self):
        hull = finite_diff_oracle(_fn("fun x: delta. max(x, 0 - x)"), 0, 1)
        assert hull == Interval(-1, 1)

    def test_square_hull_tightens_around_derivative(self):
        hull = finite_diff_oracle(_fn("fun x: delta. x * x"), 3, 1)
        assert hull.contains(6)
        assert hull.width < Fraction(1, 256)

    def test_identity_hull_is_exact(self):
        assert finite_diff_oracle(_fn("fun x: delta. x"), 0, 1) == \
            Interval(1, 1)

    def test_sum_of_kinks_overapproximates(self):
        # |x| - |x| is identically zero, but the dual calculus reports the
        # sum of both branch envelopes; the oracle sees the exact zero
        src = "fun x: delta. max(x, 0 - x) - max(x, 0 - x)"
        assert finite_diff_oracle(_fn(src), 0, 1) == Interval(0, 0)
        arg = DualLit(DualInterval(Interval.point(0), Interval.point(1)))
        v = eval_at_cost(App(_fn(src), arg), 0).value
        assert v.inf == Interval(-2, 2)


def _applications(e):
    """The application nodes of e, by identity."""
    if isinstance(e, App):
        return {id(e)} | _applications(e.fn) | _applications(e.arg)
    if isinstance(e, Lam):
        return _applications(e.body)
    if isinstance(e, If):
        return _applications(e.cond) | _applications(e.then) | \
            _applications(e.els)
    return set()


@pytest.fixture
def compiled(monkeypatch):
    """The application nodes `Machine` compiles, in order; kept alive, so
    no id is reused."""
    nodes, compile_app = [], Machine._compile_app

    def spy(m, e, scope):
        nodes.append(e)
        return compile_app(m, e, scope)

    monkeypatch.setattr(Machine, "_compile_app", spy)
    return nodes


@pytest.mark.parametrize("name", list(FIRST_ORDER_FUNCTIONS))
def test_the_oracle_compiles_no_application_per_point(name, compiled):
    # each grid point applies f's kept code to the point's value, so the
    # only applications compiled are f's own, each once
    f = load_first_order(name)
    hull = finite_diff_oracle(f, Fraction(1, 2), -1)
    assert finite_diff_oracle(f, Fraction(1, 2), -1) == hull
    ids = [id(e) for e in compiled]
    assert set(ids) <= _applications(f)
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("name", list(FIRST_ORDER_FUNCTIONS))
def test_the_soundness_check_compiles_one_application_of_f(name, compiled):
    # the oracle compiles f's own applications, and the costs share one
    # application of f to the dual point, which keeps its code
    f = load_first_order(name)
    check_L_soundness(f, Fraction(1, 2), -1)
    ids = [id(e) for e in compiled]
    assert len(ids) == len(set(ids))
    assert len(set(ids) - _applications(f)) == 1


class TestSoundness:
    @pytest.mark.parametrize("name,x,xp", [
        ("abs", 0, 1),
        ("square", 3, 1),
        ("clamp", 2, 1),
        ("tent", 0, 1),
    ])
    def test_selected_functions(self, name, x, xp):
        assert check_L_soundness(load_first_order(name), x, xp)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the fixed 1/256 pad ignores the hull's drift "
                       "across the grid (ROADMAP item 6)")
    @pytest.mark.parametrize("name,x,xp", [
        ("cube", Fraction(-15, 8), Fraction(3, 2)),
        ("poly_cubic", 2, 1),
    ], ids=["cube", "poly_cubic"])
    def test_wide_inputs_hold(self, name, x, xp):
        # the machine is exact at both, and the oracle's hull misses it
        v = check_L_soundness(load_first_order(name), x, xp)
        assert v, v.detail

    def test_violation_detected_for_wrong_machine(self):
        def broken_mul(carrier, vals):
            a, b = _as_dual(vals[0]), _as_dual(vals[1])
            return DualLit(DualInterval(a.std * b.std, a.inf + b.inf))

        v = check_L_soundness(_fn("fun x: delta. x * x"), 3, 1)
        assert v.holds
        # sanity: the oracle notices when the product rule is wrong
        from dualpcf.lang import App
        from dualpcf.machine import eval_at_cost
        arg = DualLit(DualInterval(Interval.point(3), Interval.point(1)))
        broken = eval_at_cost(App(_fn("fun x: delta. x * x"), arg), 0,
                              10 ** 6, overrides={"*": broken_mul}).value
        assert broken.inf != Interval.point(6)


class TestRefinement:
    def test_integration_chain(self):
        e, _ = load_corpus("int_id")
        assert check_monotone_refinement(e, range(0, 9))

    def test_constant_chain(self):
        e, _ = elaborate(parse("in_delta (in_pi 3)"), {})
        assert check_monotone_refinement(e, range(0, 5))

    def test_violation_reported(self):
        # alternate between two unrelated results by abusing overrides
        e, _ = load_corpus("sup_id")
        v = check_monotone_refinement(e, [4, 2])
        assert not v.holds
        assert "not refined" in v.detail
