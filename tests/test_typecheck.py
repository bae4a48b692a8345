"""Type checking, coercion insertion, and derivative-operator shape
rules."""
import pytest

from dualpcf.lang import Arrow, BOOL, DUAL, NAT, REAL, parse
from dualpcf.typecheck import (
    BAD_L_SHAPE, L_INSIDE_L_ARGUMENT, MISMATCH, TypeCheckError,
    ZERO_TEST_ON_DUAL, elaborate, is_continuous_type, is_l_admissible,
)
from dualpcf.machine import eval_at_cost


def ty_of(src):
    return elaborate(parse(src))[1]


class TestGroundTyping:
    def test_literals_and_casts(self):
        assert ty_of("3") == NAT
        assert ty_of("in_pi 3") == REAL
        assert ty_of("in_delta (in_pi 3)") == DUAL
        assert ty_of("tt") == BOOL

    def test_nat_ops(self):
        assert ty_of("succ (pred 3)") == NAT
        assert ty_of("iszero 0") == BOOL

    def test_arithmetic_on_naturals_lands_in_real(self):
        assert ty_of("1 + 2") == REAL
        assert ty_of("max(1/2, 2)") == REAL

    def test_real_carrier_from_real_operand(self):
        assert ty_of("in_pi 1 + in_pi 2") == REAL
        assert ty_of("fun t: real. t * t") == Arrow(REAL, REAL)

    def test_dual_operand_forces_dual(self):
        assert ty_of("in_delta (in_pi 1) + in_pi 2") == DUAL

    def test_mixed_integrand_promotes_to_dual(self):
        assert ty_of("int (fun t: real. t + in_delta t)") == DUAL

    def test_boolean_operand_rejected(self):
        with pytest.raises(TypeCheckError) as exc:
            ty_of("tt + 1")
        assert exc.value.kind == MISMATCH

    def test_zero_test(self):
        assert ty_of("0 < in_pi 1") == BOOL
        with pytest.raises(TypeCheckError) as exc:
            ty_of("0 < in_delta (in_pi 1)")
        assert exc.value.kind == ZERO_TEST_ON_DUAL

    def test_conditional_joins_branches(self):
        assert ty_of("if 0 < in_pi 1 then in_pi 1 else in_pi 2") == REAL
        assert ty_of("if 0 < in_pi 1 then 1 else in_delta (in_pi 2)") == DUAL


class TestFunctions:
    def test_lambda_and_application(self):
        assert ty_of("fun x: delta. x * x") == Arrow(DUAL, DUAL)
        assert ty_of("(fun x: delta. x * x) 3") == DUAL

    def test_argument_coercion(self):
        # a natural argument is coerced through real into dual
        e, ty = elaborate(parse("(fun x: delta. x + x) 2"), {})
        assert ty == DUAL
        out = eval_at_cost(e, 0)
        assert str(out.value) == "[4,4] + eps [0,0]"

    def test_arrow_codomain_coercion(self):
        # a real-valued integrand is lifted pointwise into the dual one
        assert ty_of("int (fun t: real. t * t)") == REAL
        assert ty_of("int (fun t: real. in_delta t)") == DUAL

    @pytest.mark.parametrize("src", [
        "fun f: real -> real -> real. fun y: real. "
        "L[real -> delta] int (f y) (f 1)",
        "fun f: real -> real -> real. (fun h: real -> delta. h 1) (f 2)",
        "fun f: nat -> real -> real -> real. fun y: real. "
        "(fun h: real -> real -> delta. h y y) (f (succ 1))",
        "(fun h: real -> delta. h 1) ((fun f: real -> real -> real. f 2) "
        "(fun a: real. fun b: real. a * b))",
    ])
    def test_inferred_functions_are_cast_pointwise(self, src):
        # an application inferred at `real -> ...` where `... -> delta` is
        # wanted: the cast is a lambda built around it
        e, _ = elaborate(parse(src))
        assert "fun %c" in str(e)

    def test_mismatch(self):
        with pytest.raises(TypeCheckError):
            ty_of("(fun x: delta. x) tt")
        with pytest.raises(TypeCheckError):
            ty_of("succ (in_pi 1)")

    @pytest.mark.parametrize("src,ty", [
        ("(fun d: delta. d) (pr 1 2)", "pi"),
        ("int (fun t: real. in_delta t) 1", "delta"),
    ])
    def test_ground_result_applied(self, src, ty):
        # pr, int and sup return a ground type, so a second argument is
        # rejected as the application of a non-function
        with pytest.raises(TypeCheckError) as exc:
            ty_of(src)
        assert exc.value.kind == MISMATCH
        assert exc.value.message == f"cannot apply a value of type {ty}"

    def test_fixed_point_types(self):
        assert ty_of("Y[delta -> delta] (fun f: delta -> delta. f)") == \
            Arrow(DUAL, DUAL)
        with pytest.raises(TypeCheckError):
            ty_of("Y[delta -> delta] (fun x: delta. x)")


class TestDerivativeOperator:
    def test_first_order(self):
        assert ty_of("L[delta] (fun x: delta. x * x) 3 1") == REAL

    def test_two_points(self):
        src = "L[delta, delta] (fun x: delta. fun y: delta. x * y) 2 3 1 0"
        assert ty_of(src) == REAL

    def test_functional_argument(self):
        src = ("L[real -> delta] int (fun t: real. in_delta t) "
               "(fun t: real. in_delta t)")
        assert ty_of(src) == REAL

    def test_admissible_types(self):
        assert is_l_admissible(DUAL)
        assert is_l_admissible(Arrow(REAL, DUAL))
        assert is_l_admissible(Arrow(DUAL, DUAL))
        assert not is_l_admissible(REAL)
        assert not is_l_admissible(BOOL)

    def test_partial_application_rejected(self):
        with pytest.raises(TypeCheckError) as exc:
            ty_of("L[delta] (fun x: delta. x)")
        assert exc.value.kind == BAD_L_SHAPE

    def test_nested_l_rejected(self):
        for src in (
                "L[delta] (fun x: delta. "
                "in_delta (L[delta] (fun y: delta. y) x 1)) 0 1",
                # inside a conditional in a point argument
                "L[delta] (fun x: delta. x) "
                "(if tt then in_delta (L[delta] (fun y: delta. y) 0 1) "
                "else 0) 1",
                # an ill-typed first argument is elaborated before the L
                # in the point argument is met, and the L still wins
                "L[delta] (fun x: delta. tt) "
                "(in_delta (L[delta] (fun y: delta. y) 0 1)) 1"):
            with pytest.raises(TypeCheckError) as exc:
                ty_of(src)
            assert (exc.value.kind, exc.value.pos) == \
                (L_INSIDE_L_ARGUMENT, (1, 1))

    def test_continuous_types(self):
        assert is_continuous_type(DUAL)
        assert is_continuous_type(REAL)
        assert is_continuous_type(Arrow(NAT, Arrow(DUAL, REAL)))
        assert not is_continuous_type(NAT)
        assert not is_continuous_type(Arrow(DUAL, BOOL))
