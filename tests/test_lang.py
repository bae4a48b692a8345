"""Parser, printer, substitution and type-interning tests."""
import copy
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from dualpcf.lang import (
    App, Arrow, BoolLit, Const, DUAL, Ground, If, Lam, NAT, NatLit,
    ParseError, REAL, SIGNATURES, TYPE_NAMES, Var, parse, print_expr,
)
from dualpcf.reducer import free_vars, subst

from conftest import alpha_eq


class TestParser:
    def test_application_left_assoc(self):
        e = parse("fun f: delta -> delta -> delta. fun x: delta. f x x")
        body = e.body.body
        assert isinstance(body, App) and isinstance(body.fn, App)

    def test_comma_argument_lists(self):
        assert parse("max(1, 2)") == parse("max 1 2")
        assert parse("fun f: delta -> delta -> delta. f(1, 2)") == \
            parse("fun f: delta -> delta -> delta. f 1 2")

    def test_precedence(self):
        assert parse("1 + 2 * 3") == parse("1 + (2 * 3)")
        assert parse("1 - 2 - 3") == parse("(1 - 2) - 3")

    def test_unary_minus(self):
        assert parse("fun x: delta. -x") == parse("fun x: delta. 0 - x")

    def test_lambda_sugar(self):
        multi = parse("fun x: delta. fun y: delta. x + y")
        assert parse("fun (x: delta) (y: delta). x + y") == multi
        assert parse(r"\x: delta. \y: delta. x + y") == multi

    def test_let_desugars_to_application(self):
        e = parse("let y = 1 + 2 in y * y")
        assert isinstance(e, App) and isinstance(e.fn, Lam)
        assert e.fn.var == "y"

    def test_if_and_zero_test(self):
        e = parse("if 0 < in_pi 1 then 2 else 3")
        assert e.cond == App(Const("lt0"), App(Const("in_pi"), NatLit(1)))

    def test_only_zero_test_allowed(self):
        with pytest.raises(ParseError):
            parse("if 1 < 2 then 1 else 2")

    def test_type_arguments(self):
        e = parse("Y[delta -> delta]")
        assert e == Const("Y", (Arrow(DUAL, DUAL),))
        e = parse("L[real -> delta, delta]")
        assert e.targs == (Arrow(REAL, DUAL), DUAL)

    def test_unicode_types_and_arrows(self):
        assert parse("fun x: δ. x") == parse("fun x: delta. x")
        assert parse("fun f: π → δ. f") == \
            parse("fun f: real -> delta. f")

    def test_comments(self):
        assert parse("# a comment\n1 + 1  # trailing") == parse("1 + 1")

    def test_unbound_variable(self):
        with pytest.raises(ParseError, match="unbound"):
            parse("fun x: delta. y")

    def test_internal_constant_rejected(self):
        with pytest.raises(ParseError):
            parse("In (in_delta 1)")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("1 1)")

    @pytest.mark.parametrize("src,message,line,col", [
        ("in_pi 1 +\n  $", "unexpected character '$'", 2, 3),
        ("(1 + 2", "expected ')', found end of input", 1, 7),
        ("let 3 = 1 in 2", "expected a name after 'let'", 1, 5),
        ("fun x: delta.\nfun 3. x", "expected a binder, found '3'", 2, 5),
        ("fun", "expected a binder, found end of input", 1, 4),
        ("fun x:", "expected a type, found end of input", 1, 7),
        ("in_pi 1 +\n", "expected an expression, found end of input", 2, 1),
        ("1 + )", "expected an expression, found ')'", 1, 5),
        ("# a comment line\n1 + )", "expected an expression, found ')'", 2, 5),
        ("\n\n\n\nfun 3. x", "expected a binder, found '3'", 5, 5),
        ("λf: π → π. f $", "unexpected character '$'", 1, 14),
        ("λx: π → π. x )", "trailing input ')'", 1, 14),
        ("1 +\t)", "expected an expression, found ')'", 1, 5),
        ("1 + # a trailing comment",
         "expected an expression, found end of input", 1, 25),
        ("fun x: real.\n  # comment λ → π\n  x + @",
         "unexpected character '@'", 3, 7),
    ], ids=["character", "close_paren", "let_name", "binder", "end_binder",
            "end_type", "end_expression", "expression", "after_comment",
            "after_blank_lines", "after_unicode", "trailing_after_unicode",
            "after_tab", "end_after_comment", "character_after_comment"])
    def test_error_position(self, src, message, line, col):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (exc.value.message, exc.value.line, exc.value.col) == \
            (message, line, col)

    def test_positions_on_the_third_line(self):
        e = parse("fun x: real.\n  fun y: real.\n    x + 3 * y")
        plus = e.body.body.fn.fn
        x, three = e.body.body.fn.arg, e.body.body.arg.fn.arg
        assert (plus, x, three) == (Const("+"), Var("x"), NatLit(3))
        assert (plus.pos, x.pos, three.pos) == ((3, 7), (3, 5), (3, 9))

    def test_booleans_are_literals(self):
        assert parse("if tt then ff else tt") == \
            If(BoolLit(True), BoolLit(False), BoolLit(True))


@pytest.mark.parametrize("name", [n for n in SIGNATURES
                                  if n.isidentifier() and n != "In"])
def test_binder_takes_only_the_zero_tests_name(name):
    body = parse(f"fun {name}: real. {name}").body
    assert body == (Var(name) if name == "lt0" else Const(name))


@pytest.mark.parametrize("src,message,col", [
    ("fun (1: real). 1", "expected a binder, found '1'", 6),
    ("fun (+: real). 2", "expected a binder, found '+'", 6),
    ("(fun (in: real). 1) 2", "expected a binder, found 'in'", 7),
], ids=["number", "operator", "keyword"])
def test_a_parenthesized_binder_is_checked_as_a_bare_one(src, message, col):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (exc.value.message, exc.value.line, exc.value.col) == \
        (message, 1, col)


def test_a_parenthesized_binder_takes_the_bare_ones_names():
    # `tt` is a binder in both forms, and the body's `tt` is the literal
    assert parse("fun (tt: real). tt") == parse("fun tt: real. tt") == \
        Lam("tt", REAL, BoolLit(True))


ROUND_TRIP_SOURCES = [
    "fun x: delta. max(x, 0 - x)",
    "L[delta] (fun x: delta. x * x) 3 1",
    "int (fun t: real. in_delta t)",
    "sup (fun t: real. t * (1/2) - t * t / 2)",
    "Y[delta -> delta] (fun f: delta -> delta. fun x: delta. f x)",
    "if 0 < in_pi 1 then in_pi 1 else in_pi 2",
    "fun g: delta -> delta. fun y: delta. g(y) * g(y)",
    "let h = fun x: delta. pr x in h 2",
    "fun (x: delta) (y: delta). -x * y",
    "fun (a: delta) (b: delta) (c: delta). a - (b - c)",
    "fun a: delta. a / 2 / 3",
    "fun (a: real) (b: real) (c: real). 0 < a - b * c",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_print_parse_round_trip(src):
    e = parse(src)
    assert alpha_eq(parse(print_expr(e)), e)


class TestSubstitution:
    def test_basic(self):
        e = parse("fun x: delta. x + x").body
        assert subst(e, "x", NatLit(3)) == parse("3 + 3")

    def test_shadowing(self):
        lam = Lam("x", DUAL, Var("x"))
        assert subst(lam, "x", NatLit(1)) == lam

    def test_capture_avoidance(self):
        # substituting a term mentioning y under a y-binder must rename
        lam = Lam("y", DUAL, App(Var("y"), Var("x")))
        out = subst(lam, "x", Var("y"))
        assert out.var != "y"
        assert out.body == App(Var(out.var), Var("y"))

    def test_free_vars(self):
        e = parse("fun x: delta. x + x")
        assert free_vars(e) == set()
        assert free_vars(e.body) == {"x"}


def _kept(e):
    """e holding code, as the machine keeps it on a closed node."""
    e.code = (None, None)
    return e


class TestNodeContract:
    # A source position, the machine's kept code (`App.code`) and a
    # conditional's type annotation take no part in equality, hashing or
    # repr.
    @pytest.mark.parametrize("a,b", [
        (Var("x", pos=(1, 2)), Var("x")),
        (NatLit(1, pos=(1, 1)), NatLit(1)),
        (Const("+", (REAL,), pos=(3, 4)), Const("+", (REAL,))),
        (_kept(App(Var("f"), Var("x"))), App(Var("f"), Var("x"))),
        (If(Var("b"), NatLit(1), NatLit(2), NAT),
         If(Var("b"), NatLit(1), NatLit(2))),
        (Arrow(REAL, DUAL), Arrow(REAL, DUAL)),
        (Ground("pi"), REAL),
    ])
    def test_equal_nodes_hash_equal(self, a, b):
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert {a: 1}[b] == 1

    @pytest.mark.parametrize("a,b", [
        (Var("x"), Const("x")),
        (Var("x"), Var("y")),
        (Arrow(REAL, DUAL), Arrow(DUAL, REAL)),
        (Lam("x", REAL, Var("x")), Lam("x", DUAL, Var("x"))),
    ])
    def test_unequal_nodes(self, a, b):
        assert a != b

    @pytest.mark.parametrize("node", [
        REAL, Arrow(REAL, DUAL), Var("x"), App(Var("f"), NatLit(1)),
        parse("fun x: delta. if 0 < in_pi 1 then x else x"),
    ])
    def test_nodes_have_no_dict(self, node):
        assert not hasattr(node, "__dict__")


class TestInterning:
    # Types are hash-consed: an equal type is the same object.
    TYPES = [REAL, Arrow(REAL, DUAL), Arrow(Arrow(NAT, REAL), DUAL),
             Ground("carrier")]

    def test_equal_types_are_one_object(self):
        assert Arrow(REAL, DUAL) is Arrow(REAL, DUAL)
        assert Ground("pi") is REAL
        assert Arrow(Arrow(REAL, DUAL), NAT) is Arrow(Arrow(REAL, DUAL), NAT)
        assert Arrow(REAL, DUAL) is not Arrow(DUAL, REAL)

    def test_parser_builds_the_interned_types(self):
        assert TYPE_NAMES["real"] is TYPE_NAMES["π"] is REAL
        e = parse("L[real -> delta, dual] Y[(nat -> pi) -> δ]")
        assert e.fn.targs == (Arrow(REAL, DUAL), DUAL)
        assert e.fn.targs[0] is Arrow(REAL, DUAL) and e.fn.targs[1] is DUAL
        assert e.arg.targs[0] is Arrow(Arrow(NAT, REAL), DUAL)
        assert parse("fun x: ν. x").ty is NAT

    @pytest.mark.parametrize("ty", TYPES, ids=str)
    def test_copies_and_pickles_stay_interned(self, ty):
        assert copy.copy(ty) is ty
        assert copy.deepcopy(ty) is ty
        assert pickle.loads(pickle.dumps(ty)) is ty
        e = Const("Y", (ty,))
        assert copy.deepcopy(e).targs[0] is ty
        assert pickle.loads(pickle.dumps(e)).targs[0] is ty

    def test_hash_agrees_with_equality(self):
        for a in self.TYPES:
            for b in self.TYPES:
                assert (a == b) == (a is b)
                if a == b:
                    assert hash(a) == hash(b)
        assert len({Arrow(REAL, DUAL), Arrow(REAL, DUAL), REAL}) == 2

    def test_threads_building_one_type_get_one_object(self):
        def build(out):
            for i in range(300):
                out.append(Arrow(Ground(f"race{i}"), Arrow(REAL, DUAL)))

        built = [[] for _ in range(4)]
        threads = [threading.Thread(target=build, args=(out,))
                   for out in built]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(out) == 300 for out in built)
        assert all(a is b for out in built[1:] for a, b in zip(built[0], out))

    def test_import_builds_only_the_signature_types(self):
        # the intern tables hold, after start-up, the types of the
        # signature, the carrier placeholder, the parser's type names and
        # the elaborator's table of constants at each carrier
        code = """if True:
            import dualpcf.cli
            from dualpcf.lang import Arrow, CARRIER, Ground, SIGNATURES, TYPE_NAMES
            from dualpcf.typecheck import _TYPES
            def parts(ty):
                if isinstance(ty, Arrow):
                    return {ty} | parts(ty.src) | parts(ty.dst)
                return {ty}
            built = set().union(*map(parts, [
                CARRIER, *SIGNATURES.values(), *TYPE_NAMES.values(),
                *_TYPES.values()]))
            tables = set(Ground._table.values()) | set(Arrow._table.values())
            print(len(tables), tables == built)
        """
        package = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(package)}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.split()[1] == "True", out.stdout
