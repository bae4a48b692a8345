"""Generated well-typed closed `delta` terms: the environment machine and
the literal one-step reducer agree on every one of them, a run stopped by
the step budget stops where the budget says, results refine with cost,
and neither int's running sum, sup's running max nor running a
bisection's cells as ranges, nested bisections included, changes a run.
The front end reads every spelling of a term alike, the printed text of a
term parses back to it, and `eval` ends every run by the exit contract."""
import contextlib
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from dualpcf import cli
from dualpcf.analysis import check_monotone_refinement
from dualpcf.lang import CostTagged, parse, print_expr
from dualpcf.machine import (
    BudgetExhausted, Machine, Undetermined, Value, _unlit, eval_at_cost,
)
from dualpcf.reducer import run_steps
from dualpcf.typecheck import elaborate

from conftest import TREE, alpha_eq, ticking

# rationals as real terms: dyadic (over 1, 2, 4, 8) and not (over 3, 5)
real_literals = st.builds(
    lambda n, d: f"({n} / {d})" if n >= 0 else f"((0 - {-n}) / {d})",
    st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 8]))


@st.composite
def real_terms(draw, depth, reals):
    """A `real` term over the `real` variables in `reals`.  A difference
    of a term with itself encloses zero, so a zero test on it straddles."""
    kinds = ["literal"] + (["variable"] * 2 if reals else [])
    if depth > 0:
        kinds += ["arith", "self_difference"]
    kind = draw(st.sampled_from(kinds))
    if kind == "literal":
        return draw(real_literals)
    if kind == "variable":
        return draw(st.sampled_from(reals))
    a = draw(real_terms(depth - 1, reals))
    if kind == "self_difference":
        return f"({a} - {a})"
    b = draw(real_terms(depth - 1, reals))
    return f"({a} {draw(st.sampled_from('+-*'))} {b})"


@st.composite
def delta_terms(draw, depth=3, reals=(), duals=(), derivatives=True):
    """A closed `delta` term but for the `real` variables in `reals` and
    the `delta` variables in `duals`, with at most `depth` nested
    operators.  Some constants are passed through a lambda as values, so
    both the known-call path and the generic one are generated.  Beyond
    the first-order forms: lambdas at arrow types, a variable passed on
    as an argument, `Y` at `delta` and at `real -> delta`, conditionals
    on zero tests, an applied `real -> real` function cast to
    `real -> delta`, and `L` at `delta` and at `real -> delta`, whose
    arguments hold no `L` (`derivatives` False)."""
    kinds = (["literal"] + (["variable"] if reals else [])
             + (["dual_variable"] * 2 if duals else []))
    if depth > 0:
        kinds += ["arith", "extremum", "pr", "half", "intsup", "passed",
                  "lambda", "higher_order", "forward", "y_delta", "y_arrow",
                  "cast", "conditional"]
        if derivatives:
            kinds += ["l_delta", "l_arrow"]
    kind = draw(st.sampled_from(kinds))

    def sub(reals=reals, duals=duals, derivatives=derivatives):
        return draw(delta_terms(depth - 1, reals, duals, derivatives))

    def binder(prefix):
        return f"{prefix}{len(reals) + len(duals)}"

    if kind == "literal":
        lit = draw(real_literals)
        if draw(st.booleans()):
            return f"in_delta {lit}"
        return f"(fun g: real -> delta. g {lit}) in_delta"
    if kind == "variable":
        return f"in_delta ({draw(real_literals)} * {draw(st.sampled_from(reals))})"
    if kind == "dual_variable":
        return draw(st.sampled_from(duals))
    if kind == "arith":
        return f"({sub()} {draw(st.sampled_from('+-*'))} {sub()})"
    if kind == "extremum":
        return f"{draw(st.sampled_from(['max', 'min']))}({sub()}, {sub()})"
    if kind == "pr":
        return f"pr ({sub()})"
    if kind == "half":
        return f"({sub()}) / 2"
    if kind == "intsup":
        t = binder("t")
        body = sub(reals=reals + (t,))
        return f"{draw(st.sampled_from(['int', 'sup']))} (fun {t}: real. {body})"
    if kind == "passed":
        # a constant passed as a value: whole, or applied to its first operand
        op = draw(st.sampled_from(["max", "min"]))
        form = draw(st.sampled_from(["binary", "unary", "partial"]))
        if form == "binary":
            return f"(fun g: delta -> delta -> delta. g ({sub()}) ({sub()})) {op}"
        if form == "unary":
            return f"(fun g: delta -> delta. g ({sub()})) pr"
        return f"(fun h: delta -> delta. h ({sub()})) ({op} ({sub()}))"
    if kind == "lambda":
        y = binder("y")
        return f"(fun {y}: delta. {sub(duals=duals + (y,))}) ({sub()})"
    if kind == "higher_order":
        # a function argument applied twice, and a curried one
        y, g = binder("y"), binder("g")
        fn = f"(fun {y}: delta. {sub(duals=duals + (y,))})"
        if draw(st.booleans()):
            return f"(fun {g}: delta -> delta. {g} ({g} ({sub()}))) {fn}"
        z = binder("z")
        curried = f"(fun {z}: delta. {fn} ({z} * {sub()}))"
        return f"(fun {g}: delta -> delta. {g} ({sub()})) {curried}"
    if kind == "forward":
        # the bound variable passed on, as it is, to another lambda
        y, z = binder("y"), binder("z")
        inner = f"(fun {z}: delta. {sub(duals=duals + (z,))})"
        return f"(fun {y}: delta. {inner} {y}) ({sub()})"
    if kind == "y_delta":
        x = binder("x")
        return f"Y[delta] (fun {x}: delta. {sub(duals=duals + (x,))})"
    if kind == "y_arrow":
        f, t = binder("f"), binder("t")
        body = sub(reals=reals + (t,))
        arg = draw(real_terms(1, reals + (t,)))
        op = draw(st.sampled_from(["+", "*", "max"]))
        rec = f"{f} ({arg} / 2)"
        unfolded = (f"max({body}, {rec})" if op == "max"
                    else f"({body} {op} {rec})")
        point = draw(real_terms(1, reals))
        return (f"Y[real -> delta] (fun {f}: real -> delta. fun {t}: real. "
                f"{unfolded}) {point}")
    if kind == "cast":
        # an applied `real -> real` function passed where `real -> delta`
        # is wanted: the pointwise cast is a lambda built around
        # applications elaborated before it
        y, t = binder("y"), binder("t")
        body = draw(real_terms(1, reals + (y, t)))
        fn = (f"((fun {y}: real. fun {t}: real. {body})"
              f" ({draw(real_terms(1, reals))}))")
        use = draw(st.sampled_from(
            ["int", f"(fun h: real -> delta. h ({draw(real_literals)}))"]))
        return f"{use} {fn}"
    if kind == "conditional":
        test = draw(real_terms(2, reals))
        return f"(if 0 < {test} then {sub()} else {sub()})"
    if kind == "l_delta":
        y = binder("y")
        fn = f"(fun {y}: delta. {sub(duals=duals + (y,), derivatives=False)})"
        point, direction = sub(derivatives=False), sub(derivatives=False)
        return f"in_delta (L[delta] {fn} ({point}) ({direction}))"
    # l_arrow: the derivative of a functional along a function
    g, t = binder("g"), binder("t")
    fn = draw(st.sampled_from([
        "int", "sup",
        f"(fun {g}: real -> delta. {g} ({draw(real_literals)}) * "
        f"({sub(derivatives=False)}))"]))
    point, direction = (
        f"(fun {t}: real. {sub(reals=reals + (t,), derivatives=False)})"
        for _ in range(2))
    return f"in_delta (L[real -> delta] {fn} {point} {direction})"


@settings(max_examples=150, deadline=None)
@given(delta_terms())
def test_machine_agrees_with_one_step_reducer(src):
    e, _ = elaborate(parse(src), {})
    for n in range(3):
        big = eval_at_cost(e, n)
        assert isinstance(big, Value), (n, big)
        nf, _ = run_steps(CostTagged(e, n), max_steps=1_000_000)
        assert _unlit(nf) == big.value, n
        # a budget below the run's steps stops it one step past the budget
        for b in sorted({1, big.steps // 2, big.steps - 1}):
            if b < big.steps:
                out = eval_at_cost(e, n, budget=b)
                assert isinstance(out, BudgetExhausted), (n, b, out)
                assert out.steps == b + 1 and out.reason == "step budget"


@settings(max_examples=150, deadline=None)
@given(delta_terms())
def test_results_refine_monotonically(src):
    e, _ = elaborate(parse(src), {})
    verdict = check_monotone_refinement(e, range(4))
    assert verdict, verdict.detail


@settings(max_examples=150, deadline=None)
@given(delta_terms())
def test_running_sum_agrees_with_combining_tree(src):
    e, _ = elaborate(parse(src), {})
    for n in range(3):
        assert eval_at_cost(e, n) == eval_at_cost(e, n, overrides=TREE), n


@settings(max_examples=150, deadline=None)
@given(delta_terms())
def test_range_runs_and_ticking_loop_agree(src):
    # the budget stops too: each range run adds its cells' steps at once
    e, _ = elaborate(parse(src), {})

    def runs(n):
        out = eval_at_cost(e, n)
        budgets = sorted({1, out.steps // 2, out.steps - 1})
        return [out] + [eval_at_cost(e, n, budget=b)
                        for b in budgets if 0 < b < out.steps]

    for n in range(3):
        ranges = runs(n)
        with pytest.MonkeyPatch.context() as patch:
            ticking(patch)
            assert runs(n) == ranges, n


@st.composite
def cell_terms(draw, depth, cells=("t",)):
    """A straight-line `real` term in the variables `cells`: literals,
    negative and not dyadic ones too, `+ - *`, `/ n` with n in
    {0, 2, 3, 5, 8}, `max`, `min` and `pr`."""
    kinds = ["literal", "cell", "cell"]
    if depth > 0:
        kinds += ["arith", "arith", "divide", "extremum", "pr"]
    kind = draw(st.sampled_from(kinds))
    if kind == "literal":
        return draw(real_literals)
    if kind == "cell":
        return draw(st.sampled_from(cells))
    a = draw(cell_terms(depth - 1, cells))
    if kind == "divide":
        return f"({a}) / {draw(st.sampled_from([0, 2, 3, 5, 8]))}"
    if kind == "pr":
        return f"pr ({a})"
    b = draw(cell_terms(depth - 1, cells))
    if kind == "extremum":
        return f"{draw(st.sampled_from(['max', 'min']))}({a}, {b})"
    return f"({a} {draw(st.sampled_from('+-*'))} {b})"


@st.composite
def cell_duals(draw, depth, cells=("t",)):
    """A straight-line `delta` term in the variables `cells`: `in_delta` of
    a cell term, and the dual `+ - *`, `max`, `min` and `pr` of such
    terms."""
    kind = draw(st.sampled_from(
        ["embedded"] + (["arith", "extremum", "pr"] if depth > 0 else [])))
    if kind == "embedded":
        return f"in_delta ({draw(cell_terms(2, cells))})"
    a = draw(cell_duals(depth - 1, cells))
    if kind == "pr":
        return f"pr ({a})"
    b = draw(cell_duals(depth - 1, cells))
    if kind == "extremum":
        return f"{draw(st.sampled_from(['max', 'min']))}({a}, {b})"
    return f"({a} {draw(st.sampled_from('+-*'))} {b})"


@st.composite
def cell_integrals(draw):
    """An `int` or a `sup` of a straight-line integrand at `real` or at
    `delta`, `L[real -> delta] int f g` with f and g straight-line, or an
    `int` whose integrand is a conditional on a cell term, or applies a
    lambda to a cell term that is not a variable."""
    form = draw(st.sampled_from(["real", "delta", "sup_real", "sup_delta",
                                 "L", "conditional", "applied"]))
    if form == "real":
        return f"int (fun t: real. {draw(cell_terms(3))})"
    if form == "delta":
        return f"int (fun t: real. {draw(cell_duals(2))})"
    if form == "sup_real":
        return f"sup (fun t: real. {draw(cell_terms(3))})"
    if form == "sup_delta":
        return f"sup (fun t: real. {draw(cell_duals(2))})"
    if form == "conditional":
        test, then, els = (draw(cell_terms(2)), draw(cell_duals(1)),
                           draw(cell_duals(1)))
        return f"int (fun t: real. if 0 < {test} then {then} else {els})"
    if form == "applied":
        arg = draw(cell_terms(2).filter(lambda a: a != "t"))
        body = draw(cell_duals(2, ("u", "t")))
        return f"int (fun t: real. (fun u: real. {body}) ({arg}))"
    f, g = (draw(cell_duals(1)) for _ in range(2))
    return f"L[real -> delta] int (fun t: real. {f}) (fun t: real. {g})"


@settings(max_examples=60, deadline=None)
@given(cell_integrals())
def test_closed_form_agrees_with_per_cell_folds(src):
    # the sum or max of each piece of cells in closed form against the
    # integrand's cells folded one by one into the combining tree, and
    # against the ticking loop: values and steps
    e, _ = elaborate(parse(src), {})
    for n in range(9):
        out = eval_at_cost(e, n)
        assert out == eval_at_cost(e, n, overrides=TREE), n
        with pytest.MonkeyPatch.context() as patch:
            ticking(patch)
            assert eval_at_cost(e, n) == out, n


@settings(max_examples=400, deadline=None)
@given(cell_integrals())
def test_a_range_is_handed_back_only_where_the_run_stops(src):
    # a range run is handed back only when it is undetermined or stopped
    # by the budget or the recursion depth.  These integrands recurse
    # nowhere, and the ticking loop stops in an undetermined or
    # over-budget range too: so the last range of a run alone is handed
    # back, and only where the run ends undetermined or stopped
    e, _ = elaborate(parse(src), {})
    steps = eval_at_cost(e, 4).steps
    for budget in sorted({steps // 2, steps - 1, 10_000_000}):
        handed, pieces = [], Machine._pieces

        def spy(m, fv, total, lo, hi, n):
            got = pieces(m, fv, total, lo, hi, n)
            handed.append(got[0] < hi)
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Machine, "_pieces", spy)
            out = eval_at_cost(e, 4, budget)
        assert True not in handed[:-1], budget
        if handed and handed[-1]:
            assert isinstance(out, (Undetermined, BudgetExhausted)), budget


@st.composite
def nested_integrals(draw):
    """An `int` or a `sup` over t whose integrand starts an `int` or a
    `sup` over s: plain, with an inner integrand that does not mention t,
    under a conditional on t, or with a third `int` over r inside, and
    the costs to run it at, 0-5 (0-3 for the third level)."""
    form = draw(st.sampled_from(["plain", "free", "conditional", "triple"]))
    outer, inner = (draw(st.sampled_from(["int", "sup"])) for _ in range(2))
    if form == "triple":
        body = draw(cell_duals(1, ("t", "s", "r")))
        return (f"{outer} (fun t: real. {inner} (fun s: real."
                f" int (fun r: real. {body})))"), range(4)
    if form == "free":
        body, factor = draw(cell_duals(2, ("s",))), draw(cell_duals(1))
        return (f"{outer} (fun t: real."
                f" {inner} (fun s: real. {body}) * {factor})"), range(6)
    inner = f"{inner} (fun s: real. {draw(cell_duals(2, ('t', 's')))})"
    if form == "conditional":
        test, els = draw(cell_terms(2)), draw(cell_duals(1))
        inner = f"if 0 < {test} then {inner} else {els}"
    return f"{outer} (fun t: real. {inner})", range(6)


@settings(max_examples=100, deadline=None)
@given(nested_integrals())
def test_nested_bisections_agree_with_the_ticking_loop(program):
    # a bisection started in a range run ticks its cells on the range:
    # values, steps and budget stops are the ticking loop's
    src, costs = program
    e, _ = elaborate(parse(src), {})

    def runs(n):
        out = eval_at_cost(e, n)
        budgets = {1, out.steps // 3, out.steps // 2, out.steps - 1}
        return [out] + [eval_at_cost(e, n, budget=b)
                        for b in sorted(budgets) if 0 < b < out.steps]

    for n in costs:
        ranges = runs(n)
        with pytest.MonkeyPatch.context() as patch:
            ticking(patch)
            assert runs(n) == ranges, n


@st.composite
def respelled(draw):
    """A generated term's source and the same source respelled: other
    spellings of `fun`, `real` and `->`, and some spaces turned into
    newlines or comments."""
    src = draw(delta_terms())

    def spell(*forms):
        return lambda m: draw(st.sampled_from(forms))

    out = re.sub(r"\bfun\b", spell("fun", "λ", "\\"), src)
    out = re.sub(r"\breal\b", spell("real", "π", "pi"), out)
    out = re.sub(r"->", spell("->", "→"), out)
    out = re.sub(r" ", spell(" ", "\n", " # a comment → λ\n"), out)
    return src, out


@settings(max_examples=100, deadline=None)
@given(respelled())
def test_spellings_parse_alike(sources):
    src, other = sources
    e = parse(src)
    assert parse(other) == e
    assert elaborate(parse(other), {})[1] is elaborate(e, {})[1]


@settings(max_examples=500, deadline=None)
@given(delta_terms())
def test_printed_terms_parse_back(src):
    # the parser and the printer read one table of operator levels
    e = parse(src)
    assert alpha_eq(parse(print_expr(e)), e)


@pytest.fixture(scope="module")
def program_file(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "prog.dpcf"


@settings(max_examples=60, deadline=None)
@given(delta_terms(),
       st.sampled_from([["--cost", "0"], ["--cost", "2"],
                        ["--width", "1/4", "--ceiling", "4"]]),
       st.sampled_from([["--budget", "1"], ["--budget", "50"], []]))
def test_eval_keeps_the_exit_contract(program_file, src, mode, budget):
    # exit 0-3; a failure says so in one line on stderr, never a traceback.
    # The ceiling keeps a refinement that never narrows from running into
    # the default budget at cost 8, 16, ...: seconds per example.
    program_file.write_text(src)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", str(program_file), *mode, *budget])
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()
    assert "Traceback" not in err.getvalue()
