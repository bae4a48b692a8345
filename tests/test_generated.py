"""Generated well-typed closed `delta` terms: the environment machine and
the literal one-step reducer agree on every one of them."""
from hypothesis import given, settings, strategies as st

from dualpcf.lang import CostTagged, parse
from dualpcf.machine import Value, _unlit, eval_at_cost, run_steps
from dualpcf.typecheck import elaborate

# rationals as real terms: dyadic (over 1, 2, 4, 8) and not (over 3, 5)
real_literals = st.builds(
    lambda n, d: f"({n} / {d})" if n >= 0 else f"((0 - {-n}) / {d})",
    st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 8]))


@st.composite
def delta_terms(draw, depth=3, reals=()):
    """A closed `delta` term but for the `real` variables in `reals`, with
    at most `depth` nested operators.  Some constants are passed through
    a lambda as values, so both the known-call path and the generic one
    are generated."""
    kinds = ["literal"] + (["variable"] if reals else [])
    if depth > 0:
        kinds += ["arith", "extremum", "pr", "half", "intsup", "passed"]
    kind = draw(st.sampled_from(kinds))

    def sub():
        return draw(delta_terms(depth - 1, reals))

    if kind == "literal":
        lit = draw(real_literals)
        if draw(st.booleans()):
            return f"in_delta {lit}"
        return f"(fun g: real -> delta. g {lit}) in_delta"
    if kind == "variable":
        return f"in_delta ({draw(real_literals)} * {draw(st.sampled_from(reals))})"
    if kind == "arith":
        return f"({sub()} {draw(st.sampled_from('+-*'))} {sub()})"
    if kind == "extremum":
        return f"{draw(st.sampled_from(['max', 'min']))}({sub()}, {sub()})"
    if kind == "pr":
        return f"pr ({sub()})"
    if kind == "half":
        return f"({sub()}) / 2"
    if kind == "intsup":
        t = f"t{len(reals)}"
        body = draw(delta_terms(depth - 1, reals + (t,)))
        return f"{draw(st.sampled_from(['int', 'sup']))} (fun {t}: real. {body})"
    # a constant passed as a value: whole, or applied to its first operand
    op = draw(st.sampled_from(["max", "min"]))
    form = draw(st.sampled_from(["binary", "unary", "partial"]))
    if form == "binary":
        return f"(fun g: delta -> delta -> delta. g ({sub()}) ({sub()})) {op}"
    if form == "unary":
        return f"(fun g: delta -> delta. g ({sub()})) pr"
    return f"(fun h: delta -> delta. h ({sub()})) ({op} ({sub()}))"


@settings(max_examples=150, deadline=None)
@given(delta_terms())
def test_machine_agrees_with_one_step_reducer(src):
    e, _ = elaborate(parse(src), {})
    for n in range(3):
        big = eval_at_cost(e, n)
        assert isinstance(big, Value), (n, big)
        nf, _ = run_steps(CostTagged(e, n), max_steps=1_000_000)
        assert _unlit(nf) == big.value, n
