"""Unit tests for exact interval and dual-interval arithmetic."""
import copy
import itertools
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from dualpcf.numeric import (
    DUAL_BOTTOM, DualInterval, InconsistentIntervals, Interval, IV_BOTTOM,
    IV_ONE, IV_UNIT, IV_ZERO, dual_eps, dual_max, dual_min, dual_pr, in_dual,
    iv_max, iv_min, iv_pr,
)


def iv(lo, hi=None):
    return Interval(Fraction(lo), Fraction(hi if hi is not None else lo))


def dual(slo, shi, ilo, ihi):
    return DualInterval(iv(slo, shi), iv(ilo, ihi))


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1 << 10)


@st.composite
def intervals(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return IV_BOTTOM
    a, b = sorted((draw(rationals), draw(rationals)))
    return Interval(a, b)


class TestIntervalBasics:
    def test_point_and_parse(self):
        assert Interval.point(3) == iv(3)
        assert Interval.parse("[1/2, 2/3]") == Interval(Fraction(1, 2), Fraction(2, 3))
        assert Interval.parse("[-inf, inf]") is not None

    def test_invalid_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1, 0)
        with pytest.raises(ValueError):
            Interval(0, inf)
        with pytest.raises(ValueError):
            Interval(inf, inf)

    def test_order_is_reverse_inclusion(self):
        assert iv(0, 2).leq(iv(1, 2))
        assert not iv(1, 2).leq(iv(0, 2))
        assert IV_BOTTOM.leq(iv(5))
        assert iv(0, 1).leq(iv(0, 1))

    def test_way_below(self):
        assert iv(0, 3).way_below(iv(1, 2))
        assert not iv(0, 3).way_below(iv(0, 2))
        assert IV_BOTTOM.way_below(iv(1, 2))

    def test_meet_join(self):
        assert iv(0, 1).meet(iv(2, 3)) == iv(0, 3)
        assert iv(0, 2).join(iv(1, 3)) == iv(1, 2)
        with pytest.raises(InconsistentIntervals):
            iv(0, 1).join(iv(2, 3))

    def test_str(self):
        assert str(iv(1, 2)) == "[1,2]"
        assert str(IV_BOTTOM) == "[-inf,inf]"


class TestIntervalArithmetic:
    def test_add_sub(self):
        assert iv(1, 2) + iv(3, 4) == iv(4, 6)
        assert iv(1, 2) - iv(3, 4) == iv(-3, -1)
        assert iv(0) + IV_BOTTOM == IV_BOTTOM

    def test_mul_signs(self):
        assert iv(-1, 2) * iv(-3, 4) == iv(-6, 8)
        assert iv(2, 3) * iv(-1, 1) == iv(-3, 3)

    def test_mul_zero_absorbs_bottom(self):
        assert IV_ZERO * IV_BOTTOM == IV_ZERO
        assert IV_BOTTOM * IV_ZERO == IV_ZERO
        assert iv(0, 1) * IV_BOTTOM == IV_BOTTOM

    def test_div_nat(self):
        assert iv(1, 3).div_nat(2) == Interval(Fraction(1, 2), Fraction(3, 2))
        assert iv(1, 3).div_nat(0) == IV_BOTTOM

    def test_scale(self):
        assert iv(1, 2).scale(Fraction(-1, 2)) == Interval(-1, Fraction(-1, 2))
        assert IV_BOTTOM.scale(0) == IV_ZERO

    @given(intervals(), intervals(), intervals())
    def test_add_monotone(self, a, b, c):
        if a.leq(b):
            assert (a + c).leq(b + c)

    @given(intervals(), intervals(), intervals())
    def test_mul_monotone(self, a, b, c):
        if a.leq(b):
            assert (a * c).leq(b * c)

    @given(intervals(), intervals())
    def test_max_bounds(self, a, b):
        m = iv_max(a, b)
        if not (a.is_bottom or b.is_bottom):
            assert m.lo == max(a.lo, b.lo)
            assert m.hi == max(a.hi, b.hi)

    @given(intervals())
    def test_min_max_duality(self, a):
        assert iv_min(a, a) == a
        assert iv_max(a, a) == a


class TestRealOps:
    def test_max_separated(self):
        assert iv_max(iv(3, 4), iv(0, 1)) == iv(3, 4)
        assert iv_max(iv(0, 1), iv(3, 4)) == iv(3, 4)

    def test_max_overlap(self):
        assert iv_max(iv(0, 2), iv(1, 3)) == iv(1, 3)

    def test_max_bottom(self):
        assert iv_max(IV_BOTTOM, iv(0, 1)) == IV_BOTTOM
        assert iv_max(IV_BOTTOM, iv(5)) == IV_BOTTOM

    def test_pr_cases(self):
        assert iv_pr(iv(-5, -2)) == iv(-1)
        assert iv_pr(iv(2, 5)) == iv(1)
        assert iv_pr(iv(Fraction(-1, 2), Fraction(1, 2))) == iv(Fraction(-1, 2), Fraction(1, 2))
        assert iv_pr(iv(-3, 3)) == iv(-1, 1)
        assert iv_pr(IV_BOTTOM) == iv(-1, 1)


class TestDualArithmetic:
    def test_parse_round_trip(self):
        d = dual(0, 1, -2, 3)
        assert DualInterval.parse(str(d)) == d

    def test_product_rule(self):
        a = DualInterval.of(2, 3)
        b = DualInterval.of(5, 7)
        assert a * b == DualInterval.of(10, 29)

    def test_add_neg(self):
        assert dual(0, 1, 1, 1) + dual(1, 1, 0, 2) == dual(1, 2, 1, 3)
        assert -dual(0, 1, -2, 3) == dual(-1, 0, -3, 2)

    def test_order_componentwise(self):
        assert DUAL_BOTTOM.leq(dual(0, 1, 0, 0))
        assert not dual(0, 0, 0, 0).leq(dual(1, 1, 0, 0))


class TestDualMax:
    def test_separated_picks_larger(self):
        a, b = dual(3, 4, 9, 9), dual(0, 1, 7, 7)
        assert dual_max(a, b) == a
        assert dual_max(b, a) == a

    def test_overlap_merges_infinitesimals(self):
        a, b = dual(0, 2, 1, 1), dual(1, 3, 5, 5)
        assert dual_max(a, b) == dual(1, 3, 1, 5)

    def test_bottom_std_keeps_merged_inf(self):
        a = DualInterval(IV_BOTTOM, iv(1, 1))
        b = dual(0, 0, 3, 3)
        assert dual_max(a, b) == DualInterval(IV_BOTTOM, iv(1, 3))

    def test_abs_subgradient_shape(self):
        # max(0 + eps 1, 0 + eps -1) merges the branch slopes
        x = DualInterval.of(0, 1)
        assert dual_max(x, -x) == DualInterval(IV_ZERO, iv(-1, 1))

    def test_min_via_negation(self):
        a, b = dual(0, 2, 1, 1), dual(1, 3, 5, 5)
        assert dual_min(a, b) == -dual_max(-a, -b)
        assert dual_min(a, b).std == iv(0, 2)


class TestDualPr:
    def test_flat_regions_kill_derivative(self):
        assert dual_pr(dual(2, 3, 7, 7)) == DualInterval(IV_ONE, IV_ZERO)
        assert dual_pr(dual(-3, -2, 7, 7)) == DualInterval(iv(-1), IV_ZERO)

    def test_interior_unchanged(self):
        d = dual(Fraction(-1, 2), Fraction(1, 2), 4, 4)
        assert dual_pr(d) == d

    def test_boundary_merges_with_zero(self):
        assert dual_pr(dual(0, 2, 3, 3)) == DualInterval(iv(0, 1), iv(0, 3))

    def test_eps_unit(self):
        assert dual_eps(dual(2, 3, 9, 9)) == DualInterval(IV_ZERO, iv(2, 3))

    def test_embed(self):
        assert in_dual(IV_UNIT) == DualInterval(IV_UNIT, IV_ZERO)


# -- reference rules ---------------------------------------------------------
#
# The arithmetic as first written: every endpoint product formed under the
# set-image convention 0 * inf = 0, then min/max over the four of them, and
# every result built by the validating constructor.  The sign-case rules
# above must give equal results, bottom exactly where the reference does.


def ref_ep_mul(a, b):
    if a == 0 or b == 0:
        return Fraction(0)
    return a * b


def ref_mul(x, y):
    if x == IV_ZERO or y == IV_ZERO:
        return IV_ZERO
    ps = [ref_ep_mul(p, q) for p in (x.lo, x.hi) for q in (y.lo, y.hi)]
    return Interval(min(ps), max(ps))


def ref_add(x, y):
    return Interval(x.lo + y.lo, x.hi + y.hi)


def ref_neg(x):
    return Interval(-x.hi, -x.lo)


def ref_sub(x, y):
    return ref_add(x, ref_neg(y))


def ref_scale(x, q):
    if q == 0:
        return IV_ZERO
    if q > 0:
        return Interval(ref_ep_mul(x.lo, q), ref_ep_mul(x.hi, q))
    return Interval(ref_ep_mul(x.hi, q), ref_ep_mul(x.lo, q))


def ref_meet(x, y):
    return Interval(min(x.lo, y.lo), max(x.hi, y.hi))


def ref_max(a, b):
    if a.lo > b.hi:
        return a
    if b.lo > a.hi:
        return b
    if a.lo == -inf or b.lo == -inf:
        return IV_BOTTOM
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def ref_dual_mul(a, b):
    return DualInterval(ref_mul(a.std, b.std),
                        ref_add(ref_mul(a.std, b.inf), ref_mul(b.std, a.inf)))


def ref_dual_max(a, b):
    if a.std.lo > b.std.hi:
        return a
    if b.std.lo > a.std.hi:
        return b
    return DualInterval(ref_max(a.std, b.std), ref_meet(a.inf, b.inf))


def same(got, want):
    """Equal, printed alike, and bottom only as the one bottom object."""
    assert got == want and str(got) == str(want)
    for g, w in ((got, want),) if isinstance(got, Interval) else \
            ((got.std, want.std), (got.inf, want.inf)):
        assert (g is IV_BOTTOM) == (w is IV_BOTTOM) == (w.lo == -inf)


nonneg = st.fractions(min_value=0, max_value=100, max_denominator=1 << 10)
nonpos = nonneg.map(lambda q: -q)
positive = nonneg.filter(lambda q: q > 0)

# One strategy per sign class of an operand: >= 0, <= 0, straddling 0,
# the point zero (the shared IV_ZERO or a fresh one) and bottom.
SIGN_KINDS = {
    "nonneg": st.lists(nonneg, min_size=2, max_size=2).map(
        lambda ab: Interval(min(ab), max(ab))),
    "nonpos": st.lists(nonpos, min_size=2, max_size=2).map(
        lambda ab: Interval(min(ab), max(ab))),
    "straddle": st.tuples(positive, positive).map(
        lambda ab: Interval(-ab[0], ab[1])),
    "zero": st.sampled_from([IV_ZERO, Interval(0, 0)]),
    "bottom": st.just(IV_BOTTOM),
}
KIND_PAIRS = list(itertools.product(SIGN_KINDS, repeat=2))
any_kind = st.one_of(*SIGN_KINDS.values())


def duals_of(std, inf_):
    return st.builds(DualInterval, std, inf_)


@pytest.mark.parametrize("kx,ky", KIND_PAIRS)
class TestAgainstReference:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_interval_ops(self, kx, ky, data):
        x, y = data.draw(SIGN_KINDS[kx]), data.draw(SIGN_KINDS[ky])
        same(x * y, ref_mul(x, y))
        same(x - y, ref_sub(x, y))
        same(x + y, ref_add(x, y))
        same(-x, ref_neg(x))
        same(iv_max(x, y), ref_max(x, y))
        if y is not IV_BOTTOM:
            same(x.scale(y.lo), ref_scale(x, y.lo))

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_dual_ops(self, kx, ky, data):
        a = data.draw(duals_of(SIGN_KINDS[kx], any_kind))
        b = data.draw(duals_of(SIGN_KINDS[ky], any_kind))
        same(a * b, ref_dual_mul(a, b))
        same(dual_max(a, b), ref_dual_max(a, b))


class TestOneBottom:
    def test_public_constructors_return_the_bottom_object(self):
        assert Interval(-inf, inf) is IV_BOTTOM
        assert Interval("-inf", "+inf") is IV_BOTTOM
        assert Interval.parse("[-inf,inf]") is IV_BOTTOM
        assert Interval.parse("[-inf, inf]") is IV_BOTTOM
        assert DualInterval.parse(str(DUAL_BOTTOM)).inf is IV_BOTTOM
        assert copy.deepcopy(IV_BOTTOM) is IV_BOTTOM
        assert copy.copy(iv(1, 2)) == iv(1, 2)

    def test_bottom_keeps_float_ends(self):
        assert (IV_BOTTOM.lo, IV_BOTTOM.hi) == (-inf, inf)
        assert IV_BOTTOM.width == inf and IV_BOTTOM.is_bottom
        assert not Interval(-1, 1).is_bottom

    @given(any_kind, any_kind, positive)
    def test_no_float_endpoint_off_bottom(self, x, y, q):
        results = [x + y, x - y, -x, x * y, x.scale(q), x.scale(-q),
                   x.div_nat(3), x.meet(y), iv_max(x, y), iv_min(x, y),
                   iv_pr(x), x.inflate(q)]
        if x.consistent(y):
            results.append(x.join(y))
        a, b = DualInterval(x, y), DualInterval(y, x)
        for d in (a + b, a - b, -a, a * b, a.div_nat(2), dual_max(a, b),
                  dual_min(a, b), dual_pr(a), dual_eps(a)):
            results += [d.std, d.inf]
        for r in results:
            assert r is IV_BOTTOM or (r.lo.__class__ is Fraction
                                      and r.hi.__class__ is Fraction)
