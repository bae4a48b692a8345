"""Unit tests for exact interval and dual-interval arithmetic."""
import contextlib
import copy
import functools
import itertools
import operator
import pickle
from fractions import Fraction
from math import gcd, inf

import pytest
from hypothesis import given, settings, strategies as st

from dualpcf.numeric import (
    DUAL_BOTTOM, DualInterval, DualMax, DualSum, InconsistentIntervals,
    Interval, IntervalMax, IntervalSum, IV_BOTTOM, IV_ONE, IV_UNIT, IV_ZERO,
    dual_max, dual_min, Poly, Undecided, dual_pr, in_dual, iv_max, iv_min,
    iv_pr, iv_unchecked, poly_cells,
)


def iv(lo, hi=None):
    return Interval(Fraction(lo), Fraction(hi if hi is not None else lo))


def dual(slo, shi, ilo, ihi):
    return DualInterval(iv(slo, shi), iv(ilo, ihi))


def rationals_in(lo, hi):
    """Integers, dyadic rationals and other rationals in [lo, hi]: each kind
    of endpoint takes its own path through the arithmetic."""
    return st.one_of(
        st.integers(lo, hi).map(Fraction),
        st.integers(1, 12).flatmap(lambda k: st.integers(lo << k, hi << k).map(
            lambda n: Fraction(n, 1 << k))),
        st.fractions(min_value=lo, max_value=hi, max_denominator=1 << 10),
    )


rationals = rationals_in(-100, 100)


@st.composite
def intervals(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return IV_BOTTOM
    a, b = sorted((draw(rationals), draw(rationals)))
    return Interval(a, b)


class TestIntervalBasics:
    def test_point(self):
        assert Interval.point(3) == iv(3)

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

    def test_embed(self):
        assert in_dual(IV_UNIT) == DualInterval(IV_UNIT, IV_ZERO)


# -- pure-Fraction reference -------------------------------------------------
#
# The arithmetic as first written, on (lo, hi) pairs of Fractions with bottom
# as (-inf, inf): every endpoint product formed under the set-image
# convention 0 * inf = 0, then min/max over the four of them, and no fast
# path of any kind.  The interval operations, whatever form their operands
# are in, must give the same rationals, printed alike, with bottom exactly
# where the reference has it.

BOT = (-inf, inf)
F0, F1 = Fraction(0), Fraction(1)


def ref(x):
    """The reference pair of an interval."""
    if x is IV_BOTTOM:
        return BOT
    return tuple(Fraction(e.numerator, e.denominator) for e in (x.lo, x.hi))


def ref_ep_mul(a, b):
    return F0 if a == 0 or b == 0 else a * b


def ref_mul(x, y):
    ps = [ref_ep_mul(p, q) for p in x for q in y]
    return min(ps), max(ps)


def ref_add(x, y):
    return BOT if BOT in (x, y) else (x[0] + y[0], x[1] + y[1])


def ref_neg(x):
    return -x[1], -x[0]


def ref_sub(x, y):
    return ref_add(x, ref_neg(y))


def ref_scale(x, q):
    if q == 0:
        return F0, F0
    if q > 0:
        return ref_ep_mul(x[0], q), ref_ep_mul(x[1], q)
    return ref_ep_mul(x[1], q), ref_ep_mul(x[0], q)


def ref_div(x, n):
    return BOT if n == 0 or x == BOT else (x[0] / n, x[1] / n)


def ref_meet(x, y):
    return min(x[0], y[0]), max(x[1], y[1])


def ref_join(x, y):
    """The intersection, or None when x and y are disjoint."""
    lo, hi = max(x[0], y[0]), min(x[1], y[1])
    return (lo, hi) if lo <= hi else None


def ref_max(a, b):
    if a[0] > b[1]:
        return a
    if b[0] > a[1]:
        return b
    return BOT if BOT in (a, b) else (max(a[0], b[0]), max(a[1], b[1]))


def ref_min(a, b):
    if a[1] < b[0]:
        return a
    if b[1] < a[0]:
        return b
    return BOT if BOT in (a, b) else (min(a[0], b[0]), min(a[1], b[1]))


def ref_pr(a):
    if a[1] < -F1:
        return -F1, -F1
    if a[0] > F1:
        return F1, F1
    if -F1 < a[0] and a[1] < F1:
        return a
    return ref_join(a, (-F1, F1))


def ref_dual_mul(a, b):
    return (ref_mul(a[0], b[0]),
            ref_add(ref_mul(a[0], b[1]), ref_mul(b[0], a[1])))


def ref_dual_max(a, b):
    if a[0][0] > b[0][1]:
        return a
    if b[0][0] > a[0][1]:
        return b
    return ref_max(a[0], b[0]), ref_meet(a[1], b[1])


def ref_dual_min(a, b):
    if a[0][1] < b[0][0]:
        return a
    if b[0][1] < a[0][0]:
        return b
    return ref_min(a[0], b[0]), ref_meet(a[1], b[1])


def ref_dual_pr(a):
    std = a[0]
    if std[1] < -F1:
        return (-F1, -F1), (F0, F0)
    if std[0] > F1:
        return (F1, F1), (F0, F0)
    if -F1 < std[0] and std[1] < F1:
        return a
    return ref_join(std, (-F1, F1)), ref_meet(a[1], (F0, F0))


def finite_form(iv):
    """[a, b] / (d << e) with a <= b, e >= 0 and d odd and at least 1."""
    return iv.a <= iv.b and iv.e >= 0 and iv.d >= 1 and iv.d & 1


def same(got, want):
    """The interval got holds the reference pair want: bottom only as the
    one bottom object, otherwise a finite form whose views are want's
    Fractions, printed alike."""
    if want == BOT:
        assert got is IV_BOTTOM
        return
    assert got is not IV_BOTTOM and finite_form(got)
    assert (got.lo, got.hi) == want
    assert (got.lo.__class__, got.hi.__class__) == (Fraction, Fraction)
    assert str(got) == f"[{want[0]},{want[1]}]"


def same_dual(got, want):
    same(got.std, want[0])
    same(got.inf, want[1])


def same_half(got, want):
    """The interval got equals want, a halving by `div_nat(2)`, printed
    alike; bottom only as the one bottom object."""
    if want is IV_BOTTOM:
        assert got is IV_BOTTOM
        return
    assert got == want and str(got) == str(want)


def summed(cls, *xs):
    """The running sum (an `IntervalSum` or a `DualSum`) of xs."""
    total = cls()
    for x in xs:
        total.add(x)
    return total


def same_scalar(got, want):
    assert got == want and str(got) == str(want)
    if want != inf:
        assert got.__class__ is Fraction


nonneg = rationals_in(0, 100)
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


def reforms(x):
    """x built along other paths: forms not in lowest terms, and a sum
    across the odd parts 3, 5 and 15."""
    return [x.div_nat(3) * Interval.point(3),
            (x * Interval.point(2)).div_nat(2),
            x.div_nat(3) + x.scale(Fraction(2, 5)) + x.scale(Fraction(4, 15))]


def check_interval_ops(x, y, rx, ry):
    same(x * y, ref_mul(rx, ry))
    same(x - y, ref_sub(rx, ry))
    same(x + y, ref_add(rx, ry))
    same(-x, ref_neg(rx))
    if y is not IV_BOTTOM:
        same(x.scale(y.lo), ref_scale(rx, ry[0]))
    for n in (1, 2, 3, 4, 6):
        same(x.div_nat(n), ref_div(rx, n))
    same_half(summed(IntervalSum, x).result(1), x.div_nat(2))
    same_half(summed(IntervalSum, x, y).result(1), x.div_nat(2) + y.div_nat(2))
    same(x.meet(y), ref_meet(rx, ry))
    joined = ref_join(rx, ry)
    if joined is None:
        with pytest.raises(InconsistentIntervals):
            x.join(y)
    else:
        same(x.join(y), joined)
    assert x.consistent(y) == (joined is not None)
    same(iv_max(x, y), ref_max(rx, ry))
    same(iv_min(x, y), ref_min(rx, ry))
    same(iv_pr(x), ref_pr(rx))
    same_scalar(x.width, rx[1] - rx[0])
    assert x.leq(y) == (rx[0] <= ry[0] and ry[1] <= rx[1])


def check_dual_ops(a, b):
    ra, rb = (ref(a.std), ref(a.inf)), (ref(b.std), ref(b.inf))
    same_dual(a * b, ref_dual_mul(ra, rb))
    same_dual(dual_max(a, b), ref_dual_max(ra, rb))
    same_dual(dual_min(a, b), ref_dual_min(ra, rb))
    same_dual(dual_pr(a), ref_dual_pr(ra))
    for x in (a, DUAL_BOTTOM):
        for got, want in ((summed(DualSum, x).result(1), x.div_nat(2)), (
                summed(DualSum, x, b).result(1), x.div_nat(2) + b.div_nat(2))):
            same_half(got.std, want.std)
            same_half(got.inf, want.inf)


@pytest.mark.parametrize("kx,ky", KIND_PAIRS)
class TestAgainstReference:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_interval_ops(self, kx, ky, data):
        x, y = data.draw(SIGN_KINDS[kx]), data.draw(SIGN_KINDS[ky])
        check_interval_ops(x, y, ref(x), ref(y))

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_dual_ops(self, kx, ky, data):
        check_dual_ops(data.draw(duals_of(SIGN_KINDS[kx], any_kind)),
                       data.draw(duals_of(SIGN_KINDS[ky], any_kind)))

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_unreduced_operands(self, kx, ky, data):
        """Operands that are themselves arithmetic results, equal as
        rationals to the operands they were built from."""
        x, y = data.draw(SIGN_KINDS[kx]), data.draw(SIGN_KINDS[ky])
        rx, ry = ref(x), ref(y)
        check_interval_ops(x * y, y, ref_mul(rx, ry), ry)
        for u, v in zip(reforms(x), reversed(reforms(y))):
            same(u, rx)
            assert u == x and hash(u) == hash(x)
            check_interval_ops(u, v, rx, ry)
            check_dual_ops(DualInterval(u, v), DualInterval(v, x * y))


class TestSharedDenominator:
    """A finite interval is [a, b] / (d << e), and the form never shows:
    views, ==, hash and str go by the rationals."""

    @given(rationals, rationals)
    def test_views_are_fractions_in_lowest_terms(self, p, q):
        p, q = sorted((p, q))
        x = Interval(p, q)
        # a public constructor gives the least common denominator
        assert finite_form(x) and gcd(x.a, x.b, x.d << x.e) == 1
        for u in [x] + reforms(x):
            assert (u.lo, u.hi, u.width) == (p, q, q - p)
            assert {v.__class__ for v in (u.lo, u.hi, u.width)} == {Fraction}
            assert str(u) == f"[{p},{q}]" and hash(u) == hash(x)

    @given(any_kind, st.integers(0, 6))
    def test_mean_raises_the_exponent(self, x, m):
        # one interval summed keeps its form
        h = summed(IntervalSum, x).result(m)
        if x is IV_BOTTOM:
            assert h is IV_BOTTOM
            return
        assert (h.a, h.b, h.e, h.d) == (x.a, x.b, x.e + m, x.d)

    @given(st.integers(0, 3).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(any_kind, min_size=1 << m, max_size=1 << m),
        st.lists(any_kind, min_size=1 << m, max_size=1 << m))))
    def test_mean_is_the_tree_of_halved_sums(self, cells):
        # int's combining tree over 2**m cells: bottom if any cell is
        m, stds, infs = cells
        duals = [DualInterval(s, i) for s, i in zip(stds, infs)]
        tree = duals
        while len(tree) > 1:
            tree = [l.div_nat(2) + r.div_nat(2)
                    for l, r in zip(tree[::2], tree[1::2])]
        got = summed(DualSum, *duals).result(m)
        same_half(got.std, tree[0].std)
        same_half(got.inf, tree[0].inf)
        same_half(summed(IntervalSum, *stds).result(m), tree[0].std)

    @given(any_kind, st.integers(0, 6), st.sampled_from([1, 3, 5, 15]))
    def test_div_nat_splits_off_the_power_of_two(self, x, k, q):
        y = x.div_nat(q << k)
        if x is IV_BOTTOM:
            assert y is IV_BOTTOM
            return
        assert (y.a, y.b, y.e, y.d) == (x.a, x.b, x.e + k, x.d * q)

    def test_copies_round_trip(self):
        x = Interval(Fraction(1, 4), Fraction(3, 8))
        assert (x.a, x.b, x.e, x.d) == (2, 3, 3, 1)
        for u in [x] + reforms(x):
            for y in (copy.copy(u), copy.deepcopy(u),
                      pickle.loads(pickle.dumps(u))):
                assert y == x and str(y) == str(x) and hash(y) == hash(x)
                assert (y.a, y.b, y.e, y.d) == (2, 3, 3, 1)

    def test_equal_and_hash_alike_across_forms(self):
        x = Interval(Fraction(1, 4), Fraction(3, 8))
        for y in (Interval(Fraction(1, 4), Fraction(3, 8)),
                  iv_unchecked(6, 9, 3, 3), iv_unchecked(4, 6, 4, 1),
                  (x * Interval.point(Fraction(7, 5))).div_nat(7).scale(5)):
            assert x == y and y == x and hash(x) == hash(y)
            assert str(y) == "[1/4,3/8]"
        assert x != iv_unchecked(6, 9, 3, 5)
        y = Interval(Fraction(1, 3), Fraction(1, 2))
        assert (y.a, y.b, y.e, y.d) == (2, 3, 1, 3)


class TestOneBottom:
    def test_public_constructors_return_the_bottom_object(self):
        assert Interval(-inf, inf) is IV_BOTTOM
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
                  dual_min(a, b), dual_pr(a)):
            results += [d.std, d.inf]
        for r in results:
            assert r is IV_BOTTOM or finite_form(r)


# -- polynomial numerators ---------------------------------------------------


@st.composite
def polys(draw, top):
    """An int or a poly over the cells 0..top, built by the arithmetic
    from the cell index i0 + j, as the machine builds its numerators."""
    i0 = draw(st.integers(0, 64))
    x = poly_cells(i0, i0 + top + 1, 0).a
    p = draw(st.integers(-40, 40))
    for _ in range(draw(st.integers(0, 4))):
        q = draw(st.integers(-40, 40))
        p = draw(st.sampled_from([p * x + q, p * x - q, q - p * x,
                                  -p * x + q * x * x, p << 2]))
    return p


def values(p, top):
    """p at each offset j of its range."""
    if p.__class__ is int:
        return [p] * (top + 1)
    return [sum(c * j ** k for k, c in enumerate(p.c)) for j in range(top + 1)]


class TestPoly:
    @given(st.integers(0, 12).flatmap(lambda top: st.tuples(
        st.just(top), polys(top), polys(top))))
    def test_arithmetic_is_pointwise(self, args):
        top, p, q = args
        vp, vq = values(p, top), values(q, top)
        for got, want in ((p + q, map(int.__add__, vp, vq)),
                          (p - q, map(int.__sub__, vp, vq)),
                          (p * q, map(int.__mul__, vp, vq)),
                          (-p, (-v for v in vp)), (p << 3, (v << 3 for v in vp)),
                          (5 - p, (5 - v for v in vp)), (p * 0, [0] * (top + 1))):
            assert values(got, top) == list(want)
            assert got.__class__ is int or got.c[-1]

    @given(st.integers(0, 12).flatmap(lambda top: st.tuples(
        st.just(top), polys(top))))
    def test_sum_and_bounds(self, args):
        top, p = args
        vp = values(p, top)
        if p.__class__ is Poly:
            assert [p.at(j) for j in range(top + 1)] == vp
            assert p.sum() == sum(vp)
            lo, hi = p.bounds()
            assert lo <= min(vp) and max(vp) <= hi
            with contextlib.suppress(Undecided):
                assert p.peak() == max(vp)

    @given(st.integers(0, 12).flatmap(lambda top: st.tuples(
        st.just(top), polys(top), polys(top))))
    def test_a_comparison_holds_at_every_cell_or_is_undecided(self, args):
        top, p, q = args
        for op in (operator.lt, operator.le, operator.gt, operator.ge,
                   operator.eq, operator.ne):
            truths = set(map(op, values(p, top), values(q, top)))
            try:
                got = op(p, q)
            except Undecided:
                assert p.__class__ is Poly or q.__class__ is Poly
                continue
            assert {got} == truths, op

    def test_a_sign_test_reads_the_whole_range(self):
        # 3i - 8 over i = 0..7 is negative at 0..2 and positive after:
        # either end alone would decide it
        for lo, hi, sign in ((0, 3, False), (3, 8, True)):
            assert (poly_cells(lo, hi, 0).a * 3 - 8 > 0) is sign
        x = poly_cells(0, 8, 0).a * 3 - 8
        for test in (x.__gt__, x.__lt__, x.__eq__):
            with pytest.raises(Undecided):
                test(0)
        assert x < 22 and x >= -8 and x != 14

    def test_the_rules_run_on_a_range_of_cells(self):
        # (t - 1/3) * t over the cells of cost 3: [1, 8) straddles 8/3 in
        # cell 2, so the product's sign test is undecided there, and each
        # half decided; a piece's sum is the sum of its cells
        third = Interval.point(Fraction(1, 3))
        f = lambda t: (t - third) * t
        with pytest.raises(Undecided):
            f(poly_cells(1, 8, 3))
        for lo, hi in ((0, 2), (3, 8)):
            total, cells = IntervalSum(), IntervalSum()
            total.add_cells(f(poly_cells(lo, hi, 3)), hi - lo)
            for i in range(lo, hi):
                cells.add(f(iv_unchecked(i, i + 1, 3, 1)))
            assert (total.a, total.b, total.e, total.d) == \
                (cells.a, cells.b, cells.e, cells.d)

    @given(intervals(), rationals)
    def test_a_point_factor_takes_the_form_of_its_sign_case(self, x, q):
        # the numerators are the least and greatest of the four products
        p = Interval.point(q)
        if x is IV_BOTTOM:
            return
        for r in (x * p, p * x):
            ends = (x.a * p.a, x.b * p.a)
            assert (r.a, r.b, r.e, r.d) == \
                (min(ends), max(ends), x.e + p.e, x.d * p.d)


# -- running max -------------------------------------------------------------


def tree(combine, xs):
    """The literal combining tree of xs, 2**k of them."""
    while len(xs) > 1:
        xs = [combine(xs[i], xs[i + 1]) for i in range(0, len(xs), 2)]
    return xs[0]


def same_max(got, want):
    """got equals want, bottom only as the one bottom object."""
    assert (got is IV_BOTTOM) is (want is IV_BOTTOM)
    assert got == want and str(got) == str(want)


# The cell terms whose running max `add_cells` takes: each a function of
# an interval, run on `poly_cells` and on each cell alone.  Factors over
# 3 and 5 mix the odd parts; `c * (1 - c)` peaks inside the unit range.
CELL_FORMS = [
    lambda c: c,
    lambda c: -c,
    lambda c: c * c,
    lambda c: c * (IV_ONE - c),
    lambda c: (c - Interval.point(Fraction(1, 3))) * c,
    lambda c: c.div_nat(3) - c * c * c,
    lambda c: iv_max(c, Interval.point(Fraction(2, 5))) + c.div_nat(5),
    lambda c: c * c.div_nat(0),
    lambda c: c * IV_ZERO,
]


class TestIntervalMax:
    @given(st.integers(0, 4).flatmap(
        lambda k: st.lists(intervals(), min_size=1 << k, max_size=1 << k)))
    def test_the_running_max_is_the_left_fold_and_the_tree(self, xs):
        xs += [x.div_nat(3) for x in xs]  # odd parts 3 and more
        peak = IntervalMax()
        for x in xs:
            peak.add(x)
        same_max(peak.result(0), functools.reduce(iv_max, xs))
        same_max(peak.result(0), tree(iv_max, xs))

    @given(st.sampled_from(range(len(CELL_FORMS))), st.integers(0, 40),
           st.integers(1, 24), st.integers(1, 6), st.one_of(
               st.none(), intervals()))
    def test_cells_in_closed_form_are_the_per_cell_max(self, form, lo, cells,
                                                       e, before):
        # or Undecided, with the accumulator as it was
        f, hi = CELL_FORMS[form], lo + cells
        try:
            v = f(poly_cells(lo, hi, e))
        except Undecided:
            return
        peak = IntervalMax()
        if before is not None:
            peak.add(before)
        held = peak.iv
        want = functools.reduce(iv_max, [f(iv_unchecked(i, i + 1, e, 1))
                                         for i in range(lo, hi)])
        try:
            peak.add_cells(v, cells)
        except Undecided:
            assert peak.iv is held
            return
        if before is not None:
            want = iv_max(before, want)
        same_max(peak.result(0), want)

    def test_an_undecided_peak_adds_nothing(self):
        # c * (1 - c) over the cells of cost 3: its lower numerator
        # j * (7 - j) rises, then falls
        v = CELL_FORMS[3](poly_cells(0, 8, 3))
        for before in (None, IV_UNIT, IV_BOTTOM):
            peak = IntervalMax()
            if before is not None:
                peak.add(before)
            with pytest.raises(Undecided):
                peak.add_cells(v, 8)
            assert peak.iv is before


# Dual cell terms whose inf part varies with the cell, in one numerator or
# both; one has the std part bottom at every cell.
VARYING_FORMS = [
    lambda c: DualInterval(c, c),
    lambda c: DualInterval(c * (IV_ONE - c), IV_ONE - c),
    lambda c: DualInterval(IV_UNIT, c * c.div_nat(3)),
    lambda c: DualInterval(c, IV_ZERO.meet(c)),
    lambda c: in_dual(c) * DualInterval(c, c).div_nat(5),
    lambda c: DualInterval(IV_BOTTOM, c),
]


class TestDualMaxTree:
    @given(st.sampled_from(range(len(VARYING_FORMS))), st.integers(0, 5),
           st.integers(0, 2))
    def test_a_varying_block_adds_each_cell(self, form, n, extra):
        # cell 0 and the aligned blocks [2^k, 2^(k+1)), or all 2^n cells
        # as one block, on `poly_cells`, against one `add` per cell
        f, e = VARYING_FORMS[form], n + extra
        blocks, whole, cells = DualMax(), DualMax(), DualMax()
        blocks.add(f(iv_unchecked(0, 1, e, 1)))
        for k in range(n):
            blocks.add_cells(f(poly_cells(1 << k, 2 << k, e)), 1 << k)
        whole.add_cells(f(poly_cells(0, 1 << n, e)), 1 << n)
        for i in range(1 << n):
            cells.add(f(iv_unchecked(i, i + 1, e, 1)))
        want = cells.result(n)
        for got in (blocks.result(n), whole.result(n), want):
            assert got == want
            # bottom only as the one bottom object
            assert (got.std is IV_BOTTOM) is (f is VARYING_FORMS[-1])
