"""Exact interval and dual-interval arithmetic over rational endpoints.

Dual PCF's `int`/`sup` bisect [0,1] into the cells `[i, i+1] / 2**m` and
combine with `l/2 + r/2` (the machine: one running sum of the cells,
`IntervalSum`, divided by 2**m) and `max`, so every number the machine
builds is a rational whose denominator is a power of two times the odd
part of the program's own literals (`/ 3`, `/ 5`).  A finite interval
therefore holds two integer numerators over one shared denominator: its
fields are `a`, `b`, `e` and `d`, with `lo = a / (d << e)` and
`hi = b / (d << e)`, and `d` odd and at least 1.  A sum aligns the two
intervals by a shift, and scales them to the lcm of their odd parts only
when those differ; a product multiplies numerators, adds the exponents
and multiplies the odd parts; `div_nat(2**k * q)` raises `e` by `k` and
multiplies `d` by `q`.  Nothing is reduced to lowest terms between
operations, so one rational interval has many forms.  `lo` and `hi` are
read-only exact views, each a `Fraction` in lowest terms; `==`, `hash`
and `str` go by the rationals, so the form never shows in a result.

The only interval with infinite endpoints is bottom, the whole line, and
there is exactly one bottom object, `IV_BOTTOM`, whose views are the float
infinities `-inf` / `+inf`.  It holds -1 and 1 over the denominator 0, so
that comparing cross-multiplied numerators reads its ends as -inf and
+inf; every arithmetic operation tests for it first.  Intervals unbounded
on exactly one side are rejected.

Only the public constructors validate their input: `Interval(lo, hi)`,
`Interval.point` and `DualInterval.of`; each returns `IV_BOTTOM` itself
for `(-inf, +inf)`.  Every result of the arithmetic is built by
`iv_unchecked`.  Instances are immutable by convention: nothing assigns
to them after construction, and all operations are pure.

The numerators may also be polynomial: `poly_cells(lo, hi, e)` is the
cells `[i, i+1] / 2**e` for lo <= i < hi as one interval whose numerators
are `Poly`s, integer polynomials in i - lo.  The arithmetic above runs on
it unchanged, since it only adds, multiplies and shifts numerators and
compares them, and the denominator `d << e` never depends on i.  A
comparison of polys returns the truth value it has at every cell of the
range, decided from bounds on the difference, or raises `Undecided`; so a
result built without `Undecided` is, at each i, the interval the same
operations give on the cell i.  `IntervalSum.add_cells` adds such a
result at each of its cells, by the exact sums of its numerators.

`sup` at `real` folds its cells with `iv_max`, which on finite intervals
is `[max lo, max hi]` in each of its cases: it is associative and
commutative, and bottom absorbs.  `IntervalMax` keeps that running max,
and its `add_cells` takes the max of each polynomial numerator at the end
of the range where its forward difference has one sign for the whole
range, the monotonicity test of interval analysis (Moore, Kearfott and
Cloud, "Introduction to Interval Analysis", 2009); where neither
sign is decided it raises `Undecided` and adds nothing.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, inf

_new = object.__new__


def _rational(x):
    """An int or a Fraction as it is, and a float only if it is +-inf."""
    if x.__class__ is int or x.__class__ is Fraction:
        return x
    if x == inf or x == -inf or isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"not an extended rational: {x!r}")


class InconsistentIntervals(ValueError):
    """Raised by `Interval.join` when the two intervals are disjoint."""


def iv_unchecked(a: int, b: int, e: int, d: int) -> "Interval":
    """The interval [a, b] / (d << e), without validation: a <= b, e >= 0
    and d odd and at least 1."""
    iv = _new(Interval)
    iv.a = a
    iv.b = b
    iv.e = e
    iv.d = d
    return iv


def _point(q) -> "Interval":
    # an int or a Fraction; its denominator split into d << e
    den = q.denominator
    e = (den & -den).bit_length() - 1
    return iv_unchecked(q.numerator, q.numerator, e, den >> e)


def _align(x: "Interval", y: "Interval"):
    """The numerators of two finite intervals over one denominator d << e:
    `(x.a, x.b, y.a, y.b, e, d)`."""
    a, b, e, d = x.a, x.b, x.e, x.d
    c, f, g, h = y.a, y.b, y.e, y.d
    if d != h:
        l = d // gcd(d, h) * h
        s, t = l // d, l // h
        a, b, c, f, d = a * s, b * s, c * t, f * t, l
    if e < g:
        a, b, e = a << (g - e), b << (g - e), g
    elif g < e:
        c, f = c << (e - g), f << (e - g)
    return a, b, c, f, e, d


class Undecided(ArithmeticError):
    """A comparison of polynomial numerators that holds at some cells of
    their range and fails at others, or that their bounds do not decide."""


class Poly:
    """An integer polynomial in the offset j of a cell index, over the
    cells `0 <= j <= top` of a range: `c[k]` is the coefficient of j**k,
    and the last one is not zero.  `+`, `-`, `*` and `<<` with an int or
    a poly over the same range give a poly, or an int where the result is
    constant.  A comparison gives the truth value it has at every j of the
    range, or raises `Undecided`."""

    __slots__ = ("c", "top")

    def __add__(self, o):
        c = self.c[:]
        if o.__class__ is Poly:
            if len(o.c) > len(c):
                c, o = o.c[:], self
            for k, x in enumerate(o.c):
                c[k] += x
        else:
            c[0] += o
        return _poly(c, self.top)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-x for x in self.c], self.top)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if o.__class__ is not Poly:
            return _poly([x * o for x in self.c], self.top)
        c = [0] * (len(self.c) + len(o.c) - 1)
        for i, x in enumerate(self.c):
            for k, y in enumerate(o.c):
                c[i + k] += x * y
        return _poly(c, self.top)

    __rmul__ = __mul__

    def __lshift__(self, k: int):
        return _poly([x << k for x in self.c], self.top)

    def bounds(self):
        """`(lo, hi)` enclosing every value on the range: each j**k, k >= 1,
        lies in [0, top**k]."""
        lo = hi = self.c[0]
        p = 1
        for x in self.c[1:]:
            p *= self.top
            if x < 0:
                lo += x * p
            else:
                hi += x * p
        return lo, hi

    def sum(self) -> int:
        """The exact sum over the range."""
        s = _power_sums(self.top + 1, len(self.c) - 1)
        return sum(x * y for x, y in zip(self.c, s))

    def peak(self) -> int:
        """The max over the range: at `top` where the forward difference
        p(j+1) - p(j) is >= 0 at every j < top, at 0 where it is < 0 at
        every one; `Undecided` where neither is decided.  The difference
        has the coefficient sum over k > m of C(k, m) c[k] at j**m."""
        c, n, top = self.c, len(self.c), self.top
        if not top:
            return c[0]
        step = [sum(comb(k, m) * c[k] for k in range(m + 1, n))
                for m in range(n - 1)]
        if not _uniform(_poly(step, top - 1), operator.ge):
            return c[0]
        v = 0
        for x in reversed(c):
            v = v * top + x
        return v

    __lt__ = lambda self, o: _uniform(self - o, operator.lt)
    __le__ = lambda self, o: _uniform(self - o, operator.le)
    __gt__ = lambda self, o: _uniform(self - o, operator.gt)
    __ge__ = lambda self, o: _uniform(self - o, operator.ge)

    def __eq__(self, o):  # `!=` is its negation
        d = self - o
        if d.__class__ is int:
            return d == 0
        lo, hi = d.bounds()  # never both 0: d is not constant
        if lo > 0 or hi < 0:
            return False
        raise Undecided


@lru_cache(maxsize=1024)
def _power_sums(n: int, k: int) -> tuple:
    """`(S_0, ..., S_k)`, S_m the sum of j**m over j < n, which
    n**(m+1) = sum over i <= m of C(m+1, i) S_i gives one by one."""
    s = []
    for m in range(k + 1):
        s.append((n ** (m + 1) - sum(comb(m + 1, i) * s[i]
                                     for i in range(m))) // (m + 1))
    return tuple(s)


def _poly(c: list, top: int):
    """The poly of the coefficients c, or its constant."""
    while len(c) > 1 and not c[-1]:
        c.pop()
    if len(c) == 1:
        return c[0]
    p = _new(Poly)
    p.c = c
    p.top = top
    return p


def _uniform(d, test):
    """`test(v, 0)` for the values v of d, an int or a poly, where it is
    the same for all of them: a threshold test holds on all of [lo, hi]
    when it holds at both ends, and fails on all when it fails at both."""
    if d.__class__ is int:
        return test(d, 0)
    lo, hi = d.bounds()
    t = test(lo, 0)
    if t is not test(hi, 0):
        raise Undecided
    return t


def poly_cells(lo: int, hi: int, e: int) -> "Interval":
    """The cells `[i, i+1] / 2**e` for lo <= i < hi as one interval, its
    numerators polynomials in i - lo."""
    top = hi - lo - 1
    return iv_unchecked(_poly([lo, 1], top), _poly([lo + 1, 1], top), e, 1)


def _total(x, cells: int) -> int:
    # a numerator's sum over a range of cells
    return x.sum() if x.__class__ is Poly else x * cells


class IntervalSum:
    """An exact running sum of intervals, held as the numerators of one
    interval over `d << e` and aligned by `_align`; `d` 0 once a bottom
    interval is added, which makes the sum bottom."""

    __slots__ = ("a", "b", "e", "d")

    def __init__(self):
        self.a = self.b = self.e = 0
        self.d = 1

    def add(self, x: "Interval") -> None:
        if self.d == x.d and self.e == x.e:  # one form (bottom: stays)
            self.a += x.a
            self.b += x.b
        elif self.d and x.d:
            a, b, c, f, self.e, self.d = _align(self, x)
            self.a, self.b = a + c, b + f
        else:
            self.d = 0

    def add_cells(self, x: "Interval", cells: int) -> None:
        """Add x at each of `cells` cells: its numerators are polys over
        those cells, or ints."""
        if x.d:
            x = iv_unchecked(_total(x.a, cells), _total(x.b, cells), x.e, x.d)
        self.add(x)

    def result(self, m: int) -> "Interval":
        """The sum divided by 2**m: its exponent raised by m."""
        if not self.d:
            return IV_BOTTOM
        return iv_unchecked(self.a, self.b, self.e + m, self.d)


class IntervalMax:
    """A running `iv_max` of intervals, None until the first is added."""

    __slots__ = ("iv",)

    def __init__(self):
        self.iv = None

    def add(self, x: "Interval") -> None:
        self.iv = x if self.iv is None else iv_max(self.iv, x)

    def add_cells(self, x: "Interval", cells: int) -> None:
        """Add x at each of its cells: its numerators are polys over those
        cells, or ints.  `Undecided`, with nothing added, where a poly's
        peak is."""
        if x.d:
            a, b = x.a, x.b
            x = iv_unchecked(a.peak() if a.__class__ is Poly else a,
                             b.peak() if b.__class__ is Poly else b, x.e, x.d)
        self.add(x)

    def result(self, m: int) -> "Interval":  # m, the depth, plays no part
        return self.iv


class DualSum:
    """An exact running sum of dual intervals, one `IntervalSum` a part."""

    __slots__ = ("std", "inf")

    def __init__(self):
        self.std, self.inf = IntervalSum(), IntervalSum()

    def add(self, x: "DualInterval") -> None:
        self.std.add(x.std)
        self.inf.add(x.inf)

    def add_cells(self, x: "DualInterval", cells: int) -> None:
        self.std.add_cells(x.std, cells)
        self.inf.add_cells(x.inf, cells)

    def result(self, m: int) -> "DualInterval":
        return DualInterval(self.std.result(m), self.inf.result(m))


class Interval:
    """A non-empty compact real interval, or the whole line as bottom."""

    __slots__ = ("a", "b", "e", "d")

    def __new__(cls, lo, hi) -> "Interval":
        lo, hi = _rational(lo), _rational(hi)
        if not lo <= hi:
            raise ValueError(f"invalid interval endpoints: {lo} > {hi}")
        if lo.__class__ is float or hi.__class__ is float:
            if lo == -inf and hi == inf:
                return IV_BOTTOM
            if lo.__class__ is not hi.__class__:
                raise ValueError("half-infinite intervals are not representable")
            raise ValueError("degenerate infinite interval")
        a, _, b, _, e, d = _align(_point(lo), _point(hi))
        return iv_unchecked(a, b, e, d)

    # -- constructors -------------------------------------------------

    @classmethod
    def point(cls, q) -> "Interval":
        q = _rational(q)
        return _point(q) if q.__class__ is not float else cls(q, q)

    def __reduce__(self):
        # copies and pickles go through the validating constructor, so
        # a copy of bottom is IV_BOTTOM itself
        return (Interval, (self.lo, self.hi))

    # -- exact views --------------------------------------------------

    @property
    def lo(self):
        """The lower end: a Fraction in lowest terms, or -inf on bottom."""
        return Fraction(self.a, self.d << self.e) if self.d else -inf

    @property
    def hi(self):
        """The upper end: a Fraction in lowest terms, or +inf on bottom."""
        return Fraction(self.b, self.d << self.e) if self.d else inf

    @property
    def width(self):
        return Fraction(self.b - self.a, self.d << self.e) if self.d else inf

    # -- predicates ---------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return self is IV_BOTTOM

    def contains(self, q) -> bool:
        return self.lo <= _rational(q) <= self.hi

    def leq(self, other: "Interval") -> bool:
        """Information order (reverse inclusion): self ⊑ other iff other ⊆ self."""
        m, n = self.d << self.e, other.d << other.e
        return self.a * n <= other.a * m and other.b * m <= self.b * n

    def consistent(self, other: "Interval") -> bool:
        m, n = self.d << self.e, other.d << other.e
        return self.a * n <= other.b * m and other.a * m <= self.b * n

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        m, n = self.d << self.e, other.d << other.e
        return self.a * n == other.a * m and self.b * n == other.b * m

    def __hash__(self) -> int:
        # the form in lowest terms, which equal intervals share
        m = self.d << self.e
        g = gcd(self.a, self.b, m)
        return hash((self.a // g, self.b // g, m // g))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        if self is IV_ZERO:
            return other
        if other is IV_ZERO:
            return self
        if self is IV_BOTTOM or other is IV_BOTTOM:
            return IV_BOTTOM
        a, b, c, f, e, d = _align(self, other)
        return iv_unchecked(a + c, b + f, e, d)

    def __neg__(self) -> "Interval":
        if self is IV_BOTTOM or self is IV_ZERO:
            return self
        return iv_unchecked(-self.b, -self.a, self.e, self.d)

    def __sub__(self, other: "Interval") -> "Interval":
        if other is IV_ZERO:
            return self
        if self is IV_BOTTOM or other is IV_BOTTOM:
            return IV_BOTTOM
        a, b, c, f, e, d = _align(self, other)
        return iv_unchecked(a - f, b - c, e, d)

    def __mul__(self, other: "Interval") -> "Interval":
        if self is IV_ZERO or other is IV_ZERO:
            return IV_ZERO
        if self is IV_BOTTOM or other is IV_BOTTOM:
            # set image: a point zero factor gives zero even against bottom
            z = other if self is IV_BOTTOM else self
            return IV_ZERO if z.a == z.b == 0 else IV_BOTTOM
        # The sign cases of Hickey, Ju and van Emden (JACM 2001), read off
        # the numerators: each factor is >= 0, <= 0 or straddles 0; only
        # when both straddle are all four products needed.  A point factor
        # has its sign alone decide, in the form every case gives it.
        a, b, c, f = self.a, self.b, other.a, other.b
        e, d = self.e + other.e, self.d * other.d
        if c.__class__ is f.__class__ is int and c == f:
            if c >= 0:
                return iv_unchecked(a * c, b * c, e, d)
            return iv_unchecked(b * c, a * c, e, d)
        if a.__class__ is b.__class__ is int and a == b:
            if a >= 0:
                return iv_unchecked(a * c, a * f, e, d)
            return iv_unchecked(a * f, a * c, e, d)
        if a >= 0:
            if c >= 0:
                return iv_unchecked(a * c, b * f, e, d)
            if f <= 0:
                return iv_unchecked(b * c, a * f, e, d)
            return iv_unchecked(b * c, b * f, e, d)
        if b <= 0:
            if c >= 0:
                return iv_unchecked(a * f, b * c, e, d)
            if f <= 0:
                return iv_unchecked(b * f, a * c, e, d)
            return iv_unchecked(a * f, a * c, e, d)
        if c >= 0:
            return iv_unchecked(a * f, b * f, e, d)
        if f <= 0:
            return iv_unchecked(b * c, a * c, e, d)
        lo1, lo2, hi1, hi2 = a * f, b * c, a * c, b * f
        return iv_unchecked(lo1 if lo1 <= lo2 else lo2,
                            hi1 if hi1 >= hi2 else hi2, e, d)

    def div_nat(self, n: int) -> "Interval":
        if n == 0:
            return IV_BOTTOM
        if n < 0:
            raise ValueError("division only by naturals")
        if self is IV_BOTTOM:
            return IV_BOTTOM
        k = (n & -n).bit_length() - 1
        return iv_unchecked(self.a, self.b, self.e + k, self.d * (n >> k))

    def scale(self, q) -> "Interval":
        return self * Interval.point(q)

    def meet(self, other: "Interval") -> "Interval":
        """Infimum in the information order: convex hull."""
        if self is IV_BOTTOM or other is IV_BOTTOM:
            return IV_BOTTOM
        a, b, c, f, e, d = _align(self, other)
        return iv_unchecked(a if a <= c else c, b if b >= f else f, e, d)

    def join(self, other: "Interval") -> "Interval":
        """Supremum in the information order: intersection."""
        if self is IV_BOTTOM:
            return other
        if other is IV_BOTTOM:
            return self
        a, b, c, f, e, d = _align(self, other)
        lo, hi = a if a >= c else c, b if b <= f else f
        if lo > hi:
            raise InconsistentIntervals(f"{self} and {other} are disjoint")
        return iv_unchecked(lo, hi, e, d)

    def inflate(self, pad) -> "Interval":
        """[lo - pad, hi + pad]; the pad is caller input, so the result is
        validated."""
        p = Interval.point(pad)
        if self is IV_BOTTOM:
            return self
        a, b, c, _, e, d = _align(self, p)
        if a - c > b + c:
            raise ValueError(f"invalid interval endpoints: "
                             f"{self.lo - p.lo} > {self.hi + p.lo}")
        return iv_unchecked(a - c, b + c, e, d)

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


IV_BOTTOM = iv_unchecked(-1, 1, 0, 0)
IV_ZERO = iv_unchecked(0, 0, 0, 1)
IV_ONE = iv_unchecked(1, 1, 0, 1)
IV_NEG_ONE = iv_unchecked(-1, -1, 0, 1)
IV_UNIT = iv_unchecked(0, 1, 0, 1)
IV_PM_ONE = iv_unchecked(-1, 1, 0, 1)


def _above(x: Interval, y: Interval) -> bool:
    """x lies wholly above y: x.lo > y.hi, never when either is bottom."""
    return x.a * (y.d << y.e) > y.b * (x.d << x.e)


def iv_max(a: Interval, b: Interval) -> Interval:
    """Maximum on partial reals: the standard-part restriction of dual max."""
    if _above(a, b):
        return a
    if _above(b, a):
        return b
    return _max_overlapping(a, b)


def _max_overlapping(x: Interval, y: Interval) -> Interval:
    # max once neither interval lies wholly above the other
    if x is IV_BOTTOM or y is IV_BOTTOM:
        return IV_BOTTOM
    a, b, c, f, e, d = _align(x, y)
    return iv_unchecked(a if a >= c else c, b if b >= f else f, e, d)


def iv_min(a: Interval, b: Interval) -> Interval:
    return -iv_max(-a, -b)


def iv_pr(x: Interval) -> Interval:
    """Clamp onto [-1,1]; standard-part restriction of dual pr."""
    m = x.d << x.e  # 1 over the shared denominator; 0 on bottom
    if x.b < -m:
        return IV_NEG_ONE
    if x.a > m:
        return IV_ONE
    if -m < x.a and x.b < m:
        return x
    return x.join(IV_PM_ONE)


class DualInterval:
    """A pair of intervals: standard part and infinitesimal part."""

    __slots__ = ("std", "inf")

    def __init__(self, std: Interval, inf: Interval):
        self.std = std
        self.inf = inf

    @classmethod
    def of(cls, std, inf=IV_ZERO) -> "DualInterval":
        if not isinstance(std, Interval):
            std = Interval.point(std)
        if not isinstance(inf, Interval):
            inf = Interval.point(inf)
        return cls(std, inf)

    def leq(self, other: "DualInterval") -> bool:
        return self.std.leq(other.std) and self.inf.leq(other.inf)

    def __eq__(self, other):
        if other.__class__ is not DualInterval:
            return NotImplemented
        return self.std == other.std and self.inf == other.inf

    def __hash__(self) -> int:
        return hash((self.std, self.inf))

    def __add__(self, other: "DualInterval") -> "DualInterval":
        return DualInterval(self.std + other.std, self.inf + other.inf)

    def __neg__(self) -> "DualInterval":
        return DualInterval(-self.std, -self.inf)

    def __sub__(self, other: "DualInterval") -> "DualInterval":
        return DualInterval(self.std - other.std, self.inf - other.inf)

    def __mul__(self, other: "DualInterval") -> "DualInterval":
        return DualInterval(
            self.std * other.std,
            self.std * other.inf + other.std * self.inf,
        )

    def div_nat(self, n: int) -> "DualInterval":
        if n == 0:
            return DUAL_BOTTOM
        return DualInterval(self.std.div_nat(n), self.inf.div_nat(n))

    def __str__(self) -> str:
        return f"{self.std} + eps {self.inf}"

    def __repr__(self) -> str:
        return f"DualInterval({self.std!r}, {self.inf!r})"


DUAL_BOTTOM = DualInterval(IV_BOTTOM, IV_BOTTOM)
_DUAL_NEG_ONE = DualInterval(IV_NEG_ONE, IV_ZERO)
_DUAL_ONE = DualInterval(IV_ONE, IV_ZERO)


def dual_max(a: DualInterval, b: DualInterval) -> DualInterval:
    """Maximum of two dual intervals (five-case reduction rule)."""
    if _above(a.std, b.std):
        return a
    if _above(b.std, a.std):
        return b
    return DualInterval(_max_overlapping(a.std, b.std), a.inf.meet(b.inf))


def dual_min(a: DualInterval, b: DualInterval) -> DualInterval:
    # derived identity: min(x, y) = -max(-x, -y)
    return -dual_max(-a, -b)


def dual_pr(a: DualInterval) -> DualInterval:
    """Projection of a dual interval onto [-1,1] (four-case rule)."""
    x = a.std
    m = x.d << x.e
    if x.b < -m:
        return _DUAL_NEG_ONE
    if x.a > m:
        return _DUAL_ONE
    if -m < x.a and x.b < m:
        return a
    # non-empty by case analysis: std touches [-1,1] here
    return DualInterval(x.join(IV_PM_ONE), a.inf.meet(IV_ZERO))


def in_dual(iv: Interval) -> DualInterval:
    """Embed a partial real as a dual with zero infinitesimal part."""
    return DualInterval(iv, IV_ZERO)
