"""Exact interval and dual-interval arithmetic over extended-rational endpoints.

A finite endpoint is exact.  Dual PCF's `int`/`sup` bisect [0,1] into
dyadic cells and combine with `l/2 + r/2` (the machine: `(l + r)/2`) and
`max`, so from dyadic literals every endpoint the machine builds is a
dyadic rational.  Those are held as `_Dyadic` values, an odd mantissa over
a power of two, whose sums, differences, products and halvings need no
gcd; `half()` halves an endpoint, interval or dual by raising the
exponent.  Any other rational is a `fractions.Fraction` in lowest terms:
dividing a dyadic by a natural that is not a power of two, or combining it
with a `Fraction`, gives a `Fraction`.  Both kinds compare, hash and print
as the same rationals, so which one an endpoint is never shows in a result.

The only interval with infinite endpoints is bottom, the whole line, and
there is exactly one bottom object, `IV_BOTTOM`, whose ends are the float
infinities `-inf` / `+inf` (which are exact).  Intervals unbounded on
exactly one side are rejected.

Only the public constructors validate their input: `Interval(lo, hi)`,
`Interval.point`, `Interval.parse` and `DualInterval.of`; each makes its
dyadic endpoints `_Dyadic` and returns `IV_BOTTOM` itself for
`(-inf, +inf)`.  Every result of the arithmetic is built by `iv_unchecked`
from finite endpoints, after the operation has tested its operands for
`IV_BOTTOM`.  Instances are immutable by convention: nothing assigns to
them after construction, and all operations are pure.
"""
from __future__ import annotations

from fractions import Fraction
from math import inf
from numbers import Rational
from typing import Union

_new = object.__new__


class _Dyadic:
    """The rational `numerator / 2**exp`, normalised so that `exp >= 0` and
    the numerator is odd whenever `exp > 0`: lowest terms, as for Fraction.

    Closed under `+`, `-`, `*` and division by a power of two; any other
    division, or an operation with a `Fraction` operand, gives a `Fraction`
    (`+`, `-` and `*` build it from the integers in one step, without first
    converting this operand).  An `int` operand is an exponent-0 dyadic.  Comparisons, `==` and `hash`
    agree with `Fraction`, and registration as a `numbers.Rational` lets
    `Fraction`'s own operators accept it.
    """

    __slots__ = ("numerator", "exp")

    @property
    def denominator(self) -> int:
        return 1 << self.exp

    def __add__(self, o):
        if o.__class__ is not _Dyadic:
            if o.__class__ is Fraction:
                d = o.denominator
                return Fraction(self.numerator * d + (o.numerator << self.exp),
                                d << self.exp)
            if o.__class__ is not int:
                return Fraction(self) + o
            o = _dyadic(o, 0)
        m, e, n, f = self.numerator, self.exp, o.numerator, o.exp
        if e == f:
            return _dyadic(m + n, e)
        # one odd numerator plus one shifted even: already normal
        if e > f:
            m += n << (e - f)
        else:
            m = (m << (f - e)) + n
            e = f
        r = _new(_Dyadic)
        r.numerator = m
        r.exp = e
        return r

    __radd__ = __add__

    def __sub__(self, o):
        if o.__class__ is not _Dyadic:
            if o.__class__ is Fraction:
                d = o.denominator
                return Fraction(self.numerator * d - (o.numerator << self.exp),
                                d << self.exp)
            if o.__class__ is not int:
                return Fraction(self) - o
            o = _dyadic(o, 0)
        m, e, n, f = self.numerator, self.exp, o.numerator, o.exp
        if e == f:
            return _dyadic(m - n, e)
        if e > f:
            m -= n << (e - f)
        else:
            m = (m << (f - e)) - n
            e = f
        r = _new(_Dyadic)
        r.numerator = m
        r.exp = e
        return r

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if o.__class__ is not _Dyadic:
            if o.__class__ is Fraction:
                return Fraction(self.numerator * o.numerator,
                                o.denominator << self.exp)
            if o.__class__ is not int:
                return Fraction(self) * o
            o = _dyadic(o, 0)
        m, e = self.numerator * o.numerator, self.exp + o.exp
        if e and not m & 1:
            # an even integer factor, or zero
            return _dyadic(m, e)
        r = _new(_Dyadic)
        r.numerator = m
        r.exp = e
        return r

    __rmul__ = __mul__

    def __truediv__(self, o):
        if o.__class__ is int and o > 0 and not o & (o - 1):
            m = self.numerator
            if not m & 1:
                return _dyadic(m, self.exp + o.bit_length() - 1)
            r = _new(_Dyadic)
            r.numerator = m
            r.exp = self.exp + o.bit_length() - 1
            return r
        return Fraction(self) / o

    def __rtruediv__(self, o):
        return o / Fraction(self)

    def half(self) -> "_Dyadic":
        """self / 2: the exponent goes up by one; zero stays itself."""
        m = self.numerator
        if not m & 1:
            return _dyadic(m, self.exp + 1) if m else self
        r = _new(_Dyadic)
        r.numerator = m
        r.exp = self.exp + 1
        return r

    def __neg__(self):
        r = _new(_Dyadic)
        r.numerator = -self.numerator
        r.exp = self.exp
        return r

    def __bool__(self) -> bool:
        return self.numerator != 0

    def __eq__(self, o):
        if o.__class__ is _Dyadic:
            return self.numerator == o.numerator and self.exp == o.exp
        if o.__class__ is int:
            return self.exp == 0 and self.numerator == o
        return Fraction(self) == o

    def __hash__(self) -> int:
        return hash(Fraction(self))

    def __lt__(self, o):
        if o.__class__ is not _Dyadic:
            if o.__class__ is not int:
                return Fraction(self) < o
            return self.numerator < o << self.exp
        e, f = self.exp, o.exp
        if e >= f:
            return self.numerator < o.numerator << (e - f)
        return self.numerator << (f - e) < o.numerator

    def __le__(self, o):
        if o.__class__ is not _Dyadic:
            if o.__class__ is not int:
                return Fraction(self) <= o
            return self.numerator <= o << self.exp
        e, f = self.exp, o.exp
        if e >= f:
            return self.numerator <= o.numerator << (e - f)
        return self.numerator << (f - e) <= o.numerator

    def __gt__(self, o):
        if o.__class__ is not _Dyadic:
            if o.__class__ is not int:
                return Fraction(self) > o
            return self.numerator > o << self.exp
        e, f = self.exp, o.exp
        if e >= f:
            return self.numerator > o.numerator << (e - f)
        return self.numerator << (f - e) > o.numerator

    def __ge__(self, o):
        if o.__class__ is not _Dyadic:
            if o.__class__ is not int:
                return Fraction(self) >= o
            return self.numerator >= o << self.exp
        e, f = self.exp, o.exp
        if e >= f:
            return self.numerator >= o.numerator << (e - f)
        return self.numerator << (f - e) >= o.numerator

    def __reduce__(self):
        return (_dyadic, (self.numerator, self.exp))

    def __str__(self) -> str:
        if self.exp:
            return f"{self.numerator}/{1 << self.exp}"
        return str(self.numerator)

    def __repr__(self) -> str:
        return f"_Dyadic({self.numerator}, {self.exp})"


Rational.register(_Dyadic)


def _dyadic(m: int, e: int) -> _Dyadic:
    """m / 2**e (e >= 0) in normal form."""
    if e and not m & 1:
        if m:
            z = (m & -m).bit_length() - 1
            if z > e:
                z = e
            m >>= z
            e -= z
        else:
            e = 0
    r = _new(_Dyadic)
    r.numerator = m
    r.exp = e
    return r


Endpoint = Union[_Dyadic, Fraction, float]

NEG_INF: Endpoint = -inf
POS_INF: Endpoint = inf


def endpoint(x) -> Endpoint:
    """Coerce an int, string, rational or +-inf into a canonical endpoint:
    a dyadic rational becomes a `_Dyadic`, any other a `Fraction`."""
    if x.__class__ is _Dyadic:
        return x
    if x.__class__ is int:
        return _dyadic(x, 0)
    if isinstance(x, str):
        s = x.strip()
        if s in ("inf", "+inf"):
            return POS_INF
        if s == "-inf":
            return NEG_INF
        x = Fraction(s)
    if isinstance(x, Fraction):
        d = x.denominator
        if d & (d - 1):
            return x
        return _dyadic(x.numerator, d.bit_length() - 1)
    if x == inf or x == -inf:
        return x
    if isinstance(x, int):
        return _dyadic(int(x), 0)
    raise TypeError(f"not an extended rational: {x!r}")


def fmt_endpoint(e: Endpoint) -> str:
    if e == inf:
        return "inf"
    if e == -inf:
        return "-inf"
    return str(e)


class InconsistentIntervals(ValueError):
    """Raised by `Interval.join` when the two intervals are disjoint."""


def iv_unchecked(lo: Endpoint, hi: Endpoint) -> "Interval":
    """Build an interval without validation: lo <= hi must be finite."""
    iv = _new(Interval)
    iv.lo = lo
    iv.hi = hi
    return iv


class Interval:
    """A non-empty compact real interval, or the whole line as bottom."""

    __slots__ = ("lo", "hi")

    def __new__(cls, lo, hi) -> "Interval":
        lo, hi = endpoint(lo), endpoint(hi)
        if not lo <= hi:
            raise ValueError(f"invalid interval endpoints: {lo} > {hi}")
        if lo.__class__ is float or hi.__class__ is float:
            if lo == -inf and hi == inf:
                return IV_BOTTOM
            if lo.__class__ is not hi.__class__:
                raise ValueError("half-infinite intervals are not representable")
            raise ValueError("degenerate infinite interval")
        return iv_unchecked(lo, hi)

    # -- constructors -------------------------------------------------

    @classmethod
    def point(cls, q) -> "Interval":
        q = endpoint(q)
        return cls(q, q)

    @classmethod
    def parse(cls, s: str) -> "Interval":
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"not an interval literal: {s!r}")
        lo, hi = s[1:-1].split(",")
        return cls(lo, hi)

    def __reduce__(self):
        # copies and pickles go through the validating constructor, so
        # a copy of bottom is IV_BOTTOM itself
        return (Interval, (self.lo, self.hi))

    # -- predicates ---------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return self is IV_BOTTOM

    def contains(self, q) -> bool:
        return self.lo <= endpoint(q) <= self.hi

    def leq(self, other: "Interval") -> bool:
        """Information order (reverse inclusion): self ⊑ other iff other ⊆ self."""
        return self.lo <= other.lo and other.hi <= self.hi

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        if self is IV_ZERO:
            return other
        if other is IV_ZERO:
            return self
        if self is IV_BOTTOM or other is IV_BOTTOM:
            return IV_BOTTOM
        return iv_unchecked(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        if self is IV_BOTTOM or self is IV_ZERO:
            return self
        return iv_unchecked(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        if other is IV_ZERO:
            return self
        if self is IV_BOTTOM or other is IV_BOTTOM:
            return IV_BOTTOM
        return iv_unchecked(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        if self is IV_ZERO or other is IV_ZERO:
            return IV_ZERO
        if self is IV_BOTTOM or other is IV_BOTTOM:
            # set image: a point zero factor gives zero even against bottom
            z = other if self is IV_BOTTOM else self
            return IV_ZERO if z.lo == z.hi == 0 else IV_BOTTOM
        # The sign cases of Hickey, Ju and van Emden (JACM 2001): each
        # factor is >= 0, <= 0 or straddles 0; only when both straddle are
        # all four endpoint products needed.
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a.numerator >= 0:
            if c.numerator >= 0:
                return iv_unchecked(a * c, b * d)
            if d.numerator <= 0:
                return iv_unchecked(b * c, a * d)
            return iv_unchecked(b * c, b * d)
        if b.numerator <= 0:
            if c.numerator >= 0:
                return iv_unchecked(a * d, b * c)
            if d.numerator <= 0:
                return iv_unchecked(b * d, a * c)
            return iv_unchecked(a * d, a * c)
        if c.numerator >= 0:
            return iv_unchecked(a * d, b * d)
        if d.numerator <= 0:
            return iv_unchecked(b * c, a * c)
        lo1, lo2, hi1, hi2 = a * d, b * c, a * c, b * d
        return iv_unchecked(lo1 if lo1 <= lo2 else lo2,
                            hi1 if hi1 >= hi2 else hi2)

    def div_nat(self, n: int) -> "Interval":
        if n == 0:
            return IV_BOTTOM
        if n < 0:
            raise ValueError("division only by naturals")
        if self is IV_BOTTOM:
            return IV_BOTTOM
        return iv_unchecked(self.lo / n, self.hi / n)

    def half(self) -> "Interval":
        """`div_nat(2)`, halving a dyadic endpoint by its exponent."""
        if self is IV_BOTTOM:
            return self
        lo, hi = self.lo, self.hi
        return iv_unchecked(lo.half() if lo.__class__ is _Dyadic else lo / 2,
                            hi.half() if hi.__class__ is _Dyadic else hi / 2)

    def scale(self, q) -> "Interval":
        return self * Interval.point(q)

    def meet(self, other: "Interval") -> "Interval":
        """Infimum in the information order: convex hull."""
        if self is IV_BOTTOM or other is IV_BOTTOM:
            return IV_BOTTOM
        a, b = self.lo, other.lo
        c, d = self.hi, other.hi
        return iv_unchecked(a if a <= b else b, c if c >= d else d)

    def join(self, other: "Interval") -> "Interval":
        """Supremum in the information order: intersection."""
        if self is IV_BOTTOM:
            return other
        if other is IV_BOTTOM:
            return self
        a, b = self.lo, other.lo
        c, d = self.hi, other.hi
        lo, hi = a if a >= b else b, c if c <= d else d
        if lo > hi:
            raise InconsistentIntervals(f"{self} and {other} are disjoint")
        return iv_unchecked(lo, hi)

    def consistent(self, other: "Interval") -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    @property
    def width(self) -> Endpoint:
        if self is IV_BOTTOM:
            return POS_INF
        return self.hi - self.lo

    def inflate(self, pad) -> "Interval":
        # the pad is caller input, so the result is validated
        pad = endpoint(pad)
        if self is IV_BOTTOM:
            return self
        return Interval(self.lo - pad, self.hi + pad)

    def __str__(self) -> str:
        return f"[{fmt_endpoint(self.lo)},{fmt_endpoint(self.hi)}]"

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


IV_BOTTOM = iv_unchecked(NEG_INF, POS_INF)
IV_ZERO = Interval.point(0)
IV_ONE = Interval.point(1)
IV_NEG_ONE = Interval.point(-1)
IV_UNIT = Interval(0, 1)
IV_PM_ONE = Interval(-1, 1)
_NEG_ONE, _ONE = IV_NEG_ONE.lo, IV_ONE.lo


def iv_max(a: Interval, b: Interval) -> Interval:
    """Maximum on partial reals: the standard-part restriction of dual max."""
    if a.lo > b.hi:
        return a
    if b.lo > a.hi:
        return b
    return _max_overlapping(a, b)


def _max_overlapping(a: Interval, b: Interval) -> Interval:
    # max once neither interval lies wholly above the other
    if a is IV_BOTTOM or b is IV_BOTTOM:
        return IV_BOTTOM
    lo, hi = a.lo if a.lo >= b.lo else b.lo, a.hi if a.hi >= b.hi else b.hi
    return iv_unchecked(lo, hi)


def iv_min(a: Interval, b: Interval) -> Interval:
    return -iv_max(-a, -b)


def iv_pr(a: Interval) -> Interval:
    """Clamp onto [-1,1]; standard-part restriction of dual pr."""
    if a.hi < _NEG_ONE:
        return IV_NEG_ONE
    if a.lo > _ONE:
        return IV_ONE
    if _NEG_ONE < a.lo and a.hi < _ONE:
        return a
    return a.join(IV_PM_ONE)


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

    @classmethod
    def parse(cls, s: str) -> "DualInterval":
        std_s, _, inf_s = s.partition("+ eps")
        if not inf_s:
            raise ValueError(f"not a dual literal: {s!r}")
        return cls(Interval.parse(std_s), Interval.parse(inf_s))

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

    def half(self) -> "DualInterval":
        return DualInterval(self.std.half(), self.inf.half())

    def __str__(self) -> str:
        return f"{self.std} + eps {self.inf}"

    def __repr__(self) -> str:
        return f"DualInterval({self.std!r}, {self.inf!r})"


DUAL_BOTTOM = DualInterval(IV_BOTTOM, IV_BOTTOM)
_DUAL_NEG_ONE = DualInterval(IV_NEG_ONE, IV_ZERO)
_DUAL_ONE = DualInterval(IV_ONE, IV_ZERO)


def dual_max(a: DualInterval, b: DualInterval) -> DualInterval:
    """Maximum of two dual intervals (five-case reduction rule)."""
    if a.std.lo > b.std.hi:
        return a
    if b.std.lo > a.std.hi:
        return b
    return DualInterval(_max_overlapping(a.std, b.std), a.inf.meet(b.inf))


def dual_min(a: DualInterval, b: DualInterval) -> DualInterval:
    # derived identity: min(x, y) = -max(-x, -y)
    return -dual_max(-a, -b)


def dual_pr(a: DualInterval) -> DualInterval:
    """Projection of a dual interval onto [-1,1] (four-case rule)."""
    if a.std.hi < _NEG_ONE:
        return _DUAL_NEG_ONE
    if a.std.lo > _ONE:
        return _DUAL_ONE
    if _NEG_ONE < a.std.lo and a.std.hi < _ONE:
        return a
    # non-empty by case analysis: std touches [-1,1] here
    return DualInterval(a.std.join(IV_PM_ONE), a.inf.meet(IV_ZERO))


def in_dual(iv: Interval) -> DualInterval:
    """Embed a partial real as a dual with zero infinitesimal part."""
    return DualInterval(iv, IV_ZERO)
