"""Exact interval and dual-interval arithmetic over extended-rational endpoints.

Endpoints are `fractions.Fraction` values (always in lowest terms) or the two
infinities `-inf` / `+inf` represented by the float infinities, which are exact.
The only interval with an infinite endpoint is the bottom element
``(-inf, +inf)``; intervals unbounded on exactly one side are rejected.

All values are immutable and all operations are pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Union

Endpoint = Union[Fraction, float]

NEG_INF: Endpoint = -inf
POS_INF: Endpoint = inf


def endpoint(x) -> Endpoint:
    """Coerce an int, string, Fraction or +-inf into a canonical endpoint."""
    if isinstance(x, Fraction):
        return x
    if x == inf or x == -inf:
        return x
    if isinstance(x, str):
        s = x.strip()
        if s in ("inf", "+inf"):
            return POS_INF
        if s == "-inf":
            return NEG_INF
        return Fraction(s)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an extended rational: {x!r}")


def ep_is_inf(e: Endpoint) -> bool:
    # endpoints are Fractions except for the two float infinities
    return e.__class__ is float


def ep_mul(a: Endpoint, b: Endpoint) -> Endpoint:
    # 0 * inf = 0: endpoint products are only enumerated under the set-image
    # convention where a degenerate zero factor yields zero.
    if a == 0 or b == 0:
        return Fraction(0)
    return a * b


def fmt_endpoint(e: Endpoint) -> str:
    if e == inf:
        return "inf"
    if e == -inf:
        return "-inf"
    return str(e)


class InconsistentIntervals(ValueError):
    """Raised by `Interval.join` when the two intervals are disjoint."""


@dataclass(frozen=True)
class Interval:
    """A non-empty compact real interval, or the whole line as bottom."""

    lo: Endpoint
    hi: Endpoint

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if lo.__class__ is Fraction and hi.__class__ is Fraction:
            if lo > hi:
                raise ValueError(f"invalid interval endpoints: {lo} > {hi}")
            return
        object.__setattr__(self, "lo", endpoint(lo))
        object.__setattr__(self, "hi", endpoint(hi))
        if not self.lo <= self.hi:
            raise ValueError(f"invalid interval endpoints: {self.lo} > {self.hi}")
        if ep_is_inf(self.lo) != ep_is_inf(self.hi):
            raise ValueError("half-infinite intervals are not representable")
        if ep_is_inf(self.lo) and self.lo == self.hi:
            raise ValueError("degenerate infinite interval")

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
        return cls(endpoint(lo), endpoint(hi))

    # -- predicates ---------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return ep_is_inf(self.lo)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, q) -> bool:
        return self.lo <= endpoint(q) <= self.hi

    def leq(self, other: "Interval") -> bool:
        """Information order (reverse inclusion): self ⊑ other iff other ⊆ self."""
        return self.lo <= other.lo and other.hi <= self.hi

    def way_below(self, other: "Interval") -> bool:
        """True iff other lies in the interior of self; infinite ends absorb."""
        lo_ok = self.lo == -inf or self.lo < other.lo
        hi_ok = self.hi == inf or other.hi < self.hi
        return lo_ok and hi_ok

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":
        # set image: a degenerate zero factor gives zero even against bottom
        if self == IV_ZERO or other == IV_ZERO:
            return IV_ZERO
        ps = [
            ep_mul(self.lo, other.lo),
            ep_mul(self.lo, other.hi),
            ep_mul(self.hi, other.lo),
            ep_mul(self.hi, other.hi),
        ]
        return Interval(min(ps), max(ps))

    def div_nat(self, n: int) -> "Interval":
        if n == 0:
            return IV_BOTTOM
        if n < 0:
            raise ValueError("division only by naturals")
        return Interval(self.lo / n, self.hi / n)

    def scale(self, q) -> "Interval":
        q = endpoint(q)
        if q == 0:
            return IV_ZERO
        if q > 0:
            return Interval(ep_mul(self.lo, q), ep_mul(self.hi, q))
        return Interval(ep_mul(self.hi, q), ep_mul(self.lo, q))

    def meet(self, other: "Interval") -> "Interval":
        """Infimum in the information order: convex hull."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def join(self, other: "Interval") -> "Interval":
        """Supremum in the information order: intersection."""
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise InconsistentIntervals(f"{self} and {other} are disjoint")
        return Interval(lo, hi)

    def consistent(self, other: "Interval") -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    @property
    def width(self) -> Endpoint:
        if self.is_bottom:
            return POS_INF
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        if self.is_bottom:
            raise ValueError("bottom interval has no midpoint")
        return (self.lo + self.hi) / 2

    def inflate(self, pad) -> "Interval":
        pad = endpoint(pad)
        if self.is_bottom:
            return self
        return Interval(self.lo - pad, self.hi + pad)

    def __str__(self) -> str:
        return f"[{fmt_endpoint(self.lo)},{fmt_endpoint(self.hi)}]"


IV_BOTTOM = Interval(NEG_INF, POS_INF)
IV_ZERO = Interval.point(0)
IV_ONE = Interval.point(1)
IV_UNIT = Interval(0, 1)


def iv_max(a: Interval, b: Interval) -> Interval:
    """Maximum on partial reals: the standard-part restriction of dual max."""
    if a.lo > b.hi:
        return a
    if b.lo > a.hi:
        return b
    if a.is_bottom or b.is_bottom:
        return IV_BOTTOM
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def iv_min(a: Interval, b: Interval) -> Interval:
    return -iv_max(-a, -b)


def iv_pr(a: Interval) -> Interval:
    """Clamp onto [-1,1]; standard-part restriction of dual pr."""
    if a.hi < -1:
        return Interval.point(-1)
    if a.lo > 1:
        return Interval.point(1)
    if Fraction(-1) < a.lo and a.hi < 1:
        return a
    return a.join(Interval(-1, 1))


@dataclass(frozen=True)
class DualInterval:
    """A pair of intervals: standard part and infinitesimal part."""

    std: Interval
    inf: Interval

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

    @property
    def is_bottom(self) -> bool:
        return self.std.is_bottom and self.inf.is_bottom

    def leq(self, other: "DualInterval") -> bool:
        return self.std.leq(other.std) and self.inf.leq(other.inf)

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


DUAL_BOTTOM = DualInterval(IV_BOTTOM, IV_BOTTOM)


def dual_max(a: DualInterval, b: DualInterval) -> DualInterval:
    """Maximum of two dual intervals (five-case reduction rule)."""
    if a.std.lo > b.std.hi:
        return a
    if b.std.lo > a.std.hi:
        return b
    merged_inf = a.inf.meet(b.inf)
    if a.std.is_bottom or b.std.is_bottom:
        return DualInterval(IV_BOTTOM, merged_inf)
    merged_std = Interval(max(a.std.lo, b.std.lo), max(a.std.hi, b.std.hi))
    return DualInterval(merged_std, merged_inf)


def dual_min(a: DualInterval, b: DualInterval) -> DualInterval:
    # derived identity: min(x, y) = -max(-x, -y)
    return -dual_max(-a, -b)


def dual_pr(a: DualInterval) -> DualInterval:
    """Projection of a dual interval onto [-1,1] (four-case rule)."""
    if a.std.hi < -1:
        return DualInterval(Interval.point(-1), IV_ZERO)
    if a.std.lo > 1:
        return DualInterval(Interval.point(1), IV_ZERO)
    if Fraction(-1) < a.std.lo and a.std.hi < 1:
        return a
    # non-empty by case analysis: std touches [-1,1] here
    return DualInterval(a.std.join(Interval(-1, 1)), a.inf.meet(IV_ZERO))


def dual_eps(a: DualInterval) -> DualInterval:
    """Multiply by the infinitesimal unit: (0 + eps 1) * a."""
    return DualInterval(IV_ZERO, a.std)


def in_dual(iv: Interval) -> DualInterval:
    """Embed a partial real as a dual with zero infinitesimal part."""
    return DualInterval(iv, IV_ZERO)
