"""Outward-rounded interval arithmetic and its vector/jet variants.

Rigor model: every operation returns an interval that contains the exact
real result for all points of its operands.  Endpoints are computed in
IEEE double and then nudged one ulp outward (``math.nextafter``), which is
portable, costs one bit of tightness per operation, and never depends on a
global rounding mode.  The scalar class `Interval`, the vectorized
`VInterval` (numpy lo/hi arrays; the certifier's hot path) and the
first-order jet `Dual` (value + d/dr3 + d/dr5, all intervals; used for the
Krawczyk Jacobian) implement bit-identical endpoint arithmetic, so a bound
computed by the batch engine reproduces exactly under the scalar API.

Pentagon constants are enclosed from a sqrt(5) enclosure: cos 72 = b/4 and
cos 144 = -a/4 are exact rational images of sqrt(5); the sines use
sin 72 = sqrt(10+2*sqrt(5))/4 and sin 36 = sqrt(10-2*sqrt(5))/4.  All have
width <= 4 ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import kernel
from .geometry import DomainError


class DivisionByZeroInterval(ZeroDivisionError):
    """Divisor interval contains zero."""


class NegativeArgument(ValueError):
    """sqrt of a partly negative interval, or x^(-3/2) of one touching 0."""


class DenominatorStraddlesZero(ArithmeticError):
    """A lambda quotient's q_ik enclosure contains zero on this box."""


def _dn(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] of doubles, lo <= hi, outward semantics."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):  # also rejects NaN endpoints
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    # -- queries ---------------------------------------------------------
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    # -- arithmetic ------------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, Interval):
            return x
        if isinstance(x, (int, float)):
            x = float(x)
            return Interval(x, x)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Interval(_dn(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Interval(_dn(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        c = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_dn(min(c)), _up(max(c)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.lo <= 0.0 <= o.hi:
            raise DivisionByZeroInterval(f"divisor {o} contains zero")
        c = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_dn(min(c)), _up(max(c)))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def sq(self) -> "Interval":
        """Tight square: range of x^2 over the interval (not self*self)."""
        a, b = abs(self.lo), abs(self.hi)
        m, M = min(a, b), max(a, b)
        if self.lo <= 0.0 <= self.hi:
            return Interval(0.0, _up(M * M))
        return Interval(max(0.0, _dn(m * m)), _up(M * M))

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise NegativeArgument(f"sqrt of {self}")
        return Interval(max(0.0, _dn(math.sqrt(self.lo))), _up(math.sqrt(self.hi)))

    def powneg32(self) -> "Interval":
        """x^(-3/2) as reciprocal of x*sqrt(x), each step outward-rounded."""
        if self.lo <= 0.0:
            raise NegativeArgument(f"x^(-3/2) of {self}")
        return Interval(1.0, 1.0) / (self * self.sqrt())

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"


def thin(x: float) -> Interval:
    x = float(x)
    return Interval(x, x)


class Box2(NamedTuple):
    """An axis-aligned box in the (r3, r5) plane."""

    r3: Interval
    r5: Interval

    @staticmethod
    def from_bounds(r3lo, r3hi, r5lo, r5hi) -> "Box2":
        return Box2(Interval(float(r3lo), float(r3hi)), Interval(float(r5lo), float(r5hi)))

    @staticmethod
    def point(r3: float, r5: float) -> "Box2":
        return Box2(thin(r3), thin(r5))


@dataclass(frozen=True)
class PentagonConstants:
    """Enclosures of sqrt(5), a, b, a/2 and the five cos/sin values."""

    sqrt5: Interval
    a: Interval
    b: Interval
    half_a: Interval
    half_b: Interval
    cos: tuple
    sin: tuple


@lru_cache(maxsize=1)
def pentagon_constants() -> PentagonConstants:
    s = math.sqrt(5.0)
    sqrt5 = Interval(_dn(s), _up(s))
    one = Interval(1.0, 1.0)
    a = sqrt5 + one
    b = sqrt5 - one
    quarter = Interval(0.25, 0.25)
    half = Interval(0.5, 0.5)
    cos72 = b * quarter
    cos144 = -(a * quarter)
    # sin 72 = sqrt(10 + 2 sqrt5)/4, sin 36 = sqrt(10 - 2 sqrt5)/4
    ten = Interval(10.0, 10.0)
    two = Interval(2.0, 2.0)
    sin72 = (ten + two * sqrt5).sqrt() * quarter
    sin36 = (ten - two * sqrt5).sqrt() * quarter
    cos = (one, cos72, cos144, cos144, cos72)
    sin = (Interval(0.0, 0.0), sin72, sin36, -sin36, -sin72)
    return PentagonConstants(
        sqrt5=sqrt5, a=a, b=b, half_a=a * half, half_b=b * half, cos=cos, sin=sin
    )


class IntervalBackend:
    """Scalar interval backend for the shared formula kernel."""

    def __init__(self):
        pc = pentagon_constants()
        self.cos = pc.cos
        self.sin = pc.sin
        self.one = Interval(1.0, 1.0)
        self.half_a = pc.half_a

    @staticmethod
    def lift(x):
        return thin(x)

    @staticmethod
    def sq(x: Interval) -> Interval:
        return x.sq()

    @staticmethod
    def powneg32(x: Interval) -> Interval:
        return x.powneg32()


_IV_BACKEND = None


def _iv_backend() -> IntervalBackend:
    global _IV_BACKEND
    if _IV_BACKEND is None:
        _IV_BACKEND = IntervalBackend()
    return _IV_BACKEND


def _checked_radii(box: Box2):
    """Derived radii enclosures; DomainError unless the box sits in closure(S)
    with strictly positive r2 and r4 enclosures."""
    bk = _iv_backend()
    if box.r3.lo < 0.0 or box.r5.lo < 0.0:
        raise DomainError(f"box {box} leaves the closed quadrant")
    radii = kernel.derived_radii(bk, box.r3, box.r5)
    r2, r4 = radii[1], radii[3]
    if not (r2.lo > 0.0 and r4.lo > 0.0):
        raise DomainError(f"box {box} has r2 enclosure {r2}, r4 enclosure {r4}")
    return bk, radii


def lambda_interval(idx, box: Box2) -> Interval:
    """Enclosure of lambda_ik over the box.

    Requires the closure radii r2, r4 strictly positive over the box and the
    denominator q_ik bounded away from zero; raises DomainError or
    DenominatorStraddlesZero accordingly.
    """
    i, k = idx
    bk, radii = _checked_radii(box)
    den = kernel.lambda_den(bk, radii, i, k)
    if den.straddles_zero():
        raise DenominatorStraddlesZero(f"q_{i}{k} encloses zero on {box}")
    num = kernel.lambda_num(bk, radii, i, k, d2cache={})
    return num / den


def gap_interval(pair, box: Box2) -> Interval:
    """Enclosure of lambda_B - lambda_A for pair = (A, B).

    A positive lower endpoint certifies the strict inequality
    lambda_A < lambda_B everywhere on the box.
    """
    a, b = pair
    return lambda_interval(b, box) - lambda_interval(a, box)


def y1_interval(box: Box2) -> Interval:
    """Enclosure of the body-1 y-equation numerator over the box."""
    bk, radii = _checked_radii(box)
    return kernel.lambda_num(bk, radii, 1, 2, d2cache={})


# ---------------------------------------------------------------------------
# Vectorized intervals: lo/hi numpy arrays, endpoint-identical to Interval.
# ---------------------------------------------------------------------------

_NINF = float("-inf")
_PINF = float("inf")


class VInterval:
    """Array-of-intervals with the same outward-rounded endpoint arithmetic
    as `Interval` (elementwise identical results)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)

    @staticmethod
    def from_scalar(iv: Interval) -> "VInterval":
        return VInterval(np.float64(iv.lo), np.float64(iv.hi))

    @staticmethod
    def _coerce(x):
        if isinstance(x, VInterval):
            return x
        if isinstance(x, Interval):
            return VInterval.from_scalar(x)
        if isinstance(x, (int, float)):
            return VInterval(np.float64(x), np.float64(x))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return VInterval(
            np.nextafter(self.lo + o.lo, _NINF), np.nextafter(self.hi + o.hi, _PINF)
        )

    __radd__ = __add__

    def __neg__(self):
        return VInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return VInterval(
            np.nextafter(self.lo - o.hi, _NINF), np.nextafter(self.hi - o.lo, _PINF)
        )

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        c1 = self.lo * o.lo
        c2 = self.lo * o.hi
        c3 = self.hi * o.lo
        c4 = self.hi * o.hi
        lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
        hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
        return VInterval(np.nextafter(lo, _NINF), np.nextafter(hi, _PINF))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if np.any((o.lo <= 0.0) & (o.hi >= 0.0)):
            raise DivisionByZeroInterval("vector divisor contains zero")
        c1 = self.lo / o.lo
        c2 = self.lo / o.hi
        c3 = self.hi / o.lo
        c4 = self.hi / o.hi
        lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
        hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
        return VInterval(np.nextafter(lo, _NINF), np.nextafter(hi, _PINF))

    def sq(self) -> "VInterval":
        a = np.abs(self.lo)
        b = np.abs(self.hi)
        m = np.minimum(a, b)
        M = np.maximum(a, b)
        straddle = (self.lo <= 0.0) & (self.hi >= 0.0)
        lo = np.where(straddle, 0.0, np.maximum(0.0, np.nextafter(m * m, _NINF)))
        hi = np.nextafter(M * M, _PINF)
        return VInterval(lo, hi)

    def sqrt(self) -> "VInterval":
        if np.any(self.lo < 0.0):
            raise NegativeArgument("vector sqrt of negative interval")
        return VInterval(
            np.maximum(0.0, np.nextafter(np.sqrt(self.lo), _NINF)),
            np.nextafter(np.sqrt(self.hi), _PINF),
        )

    def powneg32(self) -> "VInterval":
        if np.any(self.lo <= 0.0):
            raise NegativeArgument("vector x^(-3/2) of interval touching 0")
        one = VInterval(np.float64(1.0), np.float64(1.0))
        return one / (self * self.sqrt())

    def straddles_zero(self):
        return (self.lo <= 0.0) & (self.hi >= 0.0)


class VectorBackend:
    """Vectorized-interval backend for the shared kernel."""

    def __init__(self):
        pc = pentagon_constants()
        self.cos = tuple(VInterval.from_scalar(c) for c in pc.cos)
        self.sin = tuple(VInterval.from_scalar(s) for s in pc.sin)
        self.one = VInterval(np.float64(1.0), np.float64(1.0))
        self.half_a = VInterval.from_scalar(pc.half_a)

    @staticmethod
    def lift(x):
        return VInterval(np.asarray(x, dtype=np.float64), np.asarray(x, dtype=np.float64))

    @staticmethod
    def sq(x: VInterval) -> VInterval:
        return x.sq()

    @staticmethod
    def powneg32(x: VInterval) -> VInterval:
        return x.powneg32()


# ---------------------------------------------------------------------------
# First-order jets over intervals (value, d/dr3, d/dr5): rigorous forward-
# mode derivatives through the same formulas, for the Krawczyk Jacobian.
# ---------------------------------------------------------------------------

_IV_ZERO = Interval(0.0, 0.0)
_IV_ONE = Interval(1.0, 1.0)


class Dual:
    """Interval jet: enclosure of a value and of its two partials."""

    __slots__ = ("v", "d3", "d5")

    def __init__(self, v: Interval, d3: Interval = _IV_ZERO, d5: Interval = _IV_ZERO):
        self.v = v
        self.d3 = d3
        self.d5 = d5

    @staticmethod
    def _coerce(x):
        if isinstance(x, Dual):
            return x
        if isinstance(x, Interval):
            return Dual(x)
        if isinstance(x, (int, float)):
            return Dual(thin(x))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Dual(self.v + o.v, self.d3 + o.d3, self.d5 + o.d5)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.v, -self.d3, -self.d5)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Dual(self.v - o.v, self.d3 - o.d3, self.d5 - o.d5)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Dual(
            self.v * o.v,
            self.v * o.d3 + o.v * self.d3,
            self.v * o.d5 + o.v * self.d5,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        q = self.v / o.v
        den = o.v.sq()
        return Dual(
            q,
            (self.d3 * o.v - self.v * o.d3) / den,
            (self.d5 * o.v - self.v * o.d5) / den,
        )

    def sq(self) -> "Dual":
        two_v = self.v * Interval(2.0, 2.0)
        return Dual(self.v.sq(), two_v * self.d3, two_v * self.d5)

    def powneg32(self) -> "Dual":
        # d/dx x^(-3/2) = -(3/2) x^(-5/2) = -(3/2) * x^(-3/2) / x
        p = self.v.powneg32()
        factor = Interval(-1.5, -1.5) * (p / self.v)
        return Dual(p, factor * self.d3, factor * self.d5)


class DualBackend:
    """Interval-jet backend; seeds come from `dual_vars`."""

    def __init__(self):
        pc = pentagon_constants()
        self.cos = tuple(Dual(c) for c in pc.cos)
        self.sin = tuple(Dual(s) for s in pc.sin)
        self.one = Dual(_IV_ONE)
        self.half_a = Dual(pc.half_a)

    @staticmethod
    def lift(x):
        return Dual(thin(x))

    @staticmethod
    def sq(x: Dual) -> Dual:
        return x.sq()

    @staticmethod
    def powneg32(x: Dual) -> Dual:
        return x.powneg32()


def dual_vars(box: Box2):
    """Seed jets for (r3, r5) over a box: dr3/dr3 = 1, dr3/dr5 = 0, etc."""
    return (Dual(box.r3, _IV_ONE, _IV_ZERO), Dual(box.r5, _IV_ZERO, _IV_ONE))
