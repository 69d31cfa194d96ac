"""Outward-rounded interval arithmetic over numpy lanes, and interval jets.

Rigor model: every operation returns an interval that contains the exact
real result for all points of its operands.  Endpoints are computed in
IEEE double and then nudged one ulp outward, which is portable, costs one
bit of tightness per operation, and never depends on a global rounding
mode.  The nudge equals ``np.nextafter`` toward -inf or +inf bit for bit,
which the tier-1 tests check.  Which route runs is decided by the lanes'
own values, and every route gives the same bits:

* one rounding decision per result (`_rounded`): every operation hands
  the fresh (lo, hi) pair of its result to one helper, which takes
  min(lo) and max(hi) once and picks one route for both ends: one int64
  add on each bit pattern, in place, when every end is finite and of one
  strict sign; the general in-place step (`_step`) when no end is NaN or
  at the infinity it steps toward; ``np.nextafter`` otherwise (0-d
  values, empty arrays, NaN, infinite ends);
* a carried sign: the helper knows the sign of what it rounds, and the
  result keeps it (VInterval.sign, which negation flips), so `_sign`
  reads no lane of a result whose sign is known;
* a product or a quotient computes only its two extreme corners when
  each operand lies on one side of 0 with finite ends (`_sign`), and all
  four otherwise (an infinite end can meet a zero, and inf * 0 must stay
  NaN); a divisor that straddles 0 raises before either route;
* a square skips abs, min, max and the straddle mask on the same test,
  and a square or square root of known sign +1 skips its max with 0.

There is one interval type, `VInterval`: numpy lo/hi arrays, 0-d for a
single interval and 1-d for a lane of boxes (the certifier's hot path).
The first-order jet `Dual` (value + d/dr3 + d/dr5, each a `VInterval`)
serves the Krawczyk Jacobian.  Arithmetic is elementwise, so a lane's
endpoints are the ones a 0-d evaluation of the same box gives, bit for
bit.  The tier-1 tests check every primitive and the certified leaf
bounds against exact rational arithmetic, and each fast route against
the general one.

This module holds arithmetic and backends only and imports no other
starcc module.  The formulas are the kernel's: an enclosure of a
multiplier over a box is kernel.lambda_quot on VectorBackend (a
denominator enclosing zero raises DivisionByZeroInterval), and one of
the local system F is kernel.local_gaps.

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


class DivisionByZeroInterval(ZeroDivisionError):
    """Divisor interval contains zero."""


class NegativeArgument(ValueError):
    """sqrt of a partly negative interval, or x^(-3/2) of one touching 0."""


_NINF = float("-inf")
_PINF = float("inf")
_DBL_MAX = float(np.finfo(np.float64).max)
# _MIN(x, None) is x.min() over every axis without the method's Python
# wrapper, which costs as much as the reduction on the jets' short lanes
_MIN = np.minimum.reduce
_MAX = np.maximum.reduce


def _step(x, up):
    """Step every lane of x one ulp, in place: np.nextafter(x, +inf) when up,
    else np.nextafter(x, -inf), bit for bit.

    x is a float64 lane array the caller has just computed and owns, with
    no NaN and no infinity the step cannot leave (+inf up, -inf down).
    The step up adds 1 to the bit pattern (read as int64) of x >= +0 and
    subtracts 1 from that of x < 0, after mapping -0 to +0 (x + 0.0); the
    step down is -up(-x), with 0.0 - x doing the negation and the zero
    mapping in one pass."""
    if up:
        x += 0.0
    else:
        np.subtract(0.0, x, out=x)
    bits = x.view(np.int64)
    step = bits >> 63  # 0 for a positive pattern, -1 for a negative one
    step |= 1
    bits += step
    if not up:
        np.negative(x, out=x)


def _rounded(lo, hi) -> "VInterval":
    """The interval [lo, hi] of a result whose endpoints the caller has just
    computed and owns, lo rounded toward -inf and hi toward +inf, each end
    bit for bit np.nextafter, carrying its sign.

    lo and hi are arrays of one shape with lo <= hi on every lane that
    holds no NaN.  m = min(lo) and M = max(hi), read once, pick one route:

    1. every end is finite and of one strict sign (0 < m and M < inf, or
       the mirror).  Among doubles of one sign, the next larger magnitude
       has the next larger bit pattern, so each array is stepped in place
       by one int64 add: +1 to grow the magnitude, -1 to shrink it
       (5e-324 down is +0, -5e-324 up is -0, DBL_MAX up is inf).  The
       result carries sign +1 when moreover M < DBL_MAX (so no end steps
       to inf, and a lo of 5e-324 steps to +0), -1 in the mirror case,
       and None otherwise;
    2. otherwise, when -inf < m and M < inf, no end is NaN or at the
       infinity it steps toward, and each takes `_step`;
    3. everything else (0-d values, empty arrays, NaN, such an infinite
       end) goes through np.nextafter on each end.

    Routes 2 and 3 carry None."""
    if getattr(lo, "ndim", 0) and lo.size:
        m = _MIN(lo, None)
        M = _MAX(hi, None)  # NaN fails every test below
        if 0.0 < m and M < _PINF:
            bits = lo.view(np.int64)
            bits -= 1
            bits = hi.view(np.int64)
            bits += 1
            return VInterval(lo, hi, 1 if M < _DBL_MAX else None)
        if M < 0.0 and _NINF < m:
            bits = lo.view(np.int64)
            bits += 1
            bits = hi.view(np.int64)
            bits -= 1
            return VInterval(lo, hi, -1 if -_DBL_MAX < m else None)
        if _NINF < m and M < _PINF:
            _step(lo, False)
            _step(hi, True)
            return VInterval(lo, hi)
    return VInterval(np.nextafter(lo, _NINF), np.nextafter(hi, _PINF))


def _sign(iv) -> int:
    """+1 if every lane of iv lies in [0, inf), -1 if every lane lies in
    (-inf, 0], else 0: a lane straddles 0, an endpoint is infinite or NaN,
    or iv is empty.  The sign a result carries (`_rounded`) is returned
    without reading a lane."""
    if iv.sign is not None:
        return iv.sign
    lo, hi = iv.lo, iv.hi
    if lo.ndim == 0:  # a Python float compares faster than a 0-d array
        lo, hi = float(lo), float(hi)
    elif lo.size:
        lo, hi = _MIN(lo, None), _MAX(hi, None)
    else:
        return 0
    if lo >= 0.0 and hi < _PINF:
        return 1
    if hi <= 0.0 and lo > _NINF:
        return -1
    return 0


class VInterval:
    """Closed intervals [lo, hi] over numpy arrays (0-d or lanes), with
    outward-rounded elementwise arithmetic.

    sign is what `_sign` would compute from the lanes, +1 or -1, when the
    interval is known to be of one sign, and None when it is not known.  It
    is fixed when the interval is built, so no code writes into the lo or
    hi of a VInterval after building it."""

    __slots__ = ("lo", "hi", "sign")

    def __init__(self, lo, hi, sign=None):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        self.sign = sign

    @staticmethod
    def _coerce(x):
        if isinstance(x, VInterval):
            return x
        if isinstance(x, (int, float)):
            return VInterval(x, x)
        return NotImplemented

    # -- queries ---------------------------------------------------------
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, x):
        return (self.lo <= x) & (x <= self.hi)

    def straddles_zero(self):
        return (self.lo <= 0.0) & (self.hi >= 0.0)

    def __repr__(self):
        return f"VInterval({self.lo!r}, {self.hi!r})"

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _rounded(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        s = self.sign
        return VInterval(-self.hi, -self.lo, None if s is None else -s)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _rounded(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        s = _sign(self)
        t = _sign(o) if s else 0
        if t:
            # each operand has one sign and finite endpoints, so rounding is
            # monotone in every corner and the extremes are two known ones;
            # the guard keeps inf * 0, NaN in the four corners, off this route
            a_lo, a_hi = (self.lo, self.hi) if t > 0 else (self.hi, self.lo)
            b_lo, b_hi = (o.lo, o.hi) if s > 0 else (o.hi, o.lo)
            return _rounded(a_lo * b_lo, a_hi * b_hi)
        c1 = self.lo * o.lo
        c2 = self.lo * o.hi
        c3 = self.hi * o.lo
        c4 = self.hi * o.hi
        lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
        hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
        return _rounded(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if np.any(o.straddles_zero()):
            raise DivisionByZeroInterval("divisor interval contains zero")
        s = _sign(self)
        t = _sign(o) if s else 0
        # a quotient beyond the float range rounds to +-inf, which is a
        # valid outward endpoint; numpy would warn about it
        with np.errstate(over="ignore"):
            if t:
                # as in __mul__, by the reciprocal [1/hi, 1/lo] of o, whose
                # lanes lie strictly on one side of 0 after the check above
                a_lo, a_hi = (self.lo, self.hi) if t > 0 else (self.hi, self.lo)
                b_lo, b_hi = (o.hi, o.lo) if s > 0 else (o.lo, o.hi)
                return _rounded(a_lo / b_lo, a_hi / b_hi)
            c1 = self.lo / o.lo
            c2 = self.lo / o.hi
            c3 = self.hi / o.lo
            c4 = self.hi / o.hi
        lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
        hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
        return _rounded(lo, hi)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def sq(self) -> "VInterval":
        """Tight square: range of x^2 over the interval (not self*self).

        When every lane lies on one side of 0 with finite ends (_sign), the
        end nearer 0 is lo (all >= 0) or hi (all <= 0) on every lane, and
        abs, minimum, maximum and where are skipped; a lane touching 0 gets
        max(0, 0 rounded down) = 0, which is what the where gives it.  The
        max with 0 is skipped too when the rounded result carries sign +1,
        since its lower ends are then >= +0 already."""
        s = _sign(self)
        if s:
            near, far = (self.lo, self.hi) if s > 0 else (self.hi, self.lo)
            r = _rounded(near * near, far * far)
            return r if r.sign == 1 else VInterval(np.maximum(0.0, r.lo), r.hi)
        a = np.abs(self.lo)
        b = np.abs(self.hi)
        m = np.minimum(a, b)
        M = np.maximum(a, b)
        r = _rounded(m * m, M * M)
        lo = np.where(self.straddles_zero(), 0.0, np.maximum(0.0, r.lo))
        return VInterval(lo, r.hi)

    def sqrt(self) -> "VInterval":
        if np.any(self.lo < 0.0):
            raise NegativeArgument("sqrt of a partly negative interval")
        return self._sqrt()

    def _sqrt(self) -> "VInterval":
        """sqrt of an interval whose lanes are all >= 0 or NaN, unchecked;
        the max with 0 is skipped as in sq."""
        r = _rounded(np.sqrt(self.lo), np.sqrt(self.hi))
        return r if r.sign == 1 else VInterval(np.maximum(0.0, r.lo), r.hi)

    def powneg32(self) -> "VInterval":
        """x^(-3/2) as reciprocal of x*sqrt(x), each step outward-rounded.

        Every factor is positive, so each step's lower endpoint comes from
        the lower endpoints (the upper from the upper) and rounding is
        monotone: the result equals 1.0 / (self * self.sqrt()) bit for bit
        without the generic product's four corners.  One positivity test
        covers the square root too; the second test catches a product that
        underflows to 0."""
        if np.any(self.lo <= 0.0):
            raise NegativeArgument("x^(-3/2) of an interval touching 0")
        s = self._sqrt()
        p = _rounded(self.lo * s.lo, self.hi * s.hi)
        if np.any(p.lo <= 0.0):
            raise DivisionByZeroInterval("divisor interval contains zero")
        return _rounded(1.0 / p.hi, 1.0 / p.lo)


class Box2(NamedTuple):
    """An axis-aligned box in the (r3, r5) plane, or a lane of boxes."""

    r3: VInterval
    r5: VInterval

    @staticmethod
    def from_bounds(r3lo, r3hi, r5lo, r5hi) -> "Box2":
        """The box [r3lo, r3hi] x [r5lo, r5hi]; ValueError on an inverted
        or NaN edge."""
        box = Box2(VInterval(r3lo, r3hi), VInterval(r5lo, r5hi))
        if not all(np.all(iv.lo <= iv.hi) for iv in box):  # also rejects NaN
            raise ValueError(f"invalid box r3={box.r3}, r5={box.r5}")
        return box

    @staticmethod
    def point(r3, r5) -> "Box2":
        return Box2.from_bounds(r3, r3, r5, r5)


@dataclass(frozen=True)
class PentagonConstants:
    """Enclosures of sqrt(5), a, b, a/2 and the five cos/sin values."""

    sqrt5: VInterval
    a: VInterval
    b: VInterval
    half_a: VInterval
    half_b: VInterval
    cos: tuple
    sin: tuple


@lru_cache(maxsize=1)
def pentagon_constants() -> PentagonConstants:
    s = math.sqrt(5.0)
    sqrt5 = VInterval(math.nextafter(s, _NINF), math.nextafter(s, _PINF))
    a = sqrt5 + 1.0
    b = sqrt5 - 1.0
    cos72 = b * 0.25
    cos144 = -(a * 0.25)
    # sin 72 = sqrt(10 + 2 sqrt5)/4, sin 36 = sqrt(10 - 2 sqrt5)/4
    sin72 = (10.0 + 2.0 * sqrt5).sqrt() * 0.25
    sin36 = (10.0 - 2.0 * sqrt5).sqrt() * 0.25
    cos = (VInterval(1.0, 1.0), cos72, cos144, cos144, cos72)
    sin = (VInterval(0.0, 0.0), sin72, sin36, -sin36, -sin72)
    pc = PentagonConstants(
        sqrt5=sqrt5, a=a, b=b, half_a=a * 0.5, half_b=b * 0.5, cos=cos, sin=sin
    )
    # every caller shares these arrays, so none may write to them
    for iv in (sqrt5, a, b, pc.half_a, pc.half_b) + cos + sin:
        iv.lo.flags.writeable = iv.hi.flags.writeable = False
    return pc


class VectorBackend:
    """Vector-interval backend for the shared kernel: kernel.lambda_quot,
    y1_num and local_gaps on it enclose their values over each box."""

    def __init__(self):
        pc = pentagon_constants()
        self.cos = pc.cos
        self.sin = pc.sin
        self.one = VInterval(1.0, 1.0)
        self.half_a = pc.half_a

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

_ZERO = VInterval(0.0, 0.0)
_ONE = VInterval(1.0, 1.0)


class Dual:
    """Interval jet: enclosure of a value and of its two partials."""

    __slots__ = ("v", "d3", "d5")

    def __init__(self, v: VInterval, d3: VInterval = _ZERO, d5: VInterval = _ZERO):
        self.v = v
        self.d3 = d3
        self.d5 = d5

    @staticmethod
    def _coerce(x):
        if isinstance(x, Dual):
            return x
        if isinstance(x, VInterval):
            return Dual(x)
        if isinstance(x, (int, float)):
            return Dual(VInterval(x, x))
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
        two_v = self.v * 2.0
        return Dual(self.v.sq(), two_v * self.d3, two_v * self.d5)

    def powneg32(self) -> "Dual":
        # d/dx x^(-3/2) = -(3/2) x^(-5/2) = -(3/2) * x^(-3/2) / x
        p = self.v.powneg32()
        factor = -1.5 * (p / self.v)
        return Dual(p, factor * self.d3, factor * self.d5)


class DualBackend:
    """Interval-jet backend; seeds come from `dual_vars`."""

    def __init__(self):
        pc = pentagon_constants()
        self.cos = tuple(Dual(c) for c in pc.cos)
        self.sin = tuple(Dual(s) for s in pc.sin)
        self.one = Dual(_ONE)
        self.half_a = Dual(pc.half_a)

    @staticmethod
    def sq(x: Dual) -> Dual:
        return x.sq()

    @staticmethod
    def powneg32(x: Dual) -> Dual:
        return x.powneg32()


def dual_vars(box: Box2):
    """Seed jets for (r3, r5) over a box: dr3/dr3 = 1, dr3/dr5 = 0, etc."""
    return (Dual(box.r3, _ONE, _ZERO), Dual(box.r5, _ZERO, _ONE))
