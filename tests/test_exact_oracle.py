"""An exact-rational reference for the interval layer.

`Q` is an interval with `fractions.Fraction` endpoints, rounded outward to
the grid 2^-200 after every operation (sqrt is bracketed with
`math.isqrt`), and `QBackend` runs the shared kernel on it.  The oracle
shares the kernel's formulas with `VInterval` but none of its float
arithmetic, so these tests check the arithmetic: each `VInterval`
primitive against exact results, the golden-constant enclosures, the
tightest certified leaf of every region and the Krawczyk K-image.  The
formulas themselves are checked by the acceptance tests.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from starcc import kernel
from starcc.certify import INNER_DELTA, _batch_bounds, _contraction_evidence, certify_inequality
from starcc.intervals import VInterval, pentagon_constants
from starcc.regions import REGION_IDS, TRUNCATION_R5, region_def, region_plan

_BITS = 200
_GRID = 1 << _BITS


def _down(x: Fraction) -> Fraction:
    return Fraction((x.numerator * _GRID) // x.denominator, _GRID)


def _up(x: Fraction) -> Fraction:
    return -_down(-x)


def _sqrt_down(x: Fraction) -> Fraction:
    return Fraction(math.isqrt((x.numerator * _GRID * _GRID) // x.denominator), _GRID)


def _sqrt_up(x: Fraction) -> Fraction:
    m = -((-x.numerator * _GRID * _GRID) // x.denominator)
    n = math.isqrt(m)
    return Fraction(n if n * n == m else n + 1, _GRID)


class Q:
    """[lo, hi] with Fraction endpoints on the 2^-200 grid, rounded outward."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo = Fraction(lo)
        self.hi = self.lo if hi is None else Fraction(hi)
        assert self.lo <= self.hi

    @staticmethod
    def _of(x):
        return x if isinstance(x, Q) else Q(x)

    def __add__(self, o):
        o = Q._of(o)
        return Q(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Q(-self.hi, -self.lo)

    def __sub__(self, o):
        o = Q._of(o)
        return Q(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, o):
        return Q._of(o) - self

    def __mul__(self, o):
        o = Q._of(o)
        c = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Q(_down(min(c)), _up(max(c)))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Q._of(o)
        assert o.lo > 0 or o.hi < 0, "divisor contains zero"
        c = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Q(_down(min(c)), _up(max(c)))

    def sq(self):
        a, b = abs(self.lo), abs(self.hi)
        lo = 0 if self.lo <= 0 <= self.hi else min(a, b) ** 2
        return Q(_down(lo), _up(max(a, b) ** 2))

    def sqrt(self):
        assert self.lo >= 0
        return Q(_sqrt_down(self.lo), _sqrt_up(self.hi))

    def powneg32(self):
        assert self.lo > 0
        return Q(1) / (self * self.sqrt())


class QBackend:
    """The exact backend for the shared kernel (see kernel.FloatBackend)."""

    def __init__(self):
        s5 = Q(_sqrt_down(Fraction(5)), _sqrt_up(Fraction(5)))
        a, b = s5 + 1, s5 - 1
        quarter = Fraction(1, 4)
        cos72, cos144 = b * quarter, -(a * quarter)
        sin72 = (10 + 2 * s5).sqrt() * quarter
        sin36 = (10 - 2 * s5).sqrt() * quarter
        self.cos = (Q(1), cos72, cos144, cos144, cos72)
        self.sin = (Q(0), sin72, sin36, -sin36, -sin72)
        self.one = Q(1)
        self.half_a = a * Fraction(1, 2)
        self.constants = {"sqrt5": s5, "a": a, "b": b, "half_a": self.half_a,
                          "half_b": b * Fraction(1, 2)}

    sq = staticmethod(Q.sq)
    powneg32 = staticmethod(Q.powneg32)


BK = QBackend()


def _encloses(f: VInterval, lo, hi, j=()) -> bool:
    """Does the float enclosure f (lane j) contain the rational [lo, hi]?"""
    return Fraction(float(f.lo[j])) <= lo and hi <= Fraction(float(f.hi[j]))


def test_vinterval_primitives_enclose_exact_results():
    rng = np.random.default_rng(5)
    n = 240
    # widths: thin (the exact result is one real), one-ulp-scale and wide
    widths = np.array([0.0, 1e-15, 1e-9, 1.0])

    def lane(lo_min, lo_max):
        lo = rng.uniform(lo_min, lo_max, n)
        return VInterval(lo, lo + rng.choice(widths, n) * rng.uniform(0.0, 1.0, n))

    def fr(v, j):
        return Fraction(float(v.lo[j])), Fraction(float(v.hi[j]))

    x, y, p = lane(-10.0, 10.0), lane(-10.0, 10.0), lane(0.05, 10.0)
    s, d, m, q = x + y, x - y, x * y, x / p
    sq, rt, pw = x.sq(), p.sqrt(), p.powneg32()
    for j in range(n):
        (xl, xh), (yl, yh), (pl, ph) = fr(x, j), fr(y, j), fr(p, j)
        prods = (xl * yl, xl * yh, xh * yl, xh * yh)
        quots = (xl / pl, xl / ph, xh / pl, xh / ph)
        sqlo = 0 if xl <= 0 <= xh else min(xl * xl, xh * xh)
        assert _encloses(s, xl + yl, xh + yh, j)
        assert _encloses(d, xl - yh, xh - yl, j)
        assert _encloses(m, min(prods), max(prods), j)
        assert _encloses(q, min(quots), max(quots), j)
        assert _encloses(sq, sqlo, max(xl * xl, xh * xh), j)
        # sqrt and x^(-3/2) compared exactly by squaring
        rl, rh = fr(rt, j)
        assert (rl <= 0 or rl * rl <= pl) and rh >= 0 and rh * rh >= ph
        wl, wh = fr(pw, j)
        assert (wl <= 0 or wl * wl * ph**3 <= 1) and wh * wh * pl**3 >= 1


def test_pentagon_constants_contain_the_exact_values():
    pc = pentagon_constants()
    for name, exact in BK.constants.items():
        assert _encloses(getattr(pc, name), exact.lo, exact.hi), name
    for k in range(5):
        assert _encloses(pc.cos[k], BK.cos[k].lo, BK.cos[k].hi), f"cos {k}"
        assert _encloses(pc.sin[k], BK.sin[k].lo, BK.sin[k].hi), f"sin {k}"


def _exact_bound(check, box, form):
    """The oracle's lower bound of the leaf's certified form."""
    radii = kernel.derived_radii(BK, Q(box[0], box[1]), Q(box[2], box[3]))
    n_lo, n_hi = (kernel.lambda_num(BK, radii, *idx, {}) for idx in (check.low, check.high))
    q_lo, q_hi = (kernel.lambda_den(BK, radii, *idx) for idx in (check.low, check.high))
    if form == "q":
        return (n_hi / q_hi - n_lo / q_lo).lo
    expr = n_hi * q_lo - n_lo * q_hi
    return expr.lo if kernel.Q_SIGN[check.low] * kernel.Q_SIGN[check.high] > 0 else -expr.hi


@pytest.mark.parametrize("rid", REGION_IDS)
def test_tightest_leaf_bound_holds_in_exact_arithmetic(rid):
    trunc = TRUNCATION_R5 if region_def(rid).unbounded else None
    cert = certify_inequality(rid, max_box_width=0.1, truncation=trunc)
    j = int(np.argmin(cert.bounds))
    box = tuple(float(a[j]) for a in (cert.lo3, cert.hi3, cert.lo5, cert.hi5))
    plan = region_plan(rid)
    *_, pair = _batch_bounds(plan, *(np.array([e]) for e in box))
    exact = _exact_bound(plan.pairs[pair[0]], box, cert.forms[j])
    assert exact > 0
    assert exact >= Fraction(float(cert.bounds[j]))


def test_krawczyk_image_holds_in_exact_arithmetic():
    # K = m - Y F(m) + (I - Y J)(X - m), with the stored float Y and J taken
    # as exact data and F(m) from the oracle; the certified image must
    # enclose the exact one, and the certified F(m) the oracle's
    ev = _contraction_evidence(INNER_DELTA, 8)
    fm = kernel.local_gaps(BK, Q(1), Q(1))
    for (lo, hi), f in zip(ev["f_center"], fm):
        assert Fraction(lo) <= f.lo and f.hi <= Fraction(hi)
    J = [[Q(*e) for e in row] for row in ev["jacobian"]]
    Y = ev["y_matrix"]
    dx = Q(1 - INNER_DELTA, 1 + INNER_DELTA) - 1
    for r, (lo, hi) in enumerate(ev["k_image"]):
        R = [(1 if r == c else 0) - (Y[r][0] * J[0][c] + Y[r][1] * J[1][c]) for c in range(2)]
        k = 1 - (Y[r][0] * fm[0] + Y[r][1] * fm[1]) + R[0] * dx + R[1] * dx
        assert Fraction(lo) <= k.lo and k.hi <= Fraction(hi)
