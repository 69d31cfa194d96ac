import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from starcc import kernel
from starcc.kernel import in_domain
from starcc.forces import lambda_component, residual_vector
from starcc.geometry import A, B
from starcc.intervals import (
    _outward,
    _rounded,
    _sign,
    Box2,
    DivisionByZeroInterval,
    Dual,
    DualBackend,
    NegativeArgument,
    VectorBackend,
    VInterval,
    dual_vars,
    pentagon_constants,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small = st.floats(min_value=0.0, max_value=1.0)


def make_interval(center, pad):
    return VInterval(center - pad, center + pad)


@given(finite, small, finite, small)
def test_add_sub_containment(a, pa, b, pb):
    x, y = make_interval(a, pa), make_interval(b, pb)
    s = x + y
    d = x - y
    assert s.lo <= a + b <= s.hi
    assert d.lo <= a - b <= d.hi


@given(finite, small, finite, small)
def test_mul_containment(a, pa, b, pb):
    x, y = make_interval(a, pa), make_interval(b, pb)
    p = x * y
    assert p.lo <= a * b <= p.hi


@given(finite, small, finite, small)
def test_div_containment(a, pa, b, pb):
    x, y = make_interval(a, pa), make_interval(b, pb)
    if y.lo <= 0.0 <= y.hi:
        with pytest.raises(DivisionByZeroInterval):
            x / y
        return
    q = x / y
    assert q.lo <= a / b <= q.hi


@given(finite, small)
def test_sq_containment_and_nonnegative(a, pa):
    x = make_interval(a, pa)
    s = x.sq()
    assert s.lo <= a * a <= s.hi
    assert s.lo >= 0.0


@given(st.floats(min_value=1e-8, max_value=1e6), small)
def test_sqrt_and_powneg32_containment(a, pa):
    x = make_interval(a, min(pa, a / 2.0))
    r = x.sqrt()
    assert r.lo <= math.sqrt(a) <= r.hi
    w = x.powneg32()
    assert w.lo <= a**-1.5 <= w.hi


def test_sqrt_negative_raises():
    with pytest.raises(NegativeArgument):
        VInterval(-2.0, -1.0).sqrt()


@given(finite, small, small)
def test_inclusion_monotonicity(a, pa, extra):
    inner = make_interval(a, pa)
    outer = make_interval(a, pa + extra)
    for f in (lambda t: t.sq(), lambda t: t + 1.5, lambda t: t * VInterval(-2.0, -2.0)):
        fi, fo = f(inner), f(outer)
        assert fo.lo <= fi.lo and fi.hi <= fo.hi


def test_pentagon_constants_enclose_true_values():
    c = pentagon_constants()
    assert c.a.lo <= A <= c.a.hi
    assert c.b.lo <= B <= c.b.hi
    for k in range(5):
        t = 2.0 * math.pi * k / 5.0
        assert c.cos[k].lo <= math.cos(t) <= c.cos[k].hi
        assert c.sin[k].lo <= math.sin(t) <= c.sin[k].hi
        assert c.cos[k].hi - c.cos[k].lo < 1e-15
        assert c.sin[k].hi - c.sin[k].lo < 1e-15


POINTS = [(1.0, 1.0), (1.17, 0.93), (0.4, 0.3), (1.5, 2.5), (0.3, 1.2),
          (2.0, 5.0), (1.2, 1.05)]


@pytest.mark.parametrize("r3,r5", POINTS)
def test_thin_box_lambda_agreement(r3, r5):
    # On a degenerate box the enclosure midpoint must agree with the float
    # route to 1e-14 relative; the outward-rounding envelope itself stays
    # within ~tens of ulps (1e-13 relative) of zero width.
    bk, box = VectorBackend(), Box2.point(r3, r5)
    for idx in kernel.LAMBDA_INDICES:
        enc = kernel.lambda_quot(bk, *box, *idx)
        val = lambda_component(idx, (r3, r5))
        scale = max(1.0, abs(val))
        assert enc.lo <= val <= enc.hi
        assert abs(0.5 * (enc.lo + enc.hi) - val) <= 1e-14 * scale
        assert enc.hi - enc.lo <= 1e-13 * scale
    y = kernel.y1_num(bk, *box)
    yv = residual_vector((r3, r5)).y1
    assert y.lo <= yv <= y.hi
    assert y.hi - y.lo <= 1e-13 * max(1.0, abs(yv))
    # the local system F: the float value lies in the vector enclosure, and
    # the jet's value part is that enclosure bit for bit
    fval = kernel.local_gaps(kernel.FloatBackend, r3, r5)
    fenc = kernel.local_gaps(bk, *box)
    fjet = kernel.local_gaps(DualBackend(), *dual_vars(box))
    for val, enc, jet in zip(fval, fenc, fjet):
        assert enc.lo <= val <= enc.hi
        assert (jet.v.lo, jet.v.hi) == (enc.lo, enc.hi)


@pytest.mark.parametrize("r3,r5", POINTS)
def test_fat_box_contains_interior_samples(r3, r5):
    box = Box2.from_bounds(r3 - 0.01, r3 + 0.01, r5 - 0.01, r5 + 0.01)
    for idx in ((1, 1), (3, 1), (5, 2)):
        enc = kernel.lambda_quot(VectorBackend(), *box, *idx)
        for dx, dy in ((0.0, 0.0), (-0.009, 0.004), (0.01, -0.01)):
            val = lambda_component(idx, (r3 + dx, r5 + dy))
            assert enc.lo <= val <= enc.hi


def test_vinterval_division_straddle_raises():
    x = VInterval(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    y = VInterval(np.array([-1.0, 0.5]), np.array([1.0, 1.5]))
    with pytest.raises(DivisionByZeroInterval):
        x / y


def test_gap_interval_signs():
    # deep inside J4 the planned gap lambda_52 - lambda_11 is large positive
    bk, box = VectorBackend(), Box2.from_bounds(0.7, 0.72, 0.15, 0.17)
    l11, l52 = (kernel.lambda_quot(bk, *box, *idx) for idx in ((1, 1), (5, 2)))
    g = l52 - l11
    assert g.lo > 0.0
    # and the reversed orientation is negative
    rg = l11 - l52
    assert rg.hi < 0.0


def test_dual_jets_carry_correct_derivatives():
    box = Box2.point(1.1, 0.95)
    v3, v5 = dual_vars(box)
    f = (v3 * v3 + v5).sq()
    # f = (r3^2 + r5)^2, df/dr3 = 4 r3 (r3^2 + r5), df/dr5 = 2 (r3^2 + r5)
    base = (1.1**2 + 0.95)
    assert f.v.lo <= base**2 <= f.v.hi
    assert f.d3.lo <= 4.0 * 1.1 * base <= f.d3.hi
    assert f.d5.lo <= 2.0 * base <= f.d5.hi
    assert f.d3.hi - f.d3.lo < 1e-12


def test_dual_lambda_derivative_matches_finite_difference():
    h = 1e-6
    box = Box2.point(1.05, 0.97)
    v3, v5 = dual_vars(box)
    lam = kernel.lambda_quot(DualBackend(), v3, v5, 1, 1)
    fd3 = (lambda_component((1, 1), (1.05 + h, 0.97))
           - lambda_component((1, 1), (1.05 - h, 0.97))) / (2.0 * h)
    fd5 = (lambda_component((1, 1), (1.05, 0.97 + h))
           - lambda_component((1, 1), (1.05, 0.97 - h))) / (2.0 * h)
    assert lam.d3.lo - 1e-4 <= fd3 <= lam.d3.hi + 1e-4
    assert lam.d5.lo - 1e-4 <= fd5 <= lam.d5.hi + 1e-4


@pytest.mark.parametrize(
    "edges",
    [(2.0, 1.0, 0.5, 0.6), (0.5, 0.6, math.nan, 0.7), ([0.1, 0.3], [0.2, 0.2], 0.5, 0.6)],
    ids=["inverted", "nan", "inverted-lane"],
)
def test_box_from_bounds_rejects_inverted_or_nan_edges(edges):
    with pytest.raises(ValueError):
        Box2.from_bounds(*edges)


def test_lambda_with_a_straddling_denominator_raises():
    # q31 = r3 cos 144 is zero on the r3 = 0 edge of this box
    with pytest.raises(DivisionByZeroInterval):
        kernel.lambda_quot(VectorBackend(), *Box2.from_bounds(0.0, 0.1, 0.5, 0.6), 3, 1)



# ---------------------------------------------------------------------------
# The outward step: bit for bit np.nextafter, and no operand is written


_DBL_MAX = np.finfo(np.float64).max
_DBL_MIN = np.finfo(np.float64).tiny
SPECIALS = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, _DBL_MIN, -_DBL_MIN,
    np.nextafter(_DBL_MIN, 0.0), -np.nextafter(_DBL_MIN, 0.0),
    1.0, -1.0, _DBL_MAX, -_DBL_MAX, math.inf, -math.inf, math.nan, -math.nan,
])


def _assert_steps_like_nextafter(x):
    x = np.asarray(x, dtype=np.float64)
    for toward in (-math.inf, math.inf):
        arg = x.copy() if x.ndim else x[()]  # a fresh lane, or a 0-d value
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.nextafter(x, toward)
            got = _outward(arg, toward)
        assert np.shape(got) == x.shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (x, toward)


@pytest.mark.parametrize("value", SPECIALS,
                         ids=[f"{v:#018x}" for v in SPECIALS.view(np.uint64)])
def test_outward_step_equals_nextafter_on_special_values(value):
    _assert_steps_like_nextafter(value)  # 0-d
    _assert_steps_like_nextafter([value])  # 1 element
    # odd length, also with the special value among finite lanes
    _assert_steps_like_nextafter([1.5, value, -0.0, value, 3.0, -7.25, 0.0])


def test_outward_step_equals_nextafter_on_random_bit_patterns():
    rng = np.random.default_rng(20260214)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        size=1_000_003, dtype=np.int64, endpoint=True)
    x = bits.view(np.float64)
    finite = x[np.isfinite(x)]  # the in-place route
    assert finite.size > 10**6 - 10**3
    _assert_steps_like_nextafter(finite)
    _assert_steps_like_nextafter(x)  # NaNs included: the np.nextafter route
    _assert_steps_like_nextafter(np.concatenate([finite[:999], SPECIALS]))
    _assert_steps_like_nextafter(np.empty(0))


def _lanes(*pairs):
    lo, hi = np.array(pairs, dtype=np.float64).T
    return VInterval(lo, hi)


def test_powneg32_equals_the_generic_chain_bit_for_bit():
    rng = np.random.default_rng(7)
    lo = np.exp(rng.uniform(-40.0, 40.0, 4001))
    x = VInterval(lo, lo * (1.0 + rng.uniform(0.0, 1.0, lo.size)))
    for arg in (x, VInterval(x.lo[5], x.hi[5])):
        got = arg.powneg32()
        want = 1.0 / (arg * arg.sqrt())
        assert got.lo.tobytes() == want.lo.tobytes()
        assert got.hi.tobytes() == want.hi.tobytes()
    with pytest.raises(NegativeArgument):
        _lanes((1.0, 2.0), (0.0, 1.0)).powneg32()
    with pytest.raises(DivisionByZeroInterval):  # x sqrt(x) underflows to 0
        VInterval(5e-324, 1.0).powneg32()


def test_no_operation_writes_to_its_operands():
    pc = pentagon_constants()
    x = _lanes((0.5, 0.75), (1.0, 1.0), (2.0, 3.5), (-0.0, 0.25), (0.125, 8.0))
    y = _lanes((-2.0, -1.0), (0.5, 0.5), (1.0, 4.0), (3.0, 3.0), (-0.5, -0.25))
    k = pc.cos[1]  # read-only 0-d constants
    lane_k = VInterval(np.broadcast_to(pc.sin[4].lo, (5,)),
                       np.broadcast_to(pc.sin[4].hi, (5,)))  # read-only view
    pos = VInterval(np.abs(x.hi) + 0.5, np.abs(x.hi) + 1.0)
    ops = [
        lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
        lambda: x + k, lambda: k - x, lambda: k * x, lambda: x / k,
        lambda: x * lane_k, lambda: lane_k - y, lambda: lane_k / pos,
        lambda: k * pc.sin[2], lambda: pc.a + pc.b, lambda: 1.0 / pc.sqrt5,
        lambda: 2.0 - x, lambda: -x, lambda: x.sq(), lambda: y.sq(),
        lambda: k.sq(), lambda: pos.sqrt(), lambda: pos.powneg32(),
        lambda: pc.half_a.powneg32(), lambda: pc.sqrt5.sqrt(),
    ]
    operands = [x, y, k, lane_k, pos] + [
        pc.sqrt5, pc.a, pc.b, pc.half_a, pc.half_b, *pc.cos, *pc.sin]
    before = [(iv.lo.tobytes(), iv.hi.tobytes()) for iv in operands]
    for op in ops:
        r = op()
        # a result never aliases an operand, so later in-place steps on
        # it cannot reach one either
        for iv in operands:
            for a in (r.lo, r.hi):
                assert not np.shares_memory(a, iv.lo)
                assert not np.shares_memory(a, iv.hi)
    assert [(iv.lo.tobytes(), iv.hi.tobytes()) for iv in operands] == before


# ---------------------------------------------------------------------------
# Sign-uniform fast routes: lanes of one sign take a shorter route that
# must give the bits of the general one


_POWERS_OF_TWO = [2.0**e for e in (-1074, -1073, -1023, -1022, -1021, -1, 0, 1, 52, 1023)]
ONE_SIGN = np.array([
    5e-324, 1e-323, _DBL_MIN, np.nextafter(_DBL_MIN, 0.0), np.nextafter(_DBL_MIN, 1.0),
    _DBL_MAX, np.nextafter(_DBL_MAX, 0.0), 1.0, np.nextafter(1.0, 0.0), 0.1, 3.0,
    *_POWERS_OF_TWO,
])


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_outward_step_on_lanes_of_one_sign(sign):
    x = sign * ONE_SIGN
    _assert_steps_like_nextafter(x)
    _assert_steps_like_nextafter(x.reshape(3, -1))
    for value in x:
        _assert_steps_like_nextafter([value])
        _assert_steps_like_nextafter([value, sign * 2.0])


def test_outward_step_at_the_ends_of_the_range():
    def step(values, toward):
        return _outward(np.array(values), toward)

    down = step([5e-324, 1.0], -math.inf)
    assert down.tobytes() == np.array([0.0, np.nextafter(1.0, 0.0)]).tobytes()  # +0
    up = step([-5e-324, -1.0], math.inf)
    assert up.tobytes() == np.array([-0.0, np.nextafter(-1.0, 0.0)]).tobytes()  # -0
    assert step([_DBL_MAX, 1.0], math.inf)[0] == math.inf
    assert step([-_DBL_MAX, -1.0], -math.inf)[0] == -math.inf
    assert step([_DBL_MIN, 1.0], -math.inf)[0] == np.nextafter(_DBL_MIN, 0.0)
    assert step([-np.nextafter(_DBL_MIN, 0.0), -1.0], -math.inf)[0] == -_DBL_MIN


def _mul_reference(x, y):
    """The four-corner product, rounded outward with np.nextafter."""
    c = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    lo = np.minimum(np.minimum(c[0], c[1]), np.minimum(c[2], c[3]))
    hi = np.maximum(np.maximum(c[0], c[1]), np.maximum(c[2], c[3]))
    return np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)


def _div_reference(x, y):
    """The four-corner quotient, rounded outward with np.nextafter."""
    c = (x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi)
    lo = np.minimum(np.minimum(c[0], c[1]), np.minimum(c[2], c[3]))
    hi = np.maximum(np.maximum(c[0], c[1]), np.maximum(c[2], c[3]))
    return np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)


def _sq_reference(x):
    """The abs/min/max square, rounded outward with np.nextafter."""
    a, b = np.abs(x.lo), np.abs(x.hi)
    m, M = np.minimum(a, b), np.maximum(a, b)
    straddle = (x.lo <= 0.0) & (x.hi >= 0.0)
    lo = np.where(straddle, 0.0, np.maximum(0.0, np.nextafter(m * m, -math.inf)))
    return lo, np.nextafter(M * M, math.inf)


# endpoint magnitudes: zeros, subnormals, the normal range's ends, overflow
_MAGNITUDES = np.array([0.0, 5e-324, 3e-320, _DBL_MIN, 1e-200, 0.3, 1.0, 2.5, 1e150, 1e300, _DBL_MAX])


def _lane_kinds(rng, n=61, magnitudes=_MAGNITUDES):
    """Seeded interval lanes by kind: the first two are of one sign with
    finite ends (the fast routes), the others take the general route."""
    def one_sign(sign):
        ends = np.sort(rng.choice(magnitudes, size=(n, 2)), axis=1)
        lo, hi = (ends[:, 0], ends[:, 1]) if sign > 0 else (-ends[:, 1], -ends[:, 0])
        # a zero end gets a random sign
        lo = np.where(lo == 0.0, np.copysign(0.0, rng.choice([-1.0, 1.0], n)), lo)
        hi = np.where(hi == 0.0, np.copysign(0.0, rng.choice([-1.0, 1.0], n)), hi)
        return VInterval(lo, hi)

    pos, neg = one_sign(1.0), one_sign(-1.0)
    nan = VInterval(pos.lo.copy(), pos.hi.copy())
    nan.lo[::7] = nan.hi[::7] = np.nan  # as _MaskedBackend leaves a lane
    inf = VInterval(pos.lo, pos.hi.copy())
    inf.hi[::5] = math.inf
    mixed = VInterval(neg.lo, pos.hi)
    return {"pos": pos, "neg": neg, "nan": nan, "inf": inf, "mixed": mixed}


def _variants(iv):
    """The lanes, the same as a 2-d array, and one lane as a 0-d value."""
    return [iv, VInterval(iv.lo[:60].reshape(6, 10), iv.hi[:60].reshape(6, 10)),
            VInterval(iv.lo[3], iv.hi[3])]


def _assert_same_bits(got, want):
    assert np.asarray(got.lo).tobytes() == np.asarray(want[0]).tobytes()
    assert np.asarray(got.hi).tobytes() == np.asarray(want[1]).tobytes()


def test_mul_fast_route_equals_the_four_corner_product():
    kinds = _lane_kinds(np.random.default_rng(24))
    assert _sign(kinds["pos"]) == 1 and _sign(kinds["neg"]) == -1
    assert all(_sign(kinds[k]) == 0 for k in ("nan", "inf", "mixed"))
    for a in kinds.values():
        for b in kinds.values():
            # lanes by lanes, 2-d by 2-d, 0-d by 0-d, and 0-d by lanes
            pairs = list(zip(_variants(a), _variants(b)))
            pairs.append((_variants(a)[2], b))
            for x, y in pairs:
                with np.errstate(over="ignore", invalid="ignore"):
                    got = x * y
                    want = _mul_reference(x, y)
                _assert_same_bits(got, want)


def test_mul_with_an_infinite_end_keeps_the_nan_of_inf_times_zero():
    # [1, inf] is of one sign but not finite: the two-corner route would
    # give [-5e-324, inf] where the four corners hold inf * 0 = NaN
    x, y = VInterval(1.0, math.inf), VInterval(0.0, 1.0)
    for p, q in ((x, y), (y, x), (_lanes((1.0, math.inf), (2.0, 3.0)), y)):
        with np.errstate(invalid="ignore"):
            r = p * q
            want = _mul_reference(p, q)
        assert np.isnan(r.hi).flat[0]
        _assert_same_bits(r, want)


def test_div_fast_route_equals_the_four_corner_quotient():
    kinds = _lane_kinds(np.random.default_rng(30))
    # divisors keep clear of 0, so that no lane straddles it
    divisors = _lane_kinds(np.random.default_rng(31), magnitudes=_MAGNITUDES[1:])
    del divisors["mixed"]
    assert _sign(divisors["pos"]) == 1 and _sign(divisors["neg"]) == -1
    # +0.0 and -0.0 ends reach both routes, and the quotients of the
    # extreme magnitudes overflow to inf and underflow to 0
    assert {np.copysign(1.0, v) for v in kinds["pos"].lo[kinds["pos"].lo == 0.0]} == {-1.0, 1.0}
    for a in kinds.values():
        for b in divisors.values():
            pairs = list(zip(_variants(a), _variants(b)))
            pairs.append((_variants(a)[2], b))
            for x, y in pairs:
                with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                    got = x / y
                    want = _div_reference(x, y)
                _assert_same_bits(got, want)
    with np.errstate(over="ignore", under="ignore"):
        big = _lanes((_DBL_MAX, _DBL_MAX)) / _lanes((0.5, 0.5))
        tiny = _lanes((5e-324, 5e-324)) / _lanes((2.0, 4.0))
    assert big.lo[0] == _DBL_MAX and big.hi[0] == math.inf
    assert tiny.lo[0] == -5e-324 and tiny.hi[0] == 5e-324


def test_sq_fast_route_equals_the_abs_min_max_square():
    kinds = _lane_kinds(np.random.default_rng(2024))
    for iv in kinds.values():
        for x in _variants(iv):
            with np.errstate(over="ignore", invalid="ignore"):
                got = x.sq()
                want = _sq_reference(x)
            _assert_same_bits(got, want)
    # lanes that touch 0 from either side square to a lower end of exactly 0
    for x in (_lanes((-0.0, 2.0), (0.0, 1.0)), _lanes((-3.0, -0.0), (-1.0, 0.0))):
        _assert_same_bits(x.sq(), _sq_reference(x))
        assert np.all(x.sq().lo == 0.0)


# ---------------------------------------------------------------------------
# One rounding decision per result: _rounded steps both ends of a fresh
# result like np.nextafter and carries the sign _sign computes from lanes


def _assert_rounds_like_nextafter(lo, hi):
    lo, hi = (np.asarray(a, dtype=np.float64) for a in (lo, hi))
    fresh = (lo.copy(), hi.copy()) if lo.ndim else (lo[()], hi[()])
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
        got = _rounded(*fresh)
    assert got.lo.shape == lo.shape and got.hi.shape == hi.shape
    _assert_same_bits(got, want)
    if got.sign is not None:
        # the carried sign is the one _sign reads from the lanes
        assert got.sign == _sign(VInterval(got.lo, got.hi)), (lo, hi)
    return got


def _ordered(x, y):
    """Lanes [min, max] of x and y, NaN where either is."""
    return np.minimum(x, y), np.maximum(x, y)


@pytest.mark.parametrize("value", SPECIALS,
                         ids=[f"{v:#018x}" for v in SPECIALS.view(np.uint64)])
def test_rounded_steps_each_end_like_nextafter_on_special_values(value):
    _assert_rounds_like_nextafter(value, value)  # 0-d
    _assert_rounds_like_nextafter([value], [value])
    lanes = np.array([1.5, value, -0.0, value, 3.0, -7.25, 0.0])
    _assert_rounds_like_nextafter(lanes, lanes)
    _assert_rounds_like_nextafter(*_ordered(lanes, lanes[::-1]))


def test_rounded_steps_each_end_like_nextafter_on_random_bit_patterns():
    rng = np.random.default_rng(20261019)
    x, y = (rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=200_003,
                         dtype=np.int64, endpoint=True).view(np.float64) for _ in range(2))
    keep = np.isfinite(x) & np.isfinite(y)
    _assert_rounds_like_nextafter(*_ordered(x[keep], y[keep]))  # mixed signs
    _assert_rounds_like_nextafter(*_ordered(x, y))  # NaN lanes
    for sign in (1.0, -1.0):  # one sign, also subnormal and DBL_MAX ends
        a, b = sign * np.abs(x[keep]), sign * np.abs(y[keep])
        _assert_rounds_like_nextafter(*_ordered(a, b))
        _assert_rounds_like_nextafter(*_ordered(a[a != 0.0], b[a != 0.0]))
        one = sign * ONE_SIGN
        _assert_rounds_like_nextafter(*_ordered(one, one[::-1]))
        _assert_rounds_like_nextafter(*_ordered(one.reshape(3, -1), one[::-1].reshape(3, -1)))
    _assert_rounds_like_nextafter(np.empty(0), np.empty(0))
    _assert_rounds_like_nextafter(np.empty((0, 3)), np.empty((0, 3)))


def test_rounded_carries_a_sign_only_where_no_end_can_leave_it():
    up = _assert_rounds_like_nextafter([0.5, 1.0], [2.0, _DBL_MAX])
    assert up.hi[1] == math.inf and up.sign is None  # DBL_MAX steps to inf
    down = _assert_rounds_like_nextafter([5e-324, 1.0], [2.0, 3.0])
    assert down.lo.tobytes()[:8] == np.float64(0.0).tobytes()  # +0, not -0
    assert down.sign == 1
    low = _assert_rounds_like_nextafter([-_DBL_MAX, -1.0], [-2.0, -0.5])
    assert low.lo[0] == -math.inf and low.sign is None
    high = _assert_rounds_like_nextafter([-3.0, -1.0], [-2.0, -5e-324])
    assert high.hi.tobytes()[8:] == np.float64(-0.0).tobytes()  # -0
    assert high.sign == -1
    for lo, hi in (([0.0, 1.0], [1.0, 2.0]), ([-1.0, 1.0], [1.0, 2.0]),
                   ([1.0, 1.0], [math.inf, 2.0]), ([1.0, math.nan], [2.0, math.nan]),
                   (1.0, 2.0)):
        assert _assert_rounds_like_nextafter(lo, hi).sign is None


def test_every_result_carries_the_sign_of_its_lanes():
    rng = np.random.default_rng(26)
    kinds = _lane_kinds(rng)
    ends = np.sort(10.0 ** rng.uniform(-100.0, 100.0, (61, 2)), axis=1)
    kinds["strict"] = VInterval(ends[:, 0], ends[:, 1])
    kinds["-strict"] = -kinds["strict"]
    kinds["tiny"] = VInterval(np.where(ends[:, 0] < 1.0, 5e-324, ends[:, 0]), ends[:, 1])
    pos = VInterval(np.abs(kinds["pos"].hi) + 0.5, np.abs(kinds["pos"].hi) + 1.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        results = [pos.powneg32()]
        for a in kinds.values():
            results += [a.sq(), -a.sq(), a / pos]
            if np.all(~(a.lo < 0.0)):  # NaN lanes pass, as in the kernel
                results.append(a._sqrt())
            for b in kinds.values():
                results += [a + b, a - b, a * b, -(a * b)]
    known = [r for r in results if r.sign is not None]
    assert len(known) >= 20
    for r in known:
        assert r.sign == _sign(VInterval(r.lo, r.hi))
