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
