import math

import numpy as np
import pytest

from starcc.forces import (
    HESSIAN_CLOSED_FORM,
    HESSIAN_CLOSED_FORM_DET,
    LAMBDA_STAR,
    NearZeroDenominator,
    config_measure,
    hessian_measure,
    lambda_component,
    moment_I,
    potential_U,
    residual_vector,
)
from starcc.geometry import B, DomainError

B_HALF = B / 2.0


def test_pentagon_potential_and_moment():
    side = 2.0 * math.sin(math.pi / 5.0)
    diag = 2.0 * math.sin(2.0 * math.pi / 5.0)
    assert potential_U((1.0, 1.0)) == pytest.approx(5.0 / side + 5.0 / diag, rel=1e-15)
    assert moment_I((1.0, 1.0)) == 2.5
    assert config_measure((1.0, 1.0)) == pytest.approx(59.20084971874736, rel=1e-14)


def test_pentagon_is_an_exact_solution():
    res = residual_vector((1.0, 1.0))
    assert res.pairwise_spread <= 1e-12
    assert abs(res.y1) <= 1e-13
    assert res.is_solution()
    for value in res.lambda_values.values():
        assert value == pytest.approx(LAMBDA_STAR, rel=1e-14)


def test_lambda_star_is_potential_over_twice_moment():
    p = (1.0, 1.0)
    assert LAMBDA_STAR == pytest.approx(potential_U(p) / (2.0 * moment_I(p)),
                                        rel=1e-15)


# The nine published spot values; b = sqrt(5) - 1.  Each is quoted to the
# printed precision and must reproduce to 1e-4 relative.
SPOT_VALUES = (
    ((3, 1), (B / 2.02, 1.0), 1.37246),
    ((4, 1), (B / 2.02, B_HALF), 1.30144),
    ((3, 1), (B / 2.02, 0.12874), 9.02703),
    ((3, 1), (B / 2.02, B_HALF), 2.70691),
    ((3, 1), (B_HALF, B_HALF), 2.70464),
    ((1, 1), (B, 1.0), 1.84995),
    ((5, 2), (1.0, B_HALF), 4.4042),
    # r5 = b/(2 + z) at the distinguished zeta value z = 4(b-1)/(2-b)
    ((5, 2), (B_HALF, B / (2.0 + 4.0 * (B - 1.0) / (2.0 - B))), 5.76142),
    ((4, 1), (2.0 / B, 1.0 + B), 0.360157),
)


@pytest.mark.parametrize("idx,point,expected", SPOT_VALUES)
def test_published_lambda_spot_values(idx, point, expected):
    assert lambda_component(idx, point) == pytest.approx(expected, rel=1e-4)


def test_lambda_spot_values_share_no_common_scale_error():
    # Guard against a silent mass/normalization slip: the mean multiplicative
    # deviation across all nine spot values must be ~1, not some common factor.
    ratios = [lambda_component(i, p) / e for i, p, e in SPOT_VALUES]
    assert abs(np.mean(ratios) - 1.0) < 1e-4


def test_asymmetric_point_regression():
    res = residual_vector((1.17, 0.93))
    assert res.lambda_values[(1, 1)] == pytest.approx(1.9129492173729385, rel=1e-14)
    assert res.lambda_values[(5, 2)] == pytest.approx(2.07018691167013, rel=1e-14)
    assert res.y1 == pytest.approx(0.03833568330204806, rel=1e-13)
    assert res.pairwise_spread == pytest.approx(1.2561165880852077, rel=1e-13)


# float.hex() of every float route at (1.17, 0.93) and of the Hessian at
# (1, 1): a change in the order of a sum or of a closure step shows here
# before it moves a CLI output
PINNED_AT_117_093 = {
    "potential_U": "0x1.f34a91a016552p+2",
    "moment_I": "0x1.025c434ae8b14p+1",
    "config_measure": "0x1.eb632b1b91958p+5",
    "y1": "0x1.3a0bc141aae20p-5",
    "spread": "0x1.4190db51ca008p+0",
}
PINNED_LAMBDA_AT_117_093 = {
    (1, 1): "0x1.e9b70a37868b8p+0",
    (2, 1): "0x1.becfa2b01ead6p+0",
    (2, 2): "0x1.505b4d00aa479p+1",
    (3, 1): "0x1.7e9d7149dfadcp+0",
    (3, 2): "0x1.8705da3d46758p+0",
    (4, 1): "0x1.6017264dd4d72p+1",
    (4, 2): "0x1.057a322c6c524p+1",
    (5, 1): "0x1.184bf4ad1a35ep+1",
    (5, 2): "0x1.08fbe27d1d7f6p+1",
}
PINNED_HESSIAN_AT_PENTAGON = (
    "0x1.0e582d86969abp+6", "-0x1.0e582c8846700p+5",
    "-0x1.0e582c8846700p+5", "0x1.9d0cbbfd85f55p+4",
)


def test_float_routes_are_pinned_bit_for_bit():
    p = (1.17, 0.93)
    res = residual_vector(p)
    got = {
        "potential_U": potential_U(p),
        "moment_I": moment_I(p),
        "config_measure": config_measure(p),
        "y1": res.y1,
        "spread": res.pairwise_spread,
    }
    assert {k: v.hex() for k, v in got.items()} == PINNED_AT_117_093
    assert {k: v.hex() for k, v in res.lambda_values.items()} == PINNED_LAMBDA_AT_117_093
    assert {idx: lambda_component(idx, p).hex()
            for idx in res.lambda_values} == PINNED_LAMBDA_AT_117_093
    h = hessian_measure((1, 1))
    assert tuple(float(x).hex() for x in h.ravel()) == PINNED_HESSIAN_AT_PENTAGON


def test_hessian_matches_closed_forms():
    h = hessian_measure((1.0, 1.0))
    det = float(np.linalg.det(h))
    assert h[0, 0] == pytest.approx(HESSIAN_CLOSED_FORM[0][0], rel=1e-5)
    assert h[0, 1] == pytest.approx(HESSIAN_CLOSED_FORM[0][1], rel=1e-5)
    assert h[1, 1] == pytest.approx(HESSIAN_CLOSED_FORM[1][1], rel=1e-5)
    assert det == pytest.approx(HESSIAN_CLOSED_FORM_DET, rel=1e-5)
    # leading minors positive: (1,1) is a strict local minimum
    assert h[0, 0] > 0.0 and det > 0.0


def test_hessian_closed_form_values():
    s5 = math.sqrt(5.0)
    assert HESSIAN_CLOSED_FORM[0][0] == 1.25 * (25.0 + 13.0 * s5)
    assert HESSIAN_CLOSED_FORM[0][1] == -0.625 * (25.0 + 13.0 * s5)
    assert HESSIAN_CLOSED_FORM[1][1] == 1.25 * (5.0 + 7.0 * s5)
    assert HESSIAN_CLOSED_FORM_DET == pytest.approx(602.805106650365, rel=1e-14)


def test_hessian_step_guard():
    with pytest.raises(ValueError):
        hessian_measure((1.0, 1.0), h=1e-7)
    with pytest.raises(ValueError):
        hessian_measure((1.0, 1.0), h=0.5)


def test_outside_domain_propagates():
    with pytest.raises(DomainError):
        residual_vector((3.0, 0.1))
    with pytest.raises(DomainError):
        config_measure((3.0, 0.1))
    with pytest.raises(DomainError):
        lambda_component((1, 1), (1.0, -0.1))


def test_near_zero_denominator_is_reported():
    # q_31 -> 0 as r3 -> 0: evaluating lambda_31 on the r3 = 0 edge is
    # meaningless and must raise rather than return garbage.
    with pytest.raises((NearZeroDenominator, DomainError)):
        lambda_component((3, 1), (1e-13, 0.5))
