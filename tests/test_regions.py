import numpy as np
import pytest

from starcc.geometry import A, B
from starcc.regions import (
    CORNER_ZONE_SIDE,
    DELTA_B0,
    J16_BREAKPOINTS,
    REGION_IDS,
    TRUNCATION_R5,
    TruncationRequired,
    cover_arrays,
    partition_audit,
    region_def,
    region_excises_b0,
    region_plan,
)

# One interior probe per region (all verified single-membership).
PROBES = {
    "J1": (0.3, 0.3),
    "J2": (0.3, 0.8),
    "J3": (0.8, 0.5),
    "J4": (0.7, 0.15),
    "J5": (1.05, 0.5),
    "J6": (1.3, 0.8),
    "J7": (0.8, 0.8),
    "J8": (1.1, 0.8),
    "J9": (0.5, 1.5),
    "J10": (1.5, 3.0),
    "J11": (2.0, 2.9),
    "J12": (1.45, 1.5),
    "J13": (1.1, 1.6),
    "J14": (1.3, 2.2),
    "J15": (2.2, 4.0),
    "J16": (1.1, 1.2),
}


def test_probe_points_belong_to_exactly_one_region():
    for rid, p in PROBES.items():
        owners = [q for q in REGION_IDS if region_def(q).contains(p)]
        assert owners == [rid], f"{p} -> {owners}, expected [{rid}]"


def test_pentagon_point_is_in_no_region():
    assert all(not region_def(rid).contains((1.0, 1.0)) for rid in REGION_IDS)


def test_every_region_has_a_plan():
    for rid in REGION_IDS:
        plan = region_plan(rid)
        assert plan.region == rid
        if plan.main is None:
            assert plan.bands  # J16 is covered by bands instead
        else:
            assert plan.main.describe()


def test_b0_excision_set():
    touching = {rid for rid in REGION_IDS if region_excises_b0(rid, DELTA_B0)}
    assert touching == {"J7", "J8", "J9", "J16"}


def test_unbounded_regions_require_truncation():
    for rid in ("J9", "J10", "J15"):
        assert region_def(rid).unbounded
        with pytest.raises(TruncationRequired):
            cover_arrays(rid, 0.1)


def test_cover_counts_are_stable():
    # Deterministic covers at width 0.05 (unbounded regions truncated at 10).
    expected = {"J1": 196, "J9": 3800, "J16": 71}
    total = 0
    for rid in REGION_IDS:
        tr = 10.0 if region_def(rid).unbounded else None
        lo3, hi3, lo5, hi5 = cover_arrays(rid, 0.05, truncation=tr)
        assert np.all(hi3 - lo3 <= 0.05 + 1e-12)
        assert np.all(hi5 - lo5 <= 0.05 + 1e-12)
        total += lo3.size
        if rid in expected:
            assert lo3.size == expected[rid]
    assert total == 17050


def test_cover_boxes_meet_their_region():
    # No cover box may be certainly outside the closed region.
    for rid in ("J3", "J6", "J12"):
        boxes = cover_arrays(rid, 0.1)
        assert boxes[0].size
        assert not np.any(region_def(rid).boxes_outside_closure(*boxes))


def test_cover_excises_b0_where_applicable():
    for rid in ("J7", "J16"):
        lo3, hi3, lo5, hi5 = cover_arrays(rid, 0.02)
        assert lo3.size
        inside_b0 = ((lo3 >= 1.0 - DELTA_B0) & (hi3 <= 1.0 + DELTA_B0)
                     & (lo5 >= 1.0 - DELTA_B0) & (hi5 <= 1.0 + DELTA_B0))
        assert not np.any(inside_b0)


def routed(plan, *box):
    """The check that plan.route gives one box."""
    checks, cid = plan.route(*(np.array([v]) for v in box))
    return checks[cid[0]]


def test_j16_band_routing():
    plan = region_plan("J16")
    b1, b2, b3 = J16_BREAKPOINTS
    # a point box inside each band gets that band's check
    assert routed(plan, 1.05, 1.05, 1.2, 1.2).describe() == "lambda_21 < lambda_41"
    assert routed(plan, 1.14, 1.14, 1.2, 1.2).describe() == "lambda_21 < lambda_11"
    assert routed(plan, 1.18, 1.18, 1.1, 1.1).describe() == "|y1| > 0"
    assert routed(plan, 1.25, 1.25, 1.1, 1.1).describe() == "lambda_31 < lambda_11"
    # cover cells snap to the breakpoints, so no cell straddles a band edge
    lo3, hi3, lo5, hi5 = cover_arrays("J16", 0.02)
    for left in (b1, b2, b3):
        assert not np.any((lo3 < left) & (hi3 > left))


def test_j1_corner_zone_routing():
    plan = region_plan("J1")
    z = CORNER_ZONE_SIDE
    inside = routed(plan, z / 4, z / 2, z / 4, z / 2)
    outside = routed(plan, 0.3, 0.32, 0.3, 0.32)
    assert inside.describe() == "lambda_41 < lambda_11"
    assert outside.describe() == "lambda_11 < lambda_31"


def test_region_bounds_use_golden_constants():
    # J11's left edge sits at 2/b (the corrected bound; b/2 would overlap J8).
    r11 = region_def("J11")
    assert r11.contains((2.0 / B + 0.01, 1.5))
    assert not region_def("J11").contains((2.0 / B - 0.01, 1.5))
    assert region_def("J12").contains((2.0 / B - 0.01, 1.5))


def test_partition_audit_small_sample_is_clean():
    report = partition_audit(20_000, seed=3)
    assert report.interior_multiples == 0
    assert report.samples_in_domain > 0
    assert 0.0 <= report.uncovered_fraction < 0.01
    assert "uncovered" in report.summary()


def test_partition_audit_respects_window():
    report = partition_audit(5_000, window=(0.9, 1.4, 0.9, 1.4), seed=1)
    assert report.interior_multiples == 0
