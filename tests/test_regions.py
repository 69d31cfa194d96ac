from decimal import Decimal, localcontext

import numpy as np
import pytest

from starcc.geometry import A, B
from starcc.regions import (
    CORNER_ZONE_SIDE,
    DELTA_B0,
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
        assert plan.main.describe()


def test_b0_excision_set():
    touching = {rid for rid in REGION_IDS if region_excises_b0(rid, DELTA_B0)}
    assert touching == {"J7", "J8", "J9", "J16"}


def test_excision_needs_no_sample_in_the_square():
    # (0.61, 0.61) lies in J1 and in the open square (0.6, 1.4)^2, between
    # the nodes of any sample grid with step 0.02; J2, J3, J5 and J13 meet
    # the closed square too
    assert region_def("J1").contains((0.61, 0.61))
    for rid in ("J1", "J2", "J3", "J5", "J13"):
        assert region_excises_b0(rid, 0.4)
    assert not region_excises_b0("J15", 0.4)


def test_unbounded_regions_require_truncation():
    for rid in ("J9", "J10", "J15"):
        assert region_def(rid).unbounded
        with pytest.raises(TruncationRequired):
            cover_arrays(rid, 0.1)


def test_cover_counts_are_stable():
    # Deterministic covers at width 0.05 (unbounded regions truncated at 10).
    expected = {"J1": 196, "J9": 3800, "J16": 62}
    total = 0
    for rid in REGION_IDS:
        tr = 10.0 if region_def(rid).unbounded else None
        lo3, hi3, lo5, hi5 = cover_arrays(rid, 0.05, truncation=tr)
        assert np.all(hi3 - lo3 <= 0.05 + 1e-12)
        assert np.all(hi5 - lo5 <= 0.05 + 1e-12)
        total += lo3.size
        if rid in expected:
            assert lo3.size == expected[rid]
    assert total == 17041


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


def _exact_bboxes(t):
    """The bounding boxes of the regions at 60 digits (t = truncation).

    Decimal(x) of a float literal such as 1.3 is its exact binary value,
    which is how the region table defines those bounds."""
    with localcontext() as ctx:
        ctx.prec = 60
        s5 = Decimal(5).sqrt()
        a, b = s5 + 1, s5 - 1
        one, t, top = Decimal(1), Decimal(t), Decimal(3.036)
        slant = lambda r5: 2 / a * r5 + 1  # noqa: E731
        return {
            "J1": (0, b / 2, 0, b / 2),
            "J2": (0, b / 2, b / 2, one),
            "J3": (b / 2, one, (2 - b) / 2, b / 2),
            "J4": (b / 2, one, 0, (2 - b) / 2),
            "J5": (one, b, (2 - b) / 2, b / 2),
            "J6": (b, 1 + b / 2, b / 2, one),
            "J7": (b / 2, one, b / 2, one),
            "J8": (one, b, b / 2, one),
            "J9": (0, one, one, t),
            "J10": (one, 2 / b, 1 + b, t),
            "J11": (2 / b, slant(top), one, top),
            "J12": (Decimal(1.3), 2 / b, one, Decimal(2.05)),
            "J13": (one, Decimal(1.3), Decimal(1.4), Decimal(2.05)),
            "J14": (one, 2 / b, Decimal(2.05), 1 + b),
            "J15": (2 / b, slant(t), top, t),
            "J16": (one, Decimal(1.3), one, Decimal(1.4)),
        }


def test_bbox_edges_are_rounded_outward():
    # every lower edge at or below, every upper edge at or above the exact
    # value, and each within a few ulps of it
    for rid, exact in _exact_bboxes(TRUNCATION_R5).items():
        tr = TRUNCATION_R5 if region_def(rid).unbounded else None
        got = region_def(rid).bbox(tr)
        for k, (edge, ref) in enumerate(zip(got, exact)):
            e = Decimal(edge)
            assert (e <= ref) if k % 2 == 0 else (e >= ref), (rid, k, edge)
            assert abs(e - ref) <= Decimal("1e-14"), (rid, k, edge)


def test_j4_corner_zone_starts_at_the_outward_edge():
    # a zone edge at the float b/2 would leave J4's first cover column,
    # which starts at the outward b/2, on the main pair that degenerates
    # at the collision corner (b/2, 0)
    zone = region_plan("J4").zones[0]
    assert zone.r3_lo == region_def("J4").bbox()[0]
