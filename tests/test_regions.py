import hashlib
from decimal import Decimal, localcontext

import numpy as np
import pytest

from starcc.certify import plan_signature
from starcc import regions
from starcc.geometry import A, B, DomainError
from starcc.regions import (
    DELTA_B0,
    REGION_IDS,
    TRUNCATION_R5,
    _membership_matrix,
    cover_arrays,
    grid_cover,
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
        assert plan.pairs and all(p.describe() for p in plan.pairs)


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


def test_cover_counts_are_stable():
    # Deterministic covers at width 0.05 (unbounded regions truncated at 10).
    expected = {"J1": 169, "J9": 3800, "J16": 62}
    total = 0
    for rid in REGION_IDS:
        lo3, hi3, lo5, hi5 = cover_arrays(rid, 0.05, 10.0)
        assert np.all(hi3 - lo3 <= 0.05 + 1e-12)
        assert np.all(hi5 - lo5 <= 0.05 + 1e-12)
        total += lo3.size
        if rid in expected:
            assert lo3.size == expected[rid]
    assert total == 17013


def test_cover_boxes_meet_their_region():
    # No cover box may be certainly outside the closed region.
    for rid in ("J3", "J6", "J12"):
        boxes = cover_arrays(rid, 0.1, TRUNCATION_R5)
        assert boxes[0].size
        assert not np.any(region_def(rid).boxes_outside_closure(*boxes))


def test_cover_excises_b0_where_applicable():
    for rid in ("J7", "J16"):
        lo3, hi3, lo5, hi5 = cover_arrays(rid, 0.02, TRUNCATION_R5)
        assert lo3.size
        inside_b0 = ((lo3 >= 1.0 - DELTA_B0) & (hi3 <= 1.0 + DELTA_B0)
                     & (lo5 >= 1.0 - DELTA_B0) & (hi5 <= 1.0 + DELTA_B0))
        assert not np.any(inside_b0)


def _per_cell_cover(rid, max_box_width, truncation, delta):
    """cover_arrays as it was before it tested the grid on its edge vectors:
    every cell of the bounding-box grid on its own, in meshgrid order."""
    reg = region_def(rid)
    r3lo, r3hi, r5lo, r5hi = reg.bbox(truncation)
    snaps = [1.0 - delta, 1.0 + delta] if region_excises_b0(rid, delta) else []
    e3 = regions._snap_edges(r3lo, r3hi, max_box_width, snaps)
    e5 = regions._snap_edges(r5lo, r5hi, max_box_width, snaps)
    lo3, lo5 = np.meshgrid(e3[:-1], e5[:-1], indexing="ij")
    hi3, hi5 = np.meshgrid(e3[1:], e5[1:], indexing="ij")
    lo3, hi3, lo5, hi5 = (a.ravel() for a in (lo3, hi3, lo5, hi5))
    keep = ~reg.boxes_outside_closure(lo3, hi3, lo5, hi5)
    if region_excises_b0(rid, delta):
        inside_b0 = (
            (lo3 >= 1.0 - delta) & (hi3 <= 1.0 + delta)
            & (lo5 >= 1.0 - delta) & (hi5 <= 1.0 + delta)
        )
        keep &= ~inside_b0
    return lo3[keep], hi3[keep], lo5[keep], hi5[keep]


@pytest.mark.parametrize("width", [0.1, 0.05])
@pytest.mark.parametrize("truncation", [10.0, 40.0])
@pytest.mark.parametrize("delta", [DELTA_B0, 0.0, 0.4])
def test_edge_vector_cover_equals_the_per_cell_cover(width, truncation, delta):
    for rid in REGION_IDS:
        got = cover_arrays(rid, width, truncation, delta)
        want = _per_cell_cover(rid, width, truncation, delta)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), rid


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


@pytest.mark.parametrize("seed", [True, 1.5, -1], ids=["bool", "fraction", "negative"])
def test_partition_audit_refuses_a_seed_that_is_not_a_count(seed):
    # True used to run with seed 1 and 1.5 to raise numpy's TypeError
    with pytest.raises(DomainError, match="seed"):
        partition_audit(1000, seed=seed)


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
        got = region_def(rid).bbox(TRUNCATION_R5)
        for k, (edge, ref) in enumerate(zip(got, exact)):
            e = Decimal(edge)
            assert (e <= ref) if k % 2 == 0 else (e >= ref), (rid, k, edge)
            assert abs(e - ref) <= Decimal("1e-14"), (rid, k, edge)


# sha256 of _table_digest(), taken when the plans became pair sets and J1
# and J4 lost the grid lines of their corner rectangles
TABLE_DIGEST = "33ef800e611d76955e0002ea7944dede26b99b33e90b5d354efe4271c5fb9430"


def _table_digest():
    h = hashlib.sha256()
    for rid in REGION_IDS:
        reg = region_def(rid)
        for t in (4.5, 10.0):
            h.update(",".join(e.hex() for e in reg.bbox(t)).encode())
        h.update(f";{reg.unbounded};".encode())
        h.update(plan_signature(region_plan(rid)).encode())
        for c in reg.constraints:  # as build_fingerprint hashes them
            h.update(f"{rid}:{c.a.hex()},{c.b.hex()},{c.c.hex()},{c.op};".encode())
        # the cover with its excised square, and the grid without it
        for boxes in (cover_arrays(rid, 0.05, 10.0),
                      grid_cover(reg.bbox(10.0), 0.05, None, reg.boxes_outside_closure)):
            for arr in boxes:
                h.update(arr.tobytes())
    return h.hexdigest()


def test_region_table_reproduces_the_pinned_edges_plans_and_covers():
    # every edge, flag, plan, coefficient and cover box bit for bit
    assert _table_digest() == TABLE_DIGEST


def _edge_grid():
    """Nodes on the axis-parallel edges and on both slants, plus a lattice."""
    r3s = np.unique(np.r_[np.linspace(0.0, 3.0, 31), 0.8, 1.0, B / 2, 2 / B, 1.3, B])
    r5s = np.unique(np.r_[np.linspace(0.0, 4.0, 41), B / 2, (2 - B) / 2,
                          1.0, 1.4, 2.05, 3.036, 1 + B])
    g3, g5 = (a.ravel() for a in np.meshgrid(r3s, r5s, indexing="ij"))
    slant2 = r5s + B / 2  # r3 = r5 + b/2
    slant4 = (2 / A) * r5s + 1.0  # r3 = (2/a) r5 + 1
    return np.r_[g3, slant2, slant4], np.r_[g5, r5s, r5s]


def test_holds_matches_contains_and_the_membership_matrix():
    r3, r5 = _edge_grid()
    # the grid sits exactly on edges, where strict and closed bounds differ
    assert np.any(r3 - r5 - B / 2 == 0.0)
    assert np.any(r3 - (2 / A) * r5 - 1.0 == 0.0)
    member = _membership_matrix(r3, r5)
    for j, rid in enumerate(REGION_IDS):
        reg = region_def(rid)
        got = reg.holds(r3, r5)
        assert got.dtype == bool and got.shape == r3.shape
        expect = [reg.contains(p) for p in zip(r3, r5)]
        assert got.tolist() == expect, rid
        assert np.array_equal(member[:, j], got), rid
    on_edge = (r3 == 0.8) & (r5 == B / 2)
    assert on_edge.sum() == 1
    assert region_def("J7").holds(r3, r5)[on_edge].all()
    assert not region_def("J3").holds(r3, r5)[on_edge].any()
