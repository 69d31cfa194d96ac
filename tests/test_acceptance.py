"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single PASS line (visible under pytest -s); the
assertions themselves are the contract.
"""

import json
import math
import time

import numpy as np
import pytest

from starcc import certify, cli
from starcc.certify import (
    BudgetExhausted,
    Certificate,
    CertificationRefuted,
    RunConfig,
    certify_all,
    certify_inequality,
    verify_certificate,
)
from starcc.forces import (
    HESSIAN_CLOSED_FORM,
    HESSIAN_CLOSED_FORM_DET,
    hessian_measure,
    lambda_component,
    residual_vector,
)
from starcc.geometry import B, nz
from starcc.intervals import Box2, VectorBackend, VInterval
from starcc.kernel import LAMBDA_INDICES, FloatBackend, derived_radii, in_domain, lambda_quot
from starcc.regions import PairCheck, RegionPlan, partition_audit, region_plan
from starcc.solver import grid_scan

SQRT5 = math.sqrt(5.0)
B_HALF = B / 2.0


def test_hessian_matches_the_closed_forms():
    t0 = time.perf_counter()
    num = hessian_measure((1.0, 1.0))
    (h11, h12), (_, h22) = HESSIAN_CLOSED_FORM
    assert h11 == pytest.approx((5.0 / 4.0) * (25.0 + 13.0 * SQRT5), rel=1e-15)
    assert h12 == pytest.approx(-(5.0 / 8.0) * (25.0 + 13.0 * SQRT5), rel=1e-15)
    assert h22 == pytest.approx((5.0 / 4.0) * (5.0 + 7.0 * SQRT5), rel=1e-15)
    assert HESSIAN_CLOSED_FORM_DET == pytest.approx(
        125.0 * (85.0 + 31.0 * SQRT5) / 32.0, rel=1e-15
    )
    rel = np.abs(num / np.asarray(HESSIAN_CLOSED_FORM) - 1.0)
    det_rel = abs(np.linalg.det(num) / HESSIAN_CLOSED_FORM_DET - 1.0)
    wall = time.perf_counter() - t0
    assert rel.max() <= 1e-5
    assert det_rel <= 1e-5
    assert wall < 1.0
    print(f"\nPASS hessian closed forms: max rel err {max(rel.max(), det_rel):.3e},"
          f" {wall:.3f}s")


SPOT_VALUES = (
    ((3, 1), (B / 2.02, 1.0), 1.37246),
    ((4, 1), (B / 2.02, B_HALF), 1.30144),
    ((3, 1), (B / 2.02, 0.12874), 9.02703),
    ((3, 1), (B / 2.02, B_HALF), 2.70691),
    ((3, 1), (B_HALF, B_HALF), 2.70464),
    ((1, 1), (B, 1.0), 1.84995),
    ((5, 2), (1.0, B_HALF), 4.4042),
    ((5, 2), (B_HALF, B / (2.0 + nz())), 5.76142),
    ((4, 1), (2.0 / B, 1.0 + B), 0.360157),
)


def test_lambda_spot_checks_hold_without_rescaling():
    t0 = time.perf_counter()
    ratios = []
    for idx, point, expected in SPOT_VALUES:
        got = lambda_component(idx, point)
        assert got == pytest.approx(expected, rel=1e-4), (idx, point)
        ratios.append(got / expected)
    # the agreement is absolute: no common scale factor is fitted, and the
    # residual scale deviation is reported rather than absorbed
    scale_deviation = abs(np.mean(ratios) - 1.0)
    wall = time.perf_counter() - t0
    assert scale_deviation < 1e-4
    assert wall < 1.0
    print(f"\nPASS lambda spot values: 9/9 within 1e-4,"
          f" unabsorbed scale deviation {scale_deviation:.2e}")


def test_pentagon_solves_the_full_system():
    res = residual_vector((1.0, 1.0))
    assert res.pairwise_spread <= 1e-12
    assert abs(res.y1) <= 1e-13
    assert res.is_solution()
    print(f"\nPASS exact solution at (1,1): spread {res.pairwise_spread:.2e},"
          f" |y1| {abs(res.y1):.2e}")


def test_full_certification_bundle_verifies(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    t0 = time.perf_counter()
    code = cli.main(["certify", "all", "--width", "0.02",
                     "--truncate-r5", "10", "--threads", "4"])
    assert code == 0
    code = cli.main(["verify", str(tmp_path)])
    wall = time.perf_counter() - t0
    assert code == 0
    out = capsys.readouterr().out
    assert "UNIQUE-IN-WINDOW" in out
    assert out.count("ACCEPT") == 17  # 16 regions + the local certificate
    assert wall < 900.0  # 15-minute budget on 4 cores

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["regions"]) == 16
    for rid, entry in manifest["regions"].items():
        assert entry["min_bound"] > 0.0, rid

    doc = json.loads((tmp_path / "J4.json").read_text())
    min_gap = float.fromhex(doc["min_bound"])
    assert 2.0 < min_gap < 3.0  # the far-corner gap stays comfortably open
    print(f"\nPASS certify+verify bundle: 16 regions + local uniqueness,"
          f" {wall:.1f}s of 900s budget")


def test_scan_finds_exactly_one_root():
    t0 = time.perf_counter()
    report = grid_scan(((0.2, 3.0), (0.2, 3.0)), 10_000, seed=0)
    wall = time.perf_counter() - t0
    assert len(report.roots) == 1
    (root,) = report.roots
    assert math.hypot(root.r3 - 1.0, root.r5 - 1.0) <= 1e-8
    assert wall < 60.0
    print(f"\nPASS multi-start scan: 10000 starts -> 1 root at"
          f" ({root.r3:.12f}, {root.r5:.12f}), {wall:.2f}s of 60s budget")


def test_interval_arithmetic_mass_containment():
    rng = np.random.default_rng(2024)
    n = 25_000
    checks = 0

    def draw(lo_min, lo_max, w_max):
        lo = rng.uniform(lo_min, lo_max, n)
        w = rng.uniform(0.0, w_max, n)
        t = rng.uniform(0.0, 1.0, n)
        return VInterval(lo, lo + w), lo + t * w

    a, pa = draw(-10.0, 10.0, 1.0)
    b, pb = draw(-10.0, 10.0, 1.0)
    pos, pp = draw(0.05, 10.0, 1.0)

    def contained(iv, vals):
        nonlocal checks
        checks += vals.size
        return np.all(iv.lo <= vals) and np.all(vals <= iv.hi)

    assert contained(a + b, pa + pb)
    assert contained(a - b, pa - pb)
    assert contained(a * b, pa * pb)
    assert contained(a / pos, pa / pp)
    assert contained(a.sq(), pa * pa)
    assert contained(pos.sqrt(), np.sqrt(pp))
    assert contained(pos.powneg32(), pp ** -1.5)

    # inclusion monotonicity: shrinking the inputs never widens the output
    def shrink(iv):
        u = rng.uniform(0.0, 0.5, n)
        v = rng.uniform(0.0, 0.5, n)
        w = iv.hi - iv.lo
        return VInterval(iv.lo + u * w, iv.hi - v * w)

    def nested(big, small):
        nonlocal checks
        checks += small.lo.size
        return np.all(big.lo <= small.lo) and np.all(small.hi <= big.hi)

    sa, sb, sp = shrink(a), shrink(b), shrink(pos)
    assert nested(a + b, sa + sb)
    assert nested(a - b, sa - sb)
    assert nested(a * b, sa * sb)
    assert nested(a / pos, sa / sp)
    assert nested(a.sq(), sa.sq())
    assert nested(pos.sqrt(), sp.sqrt())
    assert nested(pos.powneg32(), sp.powneg32())
    assert checks >= 100_000

    # thin boxes: every lambda enclosure brackets the float route at every
    # sampled point, pole-adjacent or not.  The precision claims (midpoint
    # within 1e-14, width within 5e-13 of the value's scale) are asserted
    # for non-degenerate evaluations: relative accuracy is unattainable by
    # any fixed-precision route on top of a lambda pole (q_ik -> 0) or a
    # near-collapsed configuration, where the value's own condition number
    # diverges.  Curated well-conditioned points hold width 1e-13; see the
    # interval unit tests.
    prng = np.random.default_rng(7)
    pts = prng.uniform(0.25, 2.75, size=(400, 2))
    pts = pts[[in_domain(tuple(p)) for p in pts]]
    assert len(pts) >= 200
    worst_mid = worst_width = precision_cases = 0
    pts = pts[:200]
    # one lane of 200 thin boxes per index; lanes are elementwise, so each
    # lane's endpoints are those of its own one-box evaluation
    lane = Box2.point(pts[:, 0], pts[:, 1])
    encs = {idx: lambda_quot(VectorBackend(), *lane, *idx) for idx in LAMBDA_INDICES}
    for p, (r3, r5) in enumerate(pts):
        r3, r5 = float(r3), float(r5)
        margin = min(derived_radii(FloatBackend, r3, r5)[1:])
        for idx in LAMBDA_INDICES:
            enc = VInterval(encs[idx].lo[p], encs[idx].hi[p])
            val = lambda_component(idx, (r3, r5))
            assert enc.lo <= val <= enc.hi
            if margin < 0.2 or abs(val) > 50.0:
                continue
            precision_cases += 1
            scale = max(1.0, abs(val))
            worst_mid = max(worst_mid, abs(0.5 * (enc.lo + enc.hi) - val) / scale)
            worst_width = max(worst_width, (enc.hi - enc.lo) / scale)
    assert precision_cases > 1500
    assert worst_mid <= 1e-14
    assert worst_width <= 5e-13
    print(f"\nPASS interval suite: {checks} randomized containment/monotonicity"
          f" cases, 0 violations; thin-box midpoint {worst_mid:.1e},"
          f" width {worst_width:.1e} over {precision_cases} evaluations")


def test_partition_covers_without_interior_overlap():
    report = partition_audit(1_000_000, seed=0)
    assert report.samples_in_domain > 500_000
    assert report.interior_multiples == 0
    # boundary-closure gaps are findings to report, not build failures
    print(f"\nPASS partition audit: {report.samples_in_domain} domain samples,"
          f" 0 interior double-memberships,"
          f" uncovered fraction {report.uncovered_fraction:.2e}")


def test_negative_controls_are_rejected(monkeypatch):
    plan = region_plan("J2")
    flipped = RegionPlan("J2", tuple(PairCheck(low=p.high, high=p.low) for p in plan.pairs))
    with pytest.raises(CertificationRefuted):
        certify_inequality("J2", max_box_width=0.1, plan=flipped)

    cert = certify_inequality("J5", max_box_width=0.1)
    payload = json.loads(cert.to_json())
    payload["leaves"][0][5] = (float.fromhex(payload["leaves"][0][5]) * 2.0).hex()
    with pytest.raises(ValueError):
        verify_certificate(Certificate.from_payload(payload))

    monkeypatch.setattr(certify, "MAX_DEPTH", 2)
    with pytest.raises(BudgetExhausted):
        certify_inequality("J9", max_box_width=0.05, truncation=10.0)

    print("\nPASS negative controls: reversed orientation refuted,"
          " tampered bound rejected, starved budget reported")
