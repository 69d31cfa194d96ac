import hashlib
import json
import math

import numpy as np
import pytest

from starcc import kernel, solver
from starcc.geometry import DomainError, quasi_points
from starcc.kernel import in_domain
from starcc.solver import (
    MERGE_RADIUS,
    Diverged,
    LeftDomain,
    MaxIterations,
    RefinedRoot,
    RootReport,
    grid_scan,
    newton_refine,
)


def test_refine_near_the_pentagon():
    root = newton_refine((1.05, 0.95))
    assert root.accepted
    assert root.r3 == pytest.approx(1.0, abs=1e-12)
    assert root.r5 == pytest.approx(1.0, abs=1e-12)
    assert root.square_residual <= 1e-10
    assert root.spread < 1e-9
    assert abs(root.y1) < 1e-9
    assert root.iterations < 10


def test_refine_is_quadratic_once_close():
    root = newton_refine((1.02, 0.99), trace=True)
    errs = [math.hypot(a - 1.0, b - 1.0) for a, b in root.history]
    # drop pre-asymptotic steps and anything at rounding level
    tail = [e for e in errs if 1e-14 < e < 1e-2]
    assert len(tail) >= 2
    for prev, nxt in zip(tail, tail[1:]):
        assert nxt < 5.0 * prev * prev


def test_refine_far_start_lands_on_pentagon_or_raises():
    # no other root exists, so a far start either walks home or fails loudly
    try:
        root = newton_refine((0.3, 0.2), max_iter=200)
    except (Diverged, LeftDomain, MaxIterations):
        return
    assert root.accepted
    assert math.hypot(root.r3 - 1.0, root.r5 - 1.0) < 1e-8


def test_refine_rejects_start_outside_domain():
    with pytest.raises(DomainError):
        newton_refine((0.9, 0.1))  # r2 < 0 there
    assert not in_domain((0.9, 0.1))


def test_scan_finds_exactly_the_pentagon():
    report = grid_scan(((0.2, 3.0), (0.2, 3.0)), 400, seed=3)
    assert len(report.roots) == 1
    (root,) = report.roots
    assert root.r3 == pytest.approx(1.0, abs=1e-8)
    assert root.r5 == pytest.approx(1.0, abs=1e-8)
    assert root.basin_count > 1
    assert report.stats["in_domain"] <= report.stats["starts"]
    assert report.stats["converged"] >= root.basin_count


def test_scan_window_without_the_root_reports_none():
    # plenty of domain to search, but every Newton path exits the window
    report = grid_scan(((0.3, 0.9), (0.3, 0.9)), 300, seed=1)
    assert report.roots == ()
    assert report.stats["escaped_window"] > 0


def test_scan_root_count_is_stable_under_more_starts():
    small = grid_scan(((0.2, 3.0), (0.2, 3.0)), 200, seed=5)
    big = grid_scan(((0.2, 3.0), (0.2, 3.0)), 800, seed=5)
    assert len(small.roots) == len(big.roots) == 1
    assert abs(small.roots[0].r3 - big.roots[0].r3) < MERGE_RADIUS


def test_scan_zero_starts():
    report = grid_scan(((0.5, 1.5), (0.5, 1.5)), 0)
    assert report.roots == ()
    assert report.stats["starts"] == 0


def test_scan_refuses_more_starts_than_the_cap_before_allocating():
    # 10^12 starts would be a 16 TB array of points
    with pytest.raises(ValueError, match="4000000"):
        grid_scan(((0.5, 1.5), (0.5, 1.5)), 10**12)
    with pytest.raises(ValueError):
        grid_scan(((0.5, 1.5), (0.5, 1.5)), -1)


def test_scan_rejects_degenerate_window():
    with pytest.raises(DomainError):
        grid_scan(((1.0, 1.0), (0.5, 1.5)), 10)


@pytest.mark.parametrize("window", [
    ((0.2, 3.0), (0.2, math.inf)),
    ((-math.inf, 3.0), (0.2, 3.0)),
], ids=["r5-inf", "r3-minus-inf"])
def test_scan_rejects_a_window_that_is_not_finite(window):
    # starts at r5 = inf used to count as in-domain, diverged lanes
    with pytest.raises(DomainError):
        grid_scan(window, 20)


def test_scan_rejects_window_outside_domain():
    # r5 deep below the r4 > 0 line for every r3 in range
    with pytest.raises(DomainError):
        grid_scan(((3.5, 4.0), (0.01, 0.02)), 50)


def test_report_round_trips_through_json():
    report = grid_scan(((0.8, 1.2), (0.8, 1.2)), 64, seed=9)
    payload = json.loads(report.to_json())
    assert payload["n_starts"] == 64
    assert payload["seed"] == 9
    assert len(payload["roots"]) == len(report.roots) == 1
    got = payload["roots"][0]
    assert got["r3"] == report.roots[0].r3
    assert payload["stats"]["converged"] == report.stats["converged"]


def test_report_is_deterministic_for_a_seed():
    a = grid_scan(((0.2, 3.0), (0.2, 3.0)), 128, seed=11)
    b = grid_scan(((0.2, 3.0), (0.2, 3.0)), 128, seed=11)
    assert [(r.r3, r.r5) for r in a.roots] == [(r.r3, r.r5) for r in b.roots]
    sa = {k: v for k, v in a.stats.items() if k != "wall_seconds"}
    sb = {k: v for k, v in b.stats.items() if k != "wall_seconds"}
    assert sa == sb


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0], ids=["nan", "inf", "negative", "zero"])
def test_scan_and_refine_refuse_a_tolerance_that_is_not_finite_and_positive(tol):
    # a nan or negative tol used to run, converge nothing and report 0 roots
    with pytest.raises(DomainError, match="tolerance"):
        grid_scan(((0.2, 3.0), (0.2, 3.0)), 50, tol=tol)
    with pytest.raises(DomainError, match="tolerance"):
        newton_refine((1.05, 0.95), tol=tol)


@pytest.mark.parametrize("max_iter", [-1, 1.5, True], ids=["negative", "float", "bool"])
def test_scan_and_refine_refuse_a_budget_that_is_not_a_count(max_iter):
    # max_iter=-1 used to leave every lane running: grid_scan dropped them
    # from all status counts and newton_refine returned the start as a root
    with pytest.raises(DomainError, match="max_iter"):
        grid_scan(((0.2, 3.0), (0.2, 3.0)), 50, max_iter=max_iter)
    with pytest.raises(DomainError, match="max_iter"):
        newton_refine((1.05, 0.95), max_iter=max_iter)


def test_a_zero_budget_counts_every_lane():
    report = grid_scan(((0.2, 3.0), (0.2, 3.0)), 200, seed=4, max_iter=np.int64(0))
    stats = report.stats
    assert stats["converged"] + stats["max_iterations"] == stats["in_domain"] > 0
    with pytest.raises(MaxIterations):
        newton_refine((1.05, 0.95), max_iter=0)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_lockstep_lanes_equal_each_lane_run_alone():
    # the lockstep core, its blocked residual and its batched halvings must
    # not couple lanes: 12 467 in-domain starts (FD calls of ~50 000 lanes,
    # sliced), then a few lanes of each outcome rerun alone
    pts = quasi_points(20_000, 1)
    s3 = 0.2 + pts[:, 0] * 2.8
    s5 = 0.2 + pts[:, 1] * 2.8
    keep = in_domain((s3, s5))
    s3, s5 = s3[keep], s5[keep]
    r3, r5, status, iters, merit, _ = solver._newton_lockstep(s3, s5, 1e-10, 60)
    outcomes = (solver._CONVERGED, solver._DIVERGED, solver._LEFT_DOMAIN, solver._MAX_ITER)
    for code in outcomes:
        lanes = np.flatnonzero(status == code)[:3]
        assert lanes.size > 0, f"no lane with outcome {code}"
        for i in lanes:
            one = solver._newton_lockstep(s3[i:i + 1], s5[i:i + 1], 1e-10, 60)
            for many, alone in zip((r3, r5, status, iters, merit), one):
                assert _bits(many[i:i + 1]) == _bits(alone), (code, i)


@pytest.mark.parametrize("size", [
    solver._BLOCK - 1, solver._BLOCK, solver._BLOCK + 1, 3 * solver._BLOCK + 7,
    (7, 5000),
], ids=["block-1", "block", "block+1", "3block+7", "2d"])
def test_blocked_residual_equals_one_kernel_call(size):
    rng = np.random.default_rng(0)
    r3 = rng.uniform(0.05, 3.5, size)
    r5 = rng.uniform(0.05, 3.5, size)
    got = solver._square_residual(r3, r5)
    want = kernel.local_gaps(kernel.FloatBackend, r3, r5)
    for g, w in zip(got, want):
        assert g.shape == r3.shape
        assert _bits(g) == _bits(w)


def test_scan_report_bytes_are_pinned():
    # the digest of this payload before the residual was blocked and the
    # halvings batched; any change to a root, a count or a status changes it
    payload = grid_scan(((0.2, 3.0), (0.2, 3.0)), 20_000, seed=3).to_payload()
    del payload["stats"]["wall_seconds"]
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == (
        "95d81d66b2dce0e5572e6263abc0dd4fc77b245f65b4b06d5f58a5c173d7626b"
    )
