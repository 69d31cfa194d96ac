import json
import math

import pytest

from starcc.geometry import DomainError
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
