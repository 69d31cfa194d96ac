import hashlib
import json
import math
import os
import signal
import threading

import numpy as np
import pytest

from starcc import kernel, solver
from starcc.geometry import DomainError, quasi_points
from starcc.kernel import in_domain
from starcc.solver import MERGE_RADIUS, grid_scan


def test_refine_is_quadratic_once_close():
    # with max_iter = k a running lane holds its k-th iterate, and a
    # converged one its root
    errs = []
    for k in range(1, 6):
        r3, r5, *_ = solver._newton_lockstep(np.array([1.02]), np.array([0.99]), 1e-10, k)
        errs.append(math.hypot(r3[0] - 1.0, r5[0] - 1.0))
    # drop pre-asymptotic steps and anything at rounding level
    tail = [e for e in errs if 1e-14 < e < 1e-2]
    assert len(tail) >= 2
    for prev, nxt in zip(tail, tail[1:]):
        assert nxt < 5.0 * prev * prev


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


@pytest.mark.parametrize("n", [10.5, True], ids=["fraction", "bool"])
def test_scan_refuses_a_count_of_starts_that_is_not_an_integer(n):
    # 10.5 used to run 10 starts and report "n_starts": 10.5; True reported true
    with pytest.raises(ValueError, match="integer"):
        grid_scan(((0.2, 3.0), (0.2, 3.0)), n)


def test_scan_refuses_a_negative_seed_naming_it():
    with pytest.raises(DomainError, match="seed -1"):
        grid_scan(((0.2, 3.0), (0.2, 3.0)), 10, seed=-1)


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


def test_a_zero_budget_counts_every_lane():
    # max_iter=0 retires every lane at once, as converged or out of budget
    pts = quasi_points(200, 4)
    s3, s5 = 0.2 + pts[:, 0] * 2.8, 0.2 + pts[:, 1] * 2.8
    keep = in_domain((s3, s5))
    r3, r5, status, iters, _ = solver._newton_lockstep(s3[keep], s5[keep], 1e-10, 0)
    assert set(status.tolist()) <= {solver._CONVERGED, solver._MAX_ITER}
    assert np.count_nonzero(status == solver._MAX_ITER) > 0
    assert not iters.any()
    assert _bits(r3) == _bits(s3[keep]) and _bits(r5) == _bits(s5[keep])
    # and a scan's four end counts take every in-domain lane
    stats = grid_scan(((0.2, 3.0), (0.2, 3.0)), 200, seed=4).stats
    ends = ("converged", "diverged", "left_domain", "max_iterations")
    assert sum(stats[k] for k in ends) == stats["in_domain"] > 0


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
    r3, r5, status, iters, merit = solver._newton_lockstep(s3, s5, 1e-10, solver.MAX_ITER)
    outcomes = (solver._CONVERGED, solver._DIVERGED, solver._LEFT_DOMAIN, solver._MAX_ITER)
    for code in outcomes:
        lanes = np.flatnonzero(status == code)[:3]
        assert lanes.size > 0, f"no lane with outcome {code}"
        for i in lanes:
            one = solver._newton_lockstep(s3[i:i + 1], s5[i:i + 1], 1e-10, solver.MAX_ITER)
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


# ---------------------------------------------------------------------------
# the scan on the process pool


def _payload(report):
    payload = report.to_payload()
    del payload["stats"]["wall_seconds"]
    return payload


def _count_forks(monkeypatch):
    """Patch os.fork to record each call in this process, then fork."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs os.fork")
def test_scan_on_the_pool_equals_the_in_process_scan(monkeypatch):
    # 2000 starts give about 1 250 lanes: with 100 lanes per worker and two
    # CPUs the scan forks two workers, whose chunks must join to the bits
    # of the in-process run
    window = ((0.2, 3.0), (0.2, 3.0))
    monkeypatch.setattr(solver, "_LANES_PER_WORKER", 100)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    alone = grid_scan(window, 2000, seed=7)
    assert forks == []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pooled = grid_scan(window, 2000, seed=7)
    assert len(forks) == 2
    assert _payload(pooled) == _payload(alone)
    assert pooled.stats["in_domain"] >= 2 * 100


def test_scan_below_the_lane_threshold_starts_no_process(monkeypatch):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = grid_scan(((0.2, 3.0), (0.2, 3.0)), 2000)
    assert report.stats["in_domain"] < 2 * solver._LANES_PER_WORKER
    assert len(report.roots) == 1
    assert forks == []


_TEST_PROCESS = os.getpid()


def _die_in_a_worker(*args):
    """A stand-in for the Newton core that kills the worker running it."""
    assert os.getpid() != _TEST_PROCESS, "ran in the test process"
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs os.fork")
def test_scan_raises_broken_process_pool_when_a_worker_dies(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(solver, "_LANES_PER_WORKER", 100)
    monkeypatch.setattr(solver, "_newton_lockstep", _die_in_a_worker)
    caught = []

    def run():
        try:
            grid_scan(((0.2, 3.0), (0.2, 3.0)), 2000)
        except BaseException as exc:  # handed to the test thread below
            caught.append(exc)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive(), "the scan hangs on a dead worker"
    assert len(caught) == 1 and isinstance(caught[0], BrokenProcessPool), caught
