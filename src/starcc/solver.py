"""Floating-point companion solver: damped Newton + multi-start scans.

Nothing in this module is rigorous -- it exists to *find* candidate
central configurations fast, so the certificates produced by the certify
module have an independent numerical cross-check.  The square subsystem
refined here is the one the local uniqueness certificate contracts
(kernel.LOCAL_PAIRS, well-conditioned at (1,1)), evaluated by the same
kernel.local_gaps on the float backend,

    F(r3, r5) = (lambda_11 - lambda_31, lambda_11 - lambda_51),

and a zero of F is only accepted as a root of the *full* system after the
remaining conditions are re-evaluated: the nine-lambda pairwise spread and
|y1| must both come out below 10x the Newton tolerance.  That gate is what
keeps spurious zeros of the 2x2 subsystem out of the report.

The Newton core runs all starts in numpy lockstep: one iteration advances
every still-active lane at once, with per-lane backtracking damping and
per-lane retirement.  Residuals come from the kernel on its float
backend, and kernel.in_domain (elementwise) decides which starts and
which damped steps lie in S.  Kernel calls are few and cache-sized:

  * the four points of the finite-difference stencil are one call;
  * the line search tries the full step for every lane in one call, then
    tries several consecutive halvings of every unsettled lane per call
    (about _BLOCK lanes in all), and each lane takes its first passing
    halving -- the candidates and tests of one call per halving, in far
    fewer calls;
  * a call of more than _BLOCK lanes is evaluated in slices of _BLOCK, so
    the kernel's temporaries stay in cache.

Every operation is elementwise, so results are bit-identical to running
the lanes one at a time, one halving per call.  So grid_scan, the third
user of the shared process pool (pool._fan_out) after certify_all and the
bundle verifier, runs its lanes in contiguous chunks, one per worker, with
at least _LANES_PER_WORKER (= _BLOCK) lanes per worker and no more workers
than CPUs, and joins them in order (_lockstep_on_pool).  A smaller scan, or
one on one CPU, forks nothing; the report does not depend on the CPU
count.  newton_refine always runs in process.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import kernel
from .forces import residual_vector
from .geometry import DomainError, quasi_points
from .kernel import _BLOCK, in_domain
from .pool import _fan_out, _worker_count

MERGE_RADIUS = 1e-6
FD_SCALE = 1e-7
MAX_HALVINGS = 30
_MERIT_BLOWUP = 1e8
_DECREASE = 1e-4  # sufficient-decrease slope for the backtracking test
# Fewest scan lanes per worker process.  A pool costs about 0.1 s to start
# and join: on a 2-vCPU VM two workers only break even at 12 500 lanes
# (20 000 starts over [0.2, 3]^2) and save a quarter at 31 000.
_LANES_PER_WORKER = _BLOCK

# Lane status codes used by the lockstep core.
_RUNNING, _CONVERGED, _DIVERGED, _LEFT_DOMAIN, _MAX_ITER = 0, 1, 2, 3, 4


class Diverged(RuntimeError):
    """Residual blew up, hit a singular Jacobian, or damping stalled."""


class LeftDomain(RuntimeError):
    """Every damped step out of the current iterate exits the domain."""


class MaxIterations(RuntimeError):
    """Iteration budget exhausted before the residual tolerance."""


def _square_residual(r3, r5):
    """F (kernel.local_gaps) on the float backend, elementwise.

    r3 and r5 are arrays of one shape, and F comes back in it.  Inputs of more than
    _BLOCK lanes are evaluated in contiguous slices of _BLOCK lanes, so the
    kernel's temporaries stay in cache; every operation is elementwise, so
    the bits do not depend on the slicing."""
    if r3.size <= _BLOCK:
        return kernel.local_gaps(kernel.FloatBackend, r3, r5)
    flat3, flat5 = r3.ravel(), r5.ravel()
    f1, f2 = np.empty(flat3.size), np.empty(flat3.size)
    for lo in range(0, flat3.size, _BLOCK):
        hi = lo + _BLOCK
        f1[lo:hi], f2[lo:hi] = kernel.local_gaps(
            kernel.FloatBackend, flat3[lo:hi], flat5[lo:hi])
    return f1.reshape(r3.shape), f2.reshape(r3.shape)


def _fd_jacobian(r3, r5):
    """Central-difference Jacobian, step 1e-7 * max(1, |r|) per variable;
    the four stencil points are one residual call."""
    h3 = FD_SCALE * np.maximum(1.0, np.abs(r3))
    h5 = FD_SCALE * np.maximum(1.0, np.abs(r5))
    f1, f2 = _square_residual(np.stack((r3 + h3, r3 - h3, r3, r3)),
                              np.stack((r5, r5, r5 + h5, r5 - h5)))
    j11 = (f1[0] - f1[1]) / (2.0 * h3)
    j21 = (f2[0] - f2[1]) / (2.0 * h3)
    j12 = (f1[2] - f1[3]) / (2.0 * h5)
    j22 = (f2[2] - f2[3]) / (2.0 * h5)
    return j11, j12, j21, j22


def _newton_lockstep(r3, r5, tol, max_iter, trace=False):
    """Damped Newton on all lanes at once.

    Returns (r3, r5, status, iterations, merit, history); history is a
    list of per-iteration (r3, r5) snapshots when trace is on, else None.
    Retired lanes keep their final values, so later snapshots of a
    converged lane just repeat the root.
    """
    r3 = np.array(r3, dtype=float, copy=True)
    r5 = np.array(r5, dtype=float, copy=True)
    n = r3.size
    status = np.full(n, _RUNNING, dtype=np.int8)
    iterations = np.zeros(n, dtype=np.int64)
    history: Optional[List[Tuple[np.ndarray, np.ndarray]]] = [] if trace else None

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f1, f2 = _square_residual(r3, r5)
        merit = np.maximum(np.abs(f1), np.abs(f2))
        for it in range(max_iter + 1):
            running = status == _RUNNING
            done = running & (merit <= tol)
            status[done] = _CONVERGED
            blown = (status == _RUNNING) & (~np.isfinite(merit) | (merit > _MERIT_BLOWUP))
            status[blown] = _DIVERGED
            run = status == _RUNNING
            if it == max_iter:
                status[run] = _MAX_ITER
                break
            if not run.any():
                break
            iterations[run] = it + 1

            cur3, cur5 = r3[run], r5[run]
            curf1, curf2 = f1[run], f2[run]
            curm = merit[run]
            j11, j12, j21, j22 = _fd_jacobian(cur3, cur5)
            det = j11 * j22 - j12 * j21
            singular = ~np.isfinite(det) | (np.abs(det) < 1e-300)
            safe_det = np.where(singular, 1.0, det)
            d3 = -(j22 * curf1 - j12 * curf2) / safe_det
            d5 = -(j11 * curf2 - j21 * curf1) / safe_det

            # Per-lane backtracking: try t = 2^-j, j = 0, 1, ..., MAX_HALVINGS
            # until the candidate is inside the domain and satisfies
            # sufficient decrease, or give up.  j = 0 is tried for every
            # lane first; after that each round tries several consecutive
            # j for every unsettled lane in one residual call, about _BLOCK
            # lanes in all, and a lane takes its first passing j.
            settled = singular.copy()  # singular lanes take no step
            new3, new5 = cur3.copy(), cur5.copy()
            newf1, newf2 = curf1.copy(), curf2.copy()
            newm = curm.copy()
            last_out = np.zeros(cur3.size, dtype=bool)
            j = 0
            while j <= MAX_HALVINGS:
                todo = np.flatnonzero(~settled)
                if todo.size == 0:
                    break
                h = 1 if j == 0 else min(MAX_HALVINGS + 1 - j, max(1, _BLOCK // todo.size))
                t = np.ldexp(1.0, -np.arange(j, j + h))[:, None]  # exact 2^-j
                c3 = cur3[todo] + t * d3[todo]
                c5 = cur5[todo] + t * d5[todo]
                inside = in_domain((c3, c5))
                g1, g2 = _square_residual(c3, c5)
                gm = np.maximum(np.abs(g1), np.abs(g2))
                good = inside & np.isfinite(gm) & (gm <= (1.0 - _DECREASE * t) * curm[todo])
                first = np.argmax(good, axis=0)
                hit = good[first, np.arange(todo.size)]
                at, lane, dst = first[hit], np.flatnonzero(hit), todo[hit]
                new3[dst] = c3[at, lane]
                new5[dst] = c5[at, lane]
                newf1[dst] = g1[at, lane]
                newf2[dst] = g2[at, lane]
                newm[dst] = gm[at, lane]
                settled[dst] = True
                last_out[todo[~hit]] = ~inside[-1, ~hit]
                j += h
            stalled = ~settled  # every candidate failed

            run_idx = np.flatnonzero(run)
            if stalled.any():
                # Exhausted damping: blame the domain if that was the last
                # obstruction, otherwise call it divergence.
                status[run_idx[stalled & last_out]] = _LEFT_DOMAIN
                status[run_idx[stalled & ~last_out]] = _DIVERGED
            if singular.any():
                status[run_idx[singular]] = _DIVERGED
            moved = settled & ~singular
            upd = run_idx[moved]
            r3[upd] = new3[moved]
            r5[upd] = new5[moved]
            f1[upd] = newf1[moved]
            f2[upd] = newf2[moved]
            merit[upd] = newm[moved]
            if trace:
                history.append((r3.copy(), r5.copy()))

    return r3, r5, status, iterations, merit, history


def _lockstep_on_pool(r3, r5, tol, max_iter):
    """_newton_lockstep's (r3, r5, status, iterations, merit) for the lanes
    r3, r5, computed in contiguous chunks on the shared pool.

    One chunk per worker: min(CPUs, lanes // _LANES_PER_WORKER) of them,
    and with one the lanes run in this process.  The chunks are joined in
    order; the lanes are independent, so the bits equal one call's."""
    n = _worker_count(os.cpu_count() or 1, r3.size // _LANES_PER_WORKER)
    jobs = [(a, b, tol, max_iter)
            for a, b in zip(np.array_split(r3, n), np.array_split(r5, n))]
    parts = list(_fan_out(_newton_lockstep, jobs, n, lambda job: job[0].size))
    return tuple(np.concatenate(col) for col in zip(*(p[:5] for p in parts)))


def _check_count(name: str, value) -> None:
    """DomainError unless value is an integer (not a bool) >= 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise DomainError(f"{name} {value!r} must be an integer >= 0")


def _check_budget(tol, max_iter) -> None:
    """DomainError unless tol is finite and > 0 and max_iter is an integer
    >= 0: a nan or negative tol converges nothing, and a negative budget
    retires no lane at all."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance {tol} must be finite and > 0")
    _check_count("max_iter", max_iter)


@dataclass(frozen=True)
class RefinedRoot:
    """One Newton outcome, with the full-system acceptance verdict."""

    r3: float
    r5: float
    iterations: int
    square_residual: float
    spread: float
    y1: float
    accepted: bool
    history: Optional[Tuple[Tuple[float, float], ...]] = None


def newton_refine(start, tol: float = 1e-10, max_iter: int = 50,
                  trace: bool = False) -> RefinedRoot:
    """Refine one start to a zero of the square subsystem.

    Raises DomainError when the start is outside S or the budget is bad
    (tol not finite and > 0, max_iter not an integer >= 0), and Diverged /
    LeftDomain / MaxIterations when the iteration fails.  On success the
    result carries the full-system check: accepted means the nine-lambda
    spread and |y1| are both below 10*tol at the refined point.
    """
    _check_budget(tol, max_iter)
    p = (float(start[0]), float(start[1]))
    if not in_domain(p):
        raise DomainError(f"start {p} outside the domain")
    r3, r5, status, iters, merit, hist = _newton_lockstep(
        np.array([p[0]]), np.array([p[1]]), tol, max_iter, trace=trace
    )
    code = int(status[0])
    where = (float(r3[0]), float(r5[0]))
    if code == _DIVERGED:
        raise Diverged(f"diverged from {p}: residual {merit[0]:.3e} at {where}")
    if code == _LEFT_DOMAIN:
        raise LeftDomain(f"iteration from {p} pinned against the domain boundary at {where}")
    if code == _MAX_ITER:
        raise MaxIterations(f"no convergence from {p} in {max_iter} iterations")
    full = residual_vector(where)
    gate = 10.0 * tol
    return RefinedRoot(
        r3=where[0],
        r5=where[1],
        iterations=int(iters[0]),
        square_residual=float(merit[0]),
        spread=full.pairwise_spread,
        y1=full.y1,
        accepted=full.pairwise_spread < gate and abs(full.y1) < gate,
        history=tuple((float(a[0]), float(b[0])) for a, b in hist) if trace else None,
    )


@dataclass(frozen=True)
class ScanRoot:
    """A deduplicated accepted root and the size of its Newton basin."""

    r3: float
    r5: float
    spread: float
    y1: float
    basin_count: int


@dataclass(frozen=True)
class RootReport:
    """Outcome of a multi-start scan over a window."""

    window: Tuple[Tuple[float, float], Tuple[float, float]]
    n_starts: int
    tol: float
    seed: int
    roots: Tuple[ScanRoot, ...]
    stats: Dict[str, float]

    def to_payload(self) -> dict:
        return {
            "window": [list(self.window[0]), list(self.window[1])],
            "n_starts": self.n_starts,
            "tol": self.tol,
            "seed": self.seed,
            "roots": [
                {
                    "r3": r.r3,
                    "r5": r.r5,
                    "spread": r.spread,
                    "y1": r.y1,
                    "basin_count": r.basin_count,
                }
                for r in self.roots
            ],
            "stats": dict(self.stats),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent)


def _dedupe(r3, r5, sq) -> List[Tuple[float, float, float, int]]:
    """Greedy lexicographic clustering with the merge radius.

    Returns (r3, r5, best square residual, member count) per cluster; the
    representative is the member with the smallest square residual.
    """
    order = np.lexsort((r5, r3))
    clusters: List[List[float]] = []
    for idx in order:
        x, y, q = float(r3[idx]), float(r5[idx]), float(sq[idx])
        placed = False
        for c in clusters:
            if (x - c[0]) ** 2 + (y - c[1]) ** 2 <= MERGE_RADIUS**2:
                c[3] += 1
                if q < c[2]:
                    c[0], c[1], c[2] = x, y, q
                placed = True
                break
        if not placed:
            clusters.append([x, y, q, 1])
    return [(c[0], c[1], c[2], int(c[3])) for c in clusters]


def grid_scan(window, n_starts: int, tol: float = 1e-10, seed: int = 0,
              max_iter: int = 60) -> RootReport:
    """Multi-start Newton over window ∩ S with deduplicated roots.

    window is ((r3_lo, r3_hi), (r5_lo, r5_hi)), finite and non-degenerate,
    tol is finite and > 0, max_iter and seed are integers >= 0
    (DomainError otherwise).  Starts are seeded R2 points
    (geometry.quasi_points) scaled into the window; starts falling
    outside S are skipped (counted in stats); quasi_points refuses a
    count that is not an integer in 0..GRID_CAP (ValueError) before
    allocating the starts.  Every reported root passed the full-system
    gate, and distinct roots are > MERGE_RADIUS apart.
    """
    (lo3, hi3), (lo5, hi5) = (
        (float(window[0][0]), float(window[0][1])),
        (float(window[1][0]), float(window[1][1])),
    )
    if not (lo3 < hi3 and lo5 < hi5):
        raise DomainError(f"degenerate scan window {window}")
    if not np.all(np.isfinite((lo3, hi3, lo5, hi5))):
        raise DomainError(f"scan window {window} is not finite")
    _check_budget(tol, max_iter)
    _check_count("seed", seed)
    t0 = time.perf_counter()
    pts = quasi_points(n_starts, seed)
    n_starts, seed = int(n_starts), int(seed)
    stats: Dict[str, float] = {
        "starts": n_starts, "in_domain": 0, "converged": 0, "diverged": 0,
        "left_domain": 0, "max_iterations": 0, "escaped_window": 0,
        "rejected_full_gate": 0,
    }
    if n_starts == 0:
        stats["wall_seconds"] = round(time.perf_counter() - t0, 6)
        return RootReport(((lo3, hi3), (lo5, hi5)), 0, tol, seed, (), stats)

    s3 = lo3 + pts[:, 0] * (hi3 - lo3)
    s5 = lo5 + pts[:, 1] * (hi5 - lo5)
    keep = in_domain((s3, s5))
    if not keep.any():
        raise DomainError(f"window {window} does not intersect the domain")
    s3, s5 = s3[keep], s5[keep]
    stats["in_domain"] = int(s3.size)

    r3, r5, status, _, merit = _lockstep_on_pool(s3, s5, tol, max_iter)
    stats["converged"] = int(np.count_nonzero(status == _CONVERGED))
    stats["diverged"] = int(np.count_nonzero(status == _DIVERGED))
    stats["left_domain"] = int(np.count_nonzero(status == _LEFT_DOMAIN))
    stats["max_iterations"] = int(np.count_nonzero(status == _MAX_ITER))

    # Only roots inside the window belong in the report.  This also drops
    # lanes that flee toward infinity, where all forces flatten and the
    # residual (and even the full system) degenerates to zero.
    converged = status == _CONVERGED
    inside = (r3 >= lo3) & (r3 <= hi3) & (r5 >= lo5) & (r5 <= hi5)
    ok = converged & inside
    stats["escaped_window"] = int(np.count_nonzero(converged & ~inside))
    accepted: List[ScanRoot] = []
    gate = 10.0 * tol
    for x, y, q, count in _dedupe(r3[ok], r5[ok], merit[ok]):
        full = residual_vector((x, y))
        if full.pairwise_spread < gate and abs(full.y1) < gate:
            accepted.append(ScanRoot(x, y, full.pairwise_spread, full.y1, count))
        else:
            stats["rejected_full_gate"] += count
    stats["wall_seconds"] = round(time.perf_counter() - t0, 6)
    return RootReport(
        window=((lo3, hi3), (lo5, hi5)),
        n_starts=n_starts,
        tol=tol,
        seed=seed,
        roots=tuple(accepted),
        stats=stats,
    )
