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
than CPUs, and joins them in order (_scan_on_pool).  A chunk (_scan_chunk)
hands back only what the report reads: its lanes' count per status, its
count of converged lanes outside the window, and r3, r5 and the merit of
its converged lanes inside it.  A smaller scan, or one on one CPU, runs
the same chunk in process and forks nothing; the report does not depend
on the CPU count.  grid_scan is the module's one entry point; every lane
gets the fixed budget of MAX_ITER Newton iterations.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import kernel
from .forces import residual_vector
from .geometry import DomainError, _check_tolerance, quasi_points
from .kernel import _BLOCK, in_domain
from .pool import _fan_out, _worker_count

MERGE_RADIUS = 1e-6
MAX_ITER = 60  # Newton iterations per scan lane
FD_SCALE = 1e-7
MAX_HALVINGS = 30
_MERIT_BLOWUP = 1e8
_DECREASE = 1e-4  # sufficient-decrease slope for the backtracking test
# Fewest scan lanes per worker process.  A pool costs about 0.1 s to start
# and join: on a 2-vCPU VM two workers only break even at 12 500 lanes
# (20 000 starts over [0.2, 3]^2) and save a quarter at 31 000.
_LANES_PER_WORKER = _BLOCK
_DEDUPE_ROWS = 1024  # sorted converged lanes _dedupe reads per tolist()

# Lane status codes used by the lockstep core.
_RUNNING, _CONVERGED, _DIVERGED, _LEFT_DOMAIN, _MAX_ITER = 0, 1, 2, 3, 4


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


def _newton_lockstep(r3, r5, tol, max_iter):
    """Damped Newton on all lanes at once, at most max_iter iterations.

    Returns (r3, r5, status, iterations, merit).  Retired lanes keep their
    final values; a lane still running after max_iter iterations retires
    as _MAX_ITER holding its max_iter-th iterate.
    """
    r3 = np.array(r3, dtype=float, copy=True)
    r5 = np.array(r5, dtype=float, copy=True)
    n = r3.size
    status = np.full(n, _RUNNING, dtype=np.int8)
    iterations = np.zeros(n, dtype=np.int64)

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

    return r3, r5, status, iterations, merit


def _scan_chunk(r3, r5, tol, window):
    """What grid_scan reads of _newton_lockstep over the lanes r3, r5 (a
    budget of MAX_ITER iterations): the lanes' count per status code, the
    count of converged lanes outside window, and r3, r5 and merit of the
    converged lanes inside it, in lane order: all that a pool job pickles
    back to the scan's process."""
    (lo3, hi3), (lo5, hi5) = window
    r3, r5, status, _, merit = _newton_lockstep(r3, r5, tol, MAX_ITER)
    # Only roots inside the window belong in the report.  This also drops
    # lanes that flee toward infinity, where all forces flatten and the
    # residual (and even the full system) degenerates to zero.
    converged = status == _CONVERGED
    inside = (r3 >= lo3) & (r3 <= hi3) & (r5 >= lo5) & (r5 <= hi5)
    ok = converged & inside
    return (np.bincount(status, minlength=_MAX_ITER + 1),
            int(np.count_nonzero(converged & ~inside)), r3[ok], r5[ok], merit[ok])


def _scan_on_pool(r3, r5, tol, window):
    """_scan_chunk(r3, r5, tol, window), computed in contiguous chunks on
    the shared pool.

    One chunk per worker: min(CPUs, lanes // _LANES_PER_WORKER) of them,
    and with one the lanes run in this process.  The counts are summed and
    the converged lanes joined in chunk order; the lanes are independent,
    so the bits equal one call's."""
    n = _worker_count(os.cpu_count() or 1, r3.size // _LANES_PER_WORKER)
    jobs = [(a, b, tol, window)
            for a, b in zip(np.array_split(r3, n), np.array_split(r5, n))]
    counts, escaped, *lanes = zip(*_fan_out(_scan_chunk, jobs, n, lambda job: job[0].size))
    return (sum(counts), sum(escaped), *(np.concatenate(col) for col in lanes))


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
    representative is the member with the smallest square residual.  The
    sorted members are read as Python floats, _DEDUPE_ROWS per tolist():
    a float() per member takes twice as long, and lists over all members
    would raise the scan's peak RSS by about 2.5 MB.
    """
    order = np.lexsort((r5, r3))
    clusters: List[List[float]] = []
    for lo in range(0, order.size, _DEDUPE_ROWS):
        rows = order[lo:lo + _DEDUPE_ROWS]
        for x, y, q in zip(r3[rows].tolist(), r5[rows].tolist(), sq[rows].tolist()):
            for c in clusters:
                if (x - c[0]) ** 2 + (y - c[1]) ** 2 <= MERGE_RADIUS**2:
                    c[3] += 1
                    if q < c[2]:
                        c[0], c[1], c[2] = x, y, q
                    break
            else:
                clusters.append([x, y, q, 1])
    return [(c[0], c[1], c[2], c[3]) for c in clusters]


def _starts(window, n_starts, seed):
    """The in-domain starts (r3, r5) of a scan: the first n_starts seeded
    R2 points scaled into window, those outside S dropped.  The points,
    the unfiltered starts and the domain mask die on return, before the
    Newton lanes run."""
    (lo3, hi3), (lo5, hi5) = window
    pts = quasi_points(n_starts, seed)
    s3 = lo3 + pts[:, 0] * (hi3 - lo3)
    s5 = lo5 + pts[:, 1] * (hi5 - lo5)
    keep = in_domain((s3, s5))
    return s3[keep], s5[keep]


def grid_scan(window, n_starts: int, tol: float = 1e-10, seed: int = 0) -> RootReport:
    """Multi-start Newton over window ∩ S with deduplicated roots.

    window is ((r3_lo, r3_hi), (r5_lo, r5_hi)), finite and non-degenerate,
    and tol is finite and > 0 (DomainError otherwise).  Starts are seeded
    R2 points (geometry.quasi_points, which refuses a count that is not an
    integer in 0..GRID_CAP or a seed that is not an integer >= 0 before
    allocating them) scaled into the window; starts falling outside S are
    skipped (counted in stats).  Each lane runs at most MAX_ITER Newton
    iterations.  Every reported root passed the full-system gate, and
    distinct roots are > MERGE_RADIUS apart.
    """
    (lo3, hi3), (lo5, hi5) = (
        (float(window[0][0]), float(window[0][1])),
        (float(window[1][0]), float(window[1][1])),
    )
    if not (lo3 < hi3 and lo5 < hi5):
        raise DomainError(f"degenerate scan window {window}")
    if not np.all(np.isfinite((lo3, hi3, lo5, hi5))):
        raise DomainError(f"scan window {window} is not finite")
    _check_tolerance(tol)
    t0 = time.perf_counter()
    bounds = ((lo3, hi3), (lo5, hi5))
    s3, s5 = _starts(bounds, n_starts, seed)
    n_starts, seed = int(n_starts), int(seed)
    stats: Dict[str, float] = {
        "starts": n_starts, "in_domain": int(s3.size), "converged": 0, "diverged": 0,
        "left_domain": 0, "max_iterations": 0, "escaped_window": 0,
        "rejected_full_gate": 0,
    }
    if n_starts == 0:
        stats["wall_seconds"] = round(time.perf_counter() - t0, 6)
        return RootReport(bounds, 0, tol, seed, (), stats)
    if s3.size == 0:
        raise DomainError(f"window {window} does not intersect the domain")

    counts, stats["escaped_window"], r3, r5, merit = _scan_on_pool(s3, s5, tol, bounds)
    for key, code in (("converged", _CONVERGED), ("diverged", _DIVERGED),
                      ("left_domain", _LEFT_DOMAIN), ("max_iterations", _MAX_ITER)):
        stats[key] = int(counts[code])

    accepted: List[ScanRoot] = []
    gate = 10.0 * tol
    for x, y, q, count in _dedupe(r3, r5, merit):
        full = residual_vector((x, y))
        if full.pairwise_spread < gate and abs(full.y1) < gate:
            accepted.append(ScanRoot(x, y, full.pairwise_spread, full.y1, count))
        else:
            stats["rejected_full_gate"] += count
    stats["wall_seconds"] = round(time.perf_counter() - t0, 6)
    return RootReport(
        window=bounds,
        n_starts=n_starts,
        tol=tol,
        seed=seed,
        roots=tuple(accepted),
        stats=stats,
    )
