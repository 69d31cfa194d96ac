"""The one process pool: independent jobs on fork-started workers.

_fan_out runs the jobs, _worker_count sizes the pool and _forks says
whether a run starts one; see _fan_out for its three users.
concurrent.futures, multiprocessing and ctypes are imported by the first
call that starts a pool, so that `import starcc` stays light.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence

# (trim, mmap) thresholds of glibc's malloc in the process collecting a
# pool's results.  glibc raises its mmap threshold to the size of each
# large block freed; _COLLECT (its initial values) maps each block of
# 128 KiB or more that the caller allocates while the pool runs on its
# own.  Of the three callers only grid_scan allocates such blocks: the
# pickled chunks of starts it sends, the pickled counts and converged
# lanes each chunk hands back, and those lanes joined.  certify_all's
# jobs return certificates without their leaf arrays (they come as maps
# of the spool files) and the bundle verifier's jobs return none, so
# around their pools the thresholds act on nothing.  They stay for the
# scan, whose benchmark peak RSS they keep at 38.7-39.2 MB, not
# 39.4-40.0 MB (10 pairs, 2 vCPUs).  _COLLECT is set after the workers
# fork, as it makes their numpy kernel 2.5 times slower.  _COMPUTE (the
# ceiling of the sliding values on a 64-bit build) is set when the pool
# ends.
_COLLECT = (128 << 10, 128 << 10)
_COMPUTE = (64 << 20, 32 << 20)


def _set_thresholds(trim: int, mmap: int) -> None:
    """Set glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD; elsewhere, nothing."""
    try:
        if os.confstr("CS_GNU_LIBC_VERSION"):
            import ctypes

            mallopt = ctypes.CDLL(None).mallopt
            mallopt(-1, trim)
            mallopt(-3, mmap)
    except (AttributeError, OSError, ValueError):
        pass


def _worker_count(threads: int, jobs: int) -> int:
    """The worker processes _fan_out starts for jobs when asked for
    threads: no more than the jobs or the CPUs (a fork-started pool starts
    every worker at its first job), and at least one."""
    return max(1, min(threads, jobs, os.cpu_count() or 1))


def _forks(workers: int, jobs: int) -> bool:
    """Whether _fan_out runs jobs on a pool of forked workers when asked
    for workers; otherwise each job runs in the calling process."""
    return _worker_count(workers, jobs) > 1 and hasattr(os, "fork")


def _fan_out(fn: Callable, jobs: Sequence[tuple], workers: int,
             cost: Callable[[tuple], float]) -> Iterator:
    """Yield fn(*job) for every job, in job order.

    Unless _forks(workers, len(jobs)) (one worker, or no os.fork), each
    job runs in this process when its result is reached.
    Otherwise the jobs run on a fork-started process pool, submitted in
    descending cost(job) (ties in job order) so that the longest start
    first; fn must then be a module-level function and its arguments
    and results picklable.  Either way a job's exception is raised when
    its result is reached, so both paths raise the same first failure; a
    worker that dies raises BrokenProcessPool.  The pool lives until the
    generator is exhausted or closed (wrap it in contextlib.closing when
    the caller may stop early), and the jobs not yet started are then
    cancelled.  Side effects of jobs after a failure differ: the pool
    finishes the jobs it has started, in any order, while in process no
    later job runs.  A spawned or forkserver worker would import numpy
    and starcc again, about 0.35 s each; a forked one starts with them.

    Three callers share the pool, and none of their results depends on
    the worker count: certify_all (one job per region and one for the
    local certificate, each writing its own file when given a directory
    and its leaf arrays to certify_all's spool directory, which the caller
    maps copy-on-write and reads no leaf of until it is used, so that no
    JSON text and no leaf array crosses the pool), the CLI's bundle verifier
    (one job per file) and grid_scan (one contiguous chunk of Newton
    lanes per worker, which hands back its status counts, its count of
    lanes that converged outside the window and the r3, r5 and merit of
    those that converged inside it).  A pool still costs about 0.1 s to
    start and join, so the scan gives each worker at least kernel._BLOCK
    lanes (solver._LANES_PER_WORKER) and runs a smaller scan in process."""
    if not _forks(workers, len(jobs)):
        for job in jobs:
            yield fn(*job)
        return
    n = _worker_count(workers, len(jobs))
    # imported on first use, so that `import starcc` stays light
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    order = sorted(range(len(jobs)), key=lambda i: -cost(jobs[i]))
    pool = ProcessPoolExecutor(max_workers=n, mp_context=get_context("fork"))
    try:
        futures = {order[0]: pool.submit(fn, *jobs[order[0]])}
        _set_thresholds(*_COLLECT)  # the first submit forked every worker
        futures.update((i, pool.submit(fn, *jobs[i])) for i in order[1:])
        for i in range(len(jobs)):
            yield futures[i].result()
    finally:
        pool.shutdown(cancel_futures=True)
        _set_thresholds(*_COMPUTE)
