"""The one process pool: independent jobs on fork-started workers.

_fan_out runs the jobs and _worker_count sizes the pool; see _fan_out for
its three users.  concurrent.futures, multiprocessing and ctypes are
imported by the first call that starts a pool, so that `import starcc`
stays light.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence

# (trim, mmap) thresholds of glibc's malloc in the process collecting a
# pool's results.  glibc raises its mmap threshold to the size of each
# large block freed, so from the second pool on the unpickled leaf arrays
# (11 MB for J15 at width 0.01) landed on the heap, and the peak RSS of a
# process running certify_all again and again varied by 5 MB with the
# order in which the jobs finished.  _COLLECT (glibc's initial values)
# maps each large block on its own; it is set after the workers fork, as
# it makes their numpy kernel 2.5 times slower.  _COMPUTE (the ceiling of
# the sliding values on a 64-bit build) is set when the pool ends.
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


def _fan_out(fn: Callable, jobs: Sequence[tuple], workers: int,
             cost: Callable[[tuple], float]) -> Iterator:
    """Yield fn(*job) for every job, in job order.

    With one worker (_worker_count(workers, len(jobs))), or without
    os.fork, each job runs in this process when its result is reached.
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
    local certificate, each writing its own file when given a directory,
    so that no JSON text crosses the pool), the CLI's bundle verifier
    (one job per file) and grid_scan (one contiguous chunk of Newton
    lanes per worker).  A pool still costs about 0.1 s to start and
    join, so the scan gives each worker at least kernel._BLOCK lanes
    (solver._LANES_PER_WORKER) and runs a smaller scan in process."""
    n = _worker_count(workers, len(jobs))
    if n == 1 or not hasattr(os, "fork"):
        for job in jobs:
            yield fn(*job)
        return
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
