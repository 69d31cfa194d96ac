"""The one process pool: independent jobs on fork-started workers.

_fan_out runs the jobs and _worker_count sizes the pool; see _fan_out for
its three users.  concurrent.futures and multiprocessing are imported by
the first call that starts a pool, so that `import starcc` stays light.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence


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
    cancelled.  A spawned or forkserver worker would import numpy and
    starcc again, about 0.35 s each; a forked one starts with them.

    Three callers share the pool, and none of their results depends on
    the worker count: certify_all (one job per region and one for the
    local certificate), the CLI's bundle verifier (one job per file) and
    grid_scan (one contiguous chunk of Newton lanes per worker).  A pool
    still costs about 0.1 s to start and join, so the scan gives each
    worker at least kernel._BLOCK lanes (solver._LANES_PER_WORKER) and
    runs a smaller scan in process."""
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
        futures = {i: pool.submit(fn, *jobs[i]) for i in order}
        for i in range(len(jobs)):
            yield futures[i].result()
    finally:
        pool.shutdown(cancel_futures=True)
