"""The one way primcount runs independent jobs on the usable CPUs.

Training members, member encoders and recording writers all go through
`_fork_map`, which forks at most one worker per usable CPU.
"""

from __future__ import annotations

import multiprocessing
import os


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_share(fn, jobs: list[tuple], conn) -> None:
    """Worker body: send (error, fn(*job)) for each job, up to the first error."""
    try:
        for job in jobs:
            conn.send((None, fn(*job)))
    except Exception as e:  # the parent raises it
        conn.send((e, None))


def _fork_map(fn, jobs: list[tuple], died: type[Exception] = ChildProcessError) -> list:
    """[fn(*job) for job in jobs], in up to min(jobs, usable CPUs) workers.

    Worker k of n runs the round-robin share k, k + n, ... in order, and
    results come back in job order. A single job runs in this process, so
    a worker never forks again. The first failure in job order, the job's
    own exception or `died` for a worker that exited without a result, is
    raised as soon as it is known, after every worker is stopped.
    """
    if len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    # fork, so workers inherit fn and their jobs (arrays shared copy-on-write)
    # as they are now, even a closure; only results and errors cross a pickle.
    # Workers of our own rather than a pool: ProcessPoolExecutor cannot stop
    # the workers still running after a failure, and multiprocessing.Pool
    # waits forever for the result of a worker killed, say, for memory.
    # Shares are round-robin as the parent reads in job order: a contiguous
    # share's result too large for the pipe would wait for the share before.
    ctx = multiprocessing.get_context("fork")
    width = min(len(jobs), _usable_cpus())
    workers, results = [], []
    try:
        for k in range(width):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_fork_share, args=(fn, jobs[k::width], send))
            proc.start()
            send.close()
            workers.append((proc, recv))
        for i in range(len(jobs)):
            proc, recv = workers[i % width]
            try:
                error, result = recv.recv()
            except EOFError:
                proc.join()
                raise died(f"job {i} worker exited with code {proc.exitcode}") from None
            if error is not None:
                raise error
            results.append(result)
    finally:
        for proc, recv in workers:
            proc.terminate()
            proc.join()
            recv.close()
    return results
