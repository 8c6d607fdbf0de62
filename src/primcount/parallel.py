"""The one way primcount runs independent jobs on the usable CPUs.

Training members, member encoders and recording writers all go through
`_fork_map`, which forks one worker per job.
"""

from __future__ import annotations

import multiprocessing
import os


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_call(fn, job: tuple, conn) -> None:
    """Worker body: send (error, fn(*job)) to the parent."""
    try:
        outcome = (None, fn(*job))
    except Exception as e:  # the parent raises it
        outcome = (e, None)
    conn.send(outcome)


def _fork_map(fn, jobs: list[tuple], died: type[Exception] = ChildProcessError) -> list:
    """[fn(*job) for job in jobs], each job in a forked worker process.

    At most min(len(jobs), usable CPUs) workers run at a time and results
    come back in job order. A single job runs in this process, so a
    worker never forks again. The first failure in job order, the job's
    own exception or `died` for a worker that exited without a result,
    is raised as soon as it is known, after every worker is stopped.
    """
    if len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    # fork, so workers inherit fn and their job (arrays shared
    # copy-on-write) as they are now, even a closure; only results and
    # errors cross a pickle. A process per job rather than a pool:
    # ProcessPoolExecutor cannot stop the workers still running after a
    # failure, and multiprocessing.Pool waits forever for the result of
    # a worker that was killed, say, for memory.
    ctx = multiprocessing.get_context("fork")
    width = _usable_cpus()
    workers, results = [], []
    try:
        for i in range(len(jobs)):
            while len(workers) < min(len(jobs), i + width):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_fork_call, args=(fn, jobs[len(workers)], send))
                proc.start()
                send.close()
                workers.append((proc, recv))
            proc, recv = workers[i]
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
