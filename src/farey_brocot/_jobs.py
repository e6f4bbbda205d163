"""Order-preserving task execution, sequential or across forked processes.

Callers decompose work into a canonical task list that depends only on
the request, never on the worker count; results are reduced in task
order.  Exact values are then trivially identical for any `jobs`, and
floating aggregates are too because each task's sum is computed the
same way wherever it runs.

With more than one worker, `run_tasks` forks them itself.  Worker w of
`workers` runs the interleaved share `tasks[w::workers]` in order, stops
at its first failing task, pickles its results (and that failure, with
its task index) back through its own pipe and leaves with `os._exit`.
The parent reads every pipe to EOF and reaps every child before it
returns or raises, so no worker outlives the call; if the parent itself
is interrupted it kills the workers first.  A failing task raises the
exception of the lowest failing task index, which is the one a
sequential run raises, and a worker that dies without reporting makes
the call raise `RuntimeError`.
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def run_tasks(fn: Callable[[T], R], tasks: Sequence[T], jobs: int = 1) -> List[R]:
    """[fn(t) for t in tasks] on up to `jobs` forked processes, never more
    than there are tasks or CPUs; in process where `os.fork` is missing."""
    tasks = list(tasks)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    import pickle

    pids, pipes, shares = [], [], []
    try:
        for w in range(workers):
            r, wfd = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(fn, tasks, w, workers, wfd)
            finally:
                os.close(wfd)
            pids.append(pid)
        for r in pipes:
            shares.append(_read_to_eof(r))
    except BaseException:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        for r in pipes:
            os.close(r)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]

    results: List = [None] * len(tasks)
    failures = []
    for w, (blob, status) in enumerate(zip(shares, statuses)):
        if status != 0 or not blob:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"worker {w} of {workers} died without a result (exit code {code})")
        values, failure = pickle.loads(blob)
        results[w : w + workers * len(values) : workers] = values
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures)[1]  # task indices are distinct
    return results


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _worker(fn, tasks, w: int, workers: int, fd: int) -> None:
    # The child side of run_tasks; never returns into the caller's stack,
    # and exits 1 unless its whole report is written (a result or an
    # exception that cannot be pickled, say).  os._exit skips flushing the
    # parent's stdio buffers it inherited, which the parent still owns.
    code = 1
    try:
        import pickle

        values, failure = [], None
        for i in range(w, len(tasks), workers):
            try:
                values.append(fn(tasks[i]))
            except BaseException as exc:
                failure = (i, exc)
                break
        view = memoryview(pickle.dumps((values, failure), pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(fd, view) :]
        code = 0
    finally:
        os._exit(code)
