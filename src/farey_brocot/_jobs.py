"""Order-preserving task execution, sequential or across processes.

Callers decompose work into a canonical task list that depends only on
the request, never on the worker count; results are reduced in task
order.  Exact values are then trivially identical for any `jobs`, and
floating aggregates are too because each task's sum is computed the
same way wherever it runs.
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def run_tasks(fn: Callable[[T], R], tasks: Sequence[T], jobs: int = 1) -> List[R]:
    """[fn(t) for t in tasks] on up to `jobs` processes, never more than
    there are tasks or CPUs.  Workers take one task at a time, so a run
    of expensive neighbours is spread rather than batched."""
    tasks = list(tasks)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in tasks]
    try:
        from multiprocessing import get_context

        ctx = get_context("fork")
    except (ImportError, ValueError):
        return [fn(t) for t in tasks]
    with ctx.Pool(workers) as pool:
        return pool.map(fn, tasks, chunksize=1)
