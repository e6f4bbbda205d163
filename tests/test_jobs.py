import os
import time

import pytest

from farey_brocot import _jobs


def _pid(x):
    return x, os.getpid()


def _fail_3_and_4(x):
    if x in (3, 4):
        raise ValueError(f"task {x}")
    return x


def _exit_7_at_2(x):
    if x == 2:
        os._exit(7)
    return x


def _sleep(x):
    time.sleep(30)


def _mib(x):
    return bytes([x]) * (1 << 20)


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    # Every test below forks two workers, on any host.
    monkeypatch.setattr(_jobs.os, "cpu_count", lambda: 2)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_capped_at_cpu_count(monkeypatch):
    out = _jobs.run_tasks(_pid, range(10), jobs=72)
    assert [x for x, _ in out] == list(range(10))
    pids = {pid for _, pid in out}
    assert len(pids) == 2 and os.getpid() not in pids
    # the interleaved split: task i runs in worker i % 2
    assert {pid for _, pid in out[0::2]} == {out[0][1]} and {pid for _, pid in out[1::2]} == {out[1][1]}
    _assert_no_child_left()
    # one CPU, one task or one job: every task runs in this process
    for cpus, tasks, jobs in ((1, range(10), 8), (2, [3], 8), (2, range(10), 1)):
        monkeypatch.setattr(_jobs.os, "cpu_count", lambda: cpus)
        out = _jobs.run_tasks(_pid, tasks, jobs)
        assert out == [(x, os.getpid()) for x in tasks]


def test_the_lowest_failing_task_raises_at_any_jobs():
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="^task 3$"):
            _jobs.run_tasks(_fail_3_and_4, range(8), jobs)
        _assert_no_child_left()


def test_a_dead_worker_raises():
    with pytest.raises(RuntimeError, match="died without a result"):
        _jobs.run_tasks(_exit_7_at_2, range(8), 2)
    _assert_no_child_left()


def test_an_interrupted_parent_kills_its_workers(monkeypatch):
    def interrupted(fd):
        raise KeyboardInterrupt

    monkeypatch.setattr(_jobs, "_read_to_eof", interrupted)
    t = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _jobs.run_tasks(_sleep, range(2), 2)
    assert time.perf_counter() - t < 10
    _assert_no_child_left()


def test_results_larger_than_a_pipe_come_back_intact():
    out = _jobs.run_tasks(_mib, range(5), 2)
    assert out == [bytes([x]) * (1 << 20) for x in range(5)]
    _assert_no_child_left()
