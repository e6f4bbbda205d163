import multiprocessing

from farey_brocot import _jobs


class _FakePool:
    sizes = []

    def __init__(self, size):
        self.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=None):
        return [fn(t) for t in tasks]


class _FakeContext:
    Pool = _FakePool


def _square(x):
    return x * x


def test_workers_capped_at_cpu_count(monkeypatch):
    _FakePool.sizes = []
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: _FakeContext)
    monkeypatch.setattr(_jobs.os, "cpu_count", lambda: 2)
    assert _jobs.run_tasks(_square, range(10), jobs=72) == [x * x for x in range(10)]
    assert _jobs.run_tasks(_square, range(3), jobs=8) == [0, 1, 4]
    assert _FakePool.sizes == [2, 2]
    # one CPU, one task or one job: no pool at all
    monkeypatch.setattr(_jobs.os, "cpu_count", lambda: 1)
    _jobs.run_tasks(_square, range(10), jobs=8)
    _jobs.run_tasks(_square, [3], jobs=8)
    _jobs.run_tasks(_square, range(10), jobs=1)
    assert _FakePool.sizes == [2, 2]
