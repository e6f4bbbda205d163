"""Outside-in tracer: spans and counters around farey_brocot's entry points.

The program is not edited.  ``install`` replaces each traced function on
every ``farey_brocot.*`` module attribute bound to it (names are
imported by value, e.g. ``cli.compute_census`` is ``census.census``),
and each registered verify check in ``verify.CHECKS``.

Spans use ``time.perf_counter_ns`` and stay in memory until ``dump``.
A span's self time is its duration minus the time charged to it by its
children; a child charges its full cost including the tracer's own
bookkeeping, so tracer overhead never lands in a layer's self time.
Generators (``level_q_counts``, ``iter_triangles``, ``iter_bases_at``)
get one span per generator whose busy time is the sum of its ``next()``
calls.

Tasks passed to ``run_tasks`` run inside a ``TaskProbe`` named after
the module owning the task function, so task time is charged to that
module and ``jobs.self_s`` is scheduling, pickling and pool overhead
only.  In a forked worker the probe records the task's spans and
counters into fresh buffers and ships them back with the result; the
parent merges them in task order under its ``run_tasks`` span.

``core`` and ``subdivision`` are leaf primitives called once per element
and get no spans: wrapping them would measure the wrapper.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

now = time.perf_counter_ns

CHECK_NAMES = [
    "unimodularity", "regular-partition", "area-lemma2", "sigma1", "lemma4", "lemma7",
    "lemma8", "lemma13", "lemma16", "theorem1-contraction", "completeness",
    "census-formulas", "degree-set", "degree-stability", "max-area", "lemma9-bound",
    "lemma14-bound",
]
# (name, unit, better) of every per-layer metric, in report order.  The
# layer of module ``_jobs`` is called ``jobs``: metric names must start
# with a letter or a digit.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("tiling.level_q_counts_s", "s", "lower"),
    ("tiling.levels", "count", "lower"),
    ("tiling.distinct_states", "count", "lower"),
    ("tiling.collapse_ratio", "ratio", "higher"),
    ("tiling.split_q_states_s", "s", "lower"),
    ("tiling.iter_triangles_s", "s", "lower"),
    ("tiling.triangles", "count", "lower"),
    ("tiling.iter_bases_at_s", "s", "lower"),
    ("tiling.bases", "count", "lower"),
    ("tiling.locate_s", "s", "lower"),
    ("tiling.vertices_up_to_s", "s", "lower"),
    ("census.graph_at_s", "s", "lower"),
    ("census.vertices", "count", "lower"),
    ("census.edges", "count", "lower"),
    ("census.degrees_at_s", "s", "lower"),
    ("census.self_s", "s", "lower"),
    ("census.stable_degree_table_s", "s", "lower"),
    ("census.table_entries", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.moment_s", "s", "lower"),
    ("analysis.moment_sweep_s", "s", "lower"),
    ("analysis.classical_moment_s", "s", "lower"),
    ("analysis.classical_moment_sweep_s", "s", "lower"),
    ("analysis.asymptotic_sweep_s", "s", "lower"),
    ("analysis.dirichlet_L_s", "s", "lower"),
    ("analysis.dirichlet_terms", "count", "lower"),
    ("analysis.zeta_s", "s", "lower"),
    ("analysis.zeta_terms", "count", "lower"),
    ("analysis.classical_L_direct_s", "s", "lower"),
    ("jobs.run_tasks_s", "s", "lower"),
    ("jobs.self_s", "s", "lower"),
    ("jobs.tasks", "count", "lower"),
    ("jobs.workers", "count", "higher"),
    ("jobs.worker_cpu_s", "s", "lower"),
    ("jobs.efficiency", "ratio", "higher"),
    ("render.render_svg_s", "s", "lower"),
    ("render.self_s", "s", "lower"),
    ("render.svg_bytes", "bytes", "lower"),
    ("render.polygons", "count", "lower"),
    ("verify.run_checks_s", "s", "lower"),
    *[(f"verify.{name}_s", "s", "lower") for name in CHECK_NAMES],
    ("cli.self_s", "s", "lower"),
    ("cli.payload_bytes", "bytes", "lower"),
    ("cli.payload_identical", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def _count_levels(c: Counter, level: Dict) -> None:
    c["tiling.levels"] += 1
    c["tiling.distinct_states"] += len(level)
    c["tiling.faces"] += sum(level.values())


def _count_graph(c: Counter, result) -> None:
    verts, edges = result
    c["census.vertices"] += len(verts)
    c["census.edges"] += len(edges)


def _count_svg(c: Counter, svg: str) -> None:
    c["render.svg_bytes"] += len(svg.encode("utf-8"))
    c["render.polygons"] += svg.count("<polygon")


Count = Optional[Callable[[Counter, Any], None]]

GENERATORS: Dict[str, Dict[str, Count]] = {
    "tiling": {
        "level_q_counts": _count_levels,
        "iter_triangles": lambda c, _: c.update(("tiling.triangles",)),
        "iter_bases_at": lambda c, _: c.update(("tiling.bases",)),
    },
}
CALLS: Dict[str, Dict[str, Count]] = {
    "tiling": {"split_q_states": None, "locate": None, "vertices_up_to": None},
    "census": {
        "census": None,
        "graph_at": _count_graph,
        "degrees_at": None,
        "stable_degree_table": lambda c, table: c.update({"census.table_entries": len(table)}),
    },
    "analysis": {
        "moment": None,
        "moment_sweep": None,
        "classical_moment": None,
        "classical_moment_sweep": None,
        "asymptotic_sweep": None,
        "dirichlet_L": lambda c, sv: c.update({"analysis.dirichlet_terms": sv.terms_used}),
        "zeta": lambda c, sv: c.update({"analysis.zeta_terms": sv.terms_used}),
        "classical_L_direct": None,
    },
    "render": {"render_svg": _count_svg},
    "verify": {"run_checks": None},
    "cli": {"main": None},
}


class Span:
    __slots__ = ("id", "parent", "name", "kind", "lane", "start", "end", "child", "busy")

    def __init__(self, sid: int, parent: Optional[int], name: str, kind: str, lane: int):
        self.id, self.parent, self.name, self.kind, self.lane = sid, parent, name, kind, lane
        self.start = self.end = self.child = self.busy = 0

    def self_ns(self) -> int:
        return (self.busy if self.kind == "gen" else self.end - self.start) - self.child

    def row(self) -> List:
        return [self.id, self.parent, self.name, self.kind, self.lane, self.start, self.end,
                self.child, self.busy]


class Recorder:
    """Spans and counters of one process; workers fill forked copies."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.counters: Counter = Counter()
        self._ids = 0
        # Set in a forked worker while it runs a task shipped from the parent.
        self.worker_task = False

    def open(self, name: str, kind: str) -> Span:
        self._ids += 1
        span = Span(self._ids, self.stack[-1].id if self.stack else None, name, kind, os.getpid())
        self.spans.append(span)
        return span

    def charge(self, since: int) -> None:
        """Charge the caller's frame for everything since `since`."""
        if self.stack:
            self.stack[-1].child += now() - since

    def dump(self, path: str, wall_ns: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "wall_ns": wall_ns, "counters": dict(self.counters),
                       "spans": [s.row() for s in self.spans]}, fh)


# The recorder that forked pool workers inherit; set by install().
_ACTIVE: Optional[Recorder] = None


def _call_span(rec: Recorder, name: str, kind: str, fn: Callable, args: tuple, kwargs: dict, count: Count):
    t_in = now()
    span = rec.open(name, kind)
    rec.stack.append(span)
    span.start = now()
    try:
        result = fn(*args, **kwargs)
    except BaseException:
        span.end = now()
        rec.stack.pop()
        rec.charge(t_in)
        raise
    span.end = now()
    rec.stack.pop()
    if count is not None:
        count(rec.counters, result)
    rec.charge(t_in)
    return result


def _wrap_call(rec: Recorder, name: str, fn: Callable, count: Count) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _call_span(rec, name, "call", fn, args, kwargs, count)

    return traced


def _wrap_gen(rec: Recorder, name: str, fn: Callable, count: Count) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        span = None
        try:
            while True:
                t_in = now()
                if span is None:
                    span = rec.open(name, "gen")
                    span.start = t_in
                rec.stack.append(span)
                t0 = now()
                try:
                    item = next(inner)
                except BaseException:
                    span.end = now()
                    span.busy += span.end - t0
                    rec.stack.pop()
                    rec.charge(t_in)
                    raise
                span.end = now()
                span.busy += span.end - t0
                rec.stack.pop()
                if count is not None:
                    count(rec.counters, item)
                rec.charge(t_in)
                yield item
        except StopIteration:
            return
        finally:
            inner.close()

    return traced


class _FromWorker:
    """A task result shipped back from a forked worker with its trace."""

    __slots__ = ("value", "pid", "spans", "counters")

    def __init__(self, value, pid, spans, counters):
        self.value, self.pid, self.spans, self.counters = value, pid, spans, counters


class TaskProbe:
    """Picklable stand-in for the task function given to ``run_tasks``."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

    def __call__(self, task):
        rec = _ACTIVE
        if os.getpid() == rec.pid or rec.worker_task:
            return _call_span(rec, self.name, "task", self.fn, (task,), {}, None)
        rec.spans, rec.stack, rec.counters = [], [], Counter()
        rec.worker_task = True
        try:
            value = _call_span(rec, self.name, "task", self.fn, (task,), {}, None)
        finally:
            rec.worker_task = False
        return _FromWorker(value, os.getpid(), [s.row() for s in rec.spans], dict(rec.counters))


def _cpu_ns(who: int) -> int:
    ru = resource.getrusage(who)
    return int((ru.ru_utime + ru.ru_stime) * 1e9)


def _union_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _wrap_run_tasks(rec: Recorder, run_tasks: Callable) -> Callable:
    @functools.wraps(run_tasks)
    def traced(fn, tasks, jobs=1):
        tasks = list(tasks)
        t_in = now()
        # Pool size and CPU are accounted at the outermost call only.
        outermost = not rec.worker_task and all(s.name != "jobs.run_tasks" for s in rec.stack)
        span = rec.open("jobs.run_tasks", "call")
        rec.stack.append(span)
        self0, kids0 = _cpu_ns(resource.RUSAGE_SELF), _cpu_ns(resource.RUSAGE_CHILDREN)
        span.start = now()
        try:
            raw = run_tasks(TaskProbe(fn), tasks, jobs)
        except BaseException:
            span.end = now()
            rec.stack.pop()
            rec.charge(t_in)
            raise
        span.end = now()
        rec.stack.pop()
        self1, kids1 = _cpu_ns(resource.RUSAGE_SELF), _cpu_ns(resource.RUSAGE_CHILDREN)
        results, pids, roots = [], set(), []
        for item in raw:
            if not isinstance(item, _FromWorker):
                results.append(item)
                continue
            results.append(item.value)
            pids.add(item.pid)
            rec.counters.update(item.counters)
            remap: Dict[int, int] = {}
            for row in item.spans:
                rec._ids += 1
                remap[row[0]] = rec._ids
                s = Span(rec._ids, remap.get(row[1], span.id), row[2], row[3], row[4])
                s.start, s.end, s.child, s.busy = row[5:]
                rec.spans.append(s)
                if row[1] is None:
                    roots.append((s.start, s.end))
        if pids:
            span.child += _union_ns(roots, span.start, span.end)
            workers, worker_cpu = len(pids), kids1 - kids0
        else:
            workers, worker_cpu = (1 if tasks else 0), self1 - self0
        c = rec.counters
        c["jobs.tasks"] += len(tasks)
        if outermost:
            c["jobs.workers"] = max(c["jobs.workers"], workers)
            c["jobs.worker_cpu_ns"] += worker_cpu
            c["jobs.capacity_ns"] += workers * (span.end - span.start)
        rec.charge(t_in)
        return results

    return traced


def install(rec: Recorder) -> None:
    """Wrap every traced entry point of the imported farey_brocot package."""
    global _ACTIVE
    _ACTIVE = rec
    import farey_brocot.cli  # noqa: F401  (imports every traced module)

    modules = [m for n, m in sorted(sys.modules.items()) if n == "farey_brocot" or n.startswith("farey_brocot.")]

    def rebind(target, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is target:
                    setattr(module, attr, wrapper)

    for table, wrap in ((GENERATORS, _wrap_gen), (CALLS, _wrap_call)):
        for modname, names in table.items():
            module = sys.modules[f"farey_brocot.{modname}"]
            for fname, count in names.items():
                target = getattr(module, fname)
                rebind(target, wrap(rec, f"{modname}.{fname}", target, count))
    jobs = sys.modules["farey_brocot._jobs"]
    rebind(jobs.run_tasks, _wrap_run_tasks(rec, jobs.run_tasks))
    checks = sys.modules["farey_brocot.verify"].CHECKS
    for name, check in list(checks.items()):
        checks[name] = _wrap_call(rec, f"verify.{name}", check, None)


# --- aggregation --------------------------------------------------------------


def load_spans(dump: Dict) -> List[Span]:
    spans = []
    for row in dump["spans"]:
        s = Span(*row[:5])
        s.start, s.end, s.child, s.busy = row[5:]
        spans.append(s)
    return spans


def layer_metrics(dumps: Iterable[Dict]) -> Dict[str, float]:
    """Per-layer metrics of one pass, from the trace dumps of its requests.

    ``<module>.<function>_s`` is inclusive time of the outermost calls,
    summed over every process (forked workers included); a generator
    contributes its busy time.  ``<module>.self_s`` sums the self time of
    the module's spans, tasks included.
    """
    totals: Counter = Counter()
    counters: Counter = Counter()
    workers = 0
    for dump in dumps:
        spans = load_spans(dump)
        by_id = {s.id: s for s in spans}
        for s in spans:
            module = s.name.partition(".")[0]
            totals[f"{module}.self_s"] += s.self_ns()
            if s.kind == "gen":
                totals[f"{s.name}_s"] += s.busy
            elif s.kind == "call" and not _inside_same(s, by_id):
                totals[f"{s.name}_s"] += s.end - s.start
        c = Counter(dump["counters"])
        workers = max(workers, c.pop("jobs.workers", 0))
        counters.update(c)
    metrics: Dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        metrics[name] = totals[name] / 1e9 if unit == "s" else counters[name]
    metrics["jobs.workers"] = workers
    metrics["jobs.worker_cpu_s"] = counters["jobs.worker_cpu_ns"] / 1e9
    cap = counters["jobs.capacity_ns"]
    metrics["jobs.efficiency"] = counters["jobs.worker_cpu_ns"] / cap if cap else 0.0
    states = counters["tiling.distinct_states"]
    metrics["tiling.collapse_ratio"] = counters["tiling.faces"] / states if states else 0.0
    return metrics


def _inside_same(span: Span, by_id: Dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == span.name:
            return True
        parent = by_id.get(parent.parent)
    return False
