"""Benchmark of the farey_brocot CLI: closed loop, one client.

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 50 --trace 0

Run from the repository root.  Each request is a fresh
``python -m farey_brocot.cli ...`` subprocess with ``PYTHONPATH=src``;
the next request starts only after the previous one has exited.  Passes
over the workload's request list repeat for about ``--seconds`` (at
least one pass) after one untimed warm-up pass, and every output is
checked against the references recorded in ``references.json``.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s``
and ``cpu_s`` are the mean wall and CPU seconds of a timed pass (CPU
from ``wait4`` rusage, forked workers included), ``peak_rss_mb`` the
median over passes of the largest child ``ru_maxrss``, and ``setup_s``
the median of fresh interpreters that only ``import farey_brocot.cli``,
sampled before every pass.  The three times are given at reference host
speed: before every request the run also times the fixed probe of
``calibrate.py``, and each time is multiplied by
``calibrate.REFERENCE_S`` over the probe's mean.  On a shared host the
speed of a whole run drifts by tens of percent; the probe drifts with it
and the program's own changes cannot move it.  The unscaled times, the
median pass and the scale are printed above the result line.  A run
holds only a handful of passes, and their mean moves less from run to
run than their median.

With ``--trace 1`` untraced and traced passes alternate; each traced
request runs under ``traced_cli.py`` and the result holds the per-layer
metrics, unscaled.

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
environment, every metric with its unit, and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import calibrate
import refcheck
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
SETUP_SAMPLES_PER_PASS = 3


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Exit:
    code: Optional[int]
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    stdout: bytes
    stderr: bytes


def _limit_memory() -> None:
    limit = workloads.MEMORY_CEILING_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _kill_group(pgid: int, fired: List[bool]) -> None:
    fired.append(True)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _clear_group(pgid: int) -> None:
    """SIGKILL whatever the request left in its process group and wait,
    for at most two seconds, until the group is gone."""
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(cmd: List[str], ceiling_s: float, work: Path) -> Exit:
    """Run `cmd` from the repository root under the per-request guards:
    a wall-time ceiling (the whole process group is killed) and an
    address-space ceiling set in the child only."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                preexec_fn=_limit_memory, start_new_session=True)
        fired: List[bool] = []
        timer = threading.Timer(ceiling_s, _kill_group, (proc.pid, fired))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = bool(fired)
    if timed_out or proc.returncode != 0:
        _clear_group(proc.pid)
    return Exit(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                timed_out, out_path.read_bytes(), err_path.read_bytes())


def cli_command(argv: List[str]) -> List[str]:
    return [sys.executable, "-m", "farey_brocot.cli", *argv]


def traced_command(argv: List[str], trace_path: Path) -> List[str]:
    return [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), *argv]


@dataclass
class Outcome:
    exit: Exit
    problems: List[str]
    identical: bool
    trace: Optional[Dict] = None


def run_request(argv: List[str], ceiling_s: float, refs: Dict, work: Path, traced: bool = False) -> Outcome:
    trace_path = work / "trace.json"
    cmd = traced_command(argv, trace_path) if traced else cli_command(argv)
    ex = spawn(cmd, ceiling_s, work)
    problems: List[str] = []
    if ex.timed_out:
        problems.append(f"exceeded the {ceiling_s} s ceiling")
    if ex.code != 0:
        problems.append(f"exit code {ex.code}: {ex.stderr.decode(errors='replace').strip()[-300:]}")
    ref = refs.get(workloads.reference_key(argv))
    identical = False
    if ref is None:
        problems.append("no recorded reference")
    elif not problems:
        mismatched, identical = refcheck.check(ex.stdout, ROOT, ref)
        problems.extend(mismatched)
    trace = None
    if traced and not problems:
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
    return Outcome(ex, problems, identical, trace)


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(bool(o.problems) for o in self.outcomes)


def run_pass(reqs, refs: Dict, work: Path, traced: bool, probes: Optional[List[float]] = None) -> Pass:
    """One pass over the requests; with `probes`, time the host-speed
    probe before each request and append its wall time."""
    p = Pass()
    for argv, ceiling in reqs:
        if probes is not None:
            probes.append(measure_probe(work))
        o = run_request(argv, ceiling, refs, work, traced)
        p.outcomes.append(o)
        p.wall_s += o.exit.wall_s
        p.cpu_s += o.exit.cpu_s
        p.peak_rss_mb = max(p.peak_rss_mb, o.exit.rss_mb)
        for problem in o.problems:
            print(f"FAIL {' '.join(argv)}: {problem}", file=sys.stderr)
    return p


def measure_setup(work: Path, samples: int) -> List[float]:
    """Wall times of `samples` fresh interpreters that only
    ``import farey_brocot.cli``."""
    cmd = [sys.executable, "-c", "import farey_brocot.cli"]
    times = []
    for _ in range(samples):
        ex = spawn(cmd, 30.0, work)
        if ex.code != 0:
            raise RuntimeError(f"cannot import farey_brocot.cli: {ex.stderr.decode(errors='replace')}")
        times.append(ex.wall_s)
    return times


def measure_probe(work: Path) -> float:
    """Wall time of one run of the ``calibrate.py`` probe subprocess."""
    ex = spawn([sys.executable, str(HERE / "calibrate.py")], 30.0, work)
    if ex.code != 0:
        raise RuntimeError(f"the host-speed probe failed: {ex.stderr.decode(errors='replace')}")
    return ex.wall_s


def layer_metrics(traced: Pass, untraced: List[Pass]) -> Dict[str, float]:
    metrics = tracer.layer_metrics(o.trace for o in traced.outcomes if o.trace is not None)
    metrics["cli.payload_bytes"] = sum(len(o.exit.stdout) for o in traced.outcomes)
    metrics["cli.payload_identical"] = sum(o.identical for o in traced.outcomes)
    metrics["trace.overhead_s"] = traced.wall_s - statistics.median(p.wall_s for p in untraced)
    return metrics


def environment(seed: int) -> Dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "farey_brocot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "picks": workloads.choose(seed),
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "farey_brocot" / "cli.py").is_file():
        print(f"no farey_brocot sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    work = ROOT / workloads.WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return _run(args, refs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, refs: Dict, work: Path) -> int:
    env = environment(args.seed)
    reqs = workloads.requests(args.workload, args.seed)
    measure_setup(work, 1)  # untimed: fills the bytecode caches
    warmup = run_pass(reqs, refs, work, traced=False)
    setup: List[float] = []
    probes: List[float] = []
    start = time.perf_counter()
    untraced: List[Pass] = []
    traced: List[Pass] = []
    # Start another pass only if it should end, on the pace so far, no
    # more than half a pass after --seconds.
    while not untraced or (time.perf_counter() - start) * (1 + 0.5 / len(untraced)) < args.seconds:
        if not args.trace:
            # Spread over the run, so one busy moment cannot set the median.
            setup += measure_setup(work, SETUP_SAMPLES_PER_PASS)
        untraced.append(run_pass(reqs, refs, work, traced=False, probes=None if args.trace else probes))
        if args.trace:
            traced.append(run_pass(reqs, refs, work, traced=True))
    env["loadavg_end"] = os.getloadavg()
    env["passes"] = len(untraced)
    env["measured_s"] = time.perf_counter() - start

    passes = [warmup] + untraced + traced
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        per_pass = [layer_metrics(p, untraced) for p in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
                   for name, unit, _ in tracer.PER_LAYER}
    else:
        unscaled = {
            "wall_s": statistics.fmean(p.wall_s for p in untraced),
            "cpu_s": statistics.fmean(p.cpu_s for p in untraced),
            "setup_s": statistics.median(setup),
        }
        env["median_pass_wall_s"] = statistics.median(p.wall_s for p in untraced)
        env["probe_mean_s"] = statistics.fmean(probes)
        env["speed_scale"] = calibrate.REFERENCE_S / env["probe_mean_s"]
        env["unscaled"] = unscaled
        values = {name: v * env["speed_scale"] for name, v in unscaled.items()}
        values["peak_rss_mb"] = statistics.median(p.peak_rss_mb for p in untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: 1 warm-up, {len(untraced)} untraced and {len(traced)} traced "
          f"passes of {len(reqs)} requests, closed loop, one client")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6f} {m['unit']}")
    for name, v in env.get("unscaled", {}).items():
        print(f"  {name + ' unscaled':<36} {v:>16.6f} s")
    print(f"  {'fail_ratio':<36} {failed / attempted:>16.6f} ({failed} of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
