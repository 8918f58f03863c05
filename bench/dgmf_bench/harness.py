"""One benchmark run: set-up, a closed loop of passes over the job list, the
oracles, and the result line.

A run has one client in one process, sending its next job only after the
previous one has finished.  It repeats passes over the fixed job list until
``seconds`` have gone by.  A traced run instead makes untraced passes for half
of ``seconds``, then the same number of traced passes, and reports per-layer
metrics per pass.

Times are in reference seconds.  On a shared machine the speed of a fixed
pure-Python loop can drift by +-25% over minutes, for all code alike (as
measured on a 2-core shared VM).  So a fixed calibration loop that does not
use dgmf runs between jobs, at least every CALIBRATE_EVERY seconds, and each
measured interval is scaled by REFERENCE_S over the median calibration time
around it: a reference second is a second at the speed where the calibration
loop takes REFERENCE_S.  The summary lines also give the wall-clock figures.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

from .workloads import WORKLOADS

SETUP_REPEATS = 11
DEFAULT_SEED = 0
DIGESTS = os.path.join(os.path.dirname(__file__), "digests.json")

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "peak_rss_mb": "MB",
}


def fresh_import(src):
    """Import dgmf (and the cli and specfile modules) from ``src`` afresh."""
    for name in [n for n in sys.modules if n == "dgmf" or n.startswith("dgmf.")]:
        del sys.modules[name]
    lib = importlib.import_module("dgmf")
    importlib.import_module("dgmf.cli")
    importlib.import_module("dgmf.specfile")
    if os.path.dirname(os.path.abspath(lib.__file__)) != os.path.join(src, "dgmf"):
        raise ImportError(f"dgmf was imported from {lib.__file__}, not from {src}")
    return lib


CALIBRATE_EVERY = 0.2
REFERENCE_S = 0.005
_CAL_A = [Fraction(i + 1, i + 2) for i in range(8)]
_CAL_B = [Fraction(2 * i + 1, 3 * i + 1) for i in range(8)]


def _calibration_work():
    """Fixed Fraction arithmetic, independent of dgmf: the unit of speed."""
    for _ in range(20):
        out = [Fraction(0)] * 15
        for i, x in enumerate(_CAL_A):
            for j, y in enumerate(_CAL_B):
                out[i + j] += x * y
    return out


class Clock:
    """Wall-clock intervals and the calibration runs interleaved with them."""

    def __init__(self):
        self.cal_at = []  # end time of each calibration run
        self.cal_s = []   # its duration

    def calibrate(self, force=False):
        now = perf_counter()
        if force or not self.cal_at or now - self.cal_at[-1] >= CALIBRATE_EVERY:
            _calibration_work()
            end = perf_counter()
            self.cal_at.append(end)
            self.cal_s.append(end - now)

    def reference(self, start, end):
        """Reference seconds of the interval [start, end]: the calibration
        runs within a second of it set the machine's speed."""
        lo = bisect.bisect_left(self.cal_at, start - 1.0)
        hi = bisect.bisect_right(self.cal_at, end + 1.0)
        near = self.cal_s[lo:hi] or self.cal_s
        return (end - start) * REFERENCE_S / statistics.median(near)


def setup(workload, seed, src, workdir, clock):
    """Import and build the inputs SETUP_REPEATS times; keep the last.
    Returns the wall and reference seconds of each repetition."""
    spans = []
    for _ in range(SETUP_REPEATS):
        clock.calibrate(force=True)
        start = perf_counter()
        lib = fresh_import(src)
        jobs = WORKLOADS[workload](seed, lib, workdir)
        spans.append((start, perf_counter()))
    clock.calibrate(force=True)
    return lib, jobs, [(end - start, clock.reference(start, end)) for start, end in spans]


class Tally:
    """Job intervals (one list per pass), failures, and the digest of the
    first pass's outputs."""

    def __init__(self, clock):
        self.clock = clock
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = hashlib.sha256()

    def wall(self):
        return [end - start for spans in self.passes for start, end in spans]

    def reference(self):
        """Reference seconds of every job, one list per pass."""
        return [[self.clock.reference(start, end) for start, end in spans]
                for spans in self.passes]

    def run_pass(self, jobs, call=None, record_digest=False):
        """Run every job once."""
        spans = []
        self.passes.append(spans)
        for job in jobs:
            self.attempted += 1
            self.clock.calibrate()
            start = perf_counter()
            try:
                out = call(job.run) if call else job.run()
            except Exception:
                spans.append((start, perf_counter()))
                self.failed += 1
                self.problems.append(f"{job.label}: {traceback.format_exc(limit=3)}")
                continue
            spans.append((start, perf_counter()))
            problems, data = job.check(out)
            if problems:
                self.failed += 1
                self.problems.append(f"{job.label}: {'; '.join(problems)}")
            if record_digest:
                self.digest.update(job.label.encode() + b"\0" + data + b"\0")
        self.clock.calibrate(force=True)


def run(workload, seed, seconds, trace, root, max_jobs=None):
    """One run; returns the result dict and the lines of its summary."""
    src = os.path.join(root, "src")
    out_dir = os.path.join(root, "bench", "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    clock = Clock()
    try:
        lib, jobs, setup_times = setup(workload, seed, src, workdir, clock)
        if max_jobs is not None:
            jobs = jobs[:max_jobs]
        tally = Tally(clock)
        if trace:
            metrics, spans_path = _traced(workload, seed, seconds, jobs, tally, out_dir)
        else:
            metrics = _untraced(seconds, jobs, tally, setup_times)
            spans_path = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest = tally.digest.hexdigest()
    expected = None
    if seed == DEFAULT_SEED and max_jobs is None:
        with open(DIGESTS) as fh:
            expected = json.load(fh).get(workload)
    correct = tally.failed == 0 and (expected is None or expected == digest)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    wall = tally.wall()
    lines = [f"workload {workload}, seed {seed}, {len(jobs)} jobs per pass, "
             f"{len(wall)} jobs timed, {'traced' if trace else 'untraced'}",
             f"wall clock: setup {statistics.median(w for w, _ in setup_times):.6f} s, "
             f"job p50 {statistics.median(wall):.6f} s; calibration median "
             f"{statistics.median(clock.cal_s) * 1000:.3f} ms over {len(clock.cal_s)} runs"]
    if not trace and len(wall) >= 100:
        p90 = statistics.quantiles([t for ts in tally.reference() for t in ts], n=10)[-1]
        lines.append(f"job_s.p90 = {p90:.6f} s over {len(wall)} jobs")
    lines.append(f"output digest {digest}"
                 + ("" if expected is None else
                    " (matches)" if expected == digest else f" (EXPECTED {expected})"))
    if spans_path:
        lines.append(f"spans written to {spans_path}")
    lines += [f"FAILED {p}" for p in tally.problems]
    return result, lines


def _untraced(seconds, jobs, tally, setup_times):
    start = perf_counter()
    first = True
    while first or perf_counter() - start < seconds:
        tally.run_pass(jobs, record_digest=first)
        first = False
    passes = tally.reference()
    # each job's median over the passes, so that one slow pass does not move
    # the rate
    per_job = [statistics.median(ts) for ts in zip(*passes)]
    done_share = (tally.attempted - tally.failed) / tally.attempted
    values = {
        "setup_s": statistics.median(r for _, r in setup_times),
        "jobs_per_s": done_share * len(per_job) / sum(per_job),
        "job_s.p50": statistics.median(t for ts in passes for t in ts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def _traced(workload, seed, seconds, jobs, tally, out_dir):
    from .tracer import Tracer

    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds / 2:
        tally.run_pass(jobs, record_digest=passes == 0)
        passes += 1
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(passes):
            tally.run_pass(jobs, call=tracer.job)
    finally:
        tracer.remove()
    spans_path = os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl")
    tracer.write_spans(spans_path)
    times = [sum(ts) for ts in tally.reference()]
    traced_from = tally.passes[passes][0][0]
    scale = REFERENCE_S / statistics.median(
        c for at, c in zip(tally.clock.cal_at, tally.clock.cal_s) if at >= traced_from)
    return (tracer.layer_metrics(passes, sum(times[:passes]), sum(times[passes:]), scale),
            spans_path)


def main(argv, root):
    import argparse

    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, args.trace, root)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0
