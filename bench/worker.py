"""Benchmark worker: runs one workload's ops against the library under test.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``,
so it measures the source tree, not an installed package.  It reads one JSON
job on stdin and writes one JSON result on stdout.  It receives only the
generated inputs and returns the answers; beyond comparing each repeat of a
request with its first answer, checking them is the parent's job.  Running the ops
in their own process keeps the parent's reference computation (mpmath) out
of the measured peak RSS.
"""
from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import pseudoeuclid as pe

import calib
from tracer import Tracer

RESERVOIR = 20_000  # latency samples kept; a fixed cap keeps RSS independent of speed
SEGMENT_S = 0.25    # seconds of ops between two calibration runs
CLI_TIMEOUT_S = 60


class Reservoir:
    """Uniform sample of at most ``size`` values (Algorithm R)."""

    def __init__(self, size: int, seed: int) -> None:
        self.size = size
        self.seen = 0
        self.values: list[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.seen += 1
        if len(self.values) < self.size:
            self.values.append(value)
            return
        j = int(self._rng.random() * self.seen)
        if j < self.size:
            self.values[j] = value


def _triangle(t: "pe.Triangle") -> tuple:
    return (t.p1.x, t.p1.y, t.p2.x, t.p2.y, t.p3.x, t.p3.y)


def _angle(pair) -> "pe.ExtendedAngle":
    return pe.ExtendedAngle(pair[0], pe.KleinIndex.from_label(pair[1]))


def _solve_call(req):
    """(function name, args) for one request; names are looked up at call
    time so that a traced phase reaches the tracer's wrappers."""
    kind = req["kind"]
    if kind == "ssa":
        return "solve_ssa", (_angle(req["theta1"]), req["D1"], req["D3"])
    if kind == "asa":
        return "solve_asa", (_angle(req["theta1"]), _angle(req["theta2"]), req["D3"])
    if kind == "sas":
        return "solve_sas", (_angle(req["theta1"]), req["D2"], req["D3"])
    if kind == "sss":
        return "solve_sss", tuple(req["D"])
    return "circumscribed", tuple(pe.PointP(x, y) for x, y in req["vertices"])


class Errors:
    """Keeps the first traceback of each unexpected exception type."""

    def __init__(self) -> None:
        self.first: dict[str, str] = {}

    def note(self, exc: Exception) -> str:
        name = type(exc).__name__
        if not isinstance(exc, pe.PseudoEuclidError):
            self.first.setdefault(name, traceback.format_exc())
        return name


def guarded(run_op, errors: Errors):
    """The op boundary: an exception becomes the op's output (its type name),
    for the parent to check, instead of ending the run."""
    def run(i: int):
        try:
            return run_op(i)
        except Exception as exc:
            return errors.note(exc)
    return run


def solve_op(calls):
    def run(i: int):
        name, args = calls[i]
        if name == "circumscribed":
            hyp = pe.circumscribed(pe.Triangle(*args))
            return (hyp.center.x, hyp.center.y, hyp.P)
        result = getattr(pe, name)(*args)
        if isinstance(result, list):
            return tuple(_triangle(t) for t in result)
        return (_triangle(result),)
    return run


def selftest_op(seeds, n: int):
    def run(i: int):
        return pe.run_selftest(seeds[i], n)
    return run


def cli_op(argvs):
    def run(i: int):
        proc = subprocess.run([sys.executable, "-m", "pseudoeuclid.cli", *argvs[i]],
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return (proc.returncode, proc.stdout)
    return run


def cli_in_process_op(argvs):
    # trace runs only: keeps mpmath, which workloads imports, out of the
    # timed workers' memory
    from workloads import cli_in_process

    def run(i: int):
        return cli_in_process(argvs[i])
    return run


def calibrated(segment, more, probe):
    """Run ``segment(until)`` while ``more()``; each call runs ops until the
    clock passes ``until`` (SEGMENT_S on) and returns their raw seconds.

    Yields (factor, raw op seconds, raw segment seconds) per segment, where
    factor converts the segment's seconds to nominal ones (see calib.py):
    ``probe`` is (nominal, measure) and is measured just before and just
    after each segment.
    """
    nominal, measure = probe
    before = measure()
    while more():
        start = time.perf_counter()
        raw = segment(start + SEGMENT_S)
        elapsed = time.perf_counter() - start
        after = measure()
        yield nominal / ((before + after) / 2), raw, elapsed
        before = after


def timed(run_op, count: int, seconds: float, warmup: int, seed: int, probe):
    """Closed loop, one caller: warm-up ops first, then ops cycling over the
    ``count`` inputs until ``seconds`` pass and every input has run at least
    once, so the set of checked inputs never depends on the host's speed.
    Returns the outputs and the timing of the timed ops; see ``calibrated``."""
    clock = time.perf_counter
    first: list = [None] * count
    hits = [0] * count
    mismatch = [0] * count
    i = min(warmup, count)
    for j in range(i):
        first[j], hits[j] = run_op(j), 1
    deadline = clock() + seconds

    def more() -> bool:
        return clock() < deadline or i < count

    def segment(until: float) -> list[float]:
        nonlocal i
        raw = []
        while True:
            k = i % count
            t0 = clock()
            out = run_op(k)
            now = clock()
            raw.append(now - t0)
            if hits[k] == 0:
                first[k] = out
            elif out != first[k]:
                mismatch[k] += 1
            hits[k] += 1
            i += 1
            if now >= until or not more():
                return raw

    lat = Reservoir(RESERVOIR, seed)
    busy = 0.0
    for factor, raw, elapsed in calibrated(segment, more, probe):
        for d in raw:
            lat.add(d * factor)
        busy += elapsed * factor
    return {"first": first, "hits": hits, "mismatch": mismatch,
            "timed_ops": lat.seen, "busy_s": busy, "latencies_s": lat.values}


def _one_pass(run_op, count: int, tracer: Tracer | None = None):
    """Ops 0..count-1 once each: their outputs, nominal seconds per op, and
    the nominal/raw ratio over the pass."""
    clock = time.perf_counter
    outs: list = []

    def segment(until: float) -> list[float]:
        raw = []
        while len(outs) < count:
            if tracer is not None:
                tracer.op = len(outs)
            t0 = clock()
            outs.append(run_op(len(outs)))
            now = clock()
            raw.append(now - t0)
            if now >= until:
                break
        return raw

    per_op, raw_total = [], 0.0
    for factor, raw, _ in calibrated(segment, lambda: len(outs) < count, calib.KERNEL):
        per_op += [d * factor for d in raw]
        raw_total += sum(raw)
    return outs, per_op, sum(per_op) / raw_total


def traced(run_op, count: int, trace_out: str | None):
    """Run ``count`` ops untraced, then again traced: per-layer totals, the
    throughput ratio traced/untraced, and the traced outputs (each must
    equal its untraced twin).  A first untraced pass only warms up."""
    _one_pass(run_op, count)
    plain, plain_s, _ = _one_pass(run_op, count)
    with Tracer() as tracer:
        outs, traced_s, factor = _one_pass(run_op, count, tracer)
    if trace_out:
        tracer.write(trace_out)
    return {"first": outs, "hits": [1] * count, "mismatch": [int(a != b) for a, b in zip(plain, outs)],
            "layers": tracer.summary(factor), "overhead_ratio": sum(plain_s) / sum(traced_s)}


def main() -> int:
    job = json.load(sys.stdin)
    workload, seed = job["workload"], job["seed"]
    if workload == "selftest":
        run_op, count = selftest_op(job["seeds"], job["n"]), len(job["seeds"])
    elif workload == "solve":
        calls = [_solve_call(r) for r in job["requests"]]
        run_op, count = solve_op(calls), len(calls)
    elif workload == "cli":
        argvs = job["argvs"]
        run_op = cli_in_process_op(argvs) if job["trace"] else cli_op(argvs)
        count = len(argvs)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    errors = Errors()
    run_op = guarded(run_op, errors)
    if job["trace"]:
        result = traced(run_op, count, job.get("trace_out"))
        argvs = job["cli_argvs"]
        main_s = _one_pass(cli_in_process_op(argvs), len(argvs))[1]
        result["cli_main_ms"] = 1e3 * statistics.median(main_s)
    else:
        result = timed(run_op, count, job["seconds"], job["warmup"], seed=seed,
                       probe=calib.START if workload == "cli" else calib.KERNEL)
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    result["unexpected"] = errors.first
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
