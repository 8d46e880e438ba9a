"""Benchmark for pseudoeuclid: selftest, solve and cli workloads.

    python3 bench/run.py --workload {selftest,solve,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the library is taken from ``src/`` next to this
directory, through PYTHONPATH, never from an installed copy.  With
``--trace 0`` it prints every end-to-end metric of BENCHMARK.json, with
``--trace 1`` every per-layer metric, and in both cases checks every op's
output.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md here.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import calib
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("selftest", "solve", "cli")
# cli ops are checked against the in-process result, from the same sources
sys.path.insert(0, str(SRC))

PROBES = 11          # fresh interpreters per start-up measurement (median)
SOLVE_WARMUP = 200   # untimed ops before the clock starts
TRACE_OPS = {"selftest": 3, "solve": wl.SOLVE_POOL, "cli": 200}
# distinct inputs of a timed run; each is run and checked whatever the speed
POOL = {"selftest": wl.SELFTEST_POOL, "solve": wl.SOLVE_POOL, "cli": wl.CLI_POOL}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PSEUDOEUCLID_EPS", None)
    return env


def start_up(module: str) -> tuple[float, float]:
    """Fresh interpreters that import ``module``: the median nominal import
    seconds (each normalized by a bare start just before, see calib.py) and
    the median raw seconds of those bare starts."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = _env()
    nominal, measure = calib.START

    def import_s() -> float:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        return float(proc.stdout)

    import_s()  # byte-compile once, outside the measurement
    imports, bare = [], []
    for _ in range(PROBES):
        bare.append(measure(env))
        imports.append(import_s() * nominal / bare[-1])
    return statistics.median(imports), statistics.median(bare)


def run_worker(job: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, env=_env(), timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout)


def make_job(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, object]:
    """The worker's job (inputs only) and what the parent checks against."""
    job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        # cli.main_ms is a property of the CLI layer, timed on every workload
        job["cli_argvs"] = wl.cli_requests(seed, TRACE_OPS["cli"])
    count = (TRACE_OPS if trace else POOL)[workload]
    if workload == "solve":
        requests, expected = wl.solve_requests(seed, count)
        job.update(requests=requests, warmup=SOLVE_WARMUP)
        return job, expected
    if workload == "selftest":
        job.update(seeds=wl.selftest_seeds(seed, count), n=wl.SELFTEST_N, warmup=1)
    else:
        job.update(argvs=wl.cli_requests(seed, count), warmup=1)
    return job, None


def verdicts(workload: str, job: dict, expected, result: dict) -> tuple[int, int, int]:
    """(attempted, failed, wrong), counted per distinct input.

    Each input's first answer is checked; every repeat of it must equal that
    answer bit for bit.  So the counts depend on the seed and the library,
    never on how many times the host's speed let the loop cycle.  ``wrong``
    counts inputs whose output the benchmark's own check rejects.
    ``failed`` adds selftest ops whose well-formed report carries the
    library's own failed verdict (the seed-dependent projection-law
    failures): they count against ok_share but are not wrong outputs.
    """
    attempted = failed = wrong = 0
    for i, (out, hits, bad) in enumerate(zip(result["first"], result["hits"], result["mismatch"])):
        if not hits:
            raise SystemExit(f"{workload}: input {i} never ran")
        attempted += 1
        if workload == "selftest":
            verdict = wl.selftest_verdict(out, job["seeds"][i], job["n"])
            if verdict == "reported":
                print(f"selftest seed {job['seeds'][i]} n={job['n']} reports failed checks: "
                      f"{', '.join(out['failed'])}", file=sys.stderr)
        elif workload == "solve":
            verdict = "pass" if wl.solve_ok(job["requests"][i], expected[i], out) else "wrong"
        else:
            verdict = "pass" if out == wl.cli_in_process(job["argvs"][i]) else "wrong"
        # ``bad`` repeats gave an answer other than the first one
        failed += verdict != "pass" or bad > 0
        wrong += verdict == "wrong" or bad > 0
    return attempted, failed, wrong


def end_to_end(workload: str, result: dict, attempted: int, failed: int) -> dict:
    lat = result["latencies_s"]
    setup_module = "pseudoeuclid.cli" if workload == "cli" else "pseudoeuclid"
    return {
        "setup_s": start_up(setup_module)[0],
        "throughput_ops_s": result["timed_ops"] / result["busy_s"],
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(result: dict) -> dict:
    metrics = dict(result["layers"])
    import_s, bare_s = start_up("pseudoeuclid.cli")
    metrics["cli.interpreter_ms"] = 1e3 * bare_s
    metrics["cli.import_ms"] = 1e3 * import_s
    metrics["cli.main_ms"] = result["cli_main_ms"]
    metrics["trace.overhead_ratio"] = result["overhead_ratio"]
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    job, expected = make_job(workload, seed, seconds, trace)
    if trace:
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        job["trace_out"] = str(out_dir / f"{workload}.jsonl")
    result = run_worker(job, timeout=seconds + 120)
    for name, tb in result["unexpected"].items():
        print(f"{workload}: unexpected {name}:\n{tb}", file=sys.stderr)
    attempted, failed, wrong = verdicts(workload, job, expected, result)
    if trace:
        values = per_layer(result)
        declared = spec["per_layer"]
    else:
        values = end_to_end(workload, result, attempted, failed)
        declared = spec["end_to_end"]
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    samples = result.get("timed_ops", attempted)
    print(f"{workload}: seed={seed} attempted={attempted} failed={failed} wrong={wrong} "
          f"samples={samples} failed_share={failed / attempted:.4g}")
    for m in declared:
        print(f"  {m['name']:34s} {values[m['name']]:14.6g} {m['unit']}")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pseudoeuclid" / "__init__.py").is_file():
        print(f"error: no pseudoeuclid sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"python {platform.python_version()} on {platform.node()}, nproc {os.cpu_count()}, "
          f"library from {SRC} via PYTHONPATH")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in names}
    if len(results) == 1:
        line = results[args.workload]
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
