"""Tests of the benchmark itself: metric coverage, failure counting, and
repeatable trace counts.  Run with ``PYTHONPATH=src python -m pytest bench``."""
from __future__ import annotations

import json

import pytest

import run  # puts src/ on sys.path first
import tracer
import workloads as wl
import worker

import pseudoeuclid as pe

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_named_metric(trace, section, monkeypatch, capsys):
    monkeypatch.setattr(run, "POOL", dict.fromkeys(run.WORKLOADS, 5))
    assert run.main(["--workload", "all", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC[section]}
    want = {f"{w}.{n}" for w in run.WORKLOADS for n in names}
    assert set(line["metrics"]) == want
    for key, metric in line["metrics"].items():
        assert metric["unit"] == names[key.split(".", 1)[1]]
        assert isinstance(metric["value"], (int, float))


def _solve_result(requests):
    op = worker.guarded(worker.solve_op([worker._solve_call(r) for r in requests]),
                        worker.Errors())
    outs = [json.loads(json.dumps(op(i))) for i in range(len(requests))]
    return {"first": outs, "hits": [1] * len(outs), "mismatch": [0] * len(outs)}


def test_corrupted_solve_expectation_counts_as_failed():
    requests, expected = wl.solve_requests(5, count=25)
    job = {"requests": requests}
    result = _solve_result(requests)
    assert run.verdicts("solve", job, expected, result) == (25, 0, 0)
    bad = [dict(e) for e in expected]
    i = next(j for j, r in enumerate(requests) if r["kind"] == "circumscribed")
    bad[i]["P"] += 1e-6 * bad[i]["r2"]
    j = next(j for j, r in enumerate(requests) if r["kind"] == "ssa" and expected[j]["roots"])
    bad[j]["roots"] = bad[j]["roots"] + [1.0]
    assert run.verdicts("solve", job, bad, result) == (25, 2, 2)


def test_corrupted_selftest_expectation_counts_as_failed():
    seeds = wl.selftest_seeds(5, 2)
    job = {"seeds": seeds, "n": 10}
    outs = [json.loads(json.dumps(pe.run_selftest(s, 10))) for s in seeds]
    result = {"first": outs, "hits": [1, 1], "mismatch": [0, 0]}
    assert run.verdicts("selftest", job, None, result) == (2, 0, 0)
    assert run.verdicts("selftest", dict(job, n=11), None, result) == (2, 2, 2)


def test_selftest_failed_verdict_is_counted_but_not_wrong():
    report = json.loads(json.dumps(pe.run_selftest(4, 10)))
    name = "projection-law"
    report["checks"][name].update(worst=1.0, ok=False)
    report.update(failed=[name], ok=False)
    assert wl.selftest_verdict(report, 4, 10) == "reported"
    result = {"first": [report], "hits": [3], "mismatch": [0]}
    assert run.verdicts("selftest", {"seeds": [4], "n": 10}, None, result) == (1, 1, 0)


def test_every_input_runs_once_and_counts_once():
    # a zero-second run still runs (and so checks) every input; repeats
    # add no attempts, and a repeat that differs makes its input wrong
    seeds = wl.selftest_seeds(6, 3)
    probe = (1.0, lambda: 1.0)
    result = worker.timed(worker.selftest_op(seeds, 10), 3, 0.0, 1, seed=6, probe=probe)
    assert all(h >= 1 for h in result["hits"]) and result["timed_ops"] >= 2
    result = json.loads(json.dumps(result))
    job = {"seeds": seeds, "n": 10}
    result["hits"] = [h + 5 for h in result["hits"]]
    assert run.verdicts("selftest", job, None, result) == (3, 0, 0)
    result["mismatch"][1] = 2
    assert run.verdicts("selftest", job, None, result) == (3, 1, 1)


def _counts(layers):
    return {k: v for k, v in layers.items() if not k.endswith("_ms")}


def test_traced_counts_repeat_and_tracer_restores_library():
    original = pe.triangle.angle_between
    seeds = wl.selftest_seeds(7, 2)
    runs = [worker.traced(worker.selftest_op(seeds, 20), 2, None)["layers"] for _ in range(2)]
    assert _counts(runs[0]) == _counts(runs[1])
    assert runs[0]["triangle.elements_per_triangle"] == 3.0
    assert runs[0]["hypnum.numbers_built"] > 0
    assert pe.triangle.angle_between is original is pe.hypnum.angle_between
    assert not hasattr(original, "__wrapped__")
    assert not hasattr(pe.Triangle.__post_init__, "__wrapped__")
    assert not hasattr(pe.Triangle.elements, "__wrapped__")


def test_trace_sees_solver_candidates():
    requests, _ = wl.solve_requests(9, count=30)
    op = worker.guarded(worker.solve_op([worker._solve_call(r) for r in requests]),
                        worker.Errors())
    with tracer.Tracer() as t:
        for i in range(len(requests)):
            op(i)
    layers = t.summary()
    assert layers["triangle.solve.candidates_kept"] == 1.0
    assert layers["triangle.solve.rejected"] == 0
    assert layers["hyperbola.circumscribed.calls"] == sum(
        r["kind"] == "circumscribed" for r in requests)
