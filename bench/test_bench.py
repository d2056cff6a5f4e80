"""Tests of the benchmark's own code on tiny instances.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
"""

import dataclasses
import json

import pytest

import run  # puts this checkout's src first on sys.path
import spans
import workloads

import mateq
from mateq import compression, problems

TINY = [
    workloads.Workload(
        "tiny-lyap", "restarted.driver", lambda: (problems.laplacian_2d(10),),
        lambda ops, C: mateq.restarted_lyap(ops[0], C, mateq.SolverConfig(memmax=36, tol_res=1e-6)),
        memmax=36,
    ),
    workloads.Workload(
        "tiny-sylv", "restarted.driver",
        lambda: (problems.convdiff_3d(5, 0.1, "wA"), problems.convdiff_3d(5, 0.1, "wB")),
        lambda ops, CD: mateq.restarted_sylv(ops[0], ops[1], *CD,
                                             mateq.SolverConfig(memmax=96, tol_res=1e-6)),
        memmax=96, sylvester=True,
    ),
    workloads.Workload(
        "tiny-eksm", "baselines.driver", lambda: (problems.laplacian_2d(10),),
        lambda ops, C: mateq.eksm_lyap(ops[0], C, mateq.InnerSolverConfig("block-cg", 1e-8),
                                       1e-6, 60),
    ),
    workloads.Workload(
        "tiny-sksm", "baselines.driver", lambda: (problems.laplacian_2d(10),),
        lambda ops, C: mateq.sksm_two_pass(ops[0], C, 1e-6, 60), rhs_count=2,
    ),
]


@pytest.mark.parametrize("wl", TINY, ids=lambda wl: wl.name)
def test_self_times_sum_to_span_total_and_originals_return(wl):
    originals = spans.bound_objects()
    tracer = spans.Tracer()
    with tracer.installed():
        ops, rhs = wl.build(0)
        assert spans.bound_objects()[0] is not originals[0]
    matvecs = 0
    for i in range(wl.rhs_count):
        tracer.solve = i
        with tracer.installed(), tracer.span(wl.driver):
            fac, report = wl.solve(ops, rhs[i])
        assert workloads.check(wl, ops, rhs[i], fac, report) == []
        matvecs += sum(c["matvecs"] for c in report.counters.values())

    assert all(now is before for now, before in zip(spans.bound_objects(), originals))
    assert mateq.restarted.compress_sym is compression.compress_sym
    roots = [sp for sp in tracer.spans if sp.parent is None]
    total = sum(sp.end - sp.start for sp in roots)
    layers = spans.layer_times(tracer.spans)
    assert sum(agg["self_s"] for agg in layers.values()) == pytest.approx(total, rel=1e-9)
    assert sum(agg["total_s"] for name, agg in layers.items()
               if name in {sp.name for sp in roots}) == pytest.approx(total, rel=1e-9)
    assert layers["problems.operator"]["calls"] == len(ops)
    assert layers[wl.driver]["calls"] == wl.rhs_count
    assert layers["sparse.spmm"]["cols"] == matvecs


@pytest.mark.parametrize("wl", TINY, ids=lambda wl: wl.name)
def test_check_rejects_a_wrong_solution(wl):
    ops, rhs = wl.build(0)
    fac, report = wl.solve(ops, rhs[0])
    assert workloads.check(wl, ops, rhs[0], fac, report) == []
    scaled = dataclasses.replace(fac, C=1.01 * fac.C)
    assert any("true residual" in why for why in workloads.check(wl, ops, rhs[0], scaled, report))


def test_check_rejects_inconsistent_counters():
    wl = TINY[0]
    ops, rhs = wl.build(0)
    fac, report = wl.solve(ops, rhs[0])
    report.counters["A"]["a_calls"] += 1
    assert any("A-calls" in why for why in workloads.check(wl, ops, rhs[0], fac, report))


def test_traced_pass_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = TINY[1]
    originals = spans.bound_objects()
    runner, metrics, _, _ = run.measure_layers(wl, 0)
    assert runner.failed == 0
    assert all(now is before for now, before in zip(spans.bound_objects(), originals))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in metrics.items()}
    assert 0.0 < metrics["trace.covered_frac"][0] <= 1.0
    assert metrics["compression.compress.calls"][0] > 0
    lines = (tmp_path / f"{wl.name}-seed0-spans.jsonl").read_text().splitlines()
    assert set(json.loads(lines[0])) == {"name", "start", "end", "parent", "solve"}


def test_counts_must_repeat_across_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl, env = TINY[0], run.environment()

    def runner(counts):
        r = run.Runner(wl, None, None)
        r.counts = counts
        run.check_counts_across_runs(wl, 0, r, env)
        return r

    assert runner({0: {"iterations": 5}}).failed == 0
    assert runner({0: {"iterations": 5}, 1: {"iterations": 7}}).failed == 0
    assert runner({1: {"iterations": 8}}).failed == 1
    assert runner({0: {"iterations": 5}}).failed == 0
    assert runner({1: {"iterations": 7}}).failed == 0


def test_end_to_end_pass_reports_every_end_to_end_metric():
    wl = TINY[3]
    runner, metrics, _, samples = run.measure_end_to_end(wl, 0, 0.5)
    assert runner.failed == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())
    assert len(samples["reference_s"]) == len(samples["solve_s"]) + 1
