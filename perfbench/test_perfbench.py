"""The benchmark's own tests: python3 -m pytest perfbench

They run the reduced mix (workloads.SMALL), which takes the same code paths
as the full one, and show that every check rejects a mutated output.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads as W
from frobjet.crystal import count_points_ap
from frobjet.formal import WeierstrassCurve
from frobjet.sertate import STSeries
from frobjet.tower import TowerElement


@pytest.fixture(scope="module")
def computed():
    """Every job of every workload, computed once on seed 1."""
    start = time.perf_counter()
    out = {wl: [(job, job.compute(job.data))
                for job in W.prepare(wl, 1, W.SMALL)]
           for wl in W.WORKLOADS}
    return out, time.perf_counter() - start


def first(computed, kind):
    return next((job, out) for pairs in computed[0].values()
                for job, out in pairs if job.kind == kind)


def test_reduced_pass_runs_every_check(computed):
    results, elapsed = computed
    assert set(results) == set(W.WORKLOADS) == set(run.WORKLOADS)
    kinds = {job.kind for pairs in results.values() for job, _ in pairs}
    assert kinds == {"frobenius", "log", "tower", "sertate"}
    for pairs in results.values():
        for job, out in pairs:
            assert job.check(job.data, out) == [], job.label
    assert elapsed < 45


def test_independent_trace_matches_program():
    for p in (5, 7, 11, 13):
        for a4 in range(p):
            for a6 in range(p):
                if (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0:
                    continue
                assert W.trace_of_frobenius(p, a4, a6) == count_points_ap(
                    WeierstrassCurve(p, a4, a6))


def test_frobenius_rejects_ap_plus_one(computed):
    job, out = first(computed, "frobenius")
    assert "ap-matches-count" in job.check(job.data,
                                           dict(out, ap=out["ap"] + 1))


# Every entry of the lower-precision matrix is pinned by the higher one; in
# the higher one the trace pins the diagonal, while an off-diagonal entry is
# pinned only through det = p, i.e. when the opposite entry is a unit.
@pytest.mark.parametrize("which,i,j", [
    (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)])
def test_frobenius_rejects_shifted_entry(computed, which, i, j):
    job, out = first(computed, "frobenius")
    name = ("lo", "hi")[which]
    p, K = job.data["p"], job.data["precisions"][which]
    matrix = [list(r) for r in out[name]]
    matrix[i][j] += p ** (K - 1)
    assert job.check(job.data, {**out, name: matrix})


def test_log_congruence_rejects_ap_plus_one(computed, monkeypatch):
    job, _ = first(computed, "log")
    real = W.count_points_ap
    monkeypatch.setattr(W, "count_points_ap", lambda c: real(c) + 1)
    bad = job.run()
    # the congruence itself fails, not only the comparison with the count
    assert "ap-matches-count" in bad and "asd-every-N" in bad


def test_log_congruence_rejects_broken_psi(computed):
    job, out = first(computed, "log")
    integrality = dict(out["integrality"])
    integrality[next(iter(integrality))] = False
    assert job.check(job.data, dict(out, integrality=integrality)) == [
        "psi-integral"]


def test_tower_rejects_sign_flipped_gm(computed):
    for pairs in computed[0].values():
        for job, out in pairs:
            if job.kind != "tower":
                continue
            gx, gy, gxy = out["additivity"][0]
            flipped = [(-gx, gy, gxy)] + out["additivity"][1:]
            assert job.check(job.data, dict(out, additivity=flipped)) == [
                "gm-additive"], job.label


def test_tower_rejects_broken_pairing(computed):
    job, out = first(computed, "tower")
    ab, ba, aa = out["antisymmetry"][0]
    broken = [(ab, ab, aa)] + out["antisymmetry"][1:]
    assert "pairing-antisymmetric" in job.check(
        job.data, dict(out, antisymmetry=broken))


def test_sertate_rejects_dropped_term(computed):
    job, out = first(computed, "sertate")
    form = out["form"][0]
    dropped = STSeries(form.ring, dict(list(form.terms.items())[1:]))
    bad = job.check(job.data, dict(out, form=[dropped, out["form"][1]]))
    assert bad == ["two-routes-agree"]


def test_seeds_change_inputs_not_mix():
    def drawn(jobs):
        return [(j.data["a4"], j.data["a6"]) if "a4" in j.data else
                repr(j.data.get("units")) for j in jobs]

    for wl in W.WORKLOADS:
        rounds = [W.prepare(wl, seed, W.SMALL) for seed in range(1, 6)]
        assert len({str(W.describe(r)) for r in rounds}) == 1, wl
        assert len({str([sorted(j.data) for j in r]) for r in rounds}) == 1
        assert len({str(drawn(r)) for r in rounds}) > 1, wl


def self_times_from_spans(recorded, n_names: int) -> list:
    """Self time per name recomputed from recorded spans (duration minus
    the durations of direct children); agrees with the running totals when
    no span was dropped."""
    child = {}
    for sid, parent, _, start, end in recorded:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out = [0.0] * n_names
    for sid, _, idx, start, end in recorded:
        out[idx] += (end - start) - child.get(sid, 0.0)
    return out


def traced_pass(workload, rounds):
    tracer = spans.Tracer()
    tracer.install(extra_modules=[W])
    try:
        jobs = W.prepare(workload, 3, W.SMALL)
        setup = tracer.snapshot()
        for _ in range(rounds):
            for job in jobs:
                with tracer.span(f"job.{job.kind}"):
                    assert job.run() == []
        metrics = tracer.layer_metrics(setup, tracer.snapshot(), rounds)
    finally:
        tracer.remove()
    return tracer, metrics


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    t1, once = traced_pass(workload, 1)
    t2, twice = traced_pass(workload, 2)
    counts = [m for m in spans.METRICS if not m.endswith("self_s")]
    assert {m: once[m] for m in counts} == {m: twice[m] for m in counts}
    assert any(once[m]["value"] for m in counts)
    # self time from the kept spans equals the running totals
    assert t1.dropped == 0
    offline = self_times_from_spans(t1.spans, len(t1.names))
    assert offline == pytest.approx(t1.self_s, abs=1e-9)
    assert TowerElement.__mul__ is TowerElement.__rmul__
    assert not hasattr(TowerElement.__mul__, "__wrapped__")


def test_metrics_cover_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(spans.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layers = {m.rsplit(".", 1)[0] for m in spans.METRICS}
    assert layers <= set(spans.LAYERS)


def test_command_prints_contract_json():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload",
         "log-congruence", "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"jobs_per_s", "job_p50_s", "setup_s",
                                      "peak_rss_mib"}


def test_refuses_to_run_without_sources():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "log-congruence", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
