"""Tests of the benchmark itself: span arithmetic, output checks, smoke runs.

    python -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 7]
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 9.0, 0],
             ["b", 6.0, 7.0, 2]]
    s = tracing.summarize(spans)
    assert s["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert s["b"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert s["c"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}


def test_recursive_span_counts_its_time_once():
    spans = [["r", 0.0, 8.0, -1], ["r", 2.0, 6.0, 0], ["x", 3.0, 4.0, 1]]
    s = tracing.summarize(spans)
    assert s["r"]["total_s"] == 8.0
    assert s["r"]["self_s"] == (8.0 - 4.0) + (4.0 - 1.0)
    assert s["r"]["calls"] == 2


def test_wrap_records_parents_and_counters():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap(lambda k: k, "inner",
                    count=lambda c, args, kw, out: c.update({"items": out}))
    outer = tr.wrap(lambda: inner(2) + inner(3), "outer")
    assert outer() == 5
    assert [(n, p) for n, _, _, p in tr.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tr.counters["items"] == 5
    s = tracing.summarize(tr.spans)
    assert s["outer"]["self_s"] == s["outer"]["total_s"] - s["inner"]["total_s"]


def test_missing_seam_is_reported_absent():
    tr = tracing.Tracer()
    assert not tr.patch("quc.solver:no_such_function", "solver.linear_solve")
    assert tr.missing == {"quc.solver:no_such_function"}
    tr.present = set(tracing.SOLVE_CHILDREN + tracing.CLI_CHILDREN) | {
        name for _, name, _ in tracing.SEAMS if isinstance(name, str)}
    assert "solver.linear_solve_s" in tracing.layer_metrics(tr)
    tr.present.discard("solver.linear_solve")
    metrics = tracing.layer_metrics(tr)
    for gone in ("solver.linear_solve_s", "solver.linear_solve_calls",
                 "solver.linear_solve_nnz", "solver.solve_self_s"):
        assert gone not in metrics
    assert "solver.solve_s" in metrics and "cli.self_s" in metrics


def test_every_declared_layer_metric_has_a_reader():
    declared = {m["name"] for m in _contract()["per_layer"]}
    assert declared == set(tracing.METRICS) | {"trace.overhead_s"}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _fake_outputs(tmp_path, energy):
    (tmp_path / "solution.csv").write_text("# provenance\nx,y,u\n1.5,1.5,0.0\n")
    return f"solve n=9 energy={energy:.12g} residual=1e-11 iterations=2 converged=True\n"


def test_check_accepts_the_recorded_energy(tmp_path):
    w = workloads.WORKLOADS["solve_ladder_n17"]
    stdout = _fake_outputs(tmp_path, w.references[9].energy)
    assert workloads.check_outputs(w, 9, 0, stdout, str(tmp_path)) == []


def test_check_rejects_a_wrong_energy(tmp_path):
    w = workloads.WORKLOADS["solve_ladder_n17"]
    ref = w.references[9]
    # a relative error of 1e-8 is far beyond what the stopping rule allows
    stdout = _fake_outputs(tmp_path, ref.energy * (1 + 1e-8))
    problems = workloads.check_outputs(w, 9, 0, stdout, str(tmp_path))
    assert len(problems) == 1 and "energy" in problems[0]


def test_energy_tolerance_follows_the_stopping_rule():
    ref = workloads.WORKLOADS["verify_p3_n257"].references[257]
    tol = workloads.energy_tolerance(ref)
    assert tol == pytest.approx(65025 * (2e-9) ** 2 / 5.14e-4 + 1e-11 * ref.energy)
    assert tol < 1e-9 * ref.energy


def test_check_rejects_nonconvergence_and_fail_verdicts(tmp_path):
    w = workloads.WORKLOADS["solve_ladder_n17"]
    stdout = _fake_outputs(tmp_path, w.references[9].energy)
    bad = stdout.replace("converged=True", "converged=False") + "check x: FAIL\n"
    problems = workloads.check_outputs(w, 9, 1, bad, str(tmp_path))
    assert len(problems) == 3


def test_p3_oracle_rejects_a_perturbed_solution(tmp_path):
    w = workloads.WORKLOADS["verify_p3_n257"]
    ref = w.references[33]
    good = 3.4 * (1.5**2 + 1.25**2) ** 0.25
    stdout = f"solve: energy={ref.energy:.12g} residual=1e-11 converged=True\n"
    for u, n_problems in ((good, 0), (good + 2 * workloads.p3_oracle_bound(33), 1)):
        (tmp_path / "solution.csv").write_text(f"# p\nx,y,u\n1.5,1.25,{u!r}\n")
        assert len(workloads.check_outputs(w, 33, 0, stdout, str(tmp_path))) == n_problems


# ---------------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    w = workloads.WORKLOADS[name]
    result = run.run_workload(name, seed=7, seconds=0, trace=False, n=w.smoke_n)
    assert result["correct"] and result["attempted"] == 1
    assert set(result["metrics"]) == {m["name"] for m in _contract()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    result = run.run_workload("verify_p3_n257", seed=7, seconds=0, trace=True, n=33)
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in _contract()["per_layer"]}
    assert result["metrics"]["solver.iterations"]["value"] >= 1
