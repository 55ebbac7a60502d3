"""Tests of the benchmark's own helpers: python3 -m pytest bench -q"""

import json
import statistics
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from harness import Outcomes, Span, Tracer, quartiles, relative_spread, self_times  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pencurve import DiscreteMeasure, FitConfig, OracleConfig, Polyline  # noqa: E402
from pencurve import brute_force_min  # noqa: E402
from pencurve.errors import BudgetExceededError  # noqa: E402


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_nets_out_nested_spans():
    # fit [0,10] > build_plan [1,3], full_report [4,8] > build_plan [5,6]
    tr = Tracer(clock=scripted_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    with tr.span("fit", "optimizer"):
        with tr.span("build_plan", "projection"):
            pass
        with tr.span("full_report", "diagnostics"):
            with tr.span("build_plan", "projection"):
                pass
    own = self_times(tr.spans)
    assert own == {"optimizer": 4.0, "projection": 3.0, "diagnostics": 3.0}
    assert sum(own.values()) == tr.spans[0].duration


def test_quartiles_match_statistics():
    vals = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, med, q3 = quartiles(vals)
    assert [q1, med, q3] == statistics.quantiles(vals, n=4)
    assert relative_spread(vals) == pytest.approx((q3 - q1) / med)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_wrappers_restored_even_after_an_error():
    mod = types.ModuleType("bench_fake_module")
    mod.work = lambda x: x + 1
    original = mod.work
    sys.modules[mod.__name__] = mod
    try:
        tr = Tracer()
        with pytest.raises(ZeroDivisionError):
            with tr.installed([(mod.__name__, "work", "work", "fake", lambda a, k, r: r)]):
                assert mod.work is not original
                assert mod.work(1) == 2
                raise ZeroDivisionError
        assert mod.work is original
        assert [(s.name, s.layer, s.meta) for s in tr.spans] == [("work", "fake", 2)]
    finally:
        del sys.modules[mod.__name__]


def test_trace_targets_patch_modules_not_same_named_functions():
    import pencurve
    import pencurve.optimizer as optimizer

    energy_module = sys.modules["pencurve.energy"]
    assert callable(pencurve.energy) and pencurve.energy is not energy_module
    before = {(m, a): getattr(sys.modules[m], a) for m, a, *_ in worker.TARGETS}
    with Tracer().installed(worker.TARGETS):
        assert optimizer.build_plan.__wrapped__ is before[("pencurve.optimizer", "build_plan")]
        assert energy_module.build_plan is not before[("pencurve.energy", "build_plan")]
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in before.items())


def test_failing_output_check_is_counted():
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    curve = Polyline(np.array([[0.2, 0.0], [0.8, 0.0]]))
    cfg = FitConfig(p=2.0, lam=0.2)
    good = SimpleNamespace(curve=curve, breakdown=SimpleNamespace(total=0.16),
                           energy_trace=np.array([0.3, 0.2, 0.16]))
    problems, recomputed = workloads.fit_problems(mu, cfg, good)
    assert problems == [] and recomputed == pytest.approx(0.16)
    bad = SimpleNamespace(curve=curve, breakdown=SimpleNamespace(total=0.17),
                          energy_trace=np.array([0.3, 0.31, 0.17]))
    problems, _ = workloads.fit_problems(mu, cfg, bad)
    assert len(problems) == 2
    outcomes = Outcomes()
    outcomes.record("good", [])
    outcomes.record("bad", problems)
    assert (outcomes.attempted, outcomes.failed, outcomes.failed_share) == (2, 1, 0.5)


def test_waste_ratios_from_spans():
    def span(name, parent=None, meta=None):
        return Span(name, "x", 0.0, 1.0, parent, meta)

    spans = [span("fit"), span("build_plan", 0, 10), span("fixed_plan_solve", 0),
             span("value_grad", 2, True), span("value_grad", 2, False),
             span("value_grad", 2, False), span("value_grad", 2, True),
             span("build_plan", None, 5)]
    out = worker.layer_metrics(spans, [{"iterations": 1, "hit_max_iters": True}])
    assert out["energy.trial_evals"] == 2
    assert out["energy.trials_per_step"] == 2.0  # one accepted step after the first eval
    assert out["projection.plans_per_outer_iter"] == 1.0  # the root build_plan is not a fit's
    assert out["projection.plan_entries"] == 15
    assert out["optimizer.max_iters_share"] == 1.0


def test_median_round_takes_each_jobs_median():
    # a slow spell hits job 0 in round 1 and job 1 in round 2: no round is typical
    rounds = [{"jobs": [9.0, 2.0]}, {"jobs": [1.0, 8.0]}, {"jobs": [1.2, 2.2]}]
    assert worker.median_round(rounds) == pytest.approx(1.2 + 2.2)
    assert statistics.median(sum(r["jobs"]) for r in rounds) == pytest.approx(9.0)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 3)])
def test_oracle_cost_matches_brute_force_estimate(m, n):
    mu = workloads._boxed_instance(np.random.default_rng(n), n)
    cost = workloads.oracle_cost(mu, m, 0.02)
    with pytest.raises(BudgetExceededError) as exc:
        brute_force_min(mu, OracleConfig(m=m, h=0.02, p=2.0, lam=0.1, budget=1.0))
    assert exc.value.required == cost["pair_cost_evals"]
    assert cost["grid_points"] == 31 * 31


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(e["name"], e["unit"]) for e in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] == \
        list(worker.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
