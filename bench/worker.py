"""One workload in one fresh process: set up, repeat rounds, check, report.

Started by run.py with the BLAS thread variables already set. Prints
READY on stdout when set-up ends (run.py times set-up up to that line) and
writes its measurements as JSON to the --result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from harness import Outcomes, Round, Tracer, geometric_mean, root_index, self_times

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _entries(args, kwargs, result):
    return len(result[0].entries)


def _want_grad(args, kwargs, result):
    return bool(kwargs.get("want_grad", args[6] if len(args) > 6 else True))


# full_report's certificates: (function in diagnostics, span name)
CHECKS = (("check_length_bound", "length_bound"), ("check_hull_containment", "hull_containment"),
          ("check_tv_bound", "tv_global"), ("check_local_tv", "tv_local"),
          ("turn_direction_sweep", "turn_direction"), ("check_injectivity", "injectivity"))


def _module_lookups():
    """(module, attribute, span, layer, meta): every name a layer calls across modules."""
    targets = []
    for mod in ("optimizer", "energy", "diagnostics"):
        targets.append((f"pencurve.{mod}", "build_plan", "build_plan", "projection", _entries))
    for mod in ("optimizer", "energy", "projection", "diagnostics", "oracle"):
        targets.append((f"pencurve.{mod}", "diameter", "diameter", "measure", None))
    for mod in ("optimizer", "diagnostics"):
        targets.append((f"pencurve.{mod}", "convex_hull_2d", "convex_hull_2d", "measure", None))
    for mod in ("optimizer", "energy"):
        targets.append((f"pencurve.{mod}", "fixed_plan_value_grad", "value_grad", "energy",
                        _want_grad))
    for mod in ("optimizer", "oracle"):
        targets.append((f"pencurve.{mod}", "energy", "energy", "energy", None))
    for mod in ("optimizer", "cli"):
        targets.append((f"pencurve.{mod}", "full_report", "full_report", "diagnostics", None))
    targets += [
        ("pencurve.cli", "load_measure", "load_measure", "measure", None),
        ("pencurve.optimizer", "fixed_plan_hessian", "hessian", "energy", None),
        ("pencurve.optimizer", "stationarity_report", "stationarity", "energy", None),
        ("pencurve.optimizer", "fixed_plan_solve", "fixed_plan_solve", "optimizer", None),
        ("pencurve.oracle", "brute_force_min", "brute_force_min", "oracle", None),
    ]
    for attr, span in CHECKS:
        targets.append(("pencurve.diagnostics", attr, span, "diagnostics", None))
    return targets


TARGETS = _module_lookups()

# Per-layer metrics of a traced run: (name, unit, better). BENCHMARK.json lists the same.
PER_LAYER = (
    ("fit_s", "s", "lower"), ("check_s", "s", "lower"), ("oracle_s", "s", "lower"),
    ("certified_share", "share", "higher"), ("failed_share", "share", "lower"),
    ("measure.self_s", "s", "lower"), ("measure.diameter_calls", "count", "lower"),
    ("measure.diameter_s", "s", "lower"), ("measure.load_s", "s", "lower"),
    ("projection.self_s", "s", "lower"), ("projection.build_plan_calls", "count", "lower"),
    ("projection.build_plan_s", "s", "lower"), ("projection.plan_entries", "count", "lower"),
    ("projection.plans_per_outer_iter", "ratio", "lower"),
    ("energy.self_s", "s", "lower"), ("energy.value_grad_calls", "count", "lower"),
    ("energy.value_grad_s", "s", "lower"), ("energy.trial_evals", "count", "lower"),
    ("energy.trials_per_step", "ratio", "lower"), ("energy.hessian_calls", "count", "lower"),
    ("energy.hessian_s", "s", "lower"), ("energy.energy_calls", "count", "lower"),
    ("energy.energy_s", "s", "lower"), ("energy.stationarity_s", "s", "lower"),
    ("optimizer.self_s", "s", "lower"), ("optimizer.outer_iters", "count", "lower"),
    ("optimizer.max_iters_share", "share", "lower"),
    ("optimizer.fixed_plan_solve_calls", "count", "lower"),
    ("optimizer.fixed_plan_solve_s", "s", "lower"), ("optimizer.grad_max", "ratio", "lower"),
    ("optimizer.grad_undefined", "count", "lower"),
    ("diagnostics.self_s", "s", "lower"), ("diagnostics.full_report_s", "s", "lower"),
    ("diagnostics.length_bound_s", "s", "lower"),
    ("diagnostics.hull_containment_s", "s", "lower"),
    ("diagnostics.tv_global_s", "s", "lower"), ("diagnostics.tv_local_s", "s", "lower"),
    ("diagnostics.turn_direction_s", "s", "lower"),
    ("diagnostics.injectivity_s", "s", "lower"),
    ("oracle.self_s", "s", "lower"), ("oracle.brute_force_min_s", "s", "lower"),
    ("oracle.calls", "count", "lower"), ("oracle.grid_points", "count", "lower"),
    ("oracle.pair_cost_evals_computed", "count", "lower"),
    ("oracle.pair_cost_bytes_computed", "bytes", "lower"),
    ("cli.self_s", "s", "lower"), ("cli.main_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
LAYERS = ("measure", "projection", "energy", "optimizer", "diagnostics", "oracle", "cli")


def layer_metrics(spans, facts) -> dict:
    """Per-layer metrics of one traced round from its spans and job facts."""
    calls: dict = {}
    secs: dict = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        secs[s.name] = secs.get(s.name, 0.0) + s.duration
    own = self_times(spans)
    roots = root_index(spans)
    vg = [s for s in spans if s.name == "value_grad"]
    trials = sum(1 for s in vg if s.meta is False)
    steps = sum(1 for s in vg if s.meta is True and s.parent is not None
                and spans[s.parent].name == "fixed_plan_solve") - calls.get("fixed_plan_solve", 0)
    fit_plans = sum(1 for i, s in enumerate(spans)
                    if s.name == "build_plan" and spans[roots[i]].name == "fit")
    fits = [f for f in facts if "iterations" in f]
    outer = sum(f["iterations"] for f in fits)
    grads = [f["grad_max"] for f in fits if "grad_max" in f]
    oracle = [f["oracle"] for f in facts if "oracle" in f]
    out = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "measure.diameter_calls": calls.get("diameter", 0),
        "measure.diameter_s": secs.get("diameter", 0.0),
        "measure.load_s": secs.get("load_measure", 0.0),
        "projection.build_plan_calls": calls.get("build_plan", 0),
        "projection.build_plan_s": secs.get("build_plan", 0.0),
        "projection.plan_entries": sum(s.meta or 0 for s in spans if s.name == "build_plan"),
        "projection.plans_per_outer_iter": fit_plans / outer if outer else 0.0,
        "energy.value_grad_calls": len(vg),
        "energy.value_grad_s": secs.get("value_grad", 0.0),
        "energy.trial_evals": trials,
        "energy.trials_per_step": trials / steps if steps > 0 else 0.0,
        "energy.hessian_calls": calls.get("hessian", 0),
        "energy.hessian_s": secs.get("hessian", 0.0),
        "energy.energy_calls": calls.get("energy", 0),
        "energy.energy_s": secs.get("energy", 0.0),
        "energy.stationarity_s": secs.get("stationarity", 0.0),
        "optimizer.outer_iters": outer,
        "optimizer.max_iters_share": (sum(f["hit_max_iters"] for f in fits) / len(fits)
                                      if fits else 0.0),
        "optimizer.fixed_plan_solve_calls": calls.get("fixed_plan_solve", 0),
        "optimizer.fixed_plan_solve_s": secs.get("fixed_plan_solve", 0.0),
        "optimizer.grad_max": max(grads) if grads else 0.0,
        "optimizer.grad_undefined": sum(1 for f in fits if f.get("grad_undefined")),
        "diagnostics.full_report_s": secs.get("full_report", 0.0),
        "oracle.brute_force_min_s": secs.get("brute_force_min", 0.0),
        "oracle.calls": calls.get("brute_force_min", 0),
        "oracle.grid_points": sum(o["grid_points"] for o in oracle),
        "oracle.pair_cost_evals_computed": sum(o["pair_cost_evals"] for o in oracle),
        "oracle.pair_cost_bytes_computed": sum(o["bytes"] for o in oracle),
        "cli.main_s": secs.get("main", 0.0),
        "cli.artifact_bytes": sum(f.get("artifact_bytes", 0) for f in facts),
    })
    for _, check in CHECKS:
        out[f"diagnostics.{check}_s"] = secs.get(check, 0.0)
    return out


def median_round(rounds) -> float:
    """Sum over jobs of each job's median wall time across the rounds.

    A burst of load on the host slows the jobs that run during it; taking
    the median job by job keeps such a burst out of the total even when it
    falls inside every round.
    """
    return sum(statistics.median(times) for times in zip(*(r["jobs"] for r in rounds)))


def measure(jobs, seconds: float, trace: bool) -> dict:
    """Repeat rounds for about `seconds`; with trace, alternate plain and traced rounds."""
    outcomes = Outcomes()
    plain, traced = [], []
    first_energy: dict = {}
    t_begin = time.perf_counter()
    longest = 0.0
    while True:
        is_traced = trace and len(plain) > len(traced)
        tracer = Tracer() if is_traced else None
        rnd = Round(tracer)
        outs, job_walls = [], []
        t0, c0 = time.perf_counter(), time.process_time()
        with tracer.installed(TARGETS) if tracer else nullcontext():
            for job in jobs:
                t_job = time.perf_counter()
                try:
                    outs.append(job.run(rnd))
                except Exception as exc:  # counted as a failed operation; keep measuring
                    traceback.print_exc(file=sys.stderr)
                    outs.append(exc)
                job_walls.append(time.perf_counter() - t_job)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        facts = []
        for i, (job, out) in enumerate(zip(jobs, outs)):
            if isinstance(out, Exception):
                outcomes.record(job.tag, [f"raised {out!r}"])
                continue
            problems, f = job.check(out, with_gradient=is_traced)
            if "energy" in f:
                first = first_energy.setdefault(i, f["energy"])
                if f["energy"] != first:
                    problems.append(f"energy {f['energy']!r} differs from round 1: {first!r}")
            outcomes.record(job.tag, problems)
            facts.append(f)
        record = {"wall": wall, "cpu": cpu, "jobs": job_walls, "paths": dict(rnd.paths),
                  "facts": facts}
        if tracer:
            record["layers"] = layer_metrics(tracer.spans, facts)
        (traced if is_traced else plain).append(record)
        longest = max(longest, time.perf_counter() - t0)
        enough = len(plain) >= 1 and (len(traced) >= 1 or not trace)
        if enough and time.perf_counter() - t_begin + longest > seconds:
            break
    for p in outcomes.problems:
        print(f"check failed: {p}", file=sys.stderr)

    energies = [f["energy"] for f in plain[0]["facts"] if "energy" in f]
    result = {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "rounds": {"plain_wall_s": [r["wall"] for r in plain],
                   "plain_cpu_s": [r["cpu"] for r in plain],
                   "traced_wall_s": [r["wall"] for r in traced],
                   "job_wall_s": [list(t) for t in zip(*(r["jobs"] for r in plain))]},
        "end_to_end": {
            "wall_s": median_round(plain),
            "energy_gmean": geometric_mean(energies),
            "ok_share": 1.0 - outcomes.failed_share,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if trace:
        certified = [f["certified"] for f in plain[0]["facts"] if "certified" in f]
        layer = {f"{path}_s": statistics.median([r["paths"][path] for r in plain])
                 for path in ("fit", "check", "oracle")}
        layer["certified_share"] = sum(certified) / len(certified) if certified else 0.0
        layer["failed_share"] = outcomes.failed_share
        for key in traced[0]["layers"]:
            layer[key] = statistics.median([r["layers"][key] for r in traced])
        layer["trace.overhead_ratio"] = median_round(traced) / result["end_to_end"]["wall_s"]
        result["per_layer"] = layer
    return result


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/status") as f:
            threads = next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
    except (OSError, StopIteration, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "os_threads": threads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, required=True, help="checkout holding src/pencurve")
    ap.add_argument("--workdir", type=Path, required=True, help="scratch directory for files")
    ap.add_argument("--result", type=Path, help="where to write the measurements")
    ap.add_argument("--setup-only", action="store_true", help="exit after set-up")
    args = ap.parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import pencurve

    if Path(pencurve.__file__).resolve().parent != src / "pencurve":
        print(f"error: imported {pencurve.__file__}, not the checkout's {src}", file=sys.stderr)
        return 2
    import workloads

    jobs = workloads.build(args.workload, args.seed, args.workdir)
    workloads.warm_up(args.workload, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(jobs, args.seconds, bool(args.trace))
    result["environment"] = environment()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
