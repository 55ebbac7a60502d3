"""Time the per-step kernels of a fit at the sizes of the three fit workloads.

A majorise-minimise step evaluates `_entry_offsets`, the fixed-plan value,
`_fixed_plan_grad`, `fixed_plan_majoriser` and `_solve_tridiagonal`; a
quasi-Newton finish step adds `fixed_plan_hessian` (every few steps) and
`_evaluate`, which builds the plan (`build_plan`) and the energy of a
trial curve. At these sizes a call costs a few microseconds, most of it
numpy's per-call overhead. For each size the curve is a fit of n
noisy_segment atoms (seed 0, lambda = 0.01) resampled to m vertices
equally spaced in arc length, and the kernels run at its vertices on its
plan. Each line gives the median microseconds per call over batches of
calls.

Run: PYTHONPATH=src python3 demos/step_kernel_timing.py
"""

import statistics
import time

import numpy as np

from pencurve import FitConfig, Polyline, fit, optimizer, synth_measure
from pencurve.energy import (_entry_offsets, _fixed_plan_grad, fixed_plan_hessian,
                             fixed_plan_majoriser, fixed_plan_value_grad)
from pencurve.measure import diameter, tie_tolerance
from pencurve.projection import build_plan

SIZES = ((4, 3, 1.0), (200, 20, 2.0), (1000, 150, 1.0))  # (n, m, p) of the fit workloads
LAM = 0.01
BATCHES = 15
BATCH_S = 0.004  # timed seconds per batch


def resampled(curve: Polyline, m: int) -> Polyline:
    s = np.linspace(0.0, curve.total_length, m)
    cum = curve.cumulative_lengths
    return Polyline(np.stack([np.interp(s, cum, col) for col in curve.vertices.T], axis=1))


def median_us(call) -> float:
    start = time.perf_counter()
    call()
    reps = max(1, int(BATCH_S / max(time.perf_counter() - start, 1e-7)))
    batches = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            call()
        batches.append((time.perf_counter() - start) / reps)
    return statistics.median(batches) * 1e6


NAMES = ("_entry_offsets", "value", "_fixed_plan_grad", "fixed_plan_majoriser",
         "_solve_tridiagonal", "fixed_plan_hessian", "build_plan", "_evaluate")
columns = []
for n, m, p in SIZES:
    mu = synth_measure("noisy_segment", n, seed=0)
    cfg = FitConfig(p=p, lam=LAM)
    curve = resampled(fit(mu, cfg).curve, m)
    plan, _ = build_plan(mu, curve)
    V, X, eps = curve.vertices, mu.positions, tie_tolerance(diameter(mu))
    off = _entry_offsets(V, plan, X)
    weights = _fixed_plan_grad(V, plan, p, LAM, eps, off)[1]
    bands = fixed_plan_majoriser(plan, X, LAM, eps, off, weights)
    columns.append([median_us(call) for call in (
        lambda: _entry_offsets(V, plan, X),
        lambda: fixed_plan_value_grad(V, plan, X, p, LAM, eps, False, off),
        lambda: _fixed_plan_grad(V, plan, p, LAM, eps, off),
        lambda: fixed_plan_majoriser(plan, X, LAM, eps, off, weights),
        lambda: optimizer._solve_tridiagonal(*bands),
        lambda: fixed_plan_hessian(V, plan, p, LAM, eps, off),
        lambda: build_plan(mu, curve),
        lambda: optimizer._evaluate(mu, V, cfg),
    )])

labels = [f"n={n} m={m} p={p:g}" for n, m, p in SIZES]
print(f"{'median us per call':20s}" + "".join(f"{label:>20s}" for label in labels))
for k, name in enumerate(NAMES):
    print(f"{name:20s}" + "".join(f"{col[k]:20.1f}" for col in columns))
