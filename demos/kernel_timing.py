"""Time the kernels: nearest-foot plans, MM steps, the grid oracle and the certificates.

- plan: `projection._nearest_feet` densely (the foot arithmetic on all
  n (m - 1) atom-segment pairs) and culled (a midpoint bound pass, then the
  arithmetic on the kept pairs) at n atoms (seed 1) and each family's p = 2
  fit of shape_n atoms (seed 0) resampled to m vertices: both times, their
  ratio and the kept pairs per atom, after checking equal bits; last, the
  gate `CULL_MIN_PAIRS` and the sizes where culling is slower. The sizes
  at n = 200, m = 13 to 22 (2400 to 4200 pairs) lie where the gate could go.
- step: the per-step kernels at the vertices and on the plan of a fit of
  n noisy_segment atoms (seed 0) resampled to m vertices; the sizes are the
  plans of the oracle_certify, fit_exponents and fit_scale workloads.
- oracle: `brute_force_min`'s pair kernel, its m = 3 subset pass (pair
  kernel included), its trace-back and the whole search, on n uniform
  atoms (seed 5) in a 0.6 x 0.6 box at h = 0.025 (G = 625), then on the
  equilateral triangle at m = 2 (G = 1476), at each tile size
  `PAIR_BLOCK` in blocks (set for the call only); each energy is checked
  against the hex recorded for it at every tile.
- check: the certificates `full_report` spends its time in, on n atoms of
  each family (seed 1) against that family's p = 2 fit of shape_n atoms
  (seed 0) resampled to m vertices: `singleton_best_energy` (the length
  bound), the two window sweeps `turn_direction_sweep` and
  `check_local_tv` on one shared plan, and the whole report. m = 200 is
  the fit's vertex cap, where the window sweeps cost the most.

One timer serves all four: the calls of a case alternate within a batch,
each repeated to fill BATCH_S at its first timing, and a time is the
median over reps batches of the time per call.

Run: PYTHONPATH=src python3 demos/kernel_timing.py [plan|step|oracle|check] (all by default)
"""

import collections
import math
import statistics
import sys
import time
from unittest import mock

import numpy as np

from pencurve import DiscreteMeasure, FitConfig, Polyline, fit, optimizer, projection, synth_measure
from pencurve.diagnostics import (check_local_tv, full_report, singleton_best_energy,
                                  turn_direction_sweep)
from pencurve.energy import (_entry_offsets, _fixed_plan_grad, fixed_plan_hessian,
                             fixed_plan_majoriser, fixed_plan_value_grad)
from pencurve.measure import SYNTH_FAMILIES, diameter, tie_tolerance
from pencurve.oracle import (OracleConfig, _best_end, _extend, _grid_points, _pair_blocks,
                             _trace_back, brute_force_min)

BATCH_S, LAM, H = 0.004, 0.01, 0.025
TRIANGLE = DiscreteMeasure(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]), np.full(3, 1.0 / 3.0))
# brute_force_min's energy per oracle case, (n, p) at lambda = 0.05 or "triangle", as
# recorded before the subset pass dropped its back-pointers
RECORDED = {(3, 1.0): "0x1.cb0959e5e5823p-5", (3, 2.0): "0x1.6f241bc78208ep-5",
            (4, 1.0): "0x1.e2b6852b9d8b6p-5", (4, 2.0): "0x1.657ab6362178fp-5",
            (5, 1.0): "0x1.8eb9b100510d6p-4", (5, 2.0): "0x1.c1dafc7d73282p-5",
            "triangle": "0x1.279e49b3a850dp-1"}
PLAN_CASES = sorted({(n, m) for n in (200, 1000, 3000, 10_000) for m in (10, 24, 48, 100, 200)}
                    | {(200, m) for m in (13, 16, 19, 22)}, key=lambda case: (case[1], case[0]))


def medians(calls, reps: int) -> list:
    """Median seconds per call of each call, over reps batches that alternate the calls."""
    loops = []
    for call in calls:
        start = time.perf_counter()
        call()
        loops.append(max(1, int(BATCH_S / max(time.perf_counter() - start, 1e-7))))
    times = [[] for _ in calls]
    for _ in range(reps):
        for call, k, batches in zip(calls, loops, times):
            start = time.perf_counter()
            for _ in range(k):
                call()
            batches.append((time.perf_counter() - start) / k)
    return [statistics.median(batches) for batches in times]


def resampled(curve: Polyline, m: int) -> Polyline:
    """The polyline through m points of curve equally spaced in arc length."""
    s = np.linspace(0.0, curve.total_length, m)
    cum = curve.cumulative_lengths
    return Polyline(np.stack([np.interp(s, cum, col) for col in curve.vertices.T], axis=1))


def family_shape(family: str, shape_n: int) -> Polyline:
    """The p = 2 fit of shape_n atoms of the family (seed 0)."""
    return fit(synth_measure(family, shape_n, seed=0), FitConfig(p=2.0, lam=LAM)).curve


def kept_pairs(args) -> int:
    """Pairs the culled layout hands to the foot arithmetic in one call."""
    arithmetic = projection._foot_arithmetic
    with mock.patch.object(projection, "_foot_arithmetic", wraps=arithmetic) as spy:
        projection._nearest_feet(*args, culled=True)
    return sum(call.args[2].shape[1] for call in spy.call_args_list)


def plan(cases=PLAN_CASES, shape_n=1000, reps=11):
    slower = []
    print(f"{'family':18s} {'n':>6s} {'m':>4s} {'pairs':>8s} {'dense ms':>9s} {'culled ms':>9s} "
          f"{'ratio':>6s} {'kept/atom':>9s}")
    for family in SYNTH_FAMILIES:
        shape = family_shape(family, shape_n)
        for n, m in cases:
            curve, mu = resampled(shape, m), synth_measure(family, n, seed=1)
            args = (mu.positions, curve, projection.EPS_PROJ * diameter(mu), mu.reach)
            dense, culled = [lambda c=c: projection._nearest_feet(*args, culled=c)
                             for c in (False, True)]
            assert all(map(np.array_equal, dense(), culled())), (family, n, m)
            dense_s, culled_s = medians([dense, culled], reps)
            if culled_s > dense_s:
                slower.append((n * (m - 1), family, n, m))
            print(f"{family:18s} {n:6d} {m:4d} {n * (m - 1):8d} {dense_s * 1e3:9.3f} "
                  f"{culled_s * 1e3:9.3f} {culled_s / dense_s:6.2f} {kept_pairs(args) / n:9.2f}")
    print(f"gate: the culled layout runs from CULL_MIN_PAIRS = {projection.CULL_MIN_PAIRS} pairs")
    for pairs, family, n, m in sorted(slower):
        print(f"culled slower: {pairs:8d} pairs ({family}, n = {n}, m = {m})")


def step(sizes=((4, 3, 1.0), (200, 20, 2.0), (1000, 150, 1.0)), reps=15):
    columns = []
    for n, m, p in sizes:
        mu, cfg = synth_measure("noisy_segment", n, seed=0), FitConfig(p=p, lam=LAM)
        curve = resampled(fit(mu, cfg).curve, m)
        tp, _ = projection.build_plan(mu, curve)
        V, X, eps = curve.vertices, mu.positions, tie_tolerance(diameter(mu))
        off = _entry_offsets(V, tp, X)
        weights = _fixed_plan_grad(V, tp, p, LAM, eps, off)[1]
        bands = fixed_plan_majoriser(tp, X, LAM, eps, off, weights)
        kernels = {
            "_entry_offsets": lambda: _entry_offsets(V, tp, X),
            "value": lambda: fixed_plan_value_grad(V, tp, X, p, LAM, eps, False, off),
            "_fixed_plan_grad": lambda: _fixed_plan_grad(V, tp, p, LAM, eps, off),
            "fixed_plan_majoriser": lambda: fixed_plan_majoriser(tp, X, LAM, eps, off, weights),
            "_solve_tridiagonal": lambda: optimizer._solve_tridiagonal(*bands),
            "fixed_plan_hessian": lambda: fixed_plan_hessian(V, tp, p, LAM, eps, off),
            "build_plan": lambda: projection.build_plan(mu, curve),
            "_evaluate": lambda: optimizer._evaluate(mu, V, cfg),
        }
        columns.append(medians(list(kernels.values()), reps))
    print(f"{'median us per call':20s}" + "".join(f"{f'n={n} m={m} p={p:g}':>20s}"
                                                  for n, m, p in sizes))
    for name, row in zip(kernels, zip(*columns)):
        print(f"{name:20s}" + "".join(f"{t * 1e6:20.1f}" for t in row))


def tiled(call, block: int):
    """call, run with the oracle's PAIR_BLOCK set to block."""
    def run():
        with mock.patch("pencurve.oracle.PAIR_BLOCK", block):
            return call()
    return run


def oracle(sizes=(3, 4, 5), exponents=(1.0, 2.0), reps=15,
           blocks=(1 << 13, 1 << 14, 1 << 15, 1 << 16)):
    print(f"{'case':<16}{'tile':>7}{'G':>6}{'pairs':>9}{'pass':>9}{'trace':>9}{'search':>9}"
          "   (median ms)")
    for case in [(n, p) for n in sizes for p in exponents] + ["triangle"]:
        if case == "triangle":
            mu, ocfg, label = TRIANGLE, OracleConfig(m=2, h=H, p=1.0, lam=1.0), "triangle m=2"
        else:
            n, p = case
            pos = np.random.default_rng(5).uniform(0.0, 1.0, (n, 2))
            pos = 0.6 * (pos - pos.min(axis=0)) / (pos.max(axis=0) - pos.min(axis=0))
            mu, ocfg = DiscreteMeasure(pos, np.full(n, 1.0 / n)), OracleConfig(3, H, p, 0.05)
            label = f"n={n} p={p:g} m=3"
        P, p, lam = _grid_points(mu, ocfg.h), ocfg.p, ocfg.lam
        for block in blocks:
            value = tiled(lambda: brute_force_min(mu, ocfg)[1], block)()
            assert value.hex() == RECORDED[case], (case, block, value.hex())
        calls = [lambda: collections.deque(_pair_blocks(P, mu, p, lam), maxlen=0),
                 lambda: brute_force_min(mu, ocfg)]
        if ocfg.m == 3:
            first = _extend(P, mu, p, lam)
            end = _best_end([first])[1:]
            calls += [lambda: _extend(P, mu, p, lam),
                      lambda: _trace_back(P, mu, p, lam, [first], *end)]
        times = medians([tiled(call, block) for block in blocks for call in calls], reps)
        for k, block in enumerate(blocks):
            pairs, search, *rest = [t * 1e3 for t in times[k * len(calls):(k + 1) * len(calls)]]
            cells = f"{rest[0]:9.2f}{rest[1]:9.3f}" if rest else f"{'-':>9}{'-':>9}"
            print(f"{label:<16}{block:>7}{len(P):>6}{pairs:9.2f}{cells}{search:9.2f}")


def check(sizes=(3500, 30_000, 100_000), exponents=(1.0, 2.0), vertices=(24, 200),
          shape_n=1000, reps=5):
    print(f"{'family':18s} {'n':>6s} {'m':>4s} {'p':>3s} {'length ms':>10s} {'turn ms':>9s} "
          f"{'tv_local ms':>11s} {'report ms':>10s}")
    for family in SYNTH_FAMILIES:
        shape = family_shape(family, shape_n)
        for m in vertices:
            curve = resampled(shape, m)
            for n in sizes:
                mu = synth_measure(family, n, seed=1)
                tp, _ = projection.build_plan(mu, curve)
                for p in exponents:
                    times = medians([lambda: singleton_best_energy(mu, p),
                                     lambda: turn_direction_sweep(mu, curve, p, LAM, plan=tp),
                                     lambda: check_local_tv(mu, curve, p, LAM, plan=tp),
                                     lambda: full_report(mu, curve, p, LAM)], reps)
                    print(f"{family:18s} {n:6d} {m:4d} {p:3g} " + " ".join(
                        f"{t * 1e3:{w}.3f}" for t, w in zip(times, (10, 9, 11, 10))))


SECTIONS = {"plan": plan, "step": step, "oracle": oracle, "check": check}

if __name__ == "__main__":
    if len(sys.argv) > 2 or sys.argv[1:] and sys.argv[1] not in SECTIONS:
        sys.exit(f"usage: kernel_timing.py [{'|'.join(SECTIONS)}]")
    for name in sys.argv[1:] or SECTIONS:
        print(f"== {name}")
        SECTIONS[name]()
