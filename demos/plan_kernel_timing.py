"""Time the two layouts of the nearest-foot search: the measurement behind its gate.

`projection._nearest_feet` finds every atom's nearest segment either
densely (the foot arithmetic on all n (m - 1) atom-segment pairs) or
culled (a bound pass over the segment midpoints, then the foot
arithmetic on the pairs it keeps), and picks the culled layout from
`projection.CULL_MIN_PAIRS` pairs on. For each synthetic family the curve
is a p = 2 fit of 1000 atoms (seed 0), resampled to m vertices equally
spaced in arc length; the atoms are a fresh draw of n (seed 1). Each line
gives, per call, the median dense and culled times over alternating
calls, their ratio and the pairs per atom that the culled layout hands to
the foot arithmetic; every call asserts that both layouts return the same
bits. The last lines list the sizes where the culled layout is slower.

Run: PYTHONPATH=src python3 demos/plan_kernel_timing.py
"""

import statistics
import time

import numpy as np

from pencurve import FitConfig, Polyline, fit, synth_measure
from pencurve import projection
from pencurve.measure import SYNTH_FAMILIES, diameter

SIZES = (200, 1000, 3000, 10_000)
VERTICES = (10, 24, 48, 100, 200)
BUDGET_S = 0.05  # timed seconds per layout and size


def resampled(curve: Polyline, m: int) -> Polyline:
    s = np.linspace(0.0, curve.total_length, m)
    cum = curve.cumulative_lengths
    return Polyline(np.stack([np.interp(s, cum, col) for col in curve.vertices.T], axis=1))


def kept_pairs(args) -> int:
    """Pairs the culled layout hands to the foot arithmetic in one call."""
    arithmetic, total = projection._foot_arithmetic, []

    def counting(coords, denom, work):
        total.append(work[0].size)
        return arithmetic(coords, denom, work)

    projection._foot_arithmetic = counting
    try:
        projection._nearest_feet(*args, culled=True)
    finally:
        projection._foot_arithmetic = arithmetic
    return sum(total)


def median_times(args, dense_s: float) -> tuple:
    reps = max(3, int(BUDGET_S / max(dense_s, 1e-6)))
    times = {False: [], True: []}
    for _ in range(reps):
        for culled in (False, True):
            start = time.perf_counter()
            projection._nearest_feet(*args, culled=culled)
            times[culled].append(time.perf_counter() - start)
    return statistics.median(times[False]), statistics.median(times[True])


slower = []
print(f"{'family':18s} {'n':>6s} {'m':>4s} {'pairs':>8s} {'dense ms':>9s} {'culled ms':>9s} "
      f"{'ratio':>6s} {'kept/atom':>9s}")
for family in SYNTH_FAMILIES:
    shape = fit(synth_measure(family, 1000, seed=0), FitConfig(p=2.0, lam=0.01)).curve
    for m in VERTICES:
        curve = resampled(shape, m)
        for n in SIZES:
            mu = synth_measure(family, n, seed=1)
            args = (mu.positions, curve, projection.EPS_PROJ * diameter(mu), mu.reach)
            dense = projection._nearest_feet(*args, culled=False)
            start = time.perf_counter()
            culled = projection._nearest_feet(*args, culled=True)
            first_s = time.perf_counter() - start
            assert all(np.array_equal(u, v) for u, v in zip(dense, culled)), (family, n, m)
            dense_s, culled_s = median_times(args, first_s)
            pairs = n * (m - 1)
            if culled_s > dense_s:
                slower.append((pairs, family, n, m))
            print(f"{family:18s} {n:6d} {m:4d} {pairs:8d} {dense_s * 1e3:9.3f} "
                  f"{culled_s * 1e3:9.3f} {culled_s / dense_s:6.2f} {kept_pairs(args) / n:9.2f}")

print(f"gate: the culled layout runs from CULL_MIN_PAIRS = {projection.CULL_MIN_PAIRS} pairs")
for pairs, family, n, m in sorted(slower):
    print(f"culled slower: {pairs:8d} pairs ({family}, n = {n}, m = {m})")
