"""Time the grid oracle's layers at the sizes of the oracle workload.

`brute_force_min` at m = 3 runs one subset pass (`_extend`) over the pair
kernel's blocks (`_pair_blocks`), then traces its tuple back once
(`_trace_back`); at m = 2 it keeps a running minimum over the blocks. The
m = 3 cases are n uniform atoms (seed 5) in a 0.6 x 0.6 box at h = 0.025,
so G = 25 x 25 = 625 grid points, for n in {3, 4, 5} and p in {1, 2}; the
last case is the equilateral triangle at m = 2, h = 0.025 (G = 1476). Each
line gives the median milliseconds per call of the pair kernel alone,
the subset pass (its pair kernel included), the trace-back and the whole
search, and checks the energy against the hex recorded for it.

Run: PYTHONPATH=src python3 demos/oracle_timing.py
"""

import math
import statistics
import time

import numpy as np

from pencurve import DiscreteMeasure
from pencurve.oracle import (OracleConfig, _extend, _grid_points, _pair_blocks, _trace_back,
                             brute_force_min)

H, LAM, BOX, REPS = 0.025, 0.05, 0.6, 15
TRIANGLE = DiscreteMeasure(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]), np.full(3, 1.0 / 3.0))
# brute_force_min's energy per case, (n, p) or "triangle", as recorded before the
# subset pass dropped its back-pointers
RECORDED = {
    (3, 1.0): "0x1.cb0959e5e5823p-5",
    (3, 2.0): "0x1.6f241bc78208ep-5",
    (4, 1.0): "0x1.e2b6852b9d8b6p-5",
    (4, 2.0): "0x1.657ab6362178fp-5",
    (5, 1.0): "0x1.8eb9b100510d6p-4",
    (5, 2.0): "0x1.c1dafc7d73282p-5",
    "triangle": "0x1.279e49b3a850dp-1",
}


def boxed(n: int) -> DiscreteMeasure:
    pos = np.random.default_rng(5).uniform(0.0, 1.0, (n, 2))
    pos = BOX * (pos - pos.min(axis=0)) / (pos.max(axis=0) - pos.min(axis=0))
    return DiscreteMeasure(pos, np.full(n, 1.0 / n))


def median_ms(call) -> float:
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def drain(P, mu, p):
    for _ in _pair_blocks(P, mu, p, LAM):
        pass


def trace(P, mu, p, first):
    totals = first[(len(first) - 1) ^ np.arange(len(first))] + first
    return _trace_back(P, mu, p, LAM, [first], *divmod(int(totals.argmin()), len(P)))


cases = [(n, p) for n in (3, 4, 5) for p in (1.0, 2.0)] + ["triangle"]
print(f"{'case':<16}{'G':>6}{'pairs':>9}{'pass':>9}{'trace':>9}{'search':>9}   (median ms)")
for case in cases:
    if case == "triangle":
        mu, ocfg, label = TRIANGLE, OracleConfig(m=2, h=H, p=1.0, lam=1.0), "triangle m=2"
    else:
        n, p = case
        mu, ocfg, label = boxed(n), OracleConfig(m=3, h=H, p=p, lam=LAM), f"n={n} p={p:g} m=3"
    P = _grid_points(mu, ocfg.h)
    _, value = brute_force_min(mu, ocfg)
    assert value.hex() == RECORDED[case], (case, value.hex())
    pairs = median_ms(lambda: drain(P, mu, ocfg.p))
    if ocfg.m == 3:
        first = _extend(P, mu, ocfg.p, ocfg.lam)
        cells = f"{median_ms(lambda: _extend(P, mu, ocfg.p, ocfg.lam)):9.2f}"
        cells += f"{median_ms(lambda: trace(P, mu, ocfg.p, first)):9.3f}"
    else:
        cells = f"{'-':>9}{'-':>9}"
    search = median_ms(lambda: brute_force_min(mu, ocfg))
    print(f"{label:<16}{len(P):>6}{pairs:9.2f}{cells}{search:9.2f}")
