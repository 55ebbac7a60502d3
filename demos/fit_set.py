"""Fit the standard 24-fit set and print its totals.

Each of the four synthetic families is drawn at n = 300 and n = 1000
(seed 0) and fitted at p = 1.5, 2 and 3 with lam = 0.01 and the default
FitConfig otherwise. Single fits move between nearby local minima under
any change to the solver, so changes are judged on the totals: the
geometric mean of the final energies, the number of `converged` fits and
the sum of the vertex counts, beside the total time. A last line prints
one sha256 over every fit's vertex bytes, energy repr and status: a change
that keeps every bit keeps it.

Run: PYTHONPATH=src python3 demos/fit_set.py
"""

import hashlib
import math
import time

from pencurve import FitConfig, fit, synth_measure
from pencurve.measure import SYNTH_FAMILIES

SIZES = (300, 1000)
EXPONENTS = (1.5, 2.0, 3.0)
LAM = 0.01

energies, seconds, converged, vertices = [], 0.0, 0, 0
digest = hashlib.sha256()
for family in SYNTH_FAMILIES:
    for n in SIZES:
        mu = synth_measure(family, n, seed=0)
        for p in EXPONENTS:
            start = time.perf_counter()
            res = fit(mu, FitConfig(p=p, lam=LAM))
            elapsed = time.perf_counter() - start
            energies.append(res.breakdown.total)
            seconds += elapsed
            converged += res.status == "converged"
            vertices += res.curve.n_vertices
            for part in (res.curve.vertices.tobytes(), repr(res.breakdown.total).encode(),
                         res.status.encode()):
                digest.update(part)
            print(f"{family:18s} n={n:5d} p={p:3.1f}  energy {res.breakdown.total:.10e}  "
                  f"{res.status:9s} {res.iterations:3d} iters  m={res.curve.n_vertices:3d}  "
                  f"{elapsed:6.2f} s")

gmean = math.exp(sum(math.log(e) for e in energies) / len(energies))
print(f"total {seconds:.2f} s  gmean energy {gmean:.10f}  "
      f"converged {converged}/{len(energies)}  sum m {vertices}")
print(f"sha256 {digest.hexdigest()}")
