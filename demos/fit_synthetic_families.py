"""Fit the built-in synthetic families and render the results as SVG.

Writes one plot per family to demos/out/ showing atoms (dot area
proportional to mass), the convex hull (dashed), and the fitted polyline.
Smaller lam buys a longer, more faithful curve; larger lam a terser one.
The optimizer is local, so a certificate can legitimately come back FAIL
on a bad run: that flags the fit as non-minimal, not the check as broken.
"""

from pathlib import Path

from pencurve import FitConfig, fit, full_report, synth_measure
from pencurve.svgplot import render_svg

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

RUNS = [
    ("noisy_segment", 300, 0.05, {"noise": 0.04}),
    ("noisy_circle", 400, 0.05, {}),
    ("gaussian_clusters", 400, 0.03, {"k": 4}),
    ("uniform_square", 600, 0.05, {}),
]

for family, n, lam, params in RUNS:
    mu = synth_measure(family, n, seed=13, **params)
    res = fit(mu, FitConfig(p=2.0, lam=lam, seed=1, restarts=4))
    report = full_report(mu, res.curve, p=2.0, lam=lam)
    path = OUT / f"{family}.svg"
    path.write_text(render_svg(mu, res.curve))
    print(f"{family:18s} n={n:4d} lam={lam:5.2f} -> energy {res.breakdown.total:.5f}, "
          f"{res.curve.n_vertices:3d} vertices, length {res.curve.total_length:.3f}  "
          f"[{path.name}]")
    print(f"{'':18s} certificates: "
          + ", ".join(f"{c.name}={c.status}" for c in report.checks))
