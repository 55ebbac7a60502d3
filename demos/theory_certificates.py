"""What the geometric certificates catch, and what passing looks like.

Minimizing curves provably stay inside the convex hull of the atoms, turn
no more than the projected mass allows (globally, locally, and per turning
direction), and never cross themselves. Each property is a necessary
condition, so a failed check is evidence of non-minimality: useful both
for validating a fit and for flagging hand-made curves as improvable.
"""

import numpy as np

from pencurve import FitConfig, Polyline, fit, full_report
from pencurve.curve import length
from pencurve.diagnostics import convex_clip
from pencurve.measure import convex_hull_2d, synth_measure

mu = synth_measure("noisy_segment", 200, seed=5, noise=0.05)

print("== fitted curve (should pass everything) ==")
res = fit(mu, FitConfig(p=2.0, lam=0.05, seed=0))
print(full_report(mu, res.curve, p=2.0, lam=0.05).table())

print("\n== hand-made zig-zag (flagged as non-minimal) ==")
xs = np.linspace(0, 1, 12)
ys = np.where(np.arange(12) % 2 == 0, -0.3, 0.3)
zigzag = Polyline(np.stack([xs, ys], axis=1))
print(full_report(mu, zigzag, p=2.0, lam=0.05).table())

print("\n== projecting onto the hull never lengthens a curve ==")
hull = convex_hull_2d(mu)
wandering = Polyline(np.array([[0.2, 0.0], [1.4, 0.4], [0.5, -0.6], [0.9, 0.1]]))
clipped = convex_clip(wandering, hull)
print(f"original length {length(wandering):.4f} -> clipped {length(clipped):.4f}")
assert length(clipped) <= length(wandering)
