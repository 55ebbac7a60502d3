"""The per-step kernels' output bits, pinned by one SHA-256 per kernel.

Seeded random walks in d = 2 and 3 with n = 4, 200 and 1000 atoms (the
last two run the dense and the culled plan layouts), evaluated at p = 1,
1.5, 2 and 3. Each curve is evaluated at itself, where an atom placed on
a vertex makes a p = 1 vertex tie, at jittered vertices, and at a trial
point whose second segment has length zero. An atom on the first vertex,
whose segment points towards negative coordinates, has the foot
parameter -0.0 / |s|^2, which clip makes 0.0 (np.maximum would keep it).
A digest changes when any output bit of its kernel does; the recorded
digests date from before the kernels stopped calling numpy's
Python-level wrappers.
"""

import hashlib

import numpy as np
import pytest

from pencurve import optimizer
from pencurve.curve import Polyline
from pencurve.energy import (
    _entry_offsets,
    _fixed_plan_grad,
    energy,
    fixed_plan_hessian,
    fixed_plan_majoriser,
    fixed_plan_value_grad,
    stationarity_report,
)
from pencurve.measure import DiscreteMeasure, diameter, tie_tolerance
from pencurve.projection import CULL_MIN_PAIRS, EPS_PROJ, _nearest_feet, build_plan

DIGESTS = {
    "entry_offsets": "b1bc75746d98d3a5cbf3cf66840bf18437ef3f086dcc55f40e3ac690354e763c",
    "value": "2c2d652b85a4a6f324f1f444e3eb63f8ccebdd1a13cea20de7a557aa793e0faa",
    "grad": "48cac2786a72960fc85505d008c489aae58339ea5c15521d8abce140da8d5245",
    "weights": "ce48d4caf44f8b552fc952e1cd01b371f9b02689f9f1d041c9ef9601d3cb2d94",
    "majoriser": "116aac12b81027840cac9e7f6f9053e240f2ff126a8fb23c97af207899cab57b",
    "hessian": "a1ee7717ae2d7a109df2436dc40bd7dc37f2a3bb6dad4f7e9cd1be3457612ba5",
    "solve_tridiagonal": "24e4b2b138da7e02c1dad07c9acdbf388a7d54a6d80edae8e17d6819e45ed771",
    "build_plan": "8c6033aaf82e600318d5c26332f865f2d73802504efca1182292edff964c2e2a",
    "nearest_feet": "f7970b71433cbd68f2724cfecddcca25124446be9bd51a1d3d47aa9185e50615",
    "energy": "3e47405597d302e52cbd8913ddb5d2a33e1f24e6be55f977a4c68eb41e709160",
    "stationarity": "d41129260ae564db8a1da2d0cacae94173b9ee4bfab80a3082f2500f23ee58a6",
}
SIZES = ((4, 3), (200, 20), (1000, 40))  # (n, m): dense, dense, culled


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes()
                    for a in arrays)


def _cases():
    """(mu, curve, trial points) per d and size; atoms 0 and 1 sit on vertices 1 and 0."""
    rng = np.random.default_rng(2305)
    for d in (2, 3):
        for n, m in SIZES:
            V = np.cumsum(rng.uniform(-0.1, 0.2, (m, d)), axis=0)
            V[0] = V[1] + 0.05
            X = V[rng.integers(0, m, n)] + rng.normal(0.0, 0.05, (n, d))
            X[0], X[1] = V[1], V[0]
            mu = DiscreteMeasure(X, rng.uniform(0.1, 1.0, n))
            c = Polyline(V)
            collapsed = V.copy()
            collapsed[2] = collapsed[1]
            yield mu, c, (c.vertices, V + rng.normal(0.0, 0.01, V.shape), collapsed)


def kernel_outputs():
    """Per kernel, the output bytes of every case in order."""
    out = {name: [] for name in DIGESTS}
    for mu, c, points in _cases():
        plan, _ = build_plan(mu, c)
        X, lam, eps = mu.positions, 0.05, tie_tolerance(diameter(mu))
        out["build_plan"].append(_bytes(plan.dist, plan.ia, plan.ib, plan.t))
        out["nearest_feet"].append(_bytes(*_nearest_feet(X, c, EPS_PROJ * diameter(mu), mu.reach)))
        for p in (1.0, 1.5, 2.0, 3.0):
            out["energy"].append(repr(energy(mu, c, p, lam, plan=plan).total).encode())
            stat = stationarity_report(mu, c, p, lam, plan=plan)
            out["stationarity"].append(repr(stat.to_dict()).encode())
            for W in points:
                off = _entry_offsets(W, plan, X)
                out["entry_offsets"].append(_bytes(*off))
                value, _ = fixed_plan_value_grad(W, plan, X, p, lam, eps, False, off)
                out["value"].append(repr(value).encode())
                grad, weights = _fixed_plan_grad(W, plan, p, lam, eps, off)
                out["grad"].append(_bytes(grad))
                out["weights"].append(_bytes(weights))
                bands = fixed_plan_majoriser(plan, X, lam, eps, off, weights)
                out["majoriser"].append(_bytes(*bands))
                out["hessian"].append(_bytes(fixed_plan_hessian(W, plan, p, lam, eps, off)))
                solved = optimizer._solve_tridiagonal(*bands)
                out["solve_tridiagonal"].append(b"None" if solved is None else _bytes(solved))
    return {name: hashlib.sha256(b"".join(parts)).hexdigest() for name, parts in out.items()}


def test_cases_reach_both_plan_layouts_a_p1_tie_and_a_zero_length_segment():
    culled = ties = 0
    for mu, c, points in _cases():
        plan, _ = build_plan(mu, c)
        culled += mu.n_atoms * (c.n_vertices - 1) >= CULL_MIN_PAIRS
        eps = tie_tolerance(diameter(mu))
        ties += bool(np.any((_entry_offsets(points[0], plan, mu.positions)[3] <= eps)
                            & plan.at_vertex))
        assert np.array_equal(points[2][1], points[2][2])
        assert np.all(c.segment_vectors[0] < 0.0) and np.array_equal(mu.positions[1], c.vertices[0])
    assert culled == 2 and ties == 6


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_kernel_output_bits_are_the_recorded_ones(name):
    assert kernel_outputs()[name] == DIGESTS[name]
