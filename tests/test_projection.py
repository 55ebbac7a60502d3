import tracemalloc

import numpy as np
import pytest

from pencurve.curve import Polyline
from pencurve.diagnostics import _window_mass_prefixes
from pencurve.energy import _entry_offsets
from pencurve.measure import DiscreteMeasure, diameter, synth_measure, tie_tolerance
from pencurve.projection import CHUNK, EPS_PROJ, build_plan


def P(*pts):
    return Polyline(np.array(pts, dtype=float))


def sigma_mass(plan, a, b):
    """Mass projected onto vertices a..b and the segments between them, as tv_local reads it."""
    pv, ps = _window_mass_prefixes(plan, plan.n_vertices)
    return (pv[b + 1] - pv[a]) + (ps[b] - ps[a])


def nearest_targets(x, c, eps_abs, snap):
    """Per-atom reference: d(x, c) and its nearest targets (ia, ib, t, arc) by arc.

    Every segment's foot is computed for x alone; the segments within eps_abs
    of the minimum are kept, a foot within snap of a segment end becomes
    that vertex, and duplicate vertex targets are listed once.
    """
    if c.n_vertices == 1:
        return float(np.linalg.norm(x - c.vertices[0])), [(0, 0, 0.0, 0.0)]
    a, vec = c.vertices[:-1], c.segment_vectors
    t = np.clip(np.einsum("ij,ij->i", x[None, :] - a, vec) / np.einsum("ij,ij->i", vec, vec),
                0.0, 1.0)
    d = np.linalg.norm(x[None, :] - (a + t[:, None] * vec), axis=1)
    dmin = np.min(d)
    targets = {}
    for k in np.nonzero(d <= dmin + eps_abs)[0]:
        ln = c.segment_lengths[k]
        if t[k] * ln <= snap or (1.0 - t[k]) * ln <= snap:
            j = k + (t[k] * ln > snap)
            targets.setdefault(("v", j), (j, j, 0.0, c.cumulative_lengths[j]))
        else:
            arc = c.cumulative_lengths[k] + t[k] * ln
            targets.setdefault(("s", k), (k, k + 1, t[k], arc))
    return dmin, sorted(targets.values(), key=lambda g: g[3])


def assert_plan_matches_reference(mu, c):
    """build_plan's columns == the reference's smallest-arc target, atom by atom.

    Returns how many atoms were snapped onto a vertex and how many sit on a ridge.
    """
    plan, cls = build_plan(mu, c)
    diam = diameter(mu)
    assert len(plan.entries) == mu.n_atoms
    assert np.array_equal(plan.mass, mu.masses)
    snapped = ridges = 0
    for i, x in enumerate(mu.positions):
        d, targets = nearest_targets(x, c, EPS_PROJ * diam, 1e-9 * diam)
        unsnapped = nearest_targets(x, c, EPS_PROJ * diam, 0.0)[1]
        snapped += targets[0][0] == targets[0][1] and unsnapped[0][0] != unsnapped[0][1]
        ridges += len(targets) > 1
        ia, ib, t, _ = targets[0]
        assert plan.dist[i] == d
        assert (plan.ia[i], plan.ib[i], plan.t[i]) == (ia, ib, t)
    at_vertex = plan.ia == plan.ib
    for j in range(c.n_vertices):
        assert cls.talking[j] == tuple(np.nonzero(at_vertex & (plan.ia == j))[0].tolist())
    return snapped, ridges


def test_build_plan_perpendicular_foot():
    mu = DiscreteMeasure(np.array([[0.5, 1.0]]), np.ones(1))
    plan, _ = build_plan(mu, P((0, 0), (1, 0)))
    assert plan.dist[0] == pytest.approx(1.0)
    assert (plan.ia[0], plan.ib[0], plan.t[0]) == (0, 1, pytest.approx(0.5))


def test_build_plan_endpoint_clamp():
    mu = DiscreteMeasure(np.array([[2.0, 0.0]]), np.ones(1))
    plan, _ = build_plan(mu, P((0, 0), (1, 0)))
    assert plan.dist[0] == pytest.approx(1.0)
    assert plan.ia[0] == plan.ib[0] == 1 and plan.t[0] == 0.0


def test_build_plan_ridge_takes_smaller_arc():
    # equidistant from both segments: the foot on the first, at arc 0.5, wins
    mu = DiscreteMeasure(np.array([[0.5, 0.5]]), np.ones(1))
    plan, _ = build_plan(mu, P((0, 0), (1, 0), (1, 1)))
    assert plan.dist[0] == pytest.approx(0.5)
    assert (plan.ia[0], plan.ib[0], plan.t[0]) == (0, 1, pytest.approx(0.5))


def test_build_plan_symmetric_atoms():
    mu = DiscreteMeasure(np.array([[0.5, 0.4], [0.5, -0.4]]), np.array([0.5, 0.5]))
    plan, _ = build_plan(mu, P((0, 0), (1, 0)))
    d = plan.dist
    assert d[0] == pytest.approx(d[1]) == pytest.approx(0.4)


def test_build_plan_tied_vertex():
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [0.7, 0.9]]), np.array([0.5, 0.5]))
    c = P((0, 0), (1, 0))
    plan, cls = build_plan(mu, c)
    r = _entry_offsets(c.vertices, plan, mu.positions)[3]
    assert plan.ia[0] == plan.ib[0] == 0 and r[0] <= tie_tolerance(diameter(mu))
    assert 0 in cls.talking[0]
    assert plan.dist[0] == 0.0
    assert plan.mass[0] == pytest.approx(0.5)  # full mass at the tied vertex


def test_tie_rule_first_arc_length():
    # steep valley: the atom above clamps onto both far vertices, equidistant
    c = P((0, 1), (0.5, -1), (1, 1))
    mu = DiscreteMeasure(np.array([[0.5, 1.3]]), np.array([1.0]))
    plan, _ = build_plan(mu, c)
    assert len(plan.entries) == 1
    assert plan.ia[0] == plan.ib[0] == 0


def test_sigma_mass_windows():
    mu = DiscreteMeasure(np.array([[0.1, 1.0], [1.9, -1.0]]), np.array([0.3, 0.7]))
    c = P((0, 0), (1, 0), (2, 0))
    plan, _ = build_plan(mu, c)
    assert sigma_mass(plan, 0, 2) == pytest.approx(1.0)
    assert sigma_mass(plan, 0, 1) == pytest.approx(0.3)
    assert sigma_mass(plan, 1, 2) == pytest.approx(0.7)


def test_marginal_consistency_and_partition():
    mu = synth_measure("uniform_square", 80, seed=3)
    rng = np.random.default_rng(3)
    c = Polyline(rng.uniform(0, 1, (7, 2)))
    plan, _ = build_plan(mu, c)
    assert float(np.sum(plan.mass)) == pytest.approx(mu.total_mass, abs=1e-12)
    k = 3
    total = sigma_mass(plan, 0, k) + sigma_mass(plan, k, 6) - sigma_mass(plan, k, k)
    assert total == pytest.approx(mu.total_mass, abs=1e-12)


def test_optimality_audit_random_curve_points():
    mu = synth_measure("gaussian_clusters", 40, seed=5)
    rng = np.random.default_rng(5)
    c = Polyline(rng.uniform(0, 1, (6, 2)))
    plan, _ = build_plan(mu, c)
    dists = plan.dist
    s = rng.uniform(0, c.total_length, 1000)
    cum = c.cumulative_lengths
    k = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, c.n_vertices - 2)
    samples = c.vertices[k] + ((s - cum[k]) / c.segment_lengths[k])[:, None] * c.segment_vectors[k]
    for i, x in enumerate(mu.positions):
        best = np.min(np.linalg.norm(samples - x, axis=1))
        assert dists[i] <= best + 1e-12


def test_pushforward_stability():
    rng = np.random.default_rng(9)
    c = Polyline(rng.uniform(0, 1, (5, 2)))
    base = rng.uniform(0, 1, (10, 2))
    mu = DiscreteMeasure(base, np.ones(10))
    d0 = build_plan(mu, c)[0].dist
    delta = rng.normal(0, 0.05, (10, 2))
    mu2 = DiscreteMeasure(base + delta, np.ones(10))
    d1 = build_plan(mu2, c)[0].dist
    assert np.all(np.abs(d1 - d0) <= np.linalg.norm(delta, axis=1) + 1e-12)


def _plan_cases():
    """Random polylines, plus atoms on vertices, feet a hair from a vertex, and ridges."""
    rng = np.random.default_rng(21)
    for k in range(40):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 30))
        V = rng.uniform(0.0, 1.0, (m, 2))
        X = rng.uniform(-0.2, 1.2, (n, 2))
        if k % 2 and m > 1:
            X[0] = V[m // 2]
            if n > 1:  # foot 1e-13 of a segment length past vertex 0: snapped onto it
                s = V[1] - V[0]
                X[1] = V[0] + 1e-13 * s + 0.05 * np.array([-s[1], s[0]])
        yield DiscreteMeasure(X, rng.uniform(0.1, 1.0, n)), Polyline(V)
    yield (DiscreteMeasure(np.array([[0.5, 1.3], [0.5, 0.5], [0.2, 0.4]]), np.ones(3)),
           P((0, 1), (0.5, -1), (1, 1)))
    yield DiscreteMeasure(np.array([[0.5, 0.5], [0.9, 0.2]]), np.ones(2)), P((0, 0), (1, 0), (1, 1))



def _block_cases():
    """Clouds of n atoms around 511, 512, 513 and 1300 in d = 2 and 3.

    On each side of every CHUNK boundary, and at both ends of the cloud,
    the three rows nearest to it hold, from the boundary outwards: a ridge
    atom on a vertex's angle bisector; an atom whose foot lies 1e-13 of a
    segment length past vertex 0, so that it is snapped onto it; an atom
    on a vertex.
    """
    rng = np.random.default_rng(33)
    for d in (2, 3):
        for n in (511, 512, 513, 1300):
            m = int(rng.integers(4, 12))
            V = rng.uniform(0.0, 1.0, (m, d))
            X = rng.uniform(-0.2, 1.2, (n, d))
            s = V[1] - V[0]
            e = rng.normal(size=d)
            perp = e - (e @ s) / (s @ s) * s
            j = int(rng.integers(1, m - 1))
            u, w = V[j - 1] - V[j], V[j + 1] - V[j]
            bisector = u / np.linalg.norm(u) + w / np.linalg.norm(w)
            for b in [0, n, *range(CHUNK, n, CHUNK)]:
                for r in range(b - 3, b + 3):
                    if 0 <= r < n:  # a different atom in every row
                        h = 0.01 * (1.0 + r / n)
                        X[r] = [V[j] + h * bisector,
                                V[0] + 1e-13 * s + h * perp / np.linalg.norm(perp),
                                V[r % m]][max(r - b, b - 1 - r)]
            yield DiscreteMeasure(X, rng.uniform(0.1, 1.0, n)), Polyline(V)


def test_plan_matches_per_atom_reference():
    snapped = ridges = 0
    for mu, c in _plan_cases():
        s, r = assert_plan_matches_reference(mu, c)
        snapped, ridges = snapped + s, ridges + r
    assert snapped and ridges  # the cases reach both special paths


@pytest.mark.parametrize("case", range(8))
def test_plan_matches_reference_across_blocks(case):
    mu, c = list(_block_cases())[case]
    snapped, ridges = assert_plan_matches_reference(mu, c)
    assert snapped and ridges


def test_plan_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(4)
    mu = DiscreteMeasure(rng.uniform(0.0, 1.0, (20000, 2)), np.ones(20000))
    c = Polyline(np.cumsum(rng.uniform(0.001, 0.01, (200, 2)), axis=0))
    diameter(mu)  # the measure computes its diameter once, outside the traced window
    tracemalloc.start()
    try:
        build_plan(mu, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6
