import tracemalloc

import numpy as np
import pytest

from pencurve.curve import Polyline
from pencurve.diagnostics import _window_mass_prefixes
from pencurve.energy import _entry_offsets
from pencurve import projection
from pencurve.measure import (COORD_MAX, SPAN_MIN, DiscreteMeasure, _in_range, diameter,
                              synth_measure, tie_tolerance)
from pencurve.projection import (CHUNK, CULL_MIN_PAIRS, EPS_PROJ, _nearest_feet, _snap_targets,
                                 build_plan)


def P(*pts):
    return Polyline(np.array(pts, dtype=float))


def sigma_mass(plan, c, a, b):
    """Mass projected onto vertices a..b and the segments between them, as tv_local reads it."""
    pv, ps = _window_mass_prefixes(plan, c.n_vertices)
    return (pv[b + 1] - pv[a]) + (ps[b] - ps[a])


def nearest_targets(x, c, eps_abs, snap):
    """Per-atom reference: d(x, c) and its nearest targets (ia, ib, t, arc) by arc.

    Every segment's foot is computed for x alone; the segments within eps_abs
    of the minimum are kept, a foot within snap of a segment end becomes
    that vertex, and duplicate vertex targets are listed once.
    """
    if c.n_vertices == 1:
        return float(np.linalg.norm((x - c.vertices[0])[None], axis=1)[0]), [(0, 0, 0.0, 0.0)]
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
    assert sigma_mass(plan, c, 0, 2) == pytest.approx(1.0)
    assert sigma_mass(plan, c, 0, 1) == pytest.approx(0.3)
    assert sigma_mass(plan, c, 1, 2) == pytest.approx(0.7)


def test_marginal_consistency_and_partition():
    mu = synth_measure("uniform_square", 80, seed=3)
    rng = np.random.default_rng(3)
    c = Polyline(rng.uniform(0, 1, (7, 2)))
    plan, _ = build_plan(mu, c)
    assert float(np.sum(plan.mass)) == pytest.approx(mu.total_mass, abs=1e-12)
    k = 3
    total = sigma_mass(plan, c, 0, k) + sigma_mass(plan, c, k, 6) - sigma_mass(plan, c, k, k)
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
    yield from _culled_plan_cases()


def _culled_plan_cases():
    """Clouds of at least CULL_MIN_PAIRS atom-segment pairs, on which the culled layout runs.

    A noisy circle around a 25-vertex arc, then the same cloud shifted by
    1e6 and scaled by powers of two to both ends of the supported range;
    atoms at the centre of a regular 64-gon, where every segment ties; and
    a curve with vertices at +-1e150.
    """
    mu = synth_measure("noisy_circle", 600, seed=8)
    theta = np.linspace(0.0, 1.8 * np.pi, 25)
    arc = 0.5 + 0.35 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    cases = [(_in_range(DiscreteMeasure(scale * (mu.positions + shift), mu.masses)),
              Polyline(scale * (arc + shift)))
             for shift, scale in ((0.0, 1.0), (1e6, 1.0), (0.0, 2.0**-499), (0.0, 2.0**500))]
    assert 2.0**-499 * np.ptp(mu.positions[:, 0]) < 2 * SPAN_MIN
    assert 2.0**500 * mu.reach > 0.5 * COORD_MAX
    gon = np.exp(2j * np.pi * np.arange(65) / 64)
    rng = np.random.default_rng(64)
    centre = np.concatenate([np.zeros((100, 2)), rng.normal(0.0, 1e-3, (60, 2)),
                             rng.uniform(-1.0, 1.0, (20, 2))])
    cases.append((DiscreteMeasure(centre, np.ones(180)),
                  Polyline(np.stack([gon.real, gon.imag], axis=1))))
    walk = np.cumsum(rng.uniform(-0.1, 0.1, (30, 2)), axis=0)
    walk[[3, 20]] = [[1e150, -1e150], [-1e150, 1e150]]
    cases.append((DiscreteMeasure(rng.uniform(-1.0, 1.0, (400, 2)), np.ones(400)), Polyline(walk)))
    for mu, c in cases:
        assert mu.n_atoms * (c.n_vertices - 1) >= CULL_MIN_PAIRS
    return cases


def _block_cases():
    """(atoms, masses, vertices) of clouds that span CHUNK boundaries.

    n is 511, 512, 513 and 1300 in d = 2, 3 and 4, then 1300 in d = 1,
    which the foot search takes though a measure does not; m is 4 to 11,
    on either side of the culled layout's gate. Then, for d = 2, 3, 4 and
    1, a cloud of 1300 around a 40-vertex random walk, far above the gate.
    On each side of every CHUNK boundary, and at both ends of the cloud,
    the three rows nearest to it hold, from the boundary outwards: a ridge
    atom on a vertex's angle bisector; an atom whose foot lies 1e-13 of a
    segment length past vertex 0, so that it is snapped onto it; an atom
    on a vertex. In d = 1 there is no perpendicular, so the cloud keeps
    only the atoms on vertices.
    """
    rng = np.random.default_rng(33)
    sizes = [(d, n, None) for d in (2, 3, 4, 1)
             for n in ((1300,) if d == 1 else (511, 512, 513, 1300))]
    for d, n, m in sizes + [(d, 1300, 40) for d in (2, 3, 4, 1)]:
        if m is None:
            m = int(rng.integers(4, 12))
            V = rng.uniform(0.0, 1.0, (m, d))
        else:
            V = 0.5 + np.cumsum(rng.uniform(-0.08, 0.08, (m, d)), axis=0)
        X = rng.uniform(-0.2, 1.2, (n, d))
        s = V[1] - V[0]
        e = rng.normal(size=d)
        perp = e - (e @ s) / (s @ s) * s
        j = int(rng.integers(1, m - 1))
        u, w = V[j - 1] - V[j], V[j + 1] - V[j]
        bisector = u / np.linalg.norm(u) + w / np.linalg.norm(w)
        for b in [0, n, *range(CHUNK, n, CHUNK)]:
            for r in range(b - 3, b + 3):
                k = max(r - b, b - 1 - r)  # 0, 1, 2 outwards from the boundary
                if not 0 <= r < n:
                    continue
                if k == 2:
                    X[r] = V[r % m]
                elif d > 1:
                    h = 0.01 * (1.0 + r / n)  # a different atom in every row
                    X[r] = [V[j] + h * bisector,
                            V[0] + 1e-13 * s + h * perp / np.linalg.norm(perp)][k]
        yield X, rng.uniform(0.1, 1.0, n), V


BLOCK_CASES = list(_block_cases())


def test_plan_matches_per_atom_reference():
    snapped = ridges = 0
    for mu, c in _plan_cases():
        s, r = assert_plan_matches_reference(mu, c)
        snapped, ridges = snapped + s, ridges + r
    assert snapped and ridges  # the cases reach both special paths


@pytest.mark.parametrize("case", [k for k, (X, _, _) in enumerate(BLOCK_CASES) if X.shape[1] > 1])
def test_plan_matches_reference_across_blocks(case):
    X, masses, V = BLOCK_CASES[case]
    snapped, ridges = assert_plan_matches_reference(DiscreteMeasure(X, masses), Polyline(V))
    assert snapped and ridges


def test_feet_match_reference_across_blocks_in_one_dimension():
    lines = [(X, V) for X, _, V in BLOCK_CASES if X.shape[1] == 1]  # no odd einsum lane
    assert [X.shape for X, _ in lines] == [(1300, 1)] * 2
    for X, V in lines:
        c, diam = Polyline(V), float(np.ptp(X))
        dist, seg, t = _nearest_feet(X, c, EPS_PROJ * diam, float(np.max(np.abs(X))))
        cols = _snap_targets(c, seg, t, tie_tolerance(diam))
        for i, x in enumerate(X):
            d, targets = nearest_targets(x, c, EPS_PROJ * diam, tie_tolerance(diam))
            assert dist[i] == d
            assert tuple(col[i] for col in cols) == targets[0][:3]


def same_bits(cols, other):
    return all(np.array_equal(u.view(np.int64), v.view(np.int64)) for u, v in zip(cols, other))


def test_layouts_agree_on_either_side_of_the_gate(monkeypatch):
    culled_blocks = []
    block = projection._culled_block
    monkeypatch.setattr(projection, "_culled_block",
                        lambda *args: culled_blocks.append(1) or block(*args))
    rng = np.random.default_rng(12)
    for k in range(12):
        d, m = 2 + k % 3, int(rng.integers(3, 80))
        above = k % 2 == 1
        n = -(-CULL_MIN_PAIRS // (m - 1)) - (not above)  # the gate at n (m - 1) = CULL_MIN_PAIRS
        V = rng.uniform(0.0, 1.0, d) + np.cumsum(rng.normal(0.0, 0.1, (m, d)), axis=0)
        X = rng.uniform(-0.5, 1.5, (n, d))
        args = (X, Polyline(V), 1e-12, float(np.max(np.abs(X))))
        culled_blocks.clear()
        gated = _nearest_feet(*args)
        assert bool(culled_blocks) == above
        assert same_bits(gated, _nearest_feet(*args, culled=not above))


def test_culled_layout_keeps_segments_within_eps_abs():
    # atom 500 lies on the line of segment 0, past its end, 1 + 2^-32 from
    # it and 1 from the midpoint of segment 4: only the eps_abs in the
    # bound keeps segment 0, the first within eps_abs of the minimum
    X = np.random.default_rng(14).uniform([-1.0, 0.0], [5.0, 3.0], (1000, 2))
    X[500] = [0.0, 1.0]
    c = P((0, 3), (0, 2 + 2.0**-32), (5, 2 + 2.0**-32), (5, 0), (1, 0), (-1, 0))
    cols = _nearest_feet(X, c, 1e-9, 5.0, culled=True)
    assert same_bits(cols, _nearest_feet(X, c, 1e-9, 5.0, culled=False))
    assert cols[0][500] == 1.0 and cols[1][500] == 0


def test_layouts_agree_on_rounding_level_ties():
    # the geometry above with exact ties, rotated, scaled and shifted at
    # random, at eps_abs = 0: whether segment 0 or 4 is nearer, and
    # whether segment 0 survives the bound, is decided by rounding alone
    rng = np.random.default_rng(15)
    base = np.array([[0, 3], [0, 2], [5, 2], [5, 0], [1, 0], [-1, 0]], dtype=float)
    for _ in range(100):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        scale, shift = rng.uniform(0.1, 10.0), rng.uniform(-100.0, 100.0, 2)
        c = Polyline(base @ rot.T * scale + shift)
        X = np.tile(rot[:, 1] * scale + shift, (2000, 1))
        X[::2] += rng.normal(0.0, 1e-15 * scale, (1000, 2))
        reach = float(np.max(np.abs(X)))
        assert same_bits(_nearest_feet(X, c, 0.0, reach, culled=True),
                         _nearest_feet(X, c, 0.0, reach, culled=False))


def test_layouts_agree_past_the_float_range():
    # squares overflow, so the culled layout falls back to the dense one:
    # atoms at 1e154 are inf away, and a vertex at 1e300 makes NaN feet
    rng = np.random.default_rng(13)
    V = np.cumsum(rng.uniform(-0.1, 0.1, (30, 2)), axis=0)
    X = np.concatenate([rng.uniform(-1.0, 1.0, (300, 2)), rng.uniform(-1e154, 1e154, (300, 2))])
    reach = float(np.max(np.abs(X)))
    with np.errstate(over="ignore", invalid="ignore"):
        for c in (Polyline(V), Polyline(np.concatenate([V, [[1e300, -1e300]]]))):
            cols = _nearest_feet(X, c, 1e-12, reach, culled=True)
            assert same_bits(cols, _nearest_feet(X, c, 1e-12, reach, culled=False))
            assert not np.all(np.isfinite(cols[0]))


def _all_candidates():
    """20000 atoms within 1e-3 of the centre of a regular 200-gon: every pair survives the bound."""
    gon = np.exp(2j * np.pi * np.arange(201) / 200)
    atoms = np.random.default_rng(5).uniform(-7e-4, 7e-4, (20000, 2))
    return DiscreteMeasure(atoms, np.ones(20000)), Polyline(np.stack([gon.real, gon.imag], axis=1))


def test_plan_memory_is_bounded_by_the_block(monkeypatch):
    rng = np.random.default_rng(4)
    mu = DiscreteMeasure(rng.uniform(0.0, 1.0, (20000, 2)), np.ones(20000))
    c = Polyline(np.cumsum(rng.uniform(0.001, 0.01, (200, 2)), axis=0))
    for mu, c in ((mu, c), _all_candidates()):
        diameter(mu)  # the measure computes its diameter once, outside the traced window
        tracemalloc.start()
        try:
            build_plan(mu, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6
    pairs = []
    arithmetic = projection._foot_arithmetic
    monkeypatch.setattr(projection, "_foot_arithmetic",
                        lambda coords, denom, work: pairs.append(work[0].size)
                        or arithmetic(coords, denom, work))
    build_plan(mu, c)
    assert sum(pairs) == mu.n_atoms * (c.n_vertices - 1)  # every pair kept
