import numpy as np
import pytest

from pencurve.curve import Polyline
from pencurve.diagnostics import _window_mass_prefixes
from pencurve.measure import DiscreteMeasure, diameter, synth_measure
from pencurve.projection import EPS_PROJ, TIE_RULES, build_plan, project_point


def P(*pts):
    return Polyline(np.array(pts, dtype=float))


def sigma_mass(plan, a, b):
    """Mass projected onto vertices a..b and the segments between them, as tv_local reads it."""
    pv, ps = _window_mass_prefixes(plan, plan.n_vertices)
    return (pv[b + 1] - pv[a]) + (ps[b] - ps[a])


def test_project_point_perpendicular_foot():
    d, targets = project_point(np.array([0.5, 1.0]), P((0, 0), (1, 0)))
    assert d == pytest.approx(1.0)
    assert len(targets) == 1
    t = targets[0]
    assert t.vertex is None and t.seg == 0 and t.t == pytest.approx(0.5)


def test_project_point_endpoint_clamp():
    d, targets = project_point(np.array([2.0, 0.0]), P((0, 0), (1, 0)), snap=1e-12)
    assert d == pytest.approx(1.0)
    assert targets[0].vertex == 1


def test_project_point_ridge_two_targets():
    d, targets = project_point(np.array([0.5, 0.5]), P((0, 0), (1, 0), (1, 1)), eps_abs=1e-12)
    assert d == pytest.approx(0.5)
    assert len(targets) == 2
    assert targets[0].arc < targets[1].arc


def test_build_plan_symmetric_atoms():
    mu = DiscreteMeasure(np.array([[0.5, 0.4], [0.5, -0.4]]), np.array([0.5, 0.5]))
    plan, _ = build_plan(mu, P((0, 0), (1, 0)))
    d = plan.atom_distances()
    assert d[0] == pytest.approx(d[1]) == pytest.approx(0.4)


def test_build_plan_tied_vertex():
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [0.7, 0.9]]), np.array([0.5, 0.5]))
    plan, cls = build_plan(mu, P((0, 0), (1, 0)))
    assert cls.tied_atom[0] == 0
    assert 0 in cls.talking[0]
    assert plan.entries[0].distance == 0.0
    assert plan.entries[0].mass == pytest.approx(0.5)  # full mass at the tied vertex


def test_tie_rule_first_arc_length():
    # steep valley: the atom above clamps onto both far vertices, equidistant
    c = P((0, 1), (0.5, -1), (1, 1))
    mu = DiscreteMeasure(np.array([[0.5, 1.3]]), np.array([1.0]))
    plan, _ = build_plan(mu, c, tie_rule="first_arc_length")
    assert len(plan.entries) == 1
    assert plan.entries[0].target.vertex == 0
    plan2, _ = build_plan(mu, c, tie_rule="split_evenly")
    assert sorted(e.target.vertex for e in plan2.entries) == [0, 2]
    assert all(e.mass == pytest.approx(0.5) for e in plan2.entries)


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
    assert plan.total_mass == pytest.approx(mu.total_mass, abs=1e-12)
    k = 3
    total = sigma_mass(plan, 0, k) + sigma_mass(plan, k, 6) - sigma_mass(plan, k, k)
    assert total == pytest.approx(mu.total_mass, abs=1e-12)


def test_optimality_audit_random_curve_points():
    mu = synth_measure("gaussian_clusters", 40, seed=5)
    rng = np.random.default_rng(5)
    c = Polyline(rng.uniform(0, 1, (6, 2)))
    plan, _ = build_plan(mu, c)
    dists = plan.atom_distances()
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
    d0 = build_plan(mu, c)[0].atom_distances()
    delta = rng.normal(0, 0.05, (10, 2))
    mu2 = DiscreteMeasure(base + delta, np.ones(10))
    d1 = build_plan(mu2, c)[0].atom_distances()
    assert np.all(np.abs(d1 - d0) <= np.linalg.norm(delta, axis=1) + 1e-12)


def test_plan_json_dump_shape():
    mu = DiscreteMeasure(np.array([[0.2, 0.4], [0.9, 0.1]]), np.array([1.0, 2.0]))
    plan, _ = build_plan(mu, P((0, 0), (1, 0)))
    dump = plan.to_dict()
    assert [a["atom"] for a in dump["atoms"]] == [0, 1]
    assert all("distance" in t for a in dump["atoms"] for t in a["targets"])


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


@pytest.mark.parametrize("tie_rule", TIE_RULES)
def test_array_plan_matches_project_point(tie_rule):
    snapped = ridges = 0
    for mu, c in _plan_cases():
        plan, _ = build_plan(mu, c, tie_rule=tie_rule)
        diam = diameter(mu)
        k = 0
        for i, x in enumerate(mu.positions):
            d, targets = project_point(x, c, eps_abs=EPS_PROJ * diam, snap=1e-9 * diam)
            unsnapped = project_point(x, c, eps_abs=EPS_PROJ * diam)[1]
            snapped += targets[0].is_vertex and not unsnapped[0].is_vertex
            ridges += len(targets) > 1
            if tie_rule == "first_arc_length":
                targets = targets[:1]
            for tgt in targets:
                assert plan.atom[k] == i
                assert plan.dist[k] == d
                assert plan.mass[k] == mu.masses[i] / len(targets)
                assert plan.arc[k] == tgt.arc
                assert np.array_equal(plan.point[k], tgt.point)
                if tgt.is_vertex:
                    assert plan.ia[k] == plan.ib[k] == tgt.vertex and plan.t[k] == 0.0
                else:
                    assert (plan.ia[k], plan.ib[k], plan.t[k]) == (tgt.seg, tgt.seg + 1, tgt.t)
                k += 1
        assert k == len(plan.atom)
    assert snapped and ridges  # the cases reach both special paths


def test_plan_entries_and_dict_agree_with_arrays():
    mu = DiscreteMeasure(np.array([[0.5, 1.3], [0.5, 0.5], [2.0, 0.0]]), np.array([1.0, 2.0, 3.0]))
    plan, _ = build_plan(mu, P((0, 1), (0.5, -1), (1, 1)), tie_rule="split_evenly")
    assert len(plan.entries) == len(plan.atom) == 5  # atoms 0, 1 on the ridge: two entries each
    dump = plan.to_dict()["atoms"]
    targets = [t for a in dump for t in a["targets"]]
    atoms = [a["atom"] for a in dump for _ in a["targets"]]
    for k, (e, tgt) in enumerate(zip(plan.entries, targets)):
        assert e.atom == plan.atom[k] == atoms[k]
        assert e.mass == plan.mass[k] == tgt["mass"]
        assert e.distance == plan.dist[k] == tgt["distance"]
        assert e.target.arc == plan.arc[k] == tgt["arc"]
        assert np.array_equal(e.target.point, plan.point[k])
        if e.target.is_vertex:
            assert e.target.vertex == plan.ia[k] == plan.ib[k] == tgt["vertex"]
        else:
            assert e.target.seg == plan.ia[k] == tgt["segment"]
            assert e.target.t == plan.t[k] == tgt["t"]
    assert plan.entries[-1].atom == 2
    with pytest.raises(IndexError):
        plan.entries[5]
