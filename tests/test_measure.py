import importlib
import io
import json

import numpy as np
import pytest

from pencurve import cli
from pencurve.curve import Polyline
from pencurve.diagnostics import full_report
from pencurve.energy import energy, stationarity_report
from pencurve.errors import ParseError, PencurveError
from pencurve.measure import (
    SYNTH_FAMILIES,
    DiscreteMeasure,
    convex_hull_2d,
    diameter,
    load_measure,
    synth_measure,
)
from pencurve.optimizer import FitConfig, fit
from pencurve.oracle import OracleConfig, certify_fit

measure_mod = importlib.import_module("pencurve.measure")


def test_csv_uniform_default_masses():
    mu = load_measure(io.BytesIO(b"0,0\n1,0\n"), "csv")
    assert mu.positions.tolist() == [[0.0, 0.0], [1.0, 0.0]]
    assert mu.masses.tolist() == [0.5, 0.5]


def test_csv_explicit_masses():
    mu = load_measure("0,0,0.3\n1,0,0.7", "csv")
    assert mu.masses.tolist() == [0.3, 0.7]
    assert mu.total_mass == pytest.approx(1.0)


def test_csv_dimension_mismatch_names_line():
    with pytest.raises(ParseError) as exc:
        load_measure("0,0\n1", "csv")
    assert "line 2" in str(exc.value)


def test_csv_malformed_and_nonpositive_mass():
    with pytest.raises(ParseError):
        load_measure("0,zero\n", "csv")
    with pytest.raises(ParseError):
        load_measure("0,0,0.5\n1,0,-1\n", "csv")


def test_json_roundtrip_and_mixed_mass_error():
    mu = load_measure('{"dim": 2, "atoms": [{"x": [0,0], "m": 2}, {"x": [1,1], "m": 3}]}', "json")
    assert mu.total_mass == pytest.approx(5.0)
    again = DiscreteMeasure.from_dict(mu.to_dict())
    assert np.array_equal(again.positions, mu.positions)
    with pytest.raises(ParseError):
        load_measure('{"dim": 2, "atoms": [{"x": [0,0], "m": 2}, {"x": [1,1]}]}', "json")


def test_measure_rejects_bad_atoms():
    with pytest.raises(PencurveError):
        DiscreteMeasure(np.zeros((1, 1)), np.ones(1))  # d=1
    with pytest.raises(PencurveError):
        DiscreteMeasure(np.zeros((2, 2)), np.array([1.0, 0.0]))


def test_diameter_examples():
    two = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))
    assert diameter(two) == 1.0
    single = DiscreteMeasure(np.array([[3.0, 4.0]]), np.array([1.0]))
    assert diameter(single) == 0.0
    square = DiscreteMeasure(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), np.ones(4)
    )
    assert diameter(square) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_diameter_rigid_invariance():
    rng = np.random.default_rng(11)
    pos = rng.uniform(-1, 1, (40, 2))
    mu = DiscreteMeasure(pos, np.ones(40))
    d0 = diameter(mu)
    # translation exact only up to the cancellation in (x+t)-(y+t)
    shifted = diameter(DiscreteMeasure(pos + np.array([5.0, -2.0]), np.ones(40)))
    assert shifted == pytest.approx(d0, rel=1e-12)
    assert diameter(DiscreteMeasure(pos + np.array([0.5, -0.25]), np.ones(40))) == d0
    th = 0.83
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert diameter(DiscreteMeasure(pos @ R.T, np.ones(40))) == pytest.approx(d0, rel=1e-12)


def _brute_force_diameter(pos):
    best = 0.0
    for i0 in range(0, len(pos), 256):
        d2 = np.sum((pos[i0 : i0 + 256, None, :] - pos[None, :, :]) ** 2, axis=-1)
        best = max(best, float(np.max(d2)))
    return float(np.sqrt(best))


@pytest.mark.parametrize("family", SYNTH_FAMILIES)
def test_diameter_2d_equals_brute_force(family):
    for n, seed in ((3, 0), (17, 1), (200, 2), (1000, 3), (3500, 4)):
        mu = synth_measure(family, n, seed=seed)
        assert diameter(mu) == _brute_force_diameter(mu.positions)


def test_diameter_collinear_duplicates_single_atom_and_3d(monkeypatch):
    rng = np.random.default_rng(5)
    for k in range(60):
        n = int(rng.integers(2, 60))
        t = rng.choice(rng.uniform(-2.0, 3.0, max(1, n // 3)), size=n)  # repeats points
        if k % 3 == 0:
            pos = rng.uniform(-1, 1, 2) + t[:, None] * rng.normal(size=2)
        elif k % 3 == 1:
            pos = np.stack([t, np.full(n, rng.uniform())], axis=1)
        else:
            ti = rng.integers(-20, 20, n).astype(float)
            pos = np.stack([ti, 2.0 * ti], axis=1)
        assert diameter(DiscreteMeasure(pos, np.ones(n))) == _brute_force_diameter(pos)
    assert diameter(DiscreteMeasure(np.array([[0.3, -2.0]]), np.ones(1))) == 0.0

    searched = []
    inner = measure_mod._max_pair_distance
    monkeypatch.setattr(measure_mod, "_max_pair_distance",
                        lambda pos: searched.append(len(pos)) or inner(pos))
    cloud = rng.normal(size=(300, 3))
    assert diameter(DiscreteMeasure(cloud, np.ones(300))) == _brute_force_diameter(cloud)
    assert searched == [300]  # d >= 3 compares every pair


def _counting(fn, log):
    def counted(*args, **kwargs):
        log.append(fn.__name__)
        return fn(*args, **kwargs)
    return counted


def test_geometry_computed_once_per_call(monkeypatch, tmp_path):
    # counts the computations themselves: the hull's monotone chain and the
    # farthest-pair search run once per measure, however many calls read them
    log = []
    for name in ("_monotone_chain", "_max_pair_distance"):
        monkeypatch.setattr(measure_mod, name, _counting(getattr(measure_mod, name), log))
    mu = synth_measure("noisy_circle", 300, seed=1)
    theta = np.linspace(0.0, 1.5 * np.pi, 12)
    arc = Polyline(0.5 + 0.35 * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    once = ["_monotone_chain", "_max_pair_distance"]

    full_report(mu, arc, 2.0, 0.05)
    assert log == once
    log.clear()
    fit(mu, FitConfig(p=2.0, lam=0.05, max_outer_iters=3, restarts=1))
    # restart 1 clips its jittered start to the hull: the same hull
    fit(mu, FitConfig(p=2.0, lam=0.05, max_outer_iters=2, restarts=2))
    full_report(mu, arc, 1.0, 0.05)
    energy(mu, arc, 2.0, 0.05)
    stationarity_report(mu, arc, 2.0, 0.05)
    certify_fit(mu, arc, OracleConfig(m=2, h=0.5, p=2.0, lam=0.05, budget=1.0))
    assert log == []
    atoms, curve = tmp_path / "atoms.csv", tmp_path / "curve.json"
    np.savetxt(atoms, mu.positions, delimiter=",", fmt="%.17g")
    curve.write_text(json.dumps(arc.to_dict()))
    assert cli.main(["check", str(atoms), str(curve), "--p", "2", "--lambda", "0.05",
                     "--out", str(tmp_path / "report.json")]) == 0
    assert log == once  # the file gives a new measure


def test_measure_and_curve_copy_their_input():
    base = np.random.default_rng(3).uniform(0.0, 1.0, (40, 3))
    X = base[:, :2]
    mu = DiscreteMeasure(X, np.ones(40))
    positions, diam = mu.positions.copy(), diameter(mu)
    V = np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 0.0]])
    c = Polyline(V)
    vertices, lengths = c.vertices.copy(), c.segment_lengths.copy()
    assert X.flags.writeable and base.flags.writeable and V.flags.writeable
    base[0, 0] = 100.0
    X[1, 1] = -100.0
    V[1] = [7.0, 7.0]
    assert np.array_equal(mu.positions, positions)
    assert diameter(mu) == diam
    assert np.array_equal(c.vertices, vertices)
    assert np.array_equal(c.segment_lengths, lengths)
    assert not mu.positions.flags.writeable and not c.vertices.flags.writeable


def test_hull_square_with_center():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
    hull = convex_hull_2d(DiscreteMeasure(pts, np.ones(5)))
    assert hull.shape == (4, 2)
    assert [0.5, 0.5] not in hull.tolist()
    # counterclockwise: positive signed area
    area = 0.0
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        area += a[0] * b[1] - b[0] * a[1]
    assert area > 0


def test_hull_degenerate():
    collinear = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), np.ones(3))
    hull = convex_hull_2d(collinear)
    assert hull.tolist() == [[0.0, 0.0], [2.0, 2.0]]
    single = convex_hull_2d(DiscreteMeasure(np.array([[0.0, 0.0]]), np.ones(1)))
    assert single.tolist() == [[0.0, 0.0]]


def test_hull_contains_all_atoms():
    from pencurve.diagnostics import hull_edge_violations

    for seed in range(5):
        mu = synth_measure("uniform_square", 60, seed=seed)
        hull = convex_hull_2d(mu)
        viol = hull_edge_violations(mu.positions, hull)
        assert np.max(viol) <= 1e-12 * max(diameter(mu), 1.0)


def test_synth_determinism_and_families():
    a = synth_measure("uniform_square", 4, seed=7)
    b = synth_measure("uniform_square", 4, seed=7)
    assert a.positions.tobytes() == b.positions.tobytes()
    seg = synth_measure("noisy_segment", 25, seed=1, noise=0.0)
    assert np.allclose(seg.positions[:, 1], 0.0)
    clusters = synth_measure("gaussian_clusters", 100, seed=3, k=2)
    assert clusters.n_atoms == 100
    assert clusters.total_mass == pytest.approx(1.0, rel=1e-12)
    circ = synth_measure("noisy_circle", 50, seed=9)
    assert circ.n_atoms == 50
    with pytest.raises(PencurveError):
        synth_measure("donut", 10, seed=0)


def test_total_mass_matches_column_sum():
    rng = np.random.default_rng(0)
    masses = rng.uniform(0.1, 2.0, 30)
    lines = "\n".join(f"{x},{y},{m}" for (x, y), m in zip(rng.uniform(0, 1, (30, 2)), masses))
    mu = load_measure(lines, "csv")
    assert mu.total_mass == pytest.approx(float(np.sum(masses)), rel=1e-15)
