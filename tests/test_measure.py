import importlib
import io
import json
import math

import numpy as np
import pytest

from pencurve import cli
from pencurve.curve import Polyline
from pencurve.diagnostics import full_report
from pencurve.energy import energy, gradient, stationarity_report
from pencurve.errors import ParseError, PencurveError
from pencurve.measure import (
    COORD_MAX,
    SYNTH_FAMILIES,
    DiscreteMeasure,
    convex_hull_2d,
    diameter,
    load_measure,
    synth_measure,
    vertices_in_range,
)
from pencurve.optimizer import FitConfig, fit
from pencurve.oracle import OracleConfig, brute_force_min, certify_fit

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


CSV_CASES = [
    # (text, ([positions], [masses]) or (error type, exact message, line))
    ("0,0\r\n1,2\r\n", ([[0.0, 0.0], [1.0, 2.0]], [0.5, 0.5])),
    ("\n0,0\n \t \n\n1,2", ([[0.0, 0.0], [1.0, 2.0]], [0.5, 0.5])),
    ("0,0\n1,2\n\n", ([[0.0, 0.0], [1.0, 2.0]], [0.5, 0.5])),
    ("\ufeff0,0\n1,2", (ParseError, r"malformed row '\ufeff0,0' (line 1)", 1)),
    (" 1 , 2 \n\t3,4\t", ([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])),
    ("+1,-2\n1_000,0.1", ([[1.0, -2.0], [1000.0, 0.1]], [0.5, 0.5])),
    ("nan,0\n1,2", (PencurveError, "non-finite atom position or mass", None)),
    ("0,-inf\n1,2", (PencurveError, "non-finite atom position or mass", None)),
    ("0,0,1\n1,2,nan", (ParseError, "non-positive mass nan (line 2)", 2)),
    ("0,0,inf\n1,2,1", (PencurveError, "non-finite atom position or mass", None)),
    ("0,,1\n1,2,1", (ParseError, "malformed row '0,,1' (line 1)", 1)),
    ("5\n6", (ParseError, "need at least 2 coordinates per atom (line 1)", 1)),
    ("\n5\nx", (ParseError, "need at least 2 coordinates per atom (line 2)", 2)),
    ("1,2\n3,4,5", (ParseError, "inconsistent dimension: expected 2 fields, got 3 (line 2)", 2)),
    ("1,2,3\n4,5", (ParseError, "inconsistent dimension: expected 3 fields, got 2 (line 2)", 2)),
    ("1,2,3,0.25\n4,5,6,0.75", ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [0.25, 0.75])),
    ("0,0,1\n\n1,1,0\n2,2,-1", (ParseError, "non-positive mass 0.0 (line 3)", 3)),
    ("0,0,1\n1,1,2\n\n2,2,-1.5", (ParseError, "non-positive mass -1.5 (line 4)", 4)),
    ("0,0,-1\n1,x,1", (ParseError, "malformed row '1,x,1' (line 2)", 2)),
    ("", (ParseError, "no atoms in CSV input", None)),
    (" \n\t\n", (ParseError, "no atoms in CSV input", None)),
    # malformed before inconsistent, in file order and within a line
    ("1,2\n1,x\n1,2,3", (ParseError, "malformed row '1,x' (line 2)", 2)),
    ("1,2\n1,2,x", (ParseError, "malformed row '1,2,x' (line 2)", 2)),
    ("1,2\n1,2,3\n1,x", (ParseError, "inconsistent dimension: expected 2 fields, got 3 (line 2)",
                         2)),
]


@pytest.mark.parametrize("text,expected", CSV_CASES)
def test_csv_parity_table(text, expected):
    if isinstance(expected[0], type):
        kind, message, line = expected
        with pytest.raises(PencurveError) as exc:
            load_measure(text.encode("utf-8"), "csv")
        assert type(exc.value) is kind and str(exc.value) == message
        assert getattr(exc.value, "line", None) == line
    else:
        mu = load_measure(text.encode("utf-8"), "csv")
        assert mu.positions.tobytes() == np.array(expected[0]).tobytes()
        assert mu.masses.tobytes() == np.array(expected[1]).tobytes()


def test_csv_one_call_parse_keeps_every_bit():
    # shortest repr, 17 digits, 5 digits and 25 digits over the whole exponent range
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3000, 3)) * 10.0 ** rng.integers(-300, 150, (3000, 3))
    x[:, 2] = np.abs(x[:, 2]) + 1e-300
    for fmt in ("{!r}", "{:.17g}", "{:.5g}", "{:.25g}"):
        text = "\n".join(",".join(fmt.format(float(v)) for v in row) for row in x)
        mu = load_measure(text, "csv")
        rows = [[float(f) for f in line.split(",")] for line in text.splitlines()]
        assert mu.positions.tobytes() == np.array([r[:2] for r in rows]).tobytes()
        assert mu.masses.tobytes() == np.array([r[2] for r in rows]).tobytes()


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


@pytest.mark.parametrize("scale,p", [(1e150, 3.0), (1e200, 3.0), (1e200, 2.0)])
def test_library_refuses_measures_outside_the_range(scale, p):
    # the range rule of the CLI, applied by the library: past it fit and
    # full_report overflowed, brute_force_min ran out of array size, and
    # energy, gradient and stationarity_report returned inf with warnings
    base = synth_measure("noisy_circle", 300, seed=0)
    mu = DiscreteMeasure(scale * base.positions, base.masses)
    curve = Polyline(np.array([[0.2, 0.5], [0.8, 0.5]]))  # refused before it is read
    calls = (lambda: fit(mu, FitConfig(p=p, lam=0.05)),
             lambda: full_report(mu, curve, p, 0.05),
             lambda: brute_force_min(mu, OracleConfig(m=2, h=0.05 * scale, p=p, lam=0.05)),
             lambda: energy(mu, curve, p, 0.05),
             lambda: gradient(mu, curve, p, 0.05),
             lambda: stationarity_report(mu, curve, p, 0.05))
    for call in calls:
        with pytest.raises(PencurveError, match="out of the supported range"):
            call()


def test_library_refuses_curves_outside_the_range():
    # the measures' coordinate bound, applied to curves read from JSON and to full_report's
    mu = synth_measure("noisy_circle", 300, seed=0)
    data = {"dim": 2, "vertices": [[0.1, 0.5], [0.5, 0.52], [0.9, 0.5], [1e300, -1e300]]}
    with pytest.raises(PencurveError, match="curve coordinates out of the supported range"):
        Polyline.from_dict(data)
    with np.errstate(over="ignore"):
        far = Polyline(np.array(data["vertices"]))
    with pytest.raises(PencurveError, match="curve coordinates out of the supported range"):
        full_report(mu, far, 2.0, 0.01)
    edge = np.array([[COORD_MAX, 0.5], [0.5, -COORD_MAX]])
    assert vertices_in_range(edge) is edge
    with pytest.raises(PencurveError, match="curve coordinates out of the supported range"):
        vertices_in_range(np.nextafter(edge, math.inf))
    assert full_report(mu, Polyline.from_dict({**data, "vertices": data["vertices"][:3]}),
                       2.0, 0.01).checks


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


@pytest.mark.parametrize("family", SYNTH_FAMILIES)
def test_hull_dedupe_by_one_sort_keeps_every_bit(family):
    # the one-sort dedupe gives np.unique's rows bit for bit, so the chain
    # built on them is the hull the unique-then-sort dedupe gave
    rng = np.random.default_rng(4)
    for n in (10, 3500, 100_000):
        pos = synth_measure(family, n, seed=n).positions
        dup = np.concatenate([pos, pos[rng.integers(0, n, n // 2)]])[rng.permutation(n + n // 2)]
        for x in (pos, dup):
            assert measure_mod._sorted_unique(x).tobytes() == np.unique(x, axis=0).tobytes()
            hull = measure_mod._monotone_chain(x)
            assert hull.tobytes() == measure_mod._monotone_chain(np.unique(x, axis=0)).tobytes()


def _reference_chain(positions):
    """Andrew's monotone chain on every row, unscaled and unfiltered."""
    pts = measure_mod._sorted_unique(positions)
    if len(pts) > 1:
        pts = pts.tolist()
        lower, upper = [], []
        for chain, seq in ((lower, pts), (upper, pts[::-1])):
            for p in seq:
                while len(chain) >= 2 and measure_mod._cross2(chain[-2], chain[-1], p) <= 0:
                    chain.pop()
                chain.append(p)
        pts = np.array(lower[:-1] + upper[:-1], dtype=float)
    return pts


def _assert_reference_hull(x):
    assert measure_mod._monotone_chain(x).tobytes() == _reference_chain(x).tobytes()


@pytest.mark.parametrize("family", SYNTH_FAMILIES)
def test_filtered_hull_equals_the_reference_chain(family):
    for n in (10, 3500, 100_000):
        pos = synth_measure(family, n, seed=n + 1).positions
        _assert_reference_hull(pos)
    # the filter drops most atoms: about 30 of 3500 on a noisy circle survive
    pos = synth_measure("noisy_circle", 3500, seed=1).positions
    assert np.count_nonzero(~measure_mod._deep_interior(pos)) < 100


def test_filtered_hull_on_degenerate_sets():
    rng = np.random.default_rng(12)
    grid = np.stack(np.meshgrid(np.arange(40.0), np.arange(25.0)), axis=-1).reshape(-1, 2)
    theta = 2.0 * np.pi * np.arange(1000) / 1000
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)  # rounded off the circle
    t = rng.uniform(-1.0, 1.0, 500)
    line = np.stack([0.1 + 0.3 * t, -0.7 + 0.7 * t], axis=1)  # collinear up to rounding
    cases = [
        np.array([[0.25, -1.5]]),
        np.array([[0.25, -1.5], [0.25, -1.5]]),
        np.array([[0.0, 1.0], [3.0, -2.0]]),
        np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.3]]),
        grid, 0.1 * grid, grid[rng.permutation(len(grid))],
        circle, 0.5 * circle + 0.25, np.concatenate([circle, 0.9 * circle[::7]]),
        line, np.concatenate([line, line[::3]]),
        np.concatenate([circle, line]),  # rounded collinear atoms deep inside
        np.concatenate([grid, grid[rng.integers(0, len(grid), 300)]]),
        np.concatenate([0.01 * grid, 0.2 + rng.uniform(0.0, 0.01, (2000, 2))]),
    ]
    for x in cases:
        _assert_reference_hull(x)
    for _ in range(100):  # clouds with collinear hull runs and repeats
        pts = np.concatenate([rng.integers(-6, 7, (int(rng.integers(3, 300)), 2)) * 0.1,
                              rng.uniform(-0.6, 0.6, (int(rng.integers(0, 300)), 2))])
        _assert_reference_hull(pts[rng.permutation(len(pts))])


def test_hull_and_diameter_at_every_finite_scale():
    # exact powers of two far past where squares overflow or underflow; pytest
    # turns any RuntimeWarning into an error
    for family in SYNTH_FAMILIES:
        x = synth_measure(family, 300, seed=2).positions
        hull, diam = measure_mod._monotone_chain(x), diameter(DiscreteMeasure(x, np.ones(300)))
        for k in (-700, -500, 0, 500, 700):
            scaled = DiscreteMeasure(np.ldexp(x, k), np.ones(300))
            assert convex_hull_2d(scaled).tobytes() == np.ldexp(hull, k).tobytes()
            assert diameter(scaled) == math.ldexp(diam, k)
    cloud = np.random.default_rng(6).normal(size=(200, 3))
    assert measure_mod._max_pair_distance(np.ldexp(cloud, 900)) == math.ldexp(
        measure_mod._max_pair_distance(cloud), 900)


def test_hull_dedupe_keeps_the_first_signed_zero():
    rest = [[1.0, 0.0], [0.0, 1.0]]
    for first, sign in ((-0.0, True), (0.0, False)):
        hull = measure_mod._monotone_chain(np.array([[first, 0.0], [-first, 0.0], *rest]))
        assert hull.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert np.signbit(hull[0, 0]) == sign


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
