import importlib
import math

import numpy as np
import pytest

from pencurve.curve import Polyline, point_segment_foot
from pencurve.diagnostics import (
    _entry_sides,
    _running,
    _window_mass_prefixes,
    check_hull_containment,
    check_injectivity,
    check_length_bound,
    check_local_tv,
    check_tv_bound,
    convex_clip,
    full_report,
    hull_edge_violations,
    project_to_hull,
    singleton_best_energy,
    turn_direction_sweep,
)
from pencurve.measure import (
    DiscreteMeasure,
    convex_hull_2d,
    diameter,
    synth_measure,
    tie_tolerance,
)
from pencurve.projection import build_plan

diag_mod = importlib.import_module("pencurve.diagnostics")

TWO_ATOMS = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
OPTIMAL = Polyline(np.array([[0.2, 0.0], [0.8, 0.0]]))


def P(*pts):
    return Polyline(np.array(pts, dtype=float))


def test_length_bound_optimum_passes():
    chk = check_length_bound(TWO_ATOMS, OPTIMAL, p=2.0, lam=0.2)
    assert chk.passed
    assert chk.observed == pytest.approx(0.12)
    assert chk.bound == pytest.approx(0.25)  # singleton at the midpoint


def test_length_bound_singleton_and_violation():
    assert check_length_bound(TWO_ATOMS, P((0.4, 0.0)), p=2.0, lam=0.2).passed
    long_curve = P((0.0, 0.0), (2.0, 0.0))  # lambda * L = 0.4 > 0.25
    assert not check_length_bound(TWO_ATOMS, long_curve, p=2.0, lam=0.2).passed


def _per_candidate_minima(mu, ps):
    """min over the atoms and the weighted mean of sum(masses * |X - z|^p), one z at a time."""
    X = mu.positions
    mean = (mu.masses / mu.total_mass) @ X
    norms = [np.linalg.norm(X - z, axis=1) for z in [*X, mean]]
    return [min(float(np.sum(mu.masses * r ** p)) for r in norms) for p in ps]


def test_singleton_best_energy_equals_per_candidate_loop():
    # scoring 16 candidates at a time, in cell order, and pruning whole cells
    # must not change a bit of the minimum over the per-candidate sums
    rng = np.random.default_rng(8)
    cases = [(synth_measure(fam, n, seed=11), (p,)) for fam in
             ("uniform_square", "gaussian_clusters", "noisy_circle", "noisy_segment")
             for n, p in ((350, 2.0), (100, 1.0), (77, 1.5), (20, 3.0))]
    cases += [(DiscreteMeasure(rng.normal(size=(n, d)), rng.uniform(0.1, 1.0, n)),
               (1.0, 1.5, 2.0, 3.0)) for d in (2, 3, 5) for n in (1, 16, 45)]
    # the pruning regime: thousands of atoms, most cells never scored
    cases += [(synth_measure(fam, 3500, seed=5), (1.0, 2.0))
              for fam in ("uniform_square", "gaussian_clusters")]
    lattice = np.stack(np.meshgrid(np.arange(13.0), np.arange(7.0)), axis=-1).reshape(-1, 2)
    cases.append((DiscreteMeasure(lattice, rng.uniform(0.1, 1.0, 91)), (1.0, 2.0)))  # on cell edges
    cases.append((DiscreteMeasure(np.full((50, 2), 0.3), rng.uniform(0.1, 1.0, 50)), (1.0, 2.0)))
    cases.append((DiscreteMeasure([[0.3, -2.0]], [0.7]), (1.0, 2.0)))
    # an atom exactly at the weighted mean: dyadic offsets, total mass 512
    offsets = rng.integers(-512, 512, (200, 2)) / 1024.0
    center = np.array([0.5, 0.25])
    mirrored = np.concatenate([center + offsets, center - offsets, [center]])
    mu = DiscreteMeasure(mirrored, np.concatenate([np.ones(400), [112.0]]))
    assert np.array_equal((mu.masses / mu.total_mass) @ mu.positions, center)
    cases.append((mu, (1.0, 2.0)))
    line = np.stack([rng.uniform(-1.0, 1.0, 600), np.zeros(600)], axis=1)  # a 1-D cloud
    cases.append((DiscreteMeasure(line, rng.uniform(0.1, 1.0, 600)), (1.0, 2.0)))
    cases.append((DiscreteMeasure(rng.normal(size=(600, 3)), rng.uniform(0.1, 1.0, 600)),
                  (1.0, 2.0)))
    # two tight clusters: the heavy one's cell bound is within 1e-6 of the best
    tight = rng.uniform(0.0, 1e-7, (80, 2)) + np.repeat([[0.0, 0.0], [1.0, 0.0]], 40, axis=0)
    cases.append((DiscreteMeasure(tight, np.repeat([1.0, 0.5], 40)), (1.0, 2.0)))
    segment = synth_measure("noisy_segment", 1000, seed=2)
    cases += [(DiscreteMeasure(segment.positions * s, segment.masses), (1.0, 2.0))
              for s in (1e-150, 1e150)]
    for mu, ps in cases:
        for p, loop in zip(ps, _per_candidate_minima(mu, ps)):
            assert singleton_best_energy(mu, p) == loop
    # a span past the float range: one cell, every energy inf, no NaN
    huge = DiscreteMeasure(rng.uniform(-1.0, 1.0, (40, 2)) * 1e308, np.ones(40))
    with np.errstate(over="ignore"):
        assert singleton_best_energy(huge, 1.0) == _per_candidate_minima(huge, (1.0,))[0]


def test_singleton_search_prunes_the_full_scan(monkeypatch):
    # on a noisy circle at p = 2 the weighted mean beats every atom by far:
    # a silent fall back to scoring every candidate fails here
    scored = []
    inner = diag_mod._candidate_energies
    monkeypatch.setattr(diag_mod, "_candidate_energies",
                        lambda mu, Z, *args: scored.append(len(Z)) or inner(mu, Z, *args))
    mu = synth_measure("noisy_circle", 3500, seed=0)
    singleton_best_energy(mu, 2.0)
    assert 1 <= sum(scored) <= 0.01 * (mu.n_atoms + 1)


def test_hull_containment():
    square = DiscreteMeasure(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), np.full(4, 0.25)
    )
    assert check_hull_containment(square, P((0.2, 0.2), (0.8, 0.8))).passed
    bad = check_hull_containment(square, P((0.5, 0.5), (2.0, 0.0)))
    assert not bad.passed
    assert bad.observed == pytest.approx(1.0, rel=1e-9)
    collinear = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.ones(3))
    assert check_hull_containment(collinear, P((0.5, 0.0), (1.5, 0.0))).passed


def test_hull_containment_skips_3d():
    mu3 = DiscreteMeasure(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), np.ones(2))
    chk = check_hull_containment(mu3, Polyline(np.array([[0.0, 0.0, 0.0]])))
    assert chk.passed is None


def test_convex_clip_inside_unchanged():
    hull = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    c = P((0.2, 0.2), (0.6, 0.7))
    out = convex_clip(c, hull)
    assert np.allclose(out.vertices[0], c.vertices[0])
    assert np.allclose(out.vertices[-1], c.vertices[-1])
    assert out.total_length == pytest.approx(c.total_length, rel=1e-12)


def test_convex_clip_exit_and_return_strictly_shorter():
    hull = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    c = P((0.5, 0.5), (1.8, 0.5), (0.5, 0.9))
    out = convex_clip(c, hull)
    assert out.total_length < c.total_length - 1e-9
    from pencurve.diagnostics import hull_edge_violations

    assert np.max(hull_edge_violations(out.vertices, hull)) <= 1e-12


def test_convex_clip_fully_outside():
    hull = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    c = P((-0.5, 2.0), (1.5, 2.0))
    out = convex_clip(c, hull)
    assert out.total_length <= c.total_length + 1e-12
    assert np.allclose(out.vertices[:, 1], 1.0)


def test_convex_clip_random_never_longer():
    rng = np.random.default_rng(30)
    for _ in range(30):
        pts = rng.uniform(0, 1, (rng.integers(3, 9), 2))
        hull = convex_hull_2d(DiscreteMeasure(pts, np.ones(len(pts))))
        c = Polyline(rng.uniform(-0.6, 1.6, (rng.integers(2, 7), 2)))
        out = convex_clip(c, hull)
        assert out.total_length <= c.total_length * (1 + 1e-12) + 1e-15


def _violation_loop(x, hull):
    """Reference for hull_edge_violations: one point, coordinates added in order."""
    k = len(hull)
    if k < 3:
        return point_segment_foot(x[None], hull[0], hull[-1])[0][0]
    out = -np.inf
    for i in range(k):
        e = hull[(i + 1) % k] - hull[i]
        ln = math.sqrt(e[0] * e[0] + e[1] * e[1])
        rel = x - hull[i]
        out = np.maximum(out, rel[0] * (e[1] / ln) + rel[1] * (-e[0] / ln))
    return out


def _project_loop(x, hull):
    """Reference for project_to_hull: one point; outside, the first nearest edge."""
    k = len(hull)
    if k == 1:
        return hull[0]
    if k > 2 and _violation_loop(x, hull) <= 0.0:
        return x
    best = None
    for i in range(k if k > 2 else 1):
        d, foot = point_segment_foot(x[None], hull[i], hull[(i + 1) % k])
        if best is None or d[0] < best[0]:
            best = (d[0], foot[0])
    return best[1]


def _hull_cases(rng):
    """(points, hull): a point, segments and polygons, with signed zeros."""
    square = np.array([[-0.0, -0.0], [1.0, -0.0], [1.0, 1.0], [-0.0, 1.0]])
    hulls = [np.array([[-0.0, 0.0]]), np.array([[0.0, -0.0], [1.0, 0.0]]), square]
    line = DiscreteMeasure(np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 0.5]]), np.ones(3))
    hulls.append(convex_hull_2d(line))
    for _ in range(10):
        pts = rng.uniform(0, 1, (int(rng.integers(3, 12)), 2))
        hulls.append(convex_hull_2d(DiscreteMeasure(pts, np.ones(len(pts)))))
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.5, -0.0], [-0.0, 0.5]])
    for hull in hulls:
        mids = 0.5 * (hull + np.roll(hull, -1, axis=0))
        yield np.concatenate([rng.uniform(-0.5, 1.5, (40, 2)), hull, mids, zeros]), hull


def test_hull_helpers_match_the_loops():
    for X, hull in _hull_cases(np.random.default_rng(41)):
        viol = hull_edge_violations(X, hull)
        assert viol.tobytes() == np.array([_violation_loop(x, hull) for x in X]).tobytes()
        proj = project_to_hull(X, hull)
        assert proj.tobytes() == np.array([_project_loop(x, hull) for x in X]).tobytes()


def test_tv_bound_arithmetic():
    # (p / lambda) * diam^(p-1) * mass: 10 rad and 2 rad for these parameters
    straight = P((0.0, 0.0), (1.0, 0.0))
    chk = check_tv_bound(TWO_ATOMS, straight, p=1.0, lam=0.1)
    assert chk.bound == pytest.approx(10.0)
    assert chk.passed
    chk2 = check_tv_bound(TWO_ATOMS, straight, p=2.0, lam=1.0)
    assert chk2.bound == pytest.approx(2.0)


def test_tv_bound_zigzag_fails():
    xs = np.arange(14, dtype=float)
    ys = np.where(xs % 2 == 0, 0.0, 0.3)
    zig = Polyline(np.stack([xs / 13.0, ys], axis=1))
    chk = check_tv_bound(TWO_ATOMS, zig, p=1.0, lam=0.1)
    assert chk.observed > 10.0
    assert not chk.passed


def test_local_tv_zero_mass_turn_fails():
    # the right-angle turn at vertex 2 sits in window (1, 3), which attracts
    # no mass: all atoms project to the far endpoints
    mu = DiscreteMeasure(np.array([[-2.0, 0.0], [5.0, 1.0]]), np.array([0.5, 0.5]))
    c = P((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0))
    chk = check_local_tv(mu, c, p=2.0, lam=0.2)
    assert not chk.passed
    assert chk.observed >= np.pi / 2 - 1e-9


def _local_tv_loop(mu, c, p, lam):
    """Reference for check_local_tv: every window (a, b) in turn, first worst kept."""
    plan, _ = build_plan(mu, c)
    m = c.n_vertices
    coef = (p / lam) * diameter(mu) ** (p - 1.0)
    pa = np.concatenate([[0.0], np.cumsum(c.turning_angles)])
    pv, ps = _window_mass_prefixes(plan, m)
    worst = (-np.inf, None)
    for a in range(m - 1):
        for b in range(a + 2, m):
            tv = pa[b - 1] - pa[a]
            sigma = (pv[b + 1] - pv[a]) + (ps[b] - ps[a])
            viol = tv - coef * sigma
            if viol > worst[0]:
                worst = (viol, (a, b))
    return worst


def _local_tv_window(chk):
    return chk.detail.split("window ")[1].split(")")[0] + ")"


def test_local_tv_matches_the_window_loop():
    rng = np.random.default_rng(8)
    for _ in range(25):
        mu = synth_measure("uniform_square", int(rng.integers(3, 40)),
                           seed=int(rng.integers(1000)))
        c = Polyline(rng.uniform(0.0, 1.0, (int(rng.integers(3, 30)), 2)))
        for p, lam in ((1.0, 0.1), (1.5, 2.0), (2.0, 0.05)):
            chk = check_local_tv(mu, c, p, lam)
            viol, window = _local_tv_loop(mu, c, p, lam)
            assert chk.observed == viol
            assert _local_tv_window(chk) == str(window)


def test_local_tv_tied_windows_keep_the_first():
    # equal right-angle turns at vertices 1 and 4, no mass near either: windows
    # (0, 2) and (3, 5) tie for the worst violation
    mu = DiscreteMeasure(np.array([[0.5, 1.5]]), np.ones(1))
    c = P((0, 0), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3))
    chk = check_local_tv(mu, c, p=1.0, lam=0.1)
    viol, window = _local_tv_loop(mu, c, 1.0, 0.1)
    assert window == (0, 2) and viol == np.pi / 2
    assert chk.observed == viol and _local_tv_window(chk) == "(0, 2)"


def test_local_tv_straight_passes():
    mu = synth_measure("noisy_segment", 40, seed=2, noise=0.05)
    c = P((0.0, 0.0), (0.5, 0.0), (1.0, 0.0))
    assert check_local_tv(mu, c, p=2.0, lam=0.2).passed


def test_turn_direction_straight_passes():
    mu = DiscreteMeasure(np.array([[0.3, 0.5], [0.7, 0.6]]), np.array([0.5, 0.5]))
    c = P((0.0, 0.0), (0.5, 0.0), (1.0, 0.0))
    chk = turn_direction_sweep(mu, c, p=2.0, lam=0.2)
    assert chk.passed
    assert chk.detail.startswith("3 eligible windows")


def test_turn_direction_left_turn_without_mass_below_fails():
    mu = DiscreteMeasure(np.array([[0.2, 0.5], [0.8, 0.8]]), np.array([0.5, 0.5]))
    # turns left by 0.36 rad (< 1/2, so window (0, 2) is checked), all mass above
    c = P((0.0, 0.0), (0.5, 0.0), (0.9, 0.15))
    chk = turn_direction_sweep(mu, c, p=2.0, lam=0.2)
    assert chk.status == "FAIL"
    assert "worst (0, 2)" in chk.detail


def test_turn_direction_skips_big_tv():
    mu = DiscreteMeasure(np.array([[0.5, 0.5]]), np.array([1.0]))
    c = P((0.0, 0.0), (1.0, 0.0), (0.0, 0.4))  # near-reversal, TV >= 1/2
    chk = turn_direction_sweep(mu, c, p=2.0, lam=0.2)
    assert chk.passed
    assert chk.detail.startswith("2 eligible windows")  # (0, 1) and (1, 2); (0, 2) excluded


def _turn_direction_loop(mu, c, p, lam):
    """Reference for turn_direction_sweep: every end b in turn for each start a.

    Returns (worst violation, its first window, eligible windows checked).
    """
    plan, _ = build_plan(mu, c)
    m = c.n_vertices
    key = plan.ia + plan.ib
    order = np.argsort(key, kind="stable")
    key = key[order]
    sides = [(np.where(side, plan.mass, 0.0)[order], np.where(side, plan.dist, 0.0)[order])
             for side in _entry_sides(mu, c, plan, tie_tolerance(diameter(mu)))]
    angles = c.turning_angles
    seg_unit = c.segment_vectors / c.segment_lengths[:, None]
    coef = p / lam
    worst = (-np.inf, None)
    checked = 0
    for a in range(m - 1):
        first = np.searchsorted(key, 2 * a)
        ends = np.searchsorted(key, 2 * np.arange(a, m), side="right") - first
        (mass_below, d_below), (mass_above, d_above) = (
            (_running(np.add, ms[first:])[ends].tolist(),
             _running(np.maximum, ds[first:])[ends].tolist())
            for ms, ds in sides)
        t0 = seg_unit[a]
        sup_up = sup_down = 0.0
        tv = 0.0
        for b in range(a + 1, m):
            if b >= a + 2:
                tv += angles[b - 2]
                if tv >= 0.5:
                    break
            tk = seg_unit[b - 1]
            sine = t0[0] * tk[1] - t0[1] * tk[0]
            sup_up = max(sup_up, sine)
            sup_down = max(sup_down, -sine)
            k = b - a
            viol = max(sup_up - coef * d_below[k] ** (p - 1.0) * mass_below[k],
                       sup_down - coef * d_above[k] ** (p - 1.0) * mass_above[k])
            checked += 1
            if viol > worst[0]:
                worst = (viol, (a, b))
    return worst[0], worst[1], checked


def _assert_turn_matches_loop(mu, c, p, lam):
    chk = turn_direction_sweep(mu, c, p, lam)
    viol, window, checked = _turn_direction_loop(mu, c, p, lam)
    assert chk.observed == viol and str(chk.observed) == str(viol)  # -0.0 differs in str
    assert chk.detail == f"{checked} eligible windows; worst {window} at violation {viol:.3g}"
    return window


def test_turn_direction_matches_the_window_loop():
    rng = np.random.default_rng(9)
    for _ in range(25):
        mu = synth_measure("uniform_square", int(rng.integers(3, 40)),
                           seed=int(rng.integers(1000)))
        m = int(rng.integers(2, 30))
        # random walks with small turns, so that the TV cutoff falls inside the curve
        heading = np.cumsum(rng.normal(0.0, float(rng.choice([0.05, 0.2, 2.0])), m - 1))
        steps = rng.uniform(0.02, 0.1, m - 1)[:, None] * np.stack(
            [np.cos(heading), np.sin(heading)], axis=1)
        c = Polyline(np.concatenate([[rng.uniform(0, 1, 2)], rng.uniform(0, 1, 2) + np.cumsum(
            steps, axis=0)]))
        for p, lam in ((1.0, 0.1), (1.5, 2.0), (2.0, 0.05), (3.0, 0.3)):
            _assert_turn_matches_loop(mu, c, p, lam)
    # one segment: each side's violation is -coef d^(p-1) mass, so the power's
    # rounding shows
    seg = P((0.0, 0.0), (1.0, 0.0))
    for _ in range(100):
        mu = DiscreteMeasure(rng.uniform(-1.0, 1.0, (5, 2)), rng.uniform(0.2, 1.0, 5))
        for p in (1.3, 2.7):
            _assert_turn_matches_loop(mu, seg, p, 0.1)


def test_turn_direction_tied_windows_and_cutoff_match_the_loop():
    # straight curve over symmetric atoms: every sine is 0, so windows tie for
    # the worst violation and the first is kept
    mu = DiscreteMeasure(np.array([[0.25, 0.5], [0.25, -0.5], [0.75, 0.5], [0.75, -0.5]]),
                         np.full(4, 0.25))
    straight = P((0, 0), (0.25, 0), (0.5, 0), (0.75, 0), (1, 0))
    assert _assert_turn_matches_loop(mu, straight, 2.0, 0.2) == (0, 1)
    # equal turns of 0.25 rad: the TV reaches 1/2 at the second turn of a window
    th = np.concatenate([[0.0], np.cumsum(np.full(5, 0.25))])
    arc = Polyline(np.concatenate([[[0.0, 0.0]], np.cumsum(
        np.stack([np.cos(th), np.sin(th)], axis=1), axis=0)]))
    for p in (1.0, 2.0):
        _assert_turn_matches_loop(mu, arc, p, 0.2)


def test_injectivity_reports():
    arc = P((0.0, 0.0), (0.5, 0.2), (1.0, 0.0))
    assert check_injectivity(arc, TWO_ATOMS, 2.0).passed
    fig8 = P((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0))
    chk = check_injectivity(fig8, TWO_ATOMS, 2.0)
    assert not chk.passed
    assert "(0.5,0.5)" in chk.detail.replace(" ", "")
    assert "transversal" in chk.detail


def test_full_report_optimum_all_pass():
    rep = full_report(TWO_ATOMS, OPTIMAL, p=2.0, lam=0.2)
    assert rep.overall
    assert all(c.passed is not False for c in rep.checks)


def test_full_report_overall_fails_with_a_failing_certificate():
    # two heavy far atoms and two light ones: only tv_local fails
    mu = DiscreteMeasure(np.array([[-2.0, 0.0], [5.0, 1.0], [0.0, 2.0], [3.0, -1.0]]),
                         np.array([0.5, 0.5, 1e-3, 1e-3]))
    c = P((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0))
    rep = full_report(mu, c, p=2.0, lam=0.2)
    assert [ch.name for ch in rep.checks if ch.status == "FAIL"] == ["tv_local"]
    assert all(ch.passed is None or type(ch.passed) is bool for ch in rep.checks)
    assert rep.overall is False
    assert rep.to_dict()["overall"] == "FAIL"


def test_full_report_flags_bad_curve():
    zig = P((0.0, 0.0), (0.3, 0.9), (0.35, -0.9), (0.4, 0.9), (1.0, 0.0))
    rep = full_report(TWO_ATOMS, zig, p=2.0, lam=0.2)
    assert not rep.overall


def test_full_report_singleton_on_singleton():
    mu = DiscreteMeasure(np.array([[0.5, 0.5]]), np.array([1.0]))
    rep = full_report(mu, P((0.5, 0.5)), p=2.0, lam=0.2)
    assert rep.overall


def test_turn_sweep_on_fit_like_curve():
    mu = synth_measure("noisy_segment", 60, seed=3, noise=0.02)
    c = P((0.05, 0.0), (0.5, 0.01), (0.95, 0.0))
    plan, _ = build_plan(mu, c)
    chk = turn_direction_sweep(mu, c, p=2.0, lam=0.1, plan=plan)
    assert chk.passed is not None
