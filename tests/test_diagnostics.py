import numpy as np
import pytest

from pencurve.curve import Polyline, length
from pencurve.diagnostics import (
    check_hull_containment,
    check_injectivity,
    check_length_bound,
    check_local_tv,
    check_tv_bound,
    convex_clip,
    full_report,
    singleton_best_energy,
    turn_direction_sweep,
)
from pencurve.measure import DiscreteMeasure, convex_hull_2d, synth_measure
from pencurve.projection import build_plan

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


def test_singleton_best_energy_equals_per_candidate_loop():
    # blocks of 16 candidates must not change a bit of the per-candidate sums
    rng = np.random.default_rng(8)
    measures = [(synth_measure(fam, n, seed=11), p) for fam in
                ("uniform_square", "gaussian_clusters", "noisy_circle", "noisy_segment")
                for n, p in ((350, 2.0), (100, 1.0), (77, 1.5), (20, 3.0))]
    measures += [(DiscreteMeasure(rng.normal(size=(n, d)), rng.uniform(0.1, 1.0, n)), p)
                 for d in (2, 3, 5) for n in (1, 16, 45) for p in (1.0, 1.5, 2.0, 3.0)]
    for mu, p in measures:
        X = mu.positions
        mean = (mu.masses / mu.total_mass) @ X
        loop = min(float(np.sum(mu.masses * np.linalg.norm(X - z, axis=1) ** p))
                   for z in [*X, mean])
        assert singleton_best_energy(mu, p) == loop


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
    assert length(out) == pytest.approx(length(c), rel=1e-12)


def test_convex_clip_exit_and_return_strictly_shorter():
    hull = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    c = P((0.5, 0.5), (1.8, 0.5), (0.5, 0.9))
    out = convex_clip(c, hull)
    assert length(out) < length(c) - 1e-9
    from pencurve.diagnostics import hull_edge_violations

    assert np.max(hull_edge_violations(out.vertices, hull)) <= 1e-12


def test_convex_clip_fully_outside():
    hull = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    c = P((-0.5, 2.0), (1.5, 2.0))
    out = convex_clip(c, hull)
    assert length(out) <= length(c) + 1e-12
    assert np.allclose(out.vertices[:, 1], 1.0)


def test_convex_clip_random_never_longer():
    rng = np.random.default_rng(30)
    for _ in range(30):
        pts = rng.uniform(0, 1, (rng.integers(3, 9), 2))
        hull = convex_hull_2d(DiscreteMeasure(pts, np.ones(len(pts))))
        c = Polyline(rng.uniform(-0.6, 1.6, (rng.integers(2, 7), 2)))
        out = convex_clip(c, hull)
        assert length(out) <= length(c) * (1 + 1e-12) + 1e-15


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
