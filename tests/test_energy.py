import numpy as np
import pytest

from pencurve.curve import Polyline
from pencurve.energy import (
    energy,
    fixed_plan_hessian,
    fixed_plan_value_grad,
    gradient,
    stationarity_report,
)
from pencurve.errors import ConfigError, NonSmoothPointError
from pencurve.measure import DiscreteMeasure, diameter, synth_measure, tie_tolerance
from pencurve.projection import build_plan

TWO_ATOMS = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))


def P(*pts):
    return Polyline(np.array(pts, dtype=float))


def test_energy_zero_for_matching_singleton():
    mu = DiscreteMeasure(np.array([[0.3, 0.4]]), np.array([2.0]))
    e = energy(mu, P((0.3, 0.4)), p=2.0, lam=0.7)
    assert e.total == 0.0


def test_energy_fidelity_arithmetic():
    e = energy(TWO_ATOMS, P((0.5, 0.0)), p=2.0, lam=0.2)
    assert e.fidelity == pytest.approx(0.25)
    assert e.length_term == 0.0
    assert e.total == pytest.approx(0.25)


def test_energy_closed_form_optimum_vs_grid_oracle():
    # independent 1-D oracle: grid over centered segment lengths, step 1e-4
    best = np.inf
    for ell in np.arange(0.0, 1.0 + 1e-12, 1e-4):
        a = (1.0 - ell) / 2.0
        best = min(best, a * a + 0.2 * ell)
    assert best == pytest.approx(0.16, abs=1e-8)
    e = energy(TWO_ATOMS, P((0.2, 0.0), (0.8, 0.0)), p=2.0, lam=0.2)
    assert e.total == pytest.approx(0.16, abs=1e-12)


def test_energy_param_validation():
    with pytest.raises(ConfigError):
        energy(TWO_ATOMS, P((0, 0)), p=0.5, lam=0.2)
    with pytest.raises(ConfigError):
        energy(TWO_ATOMS, P((0, 0)), p=2.0, lam=0.0)


def test_gradient_symmetry_cancels():
    mu = DiscreteMeasure(
        np.array([[0.5, 0.3], [0.5, -0.3], [0.0, 0.0], [1.0, 0.0]]),
        np.array([0.25, 0.25, 0.25, 0.25]),
    )
    g = gradient(mu, P((-0.2, 0.0), (0.5, 0.0), (1.2, 0.0)), p=2.0, lam=0.1)
    assert np.linalg.norm(g[1]) == pytest.approx(0.0, abs=1e-14)


def test_gradient_singleton_magnitude():
    mu = DiscreteMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
    r = 0.7
    g = gradient(mu, P((r, 0.0)), p=2.0, lam=0.3)
    assert np.linalg.norm(g[0]) == pytest.approx(2 * r)
    assert g[0][0] > 0  # energy increases moving away from the atom


def test_gradient_matches_finite_differences():
    for mu, c in _smooth_configurations(12, 10):
        for p in (1.5, 2.0, 3.0):
            _assert_fd_close(mu, c, p, lam=0.2)


def _smooth_configurations(seed, count):
    """count seeded (measure, curve) pairs of 6 atoms and 4 vertices at smooth points."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        mu = DiscreteMeasure(rng.uniform(0, 1, (6, 2)), rng.uniform(0.5, 1.5, 6))
        c = Polyline(rng.uniform(0.1, 0.9, (4, 2)))
        if _smooth_point(mu, c):
            found.append((mu, c))
    return found


def test_stationarity_residual_is_minus_gradient():
    # pulls act at the projection foot, so the residual is the true first variation
    for mu, c in _smooth_configurations(31, 50):
        for p in (1.5, 2.0, 3.0):
            rep = stationarity_report(mu, c, p, 0.2)
            g = gradient(mu, c, p, 0.2)
            res = np.array([v.residual for v in rep.vertices])
            assert np.max(np.abs(res + g)) <= 1e-12
            assert [v.residual_norm for v in rep.vertices] == pytest.approx(
                np.linalg.norm(g, axis=1), abs=1e-12)


def test_hessians_match_central_differences():
    # differences of the fixed-plan gradient
    lam = 0.2
    for mu, c in _smooth_configurations(32, 6):
        plan, _ = build_plan(mu, c)
        eps = tie_tolerance(diameter(mu))
        V = np.array(c.vertices)
        m, d = V.shape
        h = 1e-6 * diameter(mu)
        for p in (1.5, 2.0, 3.0):
            fd = np.zeros((m * d, m * d))
            for col in range(m * d):
                step = h * np.eye(m * d)[col].reshape(m, d)
                gp, gm = (fixed_plan_value_grad(V + sign * step, plan, mu.positions, p, lam,
                                                eps)[1] for sign in (1.0, -1.0))
                fd[:, col] = (gp - gm).ravel() / (2 * h)
            H = fixed_plan_hessian(V, plan, mu.positions, p, lam, eps)
            assert np.max(np.abs(H - fd)) <= 1e-4 * np.max(np.abs(fd))


def _smooth_point(mu, c, margin=1e-3):
    """True when every atom is far from assignment ties, vertex kinks, and
    foot-at-endpoint creases, so the energy is twice differentiable nearby."""
    a, b = c.vertices[:-1], c.vertices[1:]
    vec = b - a
    den = np.einsum("kj,kj->k", vec, vec)
    for x in mu.positions:
        t = np.clip(np.einsum("kj,kj->k", x[None, :] - a, vec) / den, 0.0, 1.0)
        d = np.linalg.norm(x - (a + t[:, None] * vec), axis=1)
        srt = np.sort(d)
        if len(srt) > 1 and srt[1] - srt[0] < margin:
            return False
        k = int(np.argmin(d))
        if 0.0 < t[k] < 1.0 and min(t[k], 1.0 - t[k]) * np.sqrt(den[k]) < margin:
            return False
        if np.min(np.linalg.norm(x - c.vertices, axis=1)) < margin:
            return False
    return True


def _assert_fd_close(mu, c, p, lam):
    g = gradient(mu, c, p, lam)
    h = 1e-6 * diameter(mu)
    V = c.vertices
    fd = np.zeros_like(g)
    for j in range(V.shape[0]):
        for k in range(V.shape[1]):
            Vp, Vm = V.copy(), V.copy()
            Vp[j, k] += h
            Vm[j, k] -= h
            ep = energy(mu, Polyline(Vp), p, lam).total
            em = energy(mu, Polyline(Vm), p, lam).total
            fd[j, k] = (ep - em) / (2 * h)
    rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
    assert rel < 1e-5


def test_gradient_p1_kink_raises():
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    with pytest.raises(NonSmoothPointError):
        gradient(mu, P((0, 0), (0.5, 0.5)), p=1.0, lam=0.2)


def test_stationarity_two_atom_optimum():
    rep = stationarity_report(TWO_ATOMS, P((0.2, 0.0), (0.8, 0.0)), p=2.0, lam=0.2)
    assert rep.max_free_residual < 1e-10
    assert rep.passes(1e-6 * 0.2)


def test_stationarity_free_vertex_no_talkers():
    mu = DiscreteMeasure(np.array([[0.0, 1.0], [2.0, 1.0]]), np.array([0.5, 0.5]))
    rep = stationarity_report(mu, P((0, 0), (1, 0), (2, 0)), p=2.0, lam=0.1)
    middle = rep.vertices[1]
    assert middle.status == "free"
    assert middle.residual_norm == pytest.approx(0.0, abs=1e-14)


def test_stationarity_p1_tied_slack():
    # singleton curve at an atom of mass 0.5; another atom of mass 0.3 pulls
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.3]))
    rep = stationarity_report(mu, P((0.0, 0.0)), p=1.0, lam=0.1)
    v = rep.vertices[0]
    assert v.status == "tied" and v.tied_atom == 0
    assert v.slack == pytest.approx(0.2, abs=1e-12)
    assert rep.min_tied_slack == pytest.approx(0.2, abs=1e-12)


def test_stationarity_p1_ties_use_the_target_offset():
    # atom 0 is 1.64e-9 from vertex 0, beyond the tie tolerance (1.41e-9), though
    # its foot before snapping is only 1e-9 away
    mu = DiscreteMeasure(np.array([[1.3e-9, 1.0e-9], [1.0, 0.0], [1.0, 1.0]]),
                         np.array([0.2, 0.4, 0.4]))
    c = P((0, 0), (1, 0), (1, 1))
    tol = tie_tolerance(diameter(mu))
    rep = stationarity_report(mu, c, p=1.0, lam=0.05)
    near = np.linalg.norm(mu.positions[:, None, :] - c.vertices[None, :, :], axis=2) <= tol
    assert [v.status for v in rep.vertices] == ["free", "tied", "tied"]
    for j, v in enumerate(rep.vertices):
        if v.status == "tied":
            assert np.linalg.norm(mu.positions[v.tied_atom] - c.vertices[j]) <= tol
            assert v.slack == float(np.sum(mu.masses[near[:, j]])) - v.residual_norm
    assert rep.min_tied_slack > 0.0


def test_energy_rigid_invariance():
    rng = np.random.default_rng(13)
    mu = synth_measure("noisy_circle", 30, seed=2)
    c = Polyline(rng.uniform(0, 1, (5, 2)))
    e0 = energy(mu, c, 2.0, 0.3).total
    th = 1.1
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    b = np.array([4.0, -1.0])
    mu2 = DiscreteMeasure(mu.positions @ R.T + b, mu.masses)
    c2 = Polyline(c.vertices @ R.T + b)
    assert energy(mu2, c2, 2.0, 0.3).total == pytest.approx(e0, rel=1e-12)


def test_fixed_plan_objective_midpoint_convexity():
    rng = np.random.default_rng(14)
    mu = synth_measure("uniform_square", 25, seed=4)
    c = Polyline(rng.uniform(0, 1, (5, 2)))
    plan, _ = build_plan(mu, c)
    for p in (1.0, 1.5, 2.0, 3.0):
        for _ in range(40):
            V1 = rng.uniform(-1, 2, (5, 2))
            V2 = rng.uniform(-1, 2, (5, 2))
            f1, _ = fixed_plan_value_grad(V1, plan, mu.positions, p, 0.2, 0.0, want_grad=False)
            f2, _ = fixed_plan_value_grad(V2, plan, mu.positions, p, 0.2, 0.0, want_grad=False)
            fm, _ = fixed_plan_value_grad(0.5 * (V1 + V2), plan, mu.positions, p, 0.2, 0.0,
                                          want_grad=False)
            assert fm <= 0.5 * (f1 + f2) + 1e-12 * max(1.0, abs(f1) + abs(f2))
