import inspect
import sys

import numpy as np
import pytest

from pencurve.curve import Polyline
from pencurve.energy import (
    energy,
    fixed_plan_hessian,
    fixed_plan_majoriser,
    fixed_plan_value_grad,
    gradient,
    stationarity_report,
)
from pencurve.errors import ConfigError, NonSmoothPointError
from pencurve.measure import DiscreteMeasure, diameter, synth_measure, tie_tolerance
from pencurve.projection import build_plan

energy_module = sys.modules["pencurve.energy"]  # the package exports the function energy
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
            H = fixed_plan_hessian(V, plan, p, lam, eps,
                                   energy_module._entry_offsets(V, plan, mu.positions))
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


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_stationarity_tied_vertices_count_as_free_above_p1(p):
    # both vertices sit on an atom and are pulled inward by lambda = 0.2: at
    # p > 1 an atom on its vertex pulls with 0, so the residual 0.2 must vanish;
    # at p = 1 the tied mass 0.5 outweighs it, slack 0.3
    curve, pull = P((0, 0), (1, 0)), np.array([[0.2, 0.0], [-0.2, 0.0]])
    rep = stationarity_report(TWO_ATOMS, curve, p=p, lam=0.2)
    assert [v.status for v in rep.vertices] == ["tied", "tied"]
    assert [v.tied_atom for v in rep.vertices] == [0, 1]
    assert np.allclose([v.residual for v in rep.vertices], pull, rtol=0.0, atol=1e-12)
    if p == 1.0:
        assert rep.max_free_residual == 0.0
        assert rep.min_tied_slack == pytest.approx(0.3, abs=1e-12)
        assert rep.passes(1e-7)
    else:
        assert rep.max_free_residual == pytest.approx(0.2, abs=1e-12)
        assert rep.min_tied_slack is None
        assert not rep.passes(1e-7)
        assert np.allclose(gradient(TWO_ATOMS, curve, p, 0.2), -pull, rtol=0.0, atol=1e-12)


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


def test_value_grad_keeps_want_grad_as_its_seventh_parameter():
    # the benchmark's tracer reads want_grad positionally from args[6] to count
    # value-only trial evaluations
    params = list(inspect.signature(fixed_plan_value_grad).parameters)
    assert params[6] == "want_grad"
    assert params[:6] == ["V", "plan", "X", "p", "lam", "eps_clamp"]


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


# Reference kernels: the np.add.at forms that each recompute the entry offsets,
# against which the bincount kernels and shared offsets must agree bit for bit.

def reference_offsets(V, plan, X):
    wa, wb = 1.0 - plan.t, plan.t
    diff = X - (wa[:, None] * V[plan.ia] + wb[:, None] * V[plan.ib])
    return wa, wb, diff, np.linalg.norm(diff, axis=1)


def reference_first_variation(V, plan, wa, wb, diff, kern, lam):
    m = V.shape[0]
    grad = np.zeros_like(V)
    g_y = -kern[:, None] * diff
    np.add.at(grad, plan.ia, wa[:, None] * g_y)
    np.add.at(grad, plan.ib, wb[:, None] * g_y)
    if m > 1:
        seg = np.diff(V, axis=0)
        seg_len = np.linalg.norm(seg, axis=1)
        unit = seg / np.maximum(seg_len, 1e-300)[:, None]
        unit[seg_len == 0.0] = 0.0
        np.subtract.at(grad, np.arange(m - 1), lam * unit)
        np.add.at(grad, np.arange(1, m), lam * unit)
    return grad


def reference_ties(plan, r, eps, pull):
    on = (r <= eps) & (plan.ia == plan.ib)
    tied_mass = np.zeros(len(pull))
    np.add.at(tied_mass, plan.ia[on], plan.mass[on])
    return on, tied_mass, np.linalg.norm(pull, axis=1)


def reference_value_grad(V, plan, X, p, lam, eps):
    m = V.shape[0]
    wa, wb, diff, r = reference_offsets(V, plan, X)
    value = float(np.sum(plan.mass * r**p))
    seg_len = np.linalg.norm(np.diff(V, axis=0), axis=1) if m > 1 else np.zeros(0)
    value += lam * float(np.sum(seg_len))
    kern = energy_module._entry_kernel(energy_module._entry_weight(r, plan.mass, p, eps), r, p,
                                       eps)
    grad = reference_first_variation(V, plan, wa, wb, diff, kern, lam)
    if p == 1.0 and np.any(r <= eps):
        _, tied_mass, norms = reference_ties(plan, r, eps, grad)
        j = np.nonzero(tied_mass > 0)[0]
        tm, nj = tied_mass[j], norms[j]
        grad[j] = np.where((nj <= tm)[:, None], 0.0,
                           (1.0 - tm / np.maximum(nj, tm))[:, None] * grad[j])
    return value, grad


def reference_majoriser(V, plan, X, p, lam, eps):
    m = V.shape[0]
    ia, ib = plan.ia, plan.ib
    wa, wb, diff, r = reference_offsets(V, plan, X)
    w = energy_module._entry_weight(r, plan.mass, p, eps)
    if p == 1.0 and np.any(r <= eps):
        pull = reference_first_variation(V, plan, wa, wb, diff,
                                         energy_module._entry_kernel(w, r, p, eps), lam)
        on, tied_mass, norms = reference_ties(plan, r, eps, pull)
        w = np.where(on & (norms > tied_mass)[ia], 0.0, w)
    k = np.arange(m - 1)
    c = lam / np.maximum(np.linalg.norm(np.diff(V, axis=0), axis=1), eps)
    rows = np.concatenate((ia, ib, ia, ib, k, k + 1, k, k + 1))
    cols = np.concatenate((ia, ib, ib, ia, k, k + 1, k + 1, k))
    vals = np.concatenate((w * wa * wa, w * wb * wb, w * wa * wb, w * wa * wb, c, c, -c, -c))
    A = np.bincount(rows * m + cols, vals, minlength=m * m).reshape(m, m)
    ends = np.concatenate((ia, ib))
    pull = np.concatenate((w * wa, w * wb))
    Xe = np.concatenate((X, X))
    B = np.stack([np.bincount(ends, pull * Xe[:, q], minlength=m) for q in range(X.shape[1])],
                 axis=1)
    return A, B


def reference_hessian(V, plan, X, p, lam, eps):
    m, d = V.shape
    wa, wb, diff, r = reference_offsets(V, plan, X)
    kern = energy_module._entry_kernel(energy_module._entry_weight(r, plan.mass, p, eps), r, p,
                                       eps)
    u = diff / np.maximum(r, eps)[:, None]
    hy = kern[:, None, None] * (np.eye(d) + (p - 2.0) * u[:, :, None] * u[:, None, :])
    ends = ((plan.ia, wa), (plan.ib, wb))
    H = np.zeros((m, m, d, d))
    for i, wi in ends:
        for j, wj in ends:
            np.add.at(H, (i, j), (wi * wj)[:, None, None] * hy)
    if m > 1:
        s = np.diff(V, axis=0)
        ln = np.linalg.norm(s, axis=1)
        inv = np.divide(1.0, ln, out=np.zeros_like(ln), where=ln > 0.0)
        u = s * inv[:, None]
        hseg = (lam * inv)[:, None, None] * (np.eye(d) - u[:, :, None] * u[:, None, :])
        k = np.arange(m - 1)
        for i, j, sign in ((k, k, 1.0), (k + 1, k + 1, 1.0), (k, k + 1, -1.0), (k + 1, k, -1.0)):
            H[i, j] += sign * hseg
    return H.transpose(0, 2, 1, 3).reshape(m * d, m * d)


def _kernel_cases():
    """(mu, curve, V) in d = 2, 3 with m = 1, 2 and >= 20 vertices.

    Every other case puts atoms on vertices (four on vertex 0) and within
    the tie tolerance of segment interiors, and evaluates at the curve
    itself, where p = 1 ties take effect; the others evaluate at jittered
    vertices V.
    """
    rng = np.random.default_rng(55)
    for d in (2, 3):
        for m in (1, 2, 20, 37):
            for ties in (False, True):
                n = m + int(rng.integers(5, 40))
                V = np.cumsum(rng.uniform(0.02, 0.1, (m, d)), axis=0)
                X = rng.uniform(-0.1, 0.1, (n, d)) + V[rng.integers(0, m, n)]
                if ties:
                    X[:m // 2 + 1] = V[:m // 2 + 1]
                    X[-3:] = V[0]  # four atoms on vertex 0: their tied mass sums in order
                    for i in range(m // 2 + 1, m // 2 + 1 + (m > 1) * max(1, m // 2)):
                        k = int(rng.integers(0, m - 1))
                        e = rng.normal(size=d)
                        X[i] = V[k] + rng.uniform(0.2, 0.8) * (V[k + 1] - V[k]) + 1e-12 * e
                mu = DiscreteMeasure(X, rng.uniform(0.1, 1.0, n))
                c = Polyline(V)
                yield mu, c, (V if ties else V + rng.normal(0.0, 0.01, V.shape))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_kernels_match_add_at_references_bitwise(p):
    lam, on_vertex, on_segment = 0.05, 0, 0
    for mu, c, V in _kernel_cases():
        plan, _ = build_plan(mu, c)
        X, eps = mu.positions, tie_tolerance(diameter(mu))
        off = energy_module._entry_offsets(V, plan, X)
        ref_off = reference_offsets(V, plan, X)
        assert all(np.array_equal(a, b) for a, b in zip(off, ref_off))
        on_vertex += int(np.sum((off[3] <= eps) & (plan.ia == plan.ib)))
        on_segment += int(np.sum((off[3] <= eps) & (plan.ia != plan.ib)))
        kern = energy_module._entry_kernel(energy_module._entry_weight(off[3], plan.mass, p, eps),
                                           off[3], p, eps)
        assert np.array_equal(energy_module._first_variation(V, plan, off, kern, lam),
                              reference_first_variation(V, plan, *off[:3], kern, lam))
        ref_val, ref_grad = reference_value_grad(V, plan, X, p, lam, eps)
        for given in (None, off):
            val, grad = fixed_plan_value_grad(V, plan, X, p, lam, eps, True, given)
            assert val == ref_val and np.array_equal(grad, ref_grad)
            assert fixed_plan_value_grad(V, plan, X, p, lam, eps, False, given) == (val, None)
        release = energy_module._fixed_plan_grad(V, plan, p, lam, eps, off)[1]
        diag, upper, B = fixed_plan_majoriser(plan, X, lam, eps, off, release)
        ref_A, ref_B = reference_majoriser(V, plan, X, p, lam, eps)
        assert np.array_equal(diag, np.diag(ref_A)) and np.array_equal(B, ref_B)
        assert np.array_equal(upper, np.diag(ref_A, 1))
        assert np.array_equal(upper, np.diag(ref_A, -1))
        assert not np.any(np.triu(ref_A, 2)) and not np.any(np.tril(ref_A, -2))
        assert np.array_equal(fixed_plan_hessian(V, plan, p, lam, eps, off),
                              reference_hessian(V, plan, X, p, lam, eps))
    assert on_vertex and on_segment  # p = 1 reaches the tie branches
