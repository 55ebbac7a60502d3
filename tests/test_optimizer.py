import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pencurve.curve import Polyline, merge_vertices
from pencurve.diagnostics import singleton_best_energy
from pencurve import optimizer
from pencurve.energy import (_entry_offsets, _fixed_plan_grad, energy, fixed_plan_majoriser,
                             fixed_plan_value_grad, stationarity_report)
from pencurve.errors import ConfigError
from pencurve.measure import DiscreteMeasure, diameter, synth_measure, tie_tolerance
from pencurve.optimizer import FitConfig, conjecture_search, fit, fixed_plan_solve, init_curve
from pencurve.oracle import OracleConfig, brute_force_min
from pencurve.projection import build_plan

TWO_ATOMS = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))


def test_init_curve_two_atoms():
    c = init_curve(TWO_ATOMS, FitConfig(p=2.0, lam=0.2, m_init=2))
    assert np.allclose(c.vertices[:, 1], 0.0)
    assert np.allclose(c.vertices.mean(axis=0), [0.5, 0.0])


def test_init_curve_single_atom():
    mu = DiscreteMeasure(np.array([[0.4, 0.9]]), np.array([1.0]))
    c = init_curve(mu, FitConfig(p=2.0, lam=0.2, m_init=5))
    assert c.n_vertices == 1
    assert np.allclose(c.vertices[0], [0.4, 0.9])


def test_init_curve_symmetric_tie_break():
    corners = DiscreteMeasure(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), np.full(4, 0.25)
    )
    c = init_curve(corners, FitConfig(p=2.0, lam=0.2, m_init=3))
    # tied covariance breaks to the first coordinate axis
    assert np.allclose(c.vertices[:, 1], 0.5, atol=1e-12)
    assert c.vertices[0, 0] < c.vertices[-1, 0]


def test_fit_two_atoms_closed_form():
    res = fit(TWO_ATOMS, FitConfig(p=2.0, lam=0.2, m_init=2))
    assert res.breakdown.total == pytest.approx(0.16, abs=1e-6)
    assert res.curve.total_length == pytest.approx(0.6, abs=1e-3)
    v = res.curve.vertices[np.argsort(res.curve.vertices[:, 0])]
    assert np.allclose(v, [[0.2, 0.0], [0.8, 0.0]], rtol=0.0, atol=1e-9)
    assert res.status == "converged"


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_fits_on_small_instances_reach_stationarity(p):
    # the instances conjecture_search draws; a self-intersection candidate must
    # pass this check, so it has to be reachable
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        masses = rng.uniform(0.2, 1.0, n)
        mu = DiscreteMeasure(rng.uniform(0.0, 1.0, (n, 2)), masses / masses.sum())
        cfg = FitConfig(p=p, lam=float(rng.uniform(0.02, 0.5)), restarts=2,
                        m_init=max(3, n // 2), m_max=max(6, n))
        res = fit(mu, cfg)
        assert res.status == "converged"
        assert res.stationarity.passes(cfg.tol_stationarity)


def test_fit_large_lambda_collapses_to_point():
    res = fit(TWO_ATOMS, FitConfig(p=2.0, lam=0.6, m_init=2))
    assert res.breakdown.total == pytest.approx(0.25, abs=1e-5)
    assert res.curve.total_length <= 1e-4


def test_fit_single_atom():
    mu = DiscreteMeasure(np.array([[0.2, 0.3]]), np.array([1.0]))
    res = fit(mu, FitConfig(p=2.0, lam=0.2))
    assert res.breakdown.total == pytest.approx(0.0, abs=1e-12)
    assert res.curve.n_vertices == 1


def test_fit_rejects_bad_config():
    with pytest.raises(ConfigError):
        fit(TWO_ATOMS, FitConfig(p=0.5, lam=0.2))
    with pytest.raises(ConfigError):
        fit(TWO_ATOMS, FitConfig(p=2.0, lam=-1.0))
    with pytest.raises(ConfigError):
        fit(TWO_ATOMS, FitConfig(p=2.0, lam=0.2, m_init=10, m_max=3))


@pytest.mark.parametrize("counts", [{"m_init": 2.5}, {"m_max": 7.5}, {"max_outer_iters": 2.5},
                                    {"restarts": 1.5}, {"seed": 1.5, "restarts": 2}, {"m": 2.5}])
def test_counts_must_be_integers(counts):
    """A count that is not an integer is a ConfigError; numpy integers run as ints do."""
    def run(**kw):
        if "m" in kw:
            return brute_force_min(TWO_ATOMS, OracleConfig(h=0.25, p=2.0, lam=0.2, **kw))[1]
        return fit(TWO_ATOMS, FitConfig(p=2.0, lam=0.2, **kw)).breakdown.total

    with pytest.raises(ConfigError, match="must be an integer"):
        run(**counts)
    ints = {k: int(v) for k, v in counts.items()}
    assert run(**{k: np.int64(v) for k, v in ints.items()}) == run(**ints)


def test_fixed_plan_solve_moves_vertex_to_atom():
    mu = DiscreteMeasure(np.array([[0.8, 0.6]]), np.array([1.0]))
    c = Polyline(np.array([[0.0, 0.0]]))
    cfg = FitConfig(p=2.0, lam=1e-12, m_init=1)
    plan, _ = build_plan(mu, c)
    out = fixed_plan_solve(mu, c, plan, cfg)
    assert np.allclose(out.vertices[0], [0.8, 0.6], atol=1e-6)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_fixed_plan_solve_decreases_objective(p):
    rng = np.random.default_rng(21)
    mu = synth_measure("uniform_square", 30, seed=6)
    c = Polyline(rng.uniform(0, 1, (5, 2)))
    cfg = FitConfig(p=p, lam=0.1)
    plan, _ = build_plan(mu, c)
    before, _ = fixed_plan_value_grad(np.array(c.vertices), plan, mu.positions,
                                      p, 0.1, 1e-9, want_grad=False)
    out = fixed_plan_solve(mu, c, plan, cfg)
    after, _ = fixed_plan_value_grad(np.array(out.vertices), plan, mu.positions,
                                     p, 0.1, 1e-9, want_grad=False)
    assert after < before


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_majorise_minimise_step_never_raises_objective(p):
    # p <= 2: the unhalved minimiser of the model; p = 3: the step gated as the
    # solver gates it, halved along V* - V until the objective drops
    rng = np.random.default_rng(44)
    lam = 0.1
    for _ in range(60):
        n = int(rng.integers(3, 12))
        mu = DiscreteMeasure(rng.uniform(0, 1, (n, 2)), rng.uniform(0.5, 1.5, n))
        c = Polyline(rng.uniform(0, 1, (int(rng.integers(2, 7)), 2)))
        plan, _ = build_plan(mu, c)
        V, X, eps = np.array(c.vertices), mu.positions, tie_tolerance(diameter(mu))
        assert np.all(plan.dist > eps) and np.all(c.segment_lengths > eps)  # nothing clamped
        before, grad = fixed_plan_value_grad(V, plan, X, p, lam, eps)
        off = _entry_offsets(V, plan, X)
        diag, upper, B = fixed_plan_majoriser(plan, X, lam, eps, off,
                                              _fixed_plan_grad(V, plan, p, lam, eps, off)[1])
        AV = diag[:, None] * V
        AV[:-1] += upper[:, None] * V[1:]
        AV[1:] += upper[:, None] * V[:-1]
        assert np.allclose(AV - B, grad, rtol=0.0, atol=1e-12 * np.max(np.abs(B)))
        step = optimizer._solve_tridiagonal(diag, upper, B) - V
        for _ in range(30 if p > 2.0 else 0):
            if fixed_plan_value_grad(V + step, plan, X, p, lam, eps,
                                     want_grad=False)[0] < before:
                break
            step *= 0.5
        after, _ = fixed_plan_value_grad(V + step, plan, X, p, lam, eps, want_grad=False)
        assert after <= before


@pytest.mark.parametrize("m", [1, 2, 3, 57, 400])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_solve_tridiagonal_matches_dense_solve(m, d):
    rng = np.random.default_rng([m, d])
    upper = -rng.uniform(0.1, 2.0, m - 1)
    diag = rng.uniform(0.0, 1.0, m)
    diag[:-1] -= upper
    diag[1:] -= upper  # a chain Laplacian plus a positive diagonal: positive definite
    B = rng.normal(size=(m, d))
    A = np.diag(diag) + np.diag(upper, 1) + np.diag(upper, -1)
    got = optimizer._solve_tridiagonal(diag, upper, B)
    ref = np.linalg.solve(A, B)
    assert got.shape == (m, d)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_solve_tridiagonal_refuses_singular_and_nan_systems():
    m = 6
    diag = np.full(m, 2.0)
    diag[[0, -1]] = 1.0  # the chain Laplacian of unit segments with no entries: singular
    upper, B = -np.ones(m - 1), np.ones((m, 2))
    assert optimizer._solve_tridiagonal(diag, upper, B) is None
    shifted = diag + 1.0
    assert optimizer._solve_tridiagonal(shifted, upper, B) is not None
    shifted[2] = np.nan
    assert optimizer._solve_tridiagonal(shifted, upper, B) is None


def test_fit_report_and_oracle_import_no_scipy():
    # the runtime is numpy-only; scipy is often installed beside it, so an
    # import of it would otherwise pass unnoticed
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from pencurve import (DiscreteMeasure, FitConfig, OracleConfig, brute_force_min, fit,
                              full_report)
        mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.2], [2.0, 0.0], [1.0, 1.0]]),
                             np.full(4, 0.25))
        res = fit(mu, FitConfig(p=2.0, lam=0.1, m_init=3))  # p > 1: the finish runs too
        full_report(mu, res.curve, 2.0, 0.1)
        brute_force_min(mu, OracleConfig(m=3, h=0.5, p=2.0, lam=0.1))
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120, check=True)
    assert run.stdout.strip() == "[]"


def test_fixed_plan_solve_moves_vertex_off_atom_with_negative_slack():
    # p = 1: vertex 0 sits on a light atom while a heavy atom pulls it harder
    # than the tied mass holds it, so it must leave the atom
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                         np.array([0.1, 0.6, 0.3]))
    c = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    plan, _ = build_plan(mu, c)
    stat = stationarity_report(mu, c, 1.0, 0.05, plan=plan)
    assert stat.vertices[0].status == "tied" and stat.vertices[0].slack < 0.0
    out = fixed_plan_solve(mu, c, plan, FitConfig(p=1.0, lam=0.05))
    assert np.linalg.norm(out.vertices[0]) > 0.5


def reference_fixed_plan_solve(mu, c, plan, cfg, halvings):
    """The majorise-minimise loop that evaluates each accepted point twice.

    Its value and gradient come from fixed_plan_value_grad and its model
    from fixed_plan_majoriser, with the release mask of a second gradient
    at the point; appends the halvings of each step to `halvings`.
    """
    V = np.array(c.vertices)
    X = mu.positions
    p, lam, eps = cfg.p, cfg.lam, tie_tolerance(diameter(mu))
    off = _entry_offsets(V, plan, X)
    val, grad = fixed_plan_value_grad(V, plan, X, p, lam, eps, True, off)
    for _ in range(optimizer.INNER_MAX_STEPS):
        if float(np.max(np.linalg.norm(grad, axis=1))) <= cfg.tol_stationarity:
            break
        release = _fixed_plan_grad(V, plan, p, lam, eps, off)[1]
        minimiser = optimizer._solve_tridiagonal(*fixed_plan_majoriser(plan, X, lam, eps, off,
                                                                       release))
        if minimiser is None:
            break
        step = minimiser - V
        for k in range(30):
            W = V + step
            off = _entry_offsets(W, plan, X)
            cand_val, _ = fixed_plan_value_grad(W, plan, X, p, lam, eps, False, off)
            if cand_val < val:
                break
            step *= 0.5
        else:
            break
        halvings.append(k)
        drop = val - cand_val
        V = W
        val, grad = fixed_plan_value_grad(V, plan, X, p, lam, eps, True, off)
        if drop <= optimizer.TOL_ENERGY_REL * abs(val):
            break
    return Polyline(merge_vertices(V, 0.0))


def _solve_cases():
    """(mu, curve) pairs: random clouds and curves, atoms on vertices, and a negative slack."""
    rng = np.random.default_rng(31)
    for k in range(8):
        n, m = int(rng.integers(4, 40)), int(rng.integers(2, 9))
        X = rng.uniform(0.0, 1.0, (n, 2))
        V = rng.uniform(0.0, 1.0, (m, 2))
        if k % 2:
            X[: m // 2 + 1] = V[: m // 2 + 1]  # p = 1 ties on vertices
        yield DiscreteMeasure(X, rng.uniform(0.1, 1.0, n)), Polyline(V)
    # vertex 0 sits on a light atom that a heavy atom outweighs: the tie is released
    yield (DiscreteMeasure(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                           np.array([0.1, 0.6, 0.3])),
           Polyline(np.array([[0.0, 0.0], [1.0, 0.0]])))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_fixed_plan_solve_equals_two_evaluation_reference(p):
    halvings, released = [], 0
    for mu, c in _solve_cases():
        plan, _ = build_plan(mu, c)
        cfg = FitConfig(p=p, lam=0.05)
        if p == 1.0:
            stat = stationarity_report(mu, c, p, cfg.lam, plan=plan)
            released += any(v.slack is not None and v.slack < 0.0 for v in stat.vertices)
        got = fixed_plan_solve(mu, c, plan, cfg)
        ref = reference_fixed_plan_solve(mu, c, plan, cfg, halvings)
        assert np.array_equal(got.vertices, ref.vertices)
    assert released or p > 1.0  # p = 1 reaches a tie with negative slack
    if p == 3.0:
        assert max(halvings) > 0  # and p = 3 a step that halves


def test_fixed_plan_solve_symmetric_stays_on_axis():
    mu = DiscreteMeasure(
        np.array([[0.5, 0.4], [0.5, -0.4], [0.0, 0.0], [1.0, 0.0]]), np.full(4, 0.25)
    )
    c = Polyline(np.array([[0.1, 0.0], [0.9, 0.0]]))
    plan, _ = build_plan(mu, c)
    out = fixed_plan_solve(mu, c, plan, FitConfig(p=2.0, lam=0.1))
    assert np.allclose(out.vertices[:, 1], 0.0, atol=1e-12)


def test_fit_monotone_trace_and_length_bound():
    for fam, seed in (("uniform_square", 0), ("noisy_circle", 1)):
        mu = synth_measure(fam, 120, seed=seed)
        res = fit(mu, FitConfig(p=2.0, lam=0.05, seed=seed))
        tr = res.energy_trace
        assert all(a >= b - 1e-12 * max(abs(a), 1.0) for a, b in zip(tr, tr[1:]))
        best_point = singleton_best_energy(mu, 2.0)
        assert res.breakdown.total <= best_point + 1e-9
        assert 0.05 * res.curve.total_length <= res.breakdown.total + 1e-12


def test_fit_deterministic_bitwise():
    mu = synth_measure("gaussian_clusters", 60, seed=17)
    cfg = FitConfig(p=2.0, lam=0.1, seed=5, restarts=3)
    r1 = fit(mu, cfg)
    r2 = fit(mu, cfg)
    assert r1.curve.vertices.tobytes() == r2.curve.vertices.tobytes()
    assert np.array_equal(r1.energy_trace, r2.energy_trace)
    assert r1.restart_index == r2.restart_index


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_fit_is_scale_equivariant(p):
    # Scaling x by s and lambda by s^(p-1) scales E by s^p: the fit must follow,
    # down to s = 1e-150 and up to 1e150, with no absolute floor in the way.
    mu = synth_measure("noisy_segment", 200, seed=0)
    ref = fit(mu, FitConfig(p=p, lam=0.05))
    for s in (1e-150, 1e150):
        scaled = DiscreteMeasure(s * mu.positions, mu.masses)
        res = fit(scaled, FitConfig(p=p, lam=0.05 * s ** (p - 1.0)))
        assert (res.status, res.curve.n_vertices) == (ref.status, ref.curve.n_vertices)
        assert res.breakdown.total / s**p == pytest.approx(ref.breakdown.total, rel=1e-9, abs=0.0)


def test_conjecture_search_budget_zero_and_validation():
    assert conjecture_search(p=1.5, budget=0) == []
    with pytest.raises(ConfigError):
        conjecture_search(p=0.3, budget=1)


def test_conjecture_search_runs_and_records():
    out = conjecture_search(p=1.0, budget=3, seed=4, restarts=2)
    for cand in out:
        assert set(cand) >= {"instance", "lambda", "measure", "curve", "intersections"}


def test_status_converged_only_when_stationary():
    mu = synth_measure("noisy_circle", 200, seed=3)
    cfg = FitConfig(p=2.0, lam=0.05, m_max=30)
    res = fit(mu, cfg)
    assert (res.status == "converged") == res.stationarity.passes(cfg.tol_stationarity)
    assert res.status in ("converged", "plateau", "max_iters")


TRIANGLE = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.75**0.5]]), np.full(3, 1 / 3))
# oracle_certify seed 2 instance11 from the benchmark
INSTANCE11 = DiscreteMeasure(np.array([
    [0.0, 0.0], [0.5165979923340565, 0.22270139334931907],
    [0.23304318995020476, 0.034233840329771094], [0.20364759976564065, 0.6],
    [0.6, 0.04654788842271246]]), np.full(5, 0.2))


@pytest.mark.parametrize("mu,cfg", [
    (INSTANCE11, FitConfig(p=2.0, lam=0.2, m_init=3, restarts=6, seed=2124168789)),
    # all six restarts end at energies that differ only in the last bits
    (TRIANGLE, FitConfig(p=2.0, lam=0.05, m_init=3, restarts=6, seed=7)),
], ids=["instance11", "triangle"])
def test_restarts_tied_up_to_rounding_keep_lowest_index(mu, cfg):
    rcfg = cfg.resolved(mu)
    energies = [optimizer._fit_single(mu, rcfg, r)[0].energy.total
                for r in range(cfg.restarts)]
    lowest = min(energies)
    expected = next(r for r, e in enumerate(energies) if e <= lowest + 1e-12 * abs(lowest))
    assert fit(mu, cfg).restart_index == expected


def _counting_build_plan(monkeypatch):
    calls = []
    real = optimizer.build_plan

    def counting(*args, **kwargs):
        calls.append(args[1].n_vertices)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "build_plan", counting)
    return calls


def test_fit_builds_one_plan_per_outer_iteration(monkeypatch):
    # p = 1 has no finish; each outer iteration's one evaluated state serves the
    # trace energy, the idle endpoints and the next solve
    mu = synth_measure("noisy_segment", 120, seed=1)
    calls = _counting_build_plan(monkeypatch)
    res = fit(mu, FitConfig(p=1.0, lam=0.02, m_init=6, max_outer_iters=15))
    assert max(calls) > 6  # segments were split
    assert len(calls) <= res.iterations + 4


def _resolved(mu, **kw):
    return FitConfig(**kw).resolved(mu)


def test_manage_vertices_drops_idle_endpoints():
    mu = DiscreteMeasure(np.array([[0.4, 0.1], [0.5, -0.1], [0.6, 0.05]]), np.full(3, 1 / 3))
    cfg = _resolved(mu, p=2.0, lam=0.05, m_max=4)
    c = Polyline(np.array([[-1.0, 0.0], [0.3, 0.0], [0.7, 0.0], [2.0, 0.0]]))
    state = optimizer._manage_vertices(mu, c, cfg)
    assert np.array_equal(state.curve.vertices, [[0.3, 0.0], [0.7, 0.0]])
    assert state.energy.total < energy(mu, c, 2.0, 0.05).total


def test_finalize_drops_all_straight_vertices_in_one_gated_step(monkeypatch):
    mu = DiscreteMeasure(np.array([[0.1, 0.2], [0.6, -0.1], [0.9, 0.5], [1.2, 0.8]]),
                         np.array([0.1, 0.4, 0.3, 0.2]))
    cfg = _resolved(mu, p=1.0, lam=0.05)
    verts = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0], [1.0, 0.0], [1.0, 1.0]])
    state = optimizer._evaluate(mu, verts, cfg)
    calls = _counting_build_plan(monkeypatch)
    out = optimizer._finalize(mu, state, cfg)
    assert calls == [3]
    assert np.array_equal(out.curve.vertices, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert out.energy.total <= state.energy.total * (1.0 + 1e-13)


def test_finish_rebuilds_its_starting_matrix_every_few_steps(monkeypatch):
    # Log, inside the finish, the vertex count of each gradient (one per step
    # start) and of each Hessian build; step k runs between gradients k and k + 1.
    log, inside = [], []
    real_finish, real_grad = optimizer._quasi_newton_finish, optimizer._fixed_plan_grad
    real_hessian = optimizer.fixed_plan_hessian

    def finish(*args):
        inside.append(True)
        try:
            return real_finish(*args)
        finally:
            inside.pop()

    def grad(V, *args):
        if inside:
            log.append(("g", V.shape[0]))
        return real_grad(V, *args)

    def hessian(V, *args):
        log.append(("H", V.shape[0]))
        return real_hessian(V, *args)

    monkeypatch.setattr(optimizer, "_quasi_newton_finish", finish)
    monkeypatch.setattr(optimizer, "_fixed_plan_grad", grad)
    monkeypatch.setattr(optimizer, "fixed_plan_hessian", hessian)
    res = fit(synth_measure("noisy_segment", 200, seed=1),
              FitConfig(p=3.0, lam=0.01, max_outer_iters=12))
    assert res.status == "converged"  # after a finish that drops two vertices
    counts = [m for kind, m in log if kind == "g"]
    step, built = -1, {}  # step -> vertex count of the Hessian built in it
    for kind, m in log:
        if kind == "g":
            step += 1
        else:
            built[step] = m
    assert len(counts) > 2 * optimizer.FINISH_REFACTOR + 1
    expected, last = set(), None
    for k, m in enumerate(counts[:-1]):  # steps that were followed by another one
        if k % optimizer.FINISH_REFACTOR == 0 or m != last:
            expected.add(k)
            last = m
    assert any(k % optimizer.FINISH_REFACTOR for k in expected)  # a vertex count changed
    assert {k for k in built if k < len(counts) - 1} == expected
    assert all(built[k] == counts[k] for k in built)
    assert len(built) <= len(expected) + 1  # the last step may build before it stops


# Final energy (float.hex) and SHA-256 of the little-endian vertex bytes of
# capped noisy_segment fits at lambda = 0.01, max_outer_iters = 6, recorded
# with each majorise-minimise system solved by one banded LDL^T sweep and the
# quasi-Newton finish regularised by 1e-12 of the Hessian's mean diagonal,
# its starting matrix rebuilt and inverted every FINISH_REFACTOR steps:
# (p, n, seed) -> (energy, vertices, status)
RECORDED_FITS = {
    (1.0, 150, 1): ("0x1.4e64e70e27f51p-5",
                    "9926075aaa812c6da4530fbe37bb7152d5a80f144e703767e64d68eed5be6524", "max_iters"),
    (1.5, 120, 2): ("0x1.385450985ff6fp-6",
                    "934ced07603395ba26a55e40aefcf0c4cc550a1d922d22c46640daa98ecefff9", "converged"),
    (2.0, 120, 3): ("0x1.681fbfbc57748p-7",
                    "8b4c0dbbe0a9992998be48ed9b2eb1742f619470c040c1c36c673478fead94ef", "converged"),
    (3.0, 100, 4): ("0x1.d7e4ca7d74543p-8",
                    "c3f84e119c2e709e93b00c32f0611f8ae87065cd36649261ff5c196aeb5531f4", "converged"),
}

# The same fits recorded when each system was a dense m x m LAPACK solve,
# with their vertex counts: the banded solve moves only the last bits.
PREVIOUS_FITS = {
    (1.0, 150, 1): ("0x1.4e64e70e1b97bp-5",
                    "9cd525dcc05eb475b9d48f8f08b71d3183cc88c71c19947429d5e48cccd8795c", "max_iters",
                    18),
    (1.5, 120, 2): ("0x1.385450985ff0ep-6",
                    "8c1043c4eb2187100927a0fee480ef4b4b008c28ee669fdc97a26f20f52d9397", "converged",
                    15),
    (2.0, 120, 3): ("0x1.681fbfbc576f8p-7",
                    "50b518526a122adef81dfa927d02f63825b751e60c4aa2d521bcbd5b9fed1110", "converged",
                    14),
    (3.0, 100, 4): ("0x1.d7e4ca7d7463ap-8",
                    "3d8c10765d52953722449f88634aea0b1333aaf0be01605d2ccc8a5102f9fd95", "converged",
                    10),
}


@pytest.mark.parametrize("key", sorted(RECORDED_FITS))
def test_fit_matches_recorded_output_bitwise(key):
    p, n, seed = key
    res = fit(synth_measure("noisy_segment", n, seed=seed),
              FitConfig(p=p, lam=0.01, max_outer_iters=6))
    old_energy, _, old_status, old_m = PREVIOUS_FITS[key]
    assert res.breakdown.total == pytest.approx(float.fromhex(old_energy), rel=1e-10, abs=0.0)
    assert (res.status, res.curve.n_vertices) == (old_status, old_m)
    verts = np.ascontiguousarray(res.curve.vertices, dtype="<f8").tobytes()
    assert (res.breakdown.total.hex(), hashlib.sha256(verts).hexdigest(),
            res.status) == RECORDED_FITS[key]


def reference_split(c, m_max):
    """The split pass as a loop over curves: one Polyline and one np.median per insertion."""
    while c.n_vertices < m_max and c.n_vertices > 1:
        lens = c.segment_lengths
        k = int(np.argmax(lens))
        if lens[k] <= 2.0 * float(np.median(lens)):
            break
        mid = 0.5 * (c.vertices[k] + c.vertices[k + 1])
        c = Polyline(np.insert(c.vertices, k + 1, mid, axis=0))
    return c


def _split_cases():
    """(curve, m_max): random walks with spread step lengths, in 2-D and 3-D, and edge cases."""
    rng = np.random.default_rng(23)
    for k in range(120):
        m, d = int(rng.integers(1, 30)), 2 + k % 2
        steps = rng.normal(size=(m, d)) * rng.lognormal(0.0, 1.5, (m, 1))
        yield Polyline(np.cumsum(steps, axis=0)), int(rng.integers(m, 3 * m + 3))
    grid = lambda *xs: Polyline(np.array([[x, 0.0] for x in xs]))  # exact lengths
    yield grid(0, 1, 2, 6, 10, 11), 50  # tied longest segments: the first splits first
    yield grid(0, 1, 2, 4), 50  # longest exactly twice the median: no split
    yield grid(0, 1, 2, 3, 5), 50  # longest twice an even count's median: no split
    yield grid(0, 1, 2, 10), 50  # splits until the halves reach twice the median
    yield grid(0, 1, 2, 30, 31), 7  # m_max reached in the middle of the pass
    yield grid(0, 5), 50  # m = 2: one segment is its own median
    yield grid(3), 50  # m = 1


def test_split_pass_equals_the_curve_loop_bitwise():
    grew = capped = 0
    for c, m_max in _split_cases():
        got, ref = optimizer._split_long_segments(c, m_max), reference_split(c, m_max)
        assert got.vertices.tobytes() == ref.vertices.tobytes()
        assert got.segment_lengths.tobytes() == ref.segment_lengths.tobytes()
        assert (got is c) == (ref is c)
        grew += got.n_vertices > c.n_vertices
        capped += got.n_vertices == m_max > c.n_vertices
    assert grew > 40 and capped > 5


def reference_solve_tridiagonal(diag, upper, B):
    """The two-sweep solve: factor every row first, then substitute each column."""
    up, piv, mult = upper.tolist(), [], []
    for i, a in enumerate(diag.tolist()):
        if i:
            mult.append(up[i - 1] / piv[-1])
            a -= mult[-1] * up[i - 1]
        if not a > 0.0:
            return None
        piv.append(a)
    cols = B.T.tolist()
    for x in cols:
        for i in range(1, len(x)):
            x[i] -= mult[i - 1] * x[i - 1]
        x[-1] /= piv[-1]
        for i in range(len(x) - 2, -1, -1):
            x[i] = x[i] / piv[i] - mult[i] * x[i + 1]
    return np.array(cols).T


@pytest.mark.parametrize("m", [1, 2, 3, 50])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_solve_tridiagonal_equals_the_two_sweep_solve_bitwise(m, d):
    rng = np.random.default_rng([m, d, 7])
    for _ in range(20):
        upper = -rng.uniform(0.1, 2.0, m - 1) * rng.lognormal(0.0, 2.0, m - 1)
        diag = rng.uniform(0.0, 1.0, m)
        diag[:-1] -= upper
        diag[1:] -= upper
        B = rng.normal(size=(m, d)) * rng.lognormal(0.0, 3.0, (m, 1))
        got = optimizer._solve_tridiagonal(diag, upper, B)
        assert got.tobytes() == reference_solve_tridiagonal(diag, upper, B).tobytes()
    piv = _pivots(diag, upper)
    for k in range(m):  # a zero, a negative and a NaN pivot at row k, after k good ones
        cut = upper[k - 1] / piv[k - 1] * upper[k - 1] if k else 0.0
        for bad in (cut, -1.0, np.nan):
            broken = diag.copy()
            broken[k] = bad
            assert optimizer._solve_tridiagonal(broken, upper, B) is None
            assert reference_solve_tridiagonal(broken, upper, B) is None


def _pivots(diag, upper):
    """The LDL^T pivots of a positive definite system, in the solve's float operations."""
    piv = [float(diag[0])]
    for u, a in zip(upper.tolist(), diag[1:].tolist()):
        piv.append(a - u / piv[-1] * u)
    assert min(piv) > 0.0
    return piv
