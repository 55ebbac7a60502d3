import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pencurve.curve import Polyline
from pencurve.diagnostics import singleton_best_energy
from pencurve import optimizer
from pencurve.energy import (energy, fixed_plan_majoriser, fixed_plan_value_grad,
                             stationarity_report)
from pencurve.errors import ConfigError
from pencurve.measure import DiscreteMeasure, diameter, synth_measure, tie_tolerance
from pencurve.optimizer import FitConfig, conjecture_search, fit, fixed_plan_solve, init_curve
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
        diag, upper, B = fixed_plan_majoriser(V, plan, X, p, lam, eps)
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


# Final energy (float.hex) and SHA-256 of the little-endian vertex bytes of
# capped noisy_segment fits at lambda = 0.01, max_outer_iters = 6, recorded
# with each majorise-minimise system solved by one banded LDL^T sweep and the
# quasi-Newton finish regularised by 1e-12 of the Hessian's mean diagonal:
# (p, n, seed) -> (energy, vertices, status)
RECORDED_FITS = {
    (1.0, 150, 1): ("0x1.4e64e70e27f51p-5",
                    "9926075aaa812c6da4530fbe37bb7152d5a80f144e703767e64d68eed5be6524", "max_iters"),
    (1.5, 120, 2): ("0x1.385450985ff34p-6",
                    "e01a0426639d1e8518ef4d0a8cbba94048f0221894a4c3b78bfd2fcd700c55bc", "converged"),
    (2.0, 120, 3): ("0x1.681fbfbc576f8p-7",
                    "82ea9b065f3535ca24c2124cfa834288ff91dced77830c91e6ce4bfb3e1144b2", "converged"),
    (3.0, 100, 4): ("0x1.d7e4ca7d74bfep-8",
                    "d8cfaae4cec9d6b08b44dd9bf1d0ad90434e9a377a6a47428572d273e01f8531", "converged"),
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
