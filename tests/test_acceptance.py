"""End-to-end acceptance gates.

Each test enforces one numbered criterion at its stated tolerance and prints
a PASS line (visible with -s or in the captured output on failure). Energy
traces recorded by the fitting criteria feed the monotonicity gate.
"""

import time

import numpy as np
import pytest

from pencurve.curve import Polyline
from pencurve.diagnostics import convex_clip, full_report
from pencurve.energy import energy, gradient
from pencurve.measure import DiscreteMeasure, convex_hull_2d, diameter, synth_measure
from pencurve.optimizer import FitConfig, conjecture_search, fit
from pencurve.oracle import OracleConfig, certify_fit

TWO_ATOMS = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))

TRACES: list[tuple[str, np.ndarray]] = []


def _record(tag, result):
    TRACES.append((tag, np.asarray(result.energy_trace)))
    return result


def test_criterion_1_two_atom_closed_form():
    t0 = time.perf_counter()
    res = _record("c1", fit(TWO_ATOMS, FitConfig(p=2.0, lam=0.2, m_init=2)))
    elapsed = time.perf_counter() - t0
    assert res.curve.total_length == pytest.approx(0.6, abs=1e-3)
    assert res.breakdown.total == pytest.approx(0.16, abs=1e-6)
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 two-atom closed form: PASS ({elapsed:.3f}s, "
          f"E={res.breakdown.total:.9f}, L={res.curve.total_length:.6f})")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    misses = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(3, 6))
        mu = DiscreteMeasure(rng.uniform(0.0, 1.0, (n, 2)), np.full(n, 1.0 / n))
        p = (1.0, 2.0)[i % 2]
        lam = (0.05, 0.2)[(i // 2) % 2]
        res = _record(f"c2[{i}]", fit(mu, FitConfig(p=p, lam=lam, m_init=3,
                                                    restarts=6, seed=100 + i)))
        rec = certify_fit(mu, res.curve, OracleConfig(m=3, h=0.02, p=p, lam=lam))
        assert rec["status"] != "SKIPPED"
        if rec["status"] != "PASS":
            misses.append((i, rec["fit_energy"], rec["oracle_energy"]))
    elapsed = time.perf_counter() - t0
    for miss in misses:
        print(f"  local-minimum miss on instance {miss[0]}: "
              f"fit {miss[1]:.6f} vs oracle {miss[2]:.6f}")
    assert len(misses) <= 1
    assert elapsed < 300.0
    print(f"ACCEPTANCE 2 oracle equivalence: PASS ({20 - len(misses)}/20 within "
          f"grid slack, {elapsed:.1f}s)")


def test_criterion_3_gradient_audit():
    rng = np.random.default_rng(77)
    audited = 0
    worst = 0.0
    while audited < 100:
        n = int(rng.integers(4, 9))
        mu = DiscreteMeasure(rng.uniform(0.0, 1.0, (n, 2)), rng.uniform(0.5, 1.5, n))
        c = Polyline(rng.uniform(0.1, 0.9, (int(rng.integers(3, 6)), 2)))
        if not _smooth_configuration(mu, c, margin=2e-3):
            continue
        audited += 1
        for p in (1.5, 2.0, 3.0):
            rel = _fd_relative_error(mu, c, p, lam=0.2)
            worst = max(worst, rel)
            assert rel < 1e-5
    print(f"ACCEPTANCE 3 gradient audit: PASS (100 configurations x 3 exponents, "
          f"worst rel err {worst:.2e})")


def _smooth_configuration(mu, c, margin):
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


def _fd_relative_error(mu, c, p, lam):
    g = gradient(mu, c, p, lam)
    h = 1e-6 * diameter(mu)
    V = c.vertices
    fd = np.zeros_like(g)
    for j in range(V.shape[0]):
        for k in range(V.shape[1]):
            Vp, Vm = V.copy(), V.copy()
            Vp[j, k] += h
            Vm[j, k] -= h
            fd[j, k] = (energy(mu, Polyline(Vp), p, lam).total
                        - energy(mu, Polyline(Vm), p, lam).total) / (2 * h)
    return float(np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12))


@pytest.mark.parametrize("family,n", [
    ("uniform_square", 1000),
    ("noisy_circle", 500),
    ("gaussian_clusters", 500),
])
@pytest.mark.parametrize("lam", [0.01, 0.1])
def test_criterion_4_geometric_invariants_on_fits(family, n, lam):
    mu = synth_measure(family, n, seed=42)
    t0 = time.perf_counter()
    res = _record(f"c4[{family},{lam}]", fit(mu, FitConfig(p=2.0, lam=lam, seed=3)))
    report = full_report(mu, res.curve, 2.0, lam)
    elapsed = time.perf_counter() - t0
    by_name = {c.name: c for c in report.checks}
    for name in ("hull_containment", "tv_global", "tv_local", "turn_direction",
                 "injectivity"):
        chk = by_name[name]
        assert chk.passed is not False, f"{name} failed: {chk.detail}"
    assert elapsed < 120.0
    print(f"ACCEPTANCE 4 geometric invariants ({family}, lam={lam}): PASS "
          f"({elapsed:.1f}s, m={res.curve.n_vertices})")


def test_criterion_5_monotone_traces():
    assert len(TRACES) >= 27  # criteria 1, 2, and 4 all recorded
    violations = 0
    for tag, trace in TRACES:
        for a, b in zip(trace[:-1], trace[1:]):
            if b > a + 1e-12 * max(abs(a), 1.0):
                violations += 1
                print(f"  trace violation in {tag}: {a!r} -> {b!r}")
    assert violations == 0
    print(f"ACCEPTANCE 5 monotone energy traces: PASS ({len(TRACES)} traces)")


def test_criterion_6_convex_clip_never_longer():
    rng = np.random.default_rng(606)
    for trial in range(200):
        pts = rng.uniform(0.0, 1.0, (int(rng.integers(3, 10)), 2))
        hull = convex_hull_2d(DiscreteMeasure(pts, np.ones(len(pts))))
        c = Polyline(rng.uniform(-0.8, 1.8, (int(rng.integers(2, 8)), 2)))
        clipped = convex_clip(c, hull)
        assert clipped.total_length <= c.total_length * (1 + 1e-12) + 1e-15, f"trial {trial}"
    print("ACCEPTANCE 6 convex clip length inequality: PASS (200 trials, 0 violations)")


def test_criterion_7_determinism_and_equivariance():
    mu = synth_measure("gaussian_clusters", 80, seed=19)
    cfg = FitConfig(p=2.0, lam=0.1, seed=9, restarts=3)
    r1, r2 = fit(mu, cfg), fit(mu, cfg)
    assert r1.curve.vertices.tobytes() == r2.curve.vertices.tobytes()
    assert np.array_equal(r1.energy_trace, r2.energy_trace)

    worst = 0.0
    for k in range(10):
        rng = np.random.default_rng(9000 + k)
        n = int(rng.integers(4, 10))
        pos = rng.uniform(0.0, 1.0, (n, 2))
        masses = rng.uniform(0.5, 1.5, n)
        masses /= masses.sum()
        mu = DiscreteMeasure(pos, masses)
        theta = rng.uniform(0.0, 2 * np.pi)
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        b = rng.uniform(-3.0, 3.0, 2)
        mur = DiscreteMeasure(pos @ R.T + b, masses)
        cfg = FitConfig(p=2.0, lam=0.15, seed=11, restarts=2)
        res1, res2 = fit(mu, cfg), fit(mur, cfg)
        assert res1.curve.vertices.shape == res2.curve.vertices.shape
        err = float(np.max(np.abs(res1.curve.vertices @ R.T + b - res2.curve.vertices)))
        worst = max(worst, err)
        assert err < 1e-9, f"seed {9000 + k}: equivariance error {err:.2e}"
    print(f"ACCEPTANCE 7 determinism & equivariance: PASS (byte-identical rerun, "
          f"worst rigid-motion error {worst:.2e})")


def test_criterion_8_p2_conjecture_control():
    t0 = time.perf_counter()
    candidates = conjecture_search(p=2.0, budget=50, seed=81, restarts=2)
    elapsed = time.perf_counter() - t0
    assert candidates == []
    print(f"ACCEPTANCE 8 p=2 injectivity control: PASS (0 candidates in 50 instances, "
          f"{elapsed:.1f}s)")
