import tracemalloc

import numpy as np
import pytest

from pencurve import oracle
from pencurve.curve import Polyline, merge_vertices
from pencurve.energy import energy, stationarity_report
from pencurve.errors import BudgetExceededError, ConfigError
from pencurve.measure import DiscreteMeasure, diameter
from pencurve.oracle import (
    OracleConfig,
    _grid_points,
    _pair_blocks,
    brute_force_min,
    certify_fit,
    golden_record,
    lipschitz_constant,
)

TWO_ATOMS = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
TRIANGLE = DiscreteMeasure(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]), np.full(3, 1.0 / 3.0)
)

# frozen from the first oracle run (m=2, h=0.01): the best curve degenerates
# to a single point, the equal-weight geometric median at distance 1/sqrt(3)
TRIANGLE_GOLDEN_H01 = 0.5773502691896257


def test_two_atom_oracle_matches_closed_form():
    ocfg = OracleConfig(m=2, h=0.005, p=2.0, lam=0.2)
    curve, E = brute_force_min(TWO_ATOMS, ocfg)
    C = lipschitz_constant(TWO_ATOMS, 2.0, 0.2, 2)
    assert abs(E - 0.16) <= C * 0.005
    assert np.allclose(np.sort(curve.vertices[:, 0]), [0.2, 0.8], atol=0.005)


def test_single_atom_m1():
    mu = DiscreteMeasure(np.array([[0.25, 0.75]]), np.array([1.0]))
    curve, E = brute_force_min(mu, OracleConfig(m=1, h=0.01, p=2.0, lam=0.2))
    assert E == 0.0
    assert np.allclose(curve.vertices[0], [0.25, 0.75])


def test_triangle_golden_value():
    tracemalloc.start()
    try:
        curve, E = brute_force_min(TRIANGLE, OracleConfig(m=2, h=0.01, p=1.0, lam=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20  # the m=2 search holds one block, never a G x G table
    assert E == pytest.approx(TRIANGLE_GOLDEN_H01, abs=1e-12)
    C = lipschitz_constant(TRIANGLE, 1.0, 1.0, 2)
    assert abs(E - 1.0 / np.sqrt(3.0)) <= C * 0.01
    rec = golden_record(TRIANGLE, OracleConfig(m=2, h=0.01, p=1.0, lam=1.0), curve, E)
    assert len(rec["hash"]) == 64
    rec2 = golden_record(TRIANGLE, OracleConfig(m=2, h=0.01, p=1.0, lam=1.0), curve, E)
    assert rec["hash"] == rec2["hash"]


def test_oracle_monotone_under_halving():
    # extents are exactly 1 x 0 and 1 x sqrt(3)/2, so halving h nests the grids
    for mu, p, lam in ((TWO_ATOMS, 2.0, 0.2), (TRIANGLE, 1.0, 0.5)):
        energies = []
        for h in (0.2, 0.1, 0.05):
            _, E = brute_force_min(mu, OracleConfig(m=2, h=h, p=p, lam=lam))
            energies.append(E)
        assert energies[1] <= energies[0] + 1e-12
        assert energies[2] <= energies[1] + 1e-12


def test_oracle_m3_beats_or_equals_m2():
    _, e2 = brute_force_min(TRIANGLE, OracleConfig(m=2, h=0.05, p=2.0, lam=0.1))
    _, e3 = brute_force_min(TRIANGLE, OracleConfig(m=3, h=0.05, p=2.0, lam=0.1))
    assert e3 <= e2 + 1e-12


def test_oracle_curve_near_stationary():
    curve, _ = brute_force_min(TRIANGLE, OracleConfig(m=2, h=0.01, p=2.0, lam=0.1))
    rep = stationarity_report(TRIANGLE, curve, 2.0, 0.1)
    scale = 2.0 * diameter(TRIANGLE) * TRIANGLE.total_mass + 0.1
    assert rep.max_free_residual <= 5.0 * scale * 0.01


def test_budget_refusal_with_estimate():
    G = 10001  # a 1 x 0 box at h = 1e-4
    with pytest.raises(BudgetExceededError) as exc:
        brute_force_min(TWO_ATOMS, OracleConfig(m=4, h=1e-4, p=2.0, lam=0.2, budget=1e6))
    assert exc.value.required is not None and exc.value.required > 1e6
    msg = str(exc.value)
    assert f"~{exc.value.required:.3g} pair-cost evaluations" in msg
    assert f"{G} grid points" in msg
    assert f"~{8 * 3 * G * G:.3g} bytes" in msg  # n + 1 = 3 dense G x G tables
    with pytest.raises(BudgetExceededError) as exc:
        brute_force_min(TWO_ATOMS, OracleConfig(m=2, h=1e-4, p=2.0, lam=0.2, budget=1e6))
    rows = oracle.PAIR_BLOCK // G
    assert f"~{8 * 3 * rows * G:.3g} bytes" in str(exc.value)  # one block of rows


def reference_atom_pair_costs(x, mass, P, p, chunk=256):
    """mass * dist(x, segment(P_a, P_b))^p from dense (rows, G, 2) coordinate arrays.

    The reference the pair kernel must match bit for bit.
    """
    G = P.shape[0]
    out = np.empty((G, G))
    for a0 in range(0, G, chunk):
        A = P[a0 : a0 + chunk]
        w = P[None, :, :] - A[:, None, :]
        den = np.einsum("abj,abj->ab", w, w)
        num = np.einsum("aj,abj->ab", x[None, :] - A, w)
        t = np.clip(np.divide(num, den, out=np.zeros_like(num), where=den > 0), 0.0, 1.0)
        foot = A[:, None, :] + t[:, :, None] * w
        d = np.linalg.norm(x[None, None, :] - foot, axis=-1)
        out[a0 : a0 + chunk] = mass * d**p
    return out


def reference_pair_lengths(P, chunk=256):
    G = P.shape[0]
    out = np.empty((G, G))
    for a0 in range(0, G, chunk):
        out[a0 : a0 + chunk] = np.linalg.norm(P[None, :, :] - P[a0 : a0 + chunk, None, :], axis=-1)
    return out


def kernel_tables(P, mu, p, lam):
    """Whole tables assembled from the pair kernel's blocks; unfilled cells stay NaN."""
    G = P.shape[0]
    lengths = np.full((G, G), np.nan)
    costs = [np.full((G, G), np.nan) for _ in range(mu.n_atoms)]
    for rows, block_lengths, block_costs in _pair_blocks(P, mu, p, lam):
        lengths[rows] = block_lengths
        for table, c in zip(costs, block_costs):
            table[rows] = c
    return lengths, costs


def _table_cases():
    rng = np.random.default_rng(7)
    for p in (1.0, 1.5, 2.0, 3.0):
        pos = rng.uniform(-1.0, 2.0, (4, 2))
        yield DiscreteMeasure(pos, rng.uniform(0.1, 1.0, 4)), 0.3, p
    # collinear atoms: the y extent is 0, so the grid is a single row
    pos = np.stack([rng.uniform(0.0, 1.0, 5), np.full(5, 0.3)], axis=1)
    yield DiscreteMeasure(pos, rng.uniform(0.1, 1.0, 5)), 0.05, 1.5
    # atoms on grid points, where den = 0 on the diagonal and t, dist vanish
    pos = np.array([[0.0, 0.0], [1.0, 1.0], [0.25, 0.5], [0.75, 0.25]])
    yield DiscreteMeasure(pos, np.full(4, 0.25)), 0.125, 1.0


@pytest.mark.parametrize("pair_block", [None, 1, 150])
def test_pair_blocks_match_per_element_reference(monkeypatch, pair_block):
    if pair_block is not None:  # 150 pairs: blocks of 2 rows at G = 63, 8 rows at G = 18
        monkeypatch.setattr(oracle, "PAIR_BLOCK", pair_block)
    for mu, h, p in _table_cases():
        P = _grid_points(mu, h)
        lam = 0.7
        lengths, costs = kernel_tables(P, mu, p, lam)
        assert np.array_equal(lengths, lam * reference_pair_lengths(P))
        for i, c in enumerate(costs):
            ref = reference_atom_pair_costs(mu.positions[i], float(mu.masses[i]), P, p)
            assert np.array_equal(c, ref)


def test_m2_ties_across_blocks_keep_the_first_pair(monkeypatch):
    # G = 3 points on [0, 1] x {0}; the pairs (0,0), (1,1) and (2,2) all cost exactly 0.5
    monkeypatch.setattr(oracle, "PAIR_BLOCK", 1)  # one grid row per block
    curve, E = brute_force_min(TWO_ATOMS, OracleConfig(m=2, h=0.5, p=1.0, lam=2.0))
    assert E == 0.5
    assert curve.vertices.tolist() == [[0.0, 0.0]]


def test_certify_fit_pass_and_skip():
    good = Polyline(np.array([[0.2, 0.0], [0.8, 0.0]]))
    rec = certify_fit(TWO_ATOMS, good, OracleConfig(m=2, h=0.01, p=2.0, lam=0.2))
    assert rec["status"] == "PASS"
    assert rec["fit_energy"] == pytest.approx(0.16, abs=1e-12)
    bad_cfg = OracleConfig(m=4, h=1e-4, p=2.0, lam=0.2, budget=1e6)
    rec2 = certify_fit(TWO_ATOMS, good, bad_cfg)
    assert rec2["status"] == "SKIPPED"


def test_certify_fit_flags_bad_curve():
    # a deliberately long curve far from optimal must fail the comparison
    bad = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    rec = certify_fit(TWO_ATOMS, bad, OracleConfig(m=2, h=0.01, p=2.0, lam=0.2))
    assert rec["status"] == "FAIL"
    assert rec["gap"] > 0


def test_oracle_config_validation():
    with pytest.raises(ConfigError):
        brute_force_min(TWO_ATOMS, OracleConfig(m=5, h=0.01, p=2.0, lam=0.2))
    with pytest.raises(ConfigError):
        brute_force_min(TWO_ATOMS, OracleConfig(m=2, h=-0.1, p=2.0, lam=0.2))


@pytest.mark.parametrize("m", [3, 4])
def test_brute_force_min_equals_tuple_enumeration(m):
    # h = 0.5 over a box of side < 1: at most 3 x 3 grid points, so all G^m
    # tuples can be scored by energy(); m = 4 runs the chain program
    rng = np.random.default_rng(m)
    for p, lam in ((1.0, 0.05), (2.0, 0.2)):
        mu = DiscreteMeasure(rng.uniform(0.0, 1.0, (3, 2)), rng.uniform(0.2, 1.0, 3))
        ocfg = OracleConfig(m=m, h=0.5, p=p, lam=lam)
        grid = _grid_points(mu, ocfg.h)
        assert len(grid) <= 9
        best = min(energy(mu, Polyline(merge_vertices(grid[list(idx)], 0.0)), p, lam).total
                   for idx in np.ndindex(*(len(grid),) * m))
        curve, value = brute_force_min(mu, ocfg)
        assert value == pytest.approx(best, rel=1e-12)
        assert energy(mu, curve, p, lam).total == pytest.approx(value, rel=1e-12)
