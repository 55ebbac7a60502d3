import itertools
import tracemalloc

import numpy as np
import pytest

from pencurve import oracle
from pencurve.curve import Polyline, merge_vertices
from pencurve.energy import energy, stationarity_report
from pencurve.errors import BudgetExceededError, ConfigError
from pencurve.measure import DiscreteMeasure, diameter
from pencurve.optimizer import FitConfig, fit
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
# the same point on the coarser grid (h=0.025) that the benchmark's triangle uses
TRIANGLE_GOLDEN_H025 = 0.5773795158203555


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


def _m1_dense(mu, ocfg):
    """Reference for the m = 1 search: every grid point's total in one (G,) array."""
    P = _grid_points(mu, ocfg.h)
    totals = np.zeros(len(P))
    for x, mass in zip(mu.positions, mu.masses):
        totals += mass * np.linalg.norm(x - P, axis=-1) ** ocfg.p
    k = int(np.argmin(totals))
    return P[k], float(totals[k])


@pytest.mark.parametrize("block", [7, 1 << 16])
def test_m1_blocks_match_the_dense_grid(monkeypatch, block):
    # blocks of 7 points split the grid rows and cross the ties of the 1 x 0 box
    monkeypatch.setattr(oracle, "PAIR_BLOCK", block)
    rng = np.random.default_rng(23)
    cases = [(TWO_ATOMS, 1e-3, 1.0), (TRIANGLE, 0.01, 1.5)]
    for p in (1.0, 2.0, 3.0):
        pos = rng.uniform(0.0, 1.0, (int(rng.integers(2, 6)), 2))
        cases.append((DiscreteMeasure(pos, rng.uniform(0.2, 1.0, len(pos))), 0.02, p))
    for mu, h, p in cases:
        ocfg = OracleConfig(m=1, h=h, p=p, lam=0.1)
        curve, E = brute_force_min(mu, ocfg)
        point, E_ref = _m1_dense(mu, ocfg)
        assert E == E_ref
        assert curve.vertices.tobytes() == point[None, :].tobytes()


def test_m1_search_holds_no_grid_array():
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 1.0]]), np.ones(2))
    ocfg = OracleConfig(m=1, h=1e-3, p=2.0, lam=0.1)
    G = 1001 * 1001
    tracemalloc.start()
    try:
        curve, E = brute_force_min(mu, ocfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * G  # the (G, 2) grid array alone took 16 G bytes
    assert E == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(curve.vertices, [[0.5, 0.5]], rtol=0.0, atol=1e-12)


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
    rows = oracle.PAIR_BLOCK // G
    # the grid and its two column copies, a block's mask of cells c < a, numpy's ufunc buffer,
    # and per pair of a block n + 1 = 3 store lanes, 6 scratch lanes, the den == 0 mask byte
    # and, at m = 4, the candidate lane
    fixed = 32 * G + rows * rows + 8 * np.getbufsize()
    assert f"~{fixed + (8 * 10 + 1) * rows * G:.3g} bytes of grid and cost arrays" in msg
    assert f"~{8 * 2 * 4 * G:.3g} bytes of subset rows" in msg  # 2 passes of 2^n x G values
    with pytest.raises(BudgetExceededError) as exc:
        brute_force_min(TWO_ATOMS, OracleConfig(m=2, h=1e-4, p=2.0, lam=0.2, budget=1e6))
    assert f"~{fixed + (8 * 9 + 1) * rows * G:.3g} bytes" in str(exc.value)  # no candidates


def _boxed(n):
    """n uniform atoms (seed 5) in a 0.6 x 0.6 box: 625 grid points at h = 0.025."""
    pos = np.random.default_rng(5).uniform(0.0, 1.0, (n, 2))
    pos = 0.6 * (pos - pos.min(axis=0)) / (pos.max(axis=0) - pos.min(axis=0))
    return DiscreteMeasure(pos, np.full(n, 1.0 / n))


@pytest.mark.parametrize("mu, ocfg", [
    (TRIANGLE, OracleConfig(m=2, h=0.025, p=1.0, lam=1.0)),
    (_boxed(3), OracleConfig(m=3, h=0.025, p=2.0, lam=0.05)),
    (_boxed(4), OracleConfig(m=3, h=0.025, p=1.0, lam=0.05)),
    (_boxed(5), OracleConfig(m=3, h=0.025, p=2.0, lam=0.05)),
    (_boxed(3), OracleConfig(m=4, h=0.05, p=2.0, lam=0.05)),
    (TRIANGLE, OracleConfig(m=1, h=1e-3, p=1.5, lam=0.05)),
], ids=["triangle m=2", "n=3 m=3", "n=4 m=3", "n=5 m=3", "n=3 m=4", "triangle m=1"])
def test_stated_bytes_cover_the_traced_peak(mu, ocfg):
    brute_force_min(mu, ocfg)  # numpy's lazy set-up is not the search's
    tracemalloc.start()
    try:
        brute_force_min(mu, ocfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stated = sum(oracle._held_bytes(oracle._axis_counts(mu, ocfg.h), mu.n_atoms, ocfg.m))
    assert peak <= stated <= 1.25 * peak


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


def mirrored(table):
    """The table with each cell c < a replaced by cell (c, a)."""
    upper = np.triu(np.ones(table.shape, dtype=bool))
    return np.where(upper, table, table.T)


def kernel_tables(P, mu, p, lam):
    """Whole tables from the pair kernel's blocks, each cell c < a filled from cell (c, a).

    A block holds the cells c >= a of its rows; cells the blocks leave unfilled stay NaN.
    """
    G = P.shape[0]
    lengths = np.full((G, G), np.nan)
    costs = [np.full((G, G), np.nan) for _ in range(mu.n_atoms)]
    upper = np.triu(np.ones((G, G), dtype=bool))
    for rows, block_lengths, block_costs in _pair_blocks(P, mu, p, lam):
        cols = slice(rows.start, G)
        np.copyto(lengths[rows, cols], block_lengths, where=upper[rows, cols])
        for table, c in zip(costs, block_costs):
            np.copyto(table[rows, cols], c, where=upper[rows, cols])
    return mirrored(lengths), [mirrored(c) for c in costs]


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


@pytest.mark.parametrize("pair_block", [None, 1, 150, 1 << 16])
def test_pair_blocks_match_per_element_reference(monkeypatch, pair_block):
    if pair_block is not None:  # 150 pairs: blocks of 2 rows at G = 63, 8 rows at G = 18
        monkeypatch.setattr(oracle, "PAIR_BLOCK", pair_block)
    for mu, h, p in _table_cases():
        P = _grid_points(mu, h)
        lam = 0.7
        lengths, costs = kernel_tables(P, mu, p, lam)
        assert np.array_equal(lengths, lam * reference_pair_lengths(P))
        for i, c in enumerate(costs):
            # each segment is scored from its lower grid index: the (min, max) orientation
            ref = reference_atom_pair_costs(mu.positions[i], float(mu.masses[i]), P, p)
            assert np.array_equal(c, mirrored(ref))


@pytest.mark.parametrize("pair_block", [None, 1, 150])
def test_pair_blocks_score_each_unordered_pair_once(monkeypatch, pair_block):
    if pair_block is not None:
        monkeypatch.setattr(oracle, "PAIR_BLOCK", pair_block)
    for mu, h, p in _table_cases():
        P = _grid_points(mu, h)
        G = len(P)
        count = np.zeros((G, G), dtype=np.int64)
        for rows, lengths, costs in _pair_blocks(P, mu, p, 0.7):
            assert lengths.shape == (rows.stop - rows.start, G - rows.start)
            assert lengths.size <= max(oracle.PAIR_BLOCK, G)  # at most one block of pairs
            a, c = np.nonzero(np.isfinite(lengths))  # the excluded cells have length +inf
            np.add.at(count, (rows.start + a, rows.start + c), 1)
        assert np.array_equal(count, np.triu(np.ones((G, G), dtype=np.int64)))


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


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("s", [2.0**-20, 1.0, 2.0**20])
def test_certify_fit_verdict_does_not_depend_on_scale(p, s):
    # positions and h scale by s, lambda by s^(p - 1), so every energy scales
    # by s^p; an absolute slack passed the bad curve at s = 1e-3, p = 2
    mu = DiscreteMeasure(s * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8], [0.2, 0.6]]),
                         np.full(4, 0.25))
    lam = 0.1 * s ** (p - 1.0)
    ocfg = OracleConfig(m=2, h=0.05 * s, p=p, lam=lam)
    bad = certify_fit(mu, Polyline(s * np.array([[0.0, 0.5], [1.0, 0.9]])), ocfg)
    assert bad["status"] == "FAIL"
    assert bad["tol"] == oracle.CERTIFY_TOL * bad["oracle_energy"]
    fitted = fit(mu, FitConfig(p=p, lam=lam, m_max=2)).curve
    assert certify_fit(mu, fitted, ocfg)["status"] == "PASS"


def test_oracle_config_validation():
    with pytest.raises(ConfigError):
        brute_force_min(TWO_ATOMS, OracleConfig(m=5, h=0.01, p=2.0, lam=0.2))
    with pytest.raises(ConfigError):
        brute_force_min(TWO_ATOMS, OracleConfig(m=2, h=-0.1, p=2.0, lam=0.2))
    for budget in (float("nan"), 0.0, -1.0):  # NaN would compare False against any work
        with pytest.raises(ConfigError):
            brute_force_min(TWO_ATOMS, OracleConfig(m=2, h=0.05, p=2.0, lam=0.2, budget=budget))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_brute_force_min_equals_tuple_enumeration(m):
    # h = 0.5 over a box of side < 1: at most 3 x 3 grid points, so all G^m
    # tuples can be scored by energy(); m = 2 runs the running minimum over
    # the upper blocks, m = 3 one subset pass and m = 4 two
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


def reference_min_three_vertices(atom_costs, lencost, G):
    """The m = 3 search over n + 1 dense G x G tables, the reference the subset pass matches.

    F[S][b] = min_a (len[a,b] + sum_{i in S} cost_i[a,b]), with subsets in
    Gray code order; the optimum is min over (S, b) of F[S][b] + F[S^c][b].
    """
    n = len(atom_costs)
    nsub = 1 << n
    F = np.empty((nsub, G))
    R = np.empty((nsub, G), dtype=np.int64)
    acc = lencost.copy()
    cols = np.arange(G)
    state = 0
    R[0] = np.argmin(acc, axis=0)
    F[0] = acc[R[0], cols]
    for step in range(1, nsub):
        j = (step & -step).bit_length() - 1
        if state & (1 << j):
            acc -= atom_costs[j]
        else:
            acc += atom_costs[j]
        state ^= 1 << j
        R[state] = np.argmin(acc, axis=0)
        F[state] = acc[R[state], cols]
    comp = (nsub - 1) ^ np.arange(nsub)
    totals = F + F[comp]
    flat = int(np.argmin(totals))
    s, b = flat // G, flat % G
    return float(totals.flat[flat]), (int(R[s][b]), int(b), int(R[comp[s]][b]))


def reference_min_chain(atom_costs, lencost, G, m):
    """Chain dynamic program over every atom-to-segment assignment, (m-1)^n of them."""
    best_energy, best_tuple = np.inf, None
    for assign in itertools.product(range(m - 1), repeat=len(atom_costs)):
        g, bps = np.zeros(G), []
        for k in range(m - 1):
            ck = lencost.copy()
            for i, c in enumerate(atom_costs):
                if assign[i] == k:
                    ck += c
            stacked = g[:, None] + ck
            bps.append(np.argmin(stacked, axis=0))
            g = stacked[bps[-1], np.arange(G)]
        end = int(np.argmin(g))
        if g[end] < best_energy:
            idx = [end]
            for bp in reversed(bps):
                idx.append(int(bp[idx[-1]]))
            best_energy, best_tuple = float(g[end]), tuple(reversed(idx))
    return best_energy, best_tuple


def reference_min(mu, ocfg):
    """(vertices, energy) of the table searches, in brute_force_min's canonical form."""
    P = _grid_points(mu, ocfg.h)
    lengths, costs = kernel_tables(P, mu, ocfg.p, ocfg.lam)
    if ocfg.m == 3:
        E, idx = reference_min_three_vertices(costs, lengths, len(P))
    else:
        E, idx = reference_min_chain(costs, lengths, len(P), ocfg.m)
    verts = P[list(idx)]
    if tuple(map(tuple, verts[::-1])) < tuple(map(tuple, verts)):
        verts = verts[::-1]
    return merge_vertices(verts, 0.0), E


@pytest.mark.parametrize("pair_block", [None, 1, 150, 1 << 16])
def test_m3_subset_search_equals_table_reference(monkeypatch, pair_block):
    if pair_block is not None:
        monkeypatch.setattr(oracle, "PAIR_BLOCK", pair_block)
    for mu, h, p in _table_cases():
        for lam in (0.05, 0.7):
            ocfg = OracleConfig(m=3, h=h, p=p, lam=lam)
            curve, E = brute_force_min(mu, ocfg)
            ref_verts, ref_E = reference_min(mu, ocfg)
            assert E == ref_E
            assert np.array_equal(curve.vertices, ref_verts)


def test_m3_ties_across_blocks_keep_the_first_tuple(monkeypatch):
    # p = 1, lam = 0.5: every monotone tuple on [0, 1] x {0} costs exactly 0.5; the
    # last segment from grid point 0 ties over its three first ends, one block each
    monkeypatch.setattr(oracle, "PAIR_BLOCK", 1)
    curve, E = brute_force_min(TWO_ATOMS, OracleConfig(m=3, h=0.5, p=1.0, lam=0.5))
    assert E == 0.5
    assert curve.vertices.tolist() == [[0.0, 0.0]]


def test_m4_subset_search_matches_chain_reference():
    rng = np.random.default_rng(11)
    for k in range(8):
        n = 2 + k % 3
        p, lam = (1.0, 1.5, 2.0, 3.0)[k % 4], (0.05, 0.2)[k % 2]
        mu = DiscreteMeasure(rng.uniform(0.0, 1.0, (n, 2)), rng.uniform(0.2, 1.0, n))
        ocfg = OracleConfig(m=4, h=0.1, p=p, lam=lam)
        curve, E = brute_force_min(mu, ocfg)
        assert E == pytest.approx(reference_min(mu, ocfg)[1], rel=1e-12)
        assert energy(mu, curve, p, lam).total == pytest.approx(E, rel=1e-12)


def test_m3_triangle_holds_no_table():
    tracemalloc.start()
    try:
        curve, E = brute_force_min(TRIANGLE, OracleConfig(m=3, h=0.025, p=1.0, lam=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20  # one block plus 2^n x G subset rows; the G x G tables took 101 MB
    assert E == TRIANGLE_GOLDEN_H025
    assert len(curve.vertices) == 1


# brute_force_min energies at m = 4, h = 0.1, recorded when the subset passes
# still kept back-pointers; the values-only passes must keep every bit
M4_RECORDED = ("0x1.1ac7b3678ab5fp-5", "0x1.4dc07c93890cap-5", "0x1.c21f795a85c06p-5",
               "0x1.d11c41d351051p-6", "0x1.edd531551869ap-4", "0x1.eedaa3c97d194p-4",
               "0x1.cd956a1d24a81p-4", "0x1.795c0eb27bf4ap-4", "0x1.e2f3cee08be50p-7",
               "0x1.c915bbc38b0ddp-6", "0x1.45a4d488e09cfp-5", "0x1.0dee73cf505e1p-5")


def _m4_cases():
    rng = np.random.default_rng(2024)
    for k in range(len(M4_RECORDED)):
        n = 2 + k % 4
        p, lam = (1.0, 1.5, 2.0, 3.0)[k % 4], (0.05, 0.2)[(k // 4) % 2]
        mu = DiscreteMeasure(rng.uniform(0.0, 1.0, (n, 2)), rng.uniform(0.2, 1.0, n))
        yield mu, OracleConfig(m=4, h=0.1, p=p, lam=lam)


def test_m4_energies_keep_their_recorded_bits():
    for (mu, ocfg), recorded in zip(_m4_cases(), M4_RECORDED):
        curve, E = brute_force_min(mu, ocfg)
        assert E.hex() == recorded
        assert energy(mu, curve, ocfg.p, ocfg.lam).total == pytest.approx(E, rel=1e-12)


def test_m4_search_does_not_depend_on_the_block_size(monkeypatch):
    # the last case ties: every monotone tuple on [0, 1] x {0} costs exactly 0.5
    cases = list(_m4_cases())[:6] + [(TWO_ATOMS, OracleConfig(m=4, h=0.5, p=1.0, lam=0.5))]
    found = []
    for pair_block in (None, 1, 150, 1 << 16):
        if pair_block is not None:
            monkeypatch.setattr(oracle, "PAIR_BLOCK", pair_block)
        found.append([(E.hex(), curve.vertices.tobytes())
                      for curve, E in (brute_force_min(mu, ocfg) for mu, ocfg in cases)])
    assert found[0] == found[1] == found[2] == found[3]
    assert found[0][-1] == ((0.5).hex(), np.zeros((1, 2)).tobytes())


def test_trace_back_rescores_the_pass_bit_for_bit():
    mu, ocfg = next(_m4_cases())
    P = _grid_points(mu, ocfg.h)
    passes = [oracle._extend(P, mu, ocfg.p, ocfg.lam)]
    passes.append(oracle._extend(P, mu, ocfg.p, ocfg.lam, passes[0]))
    T, c = 1, 7
    tuple_ = oracle._trace_back(P, mu, ocfg.p, ocfg.lam, passes, T, c)
    assert len(tuple_) == 4 and tuple_[2] == c
    passes[1][T, c] = np.nextafter(passes[1][T, c], np.inf)  # one ulp off: no prefix attains it
    with pytest.raises(AssertionError):
        oracle._trace_back(P, mu, ocfg.p, ocfg.lam, passes, T, c)
