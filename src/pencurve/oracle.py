"""Exhaustive grid-search minimization on tiny 2-D instances.

Grounds acceptance tests: the returned energy is the exact minimum of the
discrete energy over all ordered m-tuples of grid points, with an explicit
h-dependent error bound against the continuous optimum.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .curve import Polyline, merge_vertices
from .energy import energy, validate_params
from .errors import BudgetExceededError, ConfigError, PencurveError
from .measure import DiscreteMeasure, diameter


@dataclass(frozen=True)
class OracleConfig:
    """Grid search over the atom bounding box (the hull's box, uninflated).

    m is the tuple length (<= 4); h the grid resolution per axis; budget
    caps the number of pairwise cost evaluations the search may spend.
    """

    m: int
    h: float
    p: float
    lam: float
    budget: float = 1e9

    def validate(self):
        if not (1 <= self.m <= 4):
            raise ConfigError(f"oracle supports 1 <= m <= 4, got {self.m}")
        if not self.h > 0:
            raise ConfigError("h must be > 0")
        validate_params(self.p, self.lam)


def lipschitz_constant(mu: DiscreteMeasure, p: float, lam: float, m: int) -> float:
    """Energy change per unit of simultaneous vertex movement.

    Moving every vertex by at most delta changes each atom's distance by at
    most delta and each segment length by at most 2*delta, so the energy
    moves by at most (p * diam^(p-1) * mass + lam * m) * delta.
    """
    return p * diameter(mu) ** (p - 1.0) * mu.total_mass + lam * m


def _grid_axis(lo: float, hi: float, h: float) -> np.ndarray:
    extent = hi - lo
    if extent <= 0.0:
        return np.array([lo])
    n = max(2, math.ceil(extent / h - 1e-9) + 1)
    return np.linspace(lo, hi, n)


def _grid_points(mu: DiscreteMeasure, h: float) -> np.ndarray:
    lo = np.min(mu.positions, axis=0)
    hi = np.max(mu.positions, axis=0)
    xs = _grid_axis(lo[0], hi[0], h)
    ys = _grid_axis(lo[1], hi[1], h)
    return np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)


PAIR_BLOCK = 1 << 16  # grid-point pairs per block of the pair kernel


def _pair_blocks(P: np.ndarray, mu: DiscreteMeasure, p: float, lam: float):
    """Pair costs over grid-point pairs (a, b), in row blocks of ~PAIR_BLOCK pairs.

    Yields (rows, lam * |P_a P_b|, [mass * dist(x, segment(P_a, P_b))^p per
    atom]). Each block's segment geometry, one 2-D array per coordinate, is
    computed once and shared by every atom; the per-atom steps reuse two
    block buffers, in the operation order of the dense (G, G, 2) arithmetic.
    """
    G = P.shape[0]
    step = max(1, PAIR_BLOCK // G)
    px, py = P[:, 0].copy(), P[:, 1].copy()
    for a0 in range(0, G, step):
        ax, ay = P[a0 : a0 + step, 0:1], P[a0 : a0 + step, 1:2]
        w0, w1 = px - ax, py - ay
        den = w0 * w0 + w1 * w1
        seg, t = den > 0, np.zeros_like(den)  # t stays 0 where den is 0
        e0, e1 = np.empty_like(den), np.empty_like(den)
        costs = []
        for (x0, x1), mass in zip(mu.positions, mu.masses):
            num = np.multiply(x0 - ax, w0, out=e0)
            num += np.multiply(x1 - ay, w1, out=e1)
            np.clip(np.divide(num, den, out=t, where=seg), 0.0, 1.0, out=t)
            np.subtract(x0, np.add(ax, np.multiply(t, w0, out=e0), out=e0), out=e0)
            np.subtract(x1, np.add(ay, np.multiply(t, w1, out=e1), out=e1), out=e1)
            e0 *= e0
            e0 += np.multiply(e1, e1, out=e1)
            costs.append(float(mass) * np.sqrt(e0, out=e0) ** p)
        yield slice(a0, a0 + step), lam * np.sqrt(den), costs


def _min_three_vertices(atom_costs: list[np.ndarray], lencost: np.ndarray, G: int):
    """Exact 3-vertex minimum via subset decomposition.

    For middle vertex b and atom subset S sent to the first segment,
    F[S][b] = min_a (len[a,b] + sum_{i in S} cost_i[a,b]); by symmetry of
    the pair arrays the second segment gives F[S^c][b], so the optimum is
    min over (S, b) of F[S][b] + F[S^c][b]. Subsets are visited in Gray
    code order so each step updates the accumulator by one atom.
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
        j = (step & -step).bit_length() - 1  # Gray code: flip lowest set bit of step
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


def _min_chain(atom_costs: list[np.ndarray], lencost: np.ndarray, G: int, m: int):
    """Chain dynamic program over every atom-to-segment assignment."""
    n = len(atom_costs)
    nseg = m - 1
    best_energy = np.inf
    best_tuple: tuple[int, ...] | None = None
    for assign in itertools.product(range(nseg), repeat=n):
        seg_costs = []
        for k in range(nseg):
            ck = lencost.copy()
            for i in range(n):
                if assign[i] == k:
                    ck += atom_costs[i]
            seg_costs.append(ck)
        g = np.zeros(G)
        bps = []
        for ck in seg_costs:
            stacked = g[:, None] + ck
            bp = np.argmin(stacked, axis=0)
            g = stacked[bp, np.arange(G)]
            bps.append(bp)
        end = int(np.argmin(g))
        value = float(g[end])
        if value < best_energy:
            idx = [end]
            for bp in reversed(bps):
                idx.append(int(bp[idx[-1]]))
            idx.reverse()
            best_energy = value
            best_tuple = tuple(idx)
    return best_energy, best_tuple


def brute_force_min(mu: DiscreteMeasure, ocfg: OracleConfig):
    """Exact minimum of the discrete energy over all m-tuples of grid points.

    The search decomposes over atom-to-segment assignments: for a fixed
    assignment the energy is a sum of consecutive-pair costs, minimized
    exactly by a chain dynamic program, and minimizing over all (m-1)^n
    assignments recovers the pointwise min over segments. This equals the
    naive enumeration of all G^m tuples at a fraction of the cost. Returns
    (curve, energy); the true continuous optimum is at least
    energy - lipschitz_constant(...) * h.
    """
    ocfg.validate()
    if mu.dim != 2:
        raise PencurveError("oracle supports d=2 only")
    P = _grid_points(mu, ocfg.h)
    G = P.shape[0]
    n = mu.n_atoms
    m = ocfg.m
    # work in pair-cost evaluations; rows_held: rows of G floats per cost array alive at once
    if m == 1:
        work, rows_held = n * G, 1
    elif m == 2:
        work, rows_held = (n + 1) * G * G, min(G, max(1, PAIR_BLOCK // G))
    elif m == 3:
        work, rows_held = (n + 2 ** (n + 1)) * G * G, G
    else:
        work, rows_held = (n + ((m - 1) ** n) * (m - 1)) * G * G, G
    if work > ocfg.budget:
        raise BudgetExceededError(
            f"oracle needs ~{work:.3g} pair-cost evaluations over {G} grid points and"
            f" ~{8 * (n + 1) * rows_held * G:.3g} bytes of cost arrays, budget is {ocfg.budget:.3g}",
            required=work,
        )

    if m == 1:
        d = np.linalg.norm(mu.positions[:, None, :] - P[None, :, :], axis=-1)
        totals = np.sum(mu.masses[:, None] * d**ocfg.p, axis=0)
        k = int(np.argmin(totals))
        return Polyline(P[k][None, :]), float(totals[k])

    blocks = _pair_blocks(P, mu, ocfg.p, ocfg.lam)
    if m == 2:
        best_energy, best_tuple = np.inf, (0, 0)  # running first-index minimum
        for rows, total, costs in blocks:
            for ci in costs:
                total += ci
            flat = int(np.argmin(total))
            if total.flat[flat] < best_energy:
                best_energy = float(total.flat[flat])
                best_tuple = (rows.start + flat // G, flat % G)
    else:
        lencost, atom_costs = np.empty((G, G)), [np.empty((G, G)) for _ in range(n)]
        for rows, lengths, costs in blocks:
            lencost[rows] = lengths
            for table, ci in zip(atom_costs, costs):
                table[rows] = ci
        if m == 3:
            best_energy, best_tuple = _min_three_vertices(atom_costs, lencost, G)
        else:
            best_energy, best_tuple = _min_chain(atom_costs, lencost, G, m)

    verts = P[list(best_tuple)]
    if tuple(map(tuple, verts[::-1])) < tuple(map(tuple, verts)):
        verts = verts[::-1]  # reversal symmetry: keep the lexicographically smaller form
    return Polyline(merge_vertices(verts, 0.0)), best_energy


CERTIFY_TOL = 1e-6  # absolute energy slack of certify_fit, on top of the grid slack


def certify_fit(mu: DiscreteMeasure, fit_curve: Polyline, ocfg: OracleConfig) -> dict:
    """Compare a fitted curve's energy against the oracle minimum.

    PASS requires fit <= oracle + C*h + CERTIFY_TOL where C is the grid
    Lipschitz slack; a refused oracle yields status SKIPPED.
    """
    C = lipschitz_constant(mu, ocfg.p, ocfg.lam, ocfg.m)
    record = {
        "h": ocfg.h,
        "m": ocfg.m,
        "p": ocfg.p,
        "lambda": ocfg.lam,
        "grid_slack": C * ocfg.h,
        "tol": CERTIFY_TOL,
    }
    try:
        oracle_curve, oracle_energy = brute_force_min(mu, ocfg)
    except BudgetExceededError as exc:
        record["status"] = "SKIPPED"
        record["reason"] = str(exc)
        return record
    fit_energy = energy(mu, fit_curve, ocfg.p, ocfg.lam).total
    record["oracle_energy"] = oracle_energy
    record["fit_energy"] = fit_energy
    record["gap"] = fit_energy - oracle_energy
    passed = fit_energy <= oracle_energy + C * ocfg.h + CERTIFY_TOL
    record["status"] = "PASS" if passed else "FAIL"
    record["oracle_curve"] = oracle_curve.to_dict()
    return record


def golden_record(mu: DiscreteMeasure, ocfg: OracleConfig, curve: Polyline,
                  oracle_energy: float) -> dict:
    """Timestamp-free record of an oracle run, with a content hash."""
    body = {
        "instance": mu.to_dict(),
        "m": ocfg.m,
        "h": ocfg.h,
        "p": ocfg.p,
        "lambda": ocfg.lam,
        "oracle_energy": oracle_energy,
        "curve": curve.to_dict(),
    }
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["hash"] = hashlib.sha256(canon.encode()).hexdigest()
    return body
