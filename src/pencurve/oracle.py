"""Exhaustive grid-search minimization on tiny 2-D instances.

Grounds acceptance tests: the returned energy is the exact minimum of the
discrete energy over all ordered m-tuples of grid points, with an explicit
h-dependent error bound against the continuous optimum.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curve import Polyline
from .energy import energy, validate_count, validate_params
from .errors import BudgetExceededError, ConfigError, PencurveError
from .measure import DiscreteMeasure, diameter, in_range_at


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
        if not (1 <= validate_count("m", self.m) <= 4):
            raise ConfigError(f"oracle supports 1 <= m <= 4, got {self.m}")
        if not self.h > 0:
            raise ConfigError("h must be > 0")
        if not self.budget > 0:
            raise ConfigError(f"budget must be > 0, got {self.budget}")
        validate_params(self.p, self.lam)


def lipschitz_constant(mu: DiscreteMeasure, p: float, lam: float, m: int) -> float:
    """Energy change per unit of simultaneous vertex movement.

    Moving every vertex by at most delta changes each atom's distance by at
    most delta and each segment length by at most 2*delta, so the energy
    moves by at most (p * diam^(p-1) * mass + lam * m) * delta.
    """
    return p * diameter(mu) ** (p - 1.0) * mu.total_mass + lam * m


def _axis_counts(mu: DiscreteMeasure, h: float) -> list:
    """Grid points per axis over the atoms' bounding box, at spacing at most h.

    An axis of extent 0 has one point. The counts are exact integers, also
    past the float range, so a search can be refused before its grid exists.
    """
    pos, counts = mu.positions, []
    for lo, hi in zip(pos.min(axis=0).tolist(), pos.max(axis=0).tolist()):
        steps = (hi - lo) / h - 1e-9
        if steps == math.inf:
            steps = Fraction(hi - lo) / Fraction(h)
        counts.append(1 if hi - lo <= 0.0 else max(2, math.ceil(steps) + 1))
    return counts


def _grid_axes(mu: DiscreteMeasure, h: float) -> list:
    lo, hi = np.min(mu.positions, axis=0), np.max(mu.positions, axis=0)
    return list(map(np.linspace, lo, hi, _axis_counts(mu, h)))


def _grid_points(mu: DiscreteMeasure, h: float) -> np.ndarray:
    """The grid as (G, 2) rows, x major: row i * len(ys) + j is (xs[i], ys[j])."""
    return np.stack(np.meshgrid(*_grid_axes(mu, h), indexing="ij"), axis=-1).reshape(-1, 2)


PAIR_BLOCK = 1 << 15  # grid-point pairs per block: the fastest tile of kernel_timing.py oracle


def _pair_costs(ax, ay, bx, by, mu: DiscreteMeasure, p: float, lam: float, out: np.ndarray):
    """lam * |a b| into out[0], and mass * dist(x, segment(a, b))^p per atom into out[1 + i].

    The endpoints are broadcast coordinate arrays, a the lower grid index.
    The pair blocks and the trace-back both call it: every step is
    elementwise, so a pair's costs are the same bits in any layout. Beside
    out it holds six scratch lanes of out[0]'s shape (w0, w1, den, t, e0,
    e1), and for a moment the den == 0 mask.
    """
    w0, w1 = bx - ax, by - ay
    den = w0 * w0 + w1 * w1
    np.sqrt(den, out=out[0])
    out[0] *= lam
    den += den == 0.0  # 1 where den was 0; there t * w is 0 (w = 0) or underflows to 0
    t, e0, e1 = np.empty_like(den), np.empty_like(den), np.empty_like(den)
    for (x0, x1), mass, cost in zip(mu.positions, mu.masses, out[1:]):
        num = np.multiply(x0 - ax, w0, out=e0)
        num += np.multiply(x1 - ay, w1, out=e1)
        np.divide(num, den, out=t)
        t.clip(0.0, 1.0, out=t)
        np.subtract(x0, np.add(ax, np.multiply(t, w0, out=e0), out=e0), out=e0)
        np.subtract(x1, np.add(ay, np.multiply(t, w1, out=e1), out=e1), out=e1)
        e0 *= e0
        e0 += np.multiply(e1, e1, out=e1)
        np.sqrt(e0, out=cost)
        if p != 1.0:  # x ** 1.0 == x
            cost **= p
        cost *= mass


def _block_rows(G: int) -> int:
    """Grid rows per pair block: about PAIR_BLOCK pairs, at least one row, at most G."""
    return min(G, max(1, PAIR_BLOCK // G))


def _pair_blocks(P: np.ndarray, mu: DiscreteMeasure, p: float, lam: float):
    """Pair costs over unordered grid-point pairs, in row blocks of ~PAIR_BLOCK pairs.

    Each unordered pair {a, c} is scored once, as the segment from the lower
    index a to c. Row block [a0, a1) yields (rows, lam * |P_a P_c|, an
    (n, rows, columns) array of mass * dist(x, segment(P_a, P_c))^p per
    atom) over the columns c >= a0; its cells with c < a, scored in an
    earlier block, get length +inf. The length is symmetric bit for bit,
    and so is a full table mirrored from these cells. The lengths and the
    atoms' costs share one store of n + 1 lanes of _block_rows(G) * G
    floats, overwritten by the next block. With the kernel's scratch it
    holds 8 (n + 7) + 1 bytes per pair of a block (_held_bytes).
    """
    G = P.shape[0]
    step = _block_rows(G)
    px, py = P[:, 0].copy(), P[:, 1].copy()
    below = np.tri(step, k=-1, dtype=bool)  # the cells c < a of a block's leading square
    store = np.empty((mu.n_atoms + 1, step * G))
    for a0 in range(0, G, step):
        a1 = min(a0 + step, G)
        out = store[:, : (a1 - a0) * (G - a0)].reshape(mu.n_atoms + 1, a1 - a0, G - a0)
        _pair_costs(P[a0:a1, 0:1], P[a0:a1, 1:2], px[a0:], py[a0:], mu, p, lam, out)
        out[0, :, : a1 - a0][below[: a1 - a0, : a1 - a0]] = np.inf
        yield slice(a0, a1), out[0], out[1:]


def _gray_walk(acc: np.ndarray, costs: np.ndarray):
    """Yield every atom subset U once, acc holding the lengths plus U's costs.

    The subsets run in Gray code order, one atom's costs added to acc or
    taken off per step, in place; acc's bits follow that path, so every
    reader walks the same one.
    """
    added = 0
    yield added
    for step in range(1, 1 << len(costs)):
        j = (step & -step).bit_length() - 1  # Gray code: flip lowest set bit of step
        if added & (1 << j):
            acc -= costs[j]
        else:
            acc += costs[j]
        added ^= 1 << j
        yield added


def _extend(P: np.ndarray, mu: DiscreteMeasure, p: float, lam: float, H=None) -> np.ndarray:
    """One subset pass over the pair blocks: every prefix gains one segment.

    H[S][b] is the cheapest prefix that ends at grid point b and serves atom
    subset S; None is the empty prefix (0 at S = {}, +inf elsewhere), whose
    zero is never added. Returns the values E[T][c] = min over S <= T and b
    of H[S][b] + lam |P_b P_c| + sum_{i in T - S} cost_i[b, c], and no
    back-pointers: _trace_back finds the one prefix an answer reads. The
    pair kernel scores each unordered pair once, so a block with rows a and
    columns c >= a serves both ends: its column minima give E[T][c] over
    b <= c (b the row), its row minima E[T][a] over b >= a (b the column).
    """
    G, nsub = P.shape[0], 1 << mu.n_atoms
    starts = [[0] if H is None else [S for S in range(nsub) if not S & U] for U in range(nsub)]
    E = np.full((nsub, G), np.inf)
    store = None if H is None else np.empty(_block_rows(G) * G)  # the candidates H + pair
    for rows, acc, costs in _pair_blocks(P, mu, p, lam):
        a0 = rows.start
        cand = None if H is None else store[: acc.size].reshape(acc.shape)
        for added in _gray_walk(acc, costs):
            for S in starts[added]:
                T = S | added
                block = acc if H is None else np.add(acc, H[S, rows, None], out=cand)
                Ec = E[T, a0:]
                np.minimum(Ec, block.min(axis=0), out=Ec)  # column minima: b <= c, b a row
                block = acc if H is None else np.add(acc, H[S, None, a0:], out=cand)
                Er = E[T, rows]
                np.minimum(Er, block.min(axis=1), out=Er)  # row minima: b >= a, b a column
    return E


def _column(P: np.ndarray, mu: DiscreteMeasure, p: float, lam: float, c: int):
    """(lengths, costs) of the G pairs {b, c}, as the pair blocks score them, indexed by b."""
    b = np.arange(len(P))
    lo, hi = P[np.minimum(b, c)], P[np.maximum(b, c)]
    out = np.empty((mu.n_atoms + 1, len(P)))
    _pair_costs(lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1], mu, p, lam, out)
    return out[0], out[1:]


def _prefix_end(column, H, E: np.ndarray, T: int, c: int):
    """(S, b): the prefix that attains E[T][c], E the pass over H (None: the first pass).

    Rescores every candidate H[S][b] + the pair {b, c} serving T - S from
    the column's costs, summed along the pass's Gray code path, so the value
    found is E[T][c] bit for bit. Ties go to the smallest b, then the
    smallest S.
    """
    lengths, costs = column
    found = []
    acc = lengths.copy()
    for U in _gray_walk(acc, costs):
        S = T ^ U
        if U & ~T or (H is None and S):
            continue
        vals = acc if H is None else acc + H[S]
        b = int(vals.argmin())
        found.append((vals[b], b, S))
    value, b, S = min(found)
    assert value == E[T, c], "the trace-back must rescore the pass's value bit for bit"
    return S, b


def _trace_back(P: np.ndarray, mu: DiscreteMeasure, p: float, lam: float, passes: list,
                T: int, c: int) -> list:
    """Grid indices of the tuple behind passes[-1][T][c] + passes[0][~T][c].

    The last segment, from c, serves the atoms not in T; read backwards it
    is a first-pass prefix that ends at c. Each pass's cell leads to a cell
    of the pass before it, one column of pairs rescored per vertex.
    """
    column = _column(P, mu, p, lam, c)
    found = [_prefix_end(column, None, passes[0], (len(passes[0]) - 1) ^ T, c)[1], c]
    for k in range(len(passes) - 1, -1, -1):
        T, c = _prefix_end(column, passes[k - 1] if k else None, passes[k], T, c)
        found.append(c)
        if k:
            column = _column(P, mu, p, lam, c)
    return found[::-1]


def _best_end(passes: list) -> tuple:
    """(value, T, c): the first minimum of passes[-1][T][c] + passes[0][~T][c], T major.

    Row by row, so the search holds one row of G sums, not 2^n x G.
    """
    first, last = passes[0], passes[-1]
    best = (np.inf, 0, 0)
    for T, row in enumerate(last):
        row = row + first[len(first) - 1 - T]
        c = int(row.argmin())
        if row[c] < best[0]:
            best = (float(row[c]), T, c)
    return best


def _approx(count: int) -> str:
    """f"{count:.3g}" for an int of any size; the float form overflows past 1.8e308."""
    from decimal import Decimal  # only a refusal past the float range needs it
    return f"{count:.3g}" if count < 1e308 else f"{Decimal(count):.3g}"


def _held_bytes(counts: list, n: int, m: int) -> tuple:
    """(grid and cost-array bytes, subset-row bytes) a search holds at once.

    counts are the grid's axis counts, G their product, as exact integers.
    Every search holds numpy's ufunc buffer (np.getbufsize() floats, which
    the pair kernel's broadcast calls fill). m = 1 holds the two axes and,
    per grid point of a block of PAIR_BLOCK, seven lanes (the indices i and
    j, the point, its total and the differences dx and dy) plus three of
    the next block's (its index range, i and j) as that block starts;
    freeing a block's lanes before the next block's made it about 3x
    slower. m >= 2 holds the grid and its column copies (32 G bytes), a
    block's mask of cells c < a, and per pair of a block the store's n + 1
    lanes, the kernel's six scratch lanes and its den == 0 mask; a pass
    that extends a prefix (m = 4) adds one candidate lane. From m = 3 on,
    the last pass holds the 2^n x G values of all m - 2.
    """
    G = math.prod(counts)
    small = 8 * np.getbufsize()  # the ufunc buffer; it also covers a few small objects
    if m == 1:
        return small + 8 * sum(counts) + 10 * 8 * min(G, PAIR_BLOCK), 0
    step = _block_rows(G)
    lanes = 8 * (n + 7) + 1 + (8 if m > 3 else 0)
    return small + 32 * G + step * step + lanes * step * G, 8 * max(m - 2, 0) * 2**n * G


def brute_force_min(mu: DiscreteMeasure, ocfg: OracleConfig):
    """Exact minimum of the discrete energy over all m-tuples of grid points.

    Each atom is served by its nearest segment, so the energy of a tuple is
    the minimum over atom-to-segment assignments of a sum of per-segment
    costs. The pair kernel scores each unordered grid pair once, oriented
    from its lower index, so every cost is symmetric bit for bit. At m = 2
    a running minimum over the pair blocks finds the minimum; on a tie the
    first pair (a, b), a <= b, wins. At m >= 3 a subset dynamic program
    does: m - 2 passes of _extend grow the prefixes, and by that symmetry
    the last segment, serving the atoms not in T from grid point c, costs
    F[~T][c] with F the first pass. This equals the naive enumeration of
    all G^m tuples at a fraction of the cost. The passes keep values only;
    the first minimum (T, c) in subset-major order is traced back once,
    each vertex the smallest grid index (then the smallest subset) among
    the prefixes that attain its pass's value, an order that does not
    depend on PAIR_BLOCK. At m = 1 the grid is scored
    in blocks of PAIR_BLOCK points, each point's total alone, and the first
    minimum in grid order wins. A search over its budget is refused before
    it starts, with its grid points, its work and the bytes _held_bytes
    counts; a grid that numpy cannot index is refused whatever the budget.
    Returns (curve, energy); the true continuous optimum is at least
    energy - lipschitz_constant(...) * h.
    """
    ocfg.validate()
    if mu.dim != 2:
        raise PencurveError("oracle supports d=2 only")
    in_range_at(mu, ocfg.p)
    counts = _axis_counts(mu, ocfg.h)
    G = math.prod(counts)
    n = mu.n_atoms
    m = ocfg.m
    # work in pair-cost evaluations; from m = 3 on, (m - 1)^(n + 1) per pair for the subsets
    work = n * G if m == 1 else (n + (m - 1) ** (n + 1)) * G * G
    unindexable = G > np.iinfo(np.intp).max
    if work > ocfg.budget or unindexable:
        cost_bytes, subset_bytes = _held_bytes(counts, n, m)
        raise BudgetExceededError(
            f"oracle needs ~{_approx(work)} pair-cost evaluations over"
            f" {G if G < 10**15 else '~' + _approx(G)} grid points,"
            f" ~{_approx(cost_bytes)} bytes of grid and cost arrays and"
            f" ~{_approx(subset_bytes)} bytes of subset rows, budget is {ocfg.budget:.3g}"
            + ("; the grid is past numpy's index range" if unindexable else ""),
            required=work,
        )

    if m == 1:
        xs, ys = _grid_axes(mu, ocfg.h)
        for start in range(0, G, PAIR_BLOCK):
            i, j = np.divmod(np.arange(start, min(start + PAIR_BLOCK, G)), len(ys))
            gx, gy = xs[i], ys[j]
            totals, dx, dy = np.zeros(len(i)), np.empty(len(i)), np.empty(len(i))
            for (x0, x1), mass in zip(mu.positions, mu.masses):
                np.subtract(x0, gx, out=dx)
                np.subtract(x1, gy, out=dy)
                dx *= dx
                dx += np.multiply(dy, dy, out=dy)
                np.sqrt(dx, out=dx)
                if ocfg.p != 1.0:  # x ** 1.0 == x
                    dx **= ocfg.p
                dx *= mass
                totals += dx
            k = int(np.argmin(totals))
            if start == 0 or totals[k] < best_energy:  # a running first-index minimum
                best_energy, best = float(totals[k]), (gx[k], gy[k])
        return Polyline(np.array([best])), best_energy

    P = _grid_points(mu, ocfg.h)

    if m == 2:
        best_energy, best_tuple = np.inf, (0, 0)  # running first-index minimum
        for rows, total, costs in _pair_blocks(P, mu, ocfg.p, ocfg.lam):
            for ci in costs:
                total += ci
            flat = int(np.argmin(total))
            if total.flat[flat] < best_energy:
                a, c = divmod(flat, total.shape[1])
                best_energy, best_tuple = float(total.flat[flat]), (rows.start + a, rows.start + c)
    else:
        passes = [_extend(P, mu, ocfg.p, ocfg.lam)]
        for _ in range(m - 3):
            passes.append(_extend(P, mu, ocfg.p, ocfg.lam, passes[-1]))
        best_energy, T, c = _best_end(passes)
        best_tuple = _trace_back(P, mu, ocfg.p, ocfg.lam, passes, T, c)

    verts = P[list(best_tuple)]
    if tuple(map(tuple, verts[::-1])) < tuple(map(tuple, verts)):
        verts = verts[::-1]  # reversal symmetry: keep the lexicographically smaller form
    return Polyline.through(verts), best_energy


CERTIFY_TOL = 1e-6  # certify_fit's energy slack beside the grid slack, relative to the oracle


def certify_fit(mu: DiscreteMeasure, fit_curve: Polyline, ocfg: OracleConfig,
                found: tuple | None = None) -> dict:
    """Compare a fitted curve's energy against the oracle minimum.

    PASS requires fit <= oracle + C*h + CERTIFY_TOL*oracle where C is the
    grid Lipschitz slack, so the verdict does not depend on the units of
    the measure; record["tol"] holds the slack CERTIFY_TOL*oracle. found is
    brute_force_min(mu, ocfg) when the caller has run it already; otherwise
    the search runs here, and a refused search yields status SKIPPED.
    """
    C = lipschitz_constant(mu, ocfg.p, ocfg.lam, ocfg.m)
    record = {
        "h": ocfg.h,
        "m": ocfg.m,
        "p": ocfg.p,
        "lambda": ocfg.lam,
        "grid_slack": C * ocfg.h,
    }
    try:
        oracle_curve, oracle_energy = found or brute_force_min(mu, ocfg)
    except BudgetExceededError as exc:
        record["status"] = "SKIPPED"
        record["reason"] = str(exc)
        return record
    fit_energy = energy(mu, fit_curve, ocfg.p, ocfg.lam).total
    record["tol"] = CERTIFY_TOL * oracle_energy
    record["oracle_energy"] = oracle_energy
    record["fit_energy"] = fit_energy
    record["gap"] = fit_energy - oracle_energy
    passed = fit_energy <= oracle_energy + C * ocfg.h + record["tol"]
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
