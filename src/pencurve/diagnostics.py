"""Certificates for geometric necessary conditions of minimizing curves.

Every check is a necessary condition for minimality, so FAIL on a fitted
curve is evidence of non-minimality, not a program error. Checks recompute
everything from their inputs and are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import Polyline, axis_norms, point_segment_foot, self_intersections_2d
from .energy import _entry_offsets, validate_params
from .errors import PencurveError
from .measure import (DiscreteMeasure, _nested_cells, convex_hull_2d, diameter, in_range_at,
                      tie_tolerance, vertices_in_range)
from .projection import TransportPlan, build_plan

ANGLE_TOL = 5e-4  # radians; absorbs optimizer stationarity slack in angle checks
HULL_TOL_REL = 1e-6  # outside distance a vertex may have, relative to the diameter
BOUND_SLACK = 1e-9  # relative; singleton_best_energy prunes a cell only this far above the best


@dataclass(frozen=True)
class TheoryCheck:
    name: str
    passed: bool | None  # None = skipped
    bound: float | None
    observed: float | None
    tolerance: float | None
    detail: str = ""

    def __post_init__(self):
        # a numpy bool is not False, so overall would miss it: keep bool or None
        if self.passed is not None:
            object.__setattr__(self, "passed", bool(self.passed))

    @property
    def status(self) -> str:
        if self.passed is None:
            return "SKIPPED"
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "bound": self.bound,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TheoryReport:
    checks: tuple[TheoryCheck, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_dict(self) -> dict:
        return {"overall": "PASS" if self.overall else "FAIL",
                "checks": [c.to_dict() for c in self.checks]}

    def table(self) -> str:
        rows = [f"{'check':<22} {'status':<8} {'observed':>14} {'bound':>14}"]
        for c in self.checks:
            obs = "-" if c.observed is None else f"{c.observed:.6g}"
            bnd = "-" if c.bound is None else f"{c.bound:.6g}"
            rows.append(f"{c.name:<22} {c.status:<8} {obs:>14} {bnd:>14}  {c.detail}")
        return "\n".join(rows)


# ---------------------------------------------------------------------------
# hull geometry helpers
# ---------------------------------------------------------------------------

def hull_edge_violations(points: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Largest signed outside distance to any hull edge, per point.

    Negative values mean strictly inside every edge; degenerate hulls
    (point, segment) fall back to the plain distance.
    """
    pts = np.atleast_2d(points)
    if len(hull) < 3:
        return point_segment_foot(pts, hull[0], hull[-1])[0]
    edges = np.roll(hull, -1, axis=0) - hull
    normals = np.stack((edges[:, 1], -edges[:, 0]), axis=1) / axis_norms(edges)[:, None]
    out = np.full(pts.shape[0], -np.inf)
    for a, (n0, n1) in zip(hull, normals.tolist()):  # outward normals of the CCW edges
        rel = pts - a
        out = np.maximum(out, rel[:, 0] * n0 + rel[:, 1] * n1)
    return out


def project_to_hull(X: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Nearest point of the (possibly degenerate) convex polygon to each row of X."""
    k = hull.shape[0]
    if k == 1:
        return np.repeat(hull, len(X), axis=0)
    dist, out = point_segment_foot(X, hull[0], hull[1])
    if k == 2:
        return out
    for i in range(1, k):  # the first nearest edge
        d, feet = point_segment_foot(X, hull[i], hull[(i + 1) % k])
        closer = d < dist
        dist[closer], out[closer] = d[closer], feet[closer]
    inside = hull_edge_violations(X, hull) <= 0.0
    out[inside] = X[inside]
    return out


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _candidate_energies(mu: DiscreteMeasure, Z: np.ndarray, p: float,
                        work: np.ndarray) -> np.ndarray:
    """Energy sum(masses * |X - z|^p) of each single-point candidate z in the rows of Z.

    Each row's value depends only on z, never on the other rows, so any
    grouping of candidates gives the same bits as scoring them one at a
    time. `work` is a reused (2, >= len(Z), n) array: a fresh one per call
    would cost a page fault per 4 kB.
    """
    X = mu.positions
    sq, diff = work[:, :len(Z)]
    np.subtract(X[:, 0], Z[:, 0, None], out=sq)
    sq *= sq  # 0 + diff^2, bit for bit
    for k in range(1, mu.dim):  # coordinate by coordinate, the order of a row norm
        np.subtract(X[:, k], Z[:, k, None], out=diff)
        diff *= diff
        sq += diff
    np.power(np.sqrt(sq, out=sq), p, out=sq)
    return np.sum(np.multiply(mu.masses, sq, out=sq), axis=1)


def _cell_bounds(lo: np.ndarray, hi: np.ndarray, mass: np.ndarray, p: float,
                 query: np.ndarray, rows: int) -> np.ndarray:
    """sum_c mass[c] * gap(box_q, box_c)^p for each cell q in `query`, `rows` at a time."""
    out = np.empty(len(query))
    work = np.empty((3, min(rows, len(query)), len(mass)))
    for start in range(0, len(query), rows):
        q = query[start:start + rows]
        sq, gap, other = work[:, :len(q)]
        sq[...] = 0.0
        for k in range(lo.shape[1]):
            np.subtract(lo[:, k], hi[q, k, None], out=gap)
            np.maximum(gap, np.subtract(lo[q, k, None], hi[:, k], out=other), out=gap)
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            sq += gap
        np.power(np.sqrt(sq, out=sq), p, out=sq)
        out[start:start + len(q)] = np.sum(np.multiply(mass, sq, out=sq), axis=1)
    return out


def singleton_best_energy(mu: DiscreteMeasure, p: float) -> float:
    """Energy of the best single-point competitor (zero length).

    Candidates are every atom position plus the weighted mean; any single
    point is an admissible curve, so this is an upper bound for the optimal
    energy and hence for lambda * L of any minimizer.

    The result is the minimum over all n + 1 candidates, bit for bit, found
    by branch and bound, coarse to fine. The weighted mean is scored first.
    Grid level l groups the atoms into the occupied cells of 2^l cells per
    axis (`_nested_cells`); each cell's box is the bounding box of its
    atoms, so a cell's box holds the boxes of its children. No atom of cell
    c is closer to a candidate of cell q than gap(box_q, box_c), so every
    candidate in q scores at least B(q) = sum_c mass(c) * gap^p over the
    cells c of q's level. A cell is live while
    B(q) <= best * (1 + BOUND_SLACK) + 2n * 2^-1074. Level l bounds only
    the children of live level l - 1 cells (at level 1, every cell), so the
    cell of the minimiser is visited at every level. A level whose table
    has more than n entries also scores the first atom of its least-bound
    cell, which lowers best early where the mean is far from the minimum
    (p < 2). The search refines while the next level's table (its children
    times its cells) is smaller than scoring the live atoms (their count
    times n). Then the live cells' atoms are scored exactly, 16 at a time,
    in increasing B, until the next candidate's cell is no longer live.

    Rounding cannot make that rule drop the minimum. Differences, squares,
    sums of d squares and square roots are correctly rounded, hence
    monotone, so each computed atom distance is at least the computed gap;
    the power and the product with the mass add a few ulps. numpy's pairwise
    sums (the energy over n atoms, the cell masses, B over at most n cells
    of one level) err by at most about (log2 n + 16) * eps relative on
    nonnegative terms, eps = 2^-53. In all every B(q) of every level
    exceeds a computed energy in q by at most about (3 log2 n + 60) * eps,
    under 2e-14 for n <= 10^9: five orders below the 1e-9 slack. A term
    that underflows loses at most 2^-1075, and at most 2n terms (n atoms,
    or at most n cells) take part, which the absolute term covers. So the
    minimum over the scored candidates is the minimum over all of them.

    Cost: each level's table is built in row blocks of at most 4 n
    entries, and each scored candidate costs n, so memory is O(n). On a
    noisy circle at p = 2 no cell of the 8 x 8 level stays live and only
    the mean is scored: 0.7 ms at n = 3500 and 12 ms at n = 10^5 on a
    2-CPU host, against 1.8 and 190 ms for one grid level with its full
    C x C table. A uniform square at n = 30000, p = 2 takes 0.17 s against
    0.41 s. One cell (a single atom, or coincident atoms) scores every
    candidate.
    """
    X = mu.positions
    n, d = X.shape
    work = np.empty((2, 16, n))
    mean = (mu.masses / mu.total_mass) @ X
    best = float(_candidate_energies(mu, mean[None, :], p, work)[0])
    slack = 1.0 + BOUND_SLACK
    underflow = 2 * n * math.ulp(0.0)
    order, key, levels = _nested_cells(mu)
    pos, masses = X[order], mu.masses[order]
    starts, bound, live = np.zeros(1, dtype=np.intp), np.zeros(1), np.ones(1, dtype=bool)
    for level in range(1, levels + 1):
        cell = key >> (d * (levels - level))
        cells = np.flatnonzero(np.concatenate([[True], cell[1:] != cell[:-1]]))
        query = np.flatnonzero(live[np.searchsorted(starts, cells, side="right") - 1])
        if len(query) * len(cells) >= np.sum(np.diff(starts, append=n)[live]) * n:
            break  # this level's table would cost more than scoring the live atoms
        lo, hi = np.minimum.reduceat(pos, cells), np.maximum.reduceat(pos, cells)
        mass = np.add.reduceat(masses, cells)
        starts, bound = cells, np.full(len(cells), np.inf)
        bound[query] = _cell_bounds(lo, hi, mass, p, query, rows=max(1, 4 * n // len(cells)))
        if len(query) * len(cells) > n:  # one more candidate costs less than this table
            lowest = cells[np.argmin(bound)]  # the first atom of the least-bound cell
            best = min(best, float(_candidate_energies(mu, pos[lowest:lowest + 1], p, work)[0]))
        live = bound <= best * slack + underflow
    ranked = np.flatnonzero(live)
    ranked = ranked[np.argsort(bound[ranked], kind="stable")]  # cells in increasing B
    sizes = np.diff(starts, append=n)[ranked]
    atoms = np.repeat(starts[ranked] - np.cumsum(sizes) + sizes, sizes) + np.arange(np.sum(sizes))
    cands, bound = pos[atoms], np.repeat(bound[ranked], sizes)
    start = 0
    while True:  # blocks of at most 16 candidates: 16 x n temporaries
        last = np.searchsorted(bound, best * slack + underflow, side="right")
        stop = min(start + 16, int(last))
        if stop <= start:
            return best
        best = min(best, float(np.min(_candidate_energies(mu, cands[start:stop], p, work))))
        start = stop


def check_length_bound(mu: DiscreteMeasure, c: Polyline, p: float, lam: float) -> TheoryCheck:
    """lambda * L(curve) must not exceed the best singleton competitor's energy."""
    bound = singleton_best_energy(mu, p)
    observed = lam * c.total_length
    tol = 1e-9 * bound
    raw = diameter(mu) ** p * mu.total_mass
    return TheoryCheck(
        "length_bound", observed <= bound + tol, bound, observed, tol,
        f"raw bound lambda*L <= diam^p * mass = {raw:.6g}",
    )


def check_hull_containment(mu: DiscreteMeasure, c: Polyline) -> TheoryCheck:
    """Every curve vertex must lie inside the convex hull of the atoms."""
    if mu.dim != 2 or c.dim != 2:
        return TheoryCheck("hull_containment", None, None, None, None, "needs d=2")
    tol = HULL_TOL_REL * diameter(mu)
    viol = hull_edge_violations(c.vertices, convex_hull_2d(mu))
    worst = int(np.argmax(viol))
    observed = float(max(viol[worst], 0.0))
    return TheoryCheck(
        "hull_containment", observed <= tol, tol, observed, tol,
        f"worst vertex {worst} at outside distance {observed:.3g}",
    )


def convex_clip(c: Polyline, hull: np.ndarray) -> Polyline:
    """Project the curve onto a convex polygon; never longer than the input.

    Segment points where the projection switches hull edge or hull vertex
    (boundary crossings and normal-ray crossings) are inserted first, so
    the output traces the exact projected image.
    """
    if c.dim != 2:
        raise PencurveError("convex_clip is 2-D only")
    hull = np.asarray(hull, dtype=float)
    V = c.vertices
    if c.n_vertices == 1:
        return Polyline(project_to_hull(V, hull))
    pts = []
    for a, b in zip(V[:-1], V[1:]):
        t = np.array(sorted({0.0, 1.0, *_hull_transition_params(a, b, hull)}))
        pts.append(project_to_hull(a + t[:, None] * (b - a), hull))
    return Polyline.through(np.concatenate(pts))  # repeats of a point dropped


def _hull_transition_params(a: np.ndarray, b: np.ndarray, hull: np.ndarray) -> list[float]:
    """Params in (0,1) where [a,b] crosses a hull edge or a vertex normal ray."""
    k = hull.shape[0]
    if k < 3:
        return []
    d = b - a
    out = []

    def seg_line_param(q, w):
        # segment a + t d against line q + s w; returns (t, s) or None
        denom = d[0] * w[1] - d[1] * w[0]
        if denom == 0.0:
            return None
        rel = q - a
        t = (rel[0] * w[1] - rel[1] * w[0]) / denom
        s = (rel[0] * d[1] - rel[1] * d[0]) / denom
        return t, s

    for i in range(k):
        p0, p1 = hull[i], hull[(i + 1) % k]
        edge = p1 - p0
        n = np.array([edge[1], -edge[0]])  # outward normal of the CCW edge
        hit = seg_line_param(p0, edge)
        if hit is not None:
            t, s = hit
            if 0.0 < t < 1.0 and 0.0 <= s <= 1.0:
                out.append(float(t))
        for vert in (p0, p1):
            hit = seg_line_param(vert, n)
            if hit is not None:
                t, s = hit
                if 0.0 < t < 1.0 and s > 0.0:
                    out.append(float(t))
    return out


def _turn_coef(mu: DiscreteMeasure, p: float, lam: float) -> float:
    """(p / lambda) diam^(p-1); 0 where diam^(p-1) is, even if p / lambda overflows."""
    scale = diameter(mu) ** (p - 1.0)
    return (p / lam) * scale if scale else 0.0


def check_tv_bound(mu: DiscreteMeasure, c: Polyline, p: float, lam: float) -> TheoryCheck:
    """Total turning of the curve against the global mass/diameter bound."""
    bound = _turn_coef(mu, p, lam) * mu.total_mass
    observed = float(np.sum(c.turning_angles))
    return TheoryCheck("tv_global", observed <= bound + ANGLE_TOL, bound, observed, ANGLE_TOL)


def _window_mass_prefixes(plan: TransportPlan, m: int, weights: np.ndarray):
    """Prefix sums pv, ps of the entry weights on vertices and on segments: window (a, b),
    vertices a..b and the segments between, weighs (pv[b + 1] - pv[a]) + (ps[b] - ps[a])."""
    at_vertex = plan.at_vertex
    # bincount adds the weights one at a time in entry order
    wv = np.bincount(plan.ia[at_vertex], weights=weights[at_vertex], minlength=m)
    ws = np.bincount(plan.ia[~at_vertex], weights=weights[~at_vertex], minlength=m - 1)
    return tuple(np.concatenate([[0.0], np.cumsum(w)]) for w in (wv, ws))


def _start_blocks(starts: int, width: int, plan: TransportPlan, m: int) -> list:
    """Runs of the window starts 0 .. starts - 1, so that a (run x width) array
    holds at most 8 (plan entries + m) values (one start at least): O(n + m)."""
    rows = max(1, 8 * (len(plan.mass) + m) // max(width, 1))
    return [np.arange(a, min(a + rows, starts)) for a in range(0, starts, rows)]


def _first_worst(viol: np.ndarray):
    """(value, row, column) of the first worst entry in row-major order."""
    row, col = divmod(int(np.argmax(viol)), viol.shape[1])
    return viol[row, col], row, col


def check_local_tv(mu: DiscreteMeasure, c: Polyline, p: float, lam: float,
                   plan: TransportPlan | None = None) -> TheoryCheck:
    """Turning inside every vertex window against the mass projected there.

    Windows (a, b) are swept as a start x end array per block of starts
    (`_start_blocks`), ends b < a + 2 padded with -inf. A window without
    mass gets bound 0 (coef may be inf). The first worst window in (a, b)
    order is reported. Without a plan, the measure must be in the range
    of `in_range_at`.
    """
    if plan is None:
        plan, _ = build_plan(in_range_at(mu, p), c)
    m = c.n_vertices
    if m < 3:
        return TheoryCheck("tv_local", True, None, 0.0, ANGLE_TOL, "no interior vertex")
    coef = _turn_coef(mu, p, lam)
    pa = np.concatenate([[0.0], np.cumsum(c.turning_angles)])  # pa[j] = angles of vertices 1..j
    pv, ps = _window_mass_prefixes(plan, m, plan.mass)
    b = np.arange(m)
    worst = None  # (violation, window)
    for a in _start_blocks(m - 2, m, plan, m):
        a = a[:, None]
        tv = pa[b - 1] - pa[a]  # interior vertices a+1..b-1
        sigma = (pv[b + 1] - pv[a]) + (ps[b] - ps[a])
        viol = tv - np.multiply(coef, sigma, out=np.zeros_like(sigma), where=sigma > 0.0)
        viol[b < a + 2] = -np.inf
        value, row, end = _first_worst(viol)
        if worst is None or value > worst[0]:
            start = int(a[row, 0])  # a padded end wins only in an all -inf block: (a, a + 2)
            worst = (value, (start, max(end, start + 2)))
    observed = worst[0]
    return TheoryCheck(
        "tv_local", observed <= ANGLE_TOL, 0.0, float(observed), ANGLE_TOL,
        f"worst window {worst[1]} exceeds its bound by {observed:.3g} rad"
        if observed > 0 else f"largest margin used at window {worst[1]}",
    )


def _entry_sides(mu: DiscreteMeasure, c: Polyline, plan: TransportPlan, eps_side: float):
    """Per entry: (below, above) boolean columns for the turn check.

    Side is the sign of tangent x (atom - target), against the target's
    segment or both segments at a vertex; ambiguous entries count on both
    sides, which can only loosen the resulting bound.
    """
    ux, uy = (np.ascontiguousarray(col) for col in c.unit_tangents.T)  # 1-D gathers are faster
    ia = plan.ia
    off = _entry_offsets(c.vertices, plan, mu.positions)[2]
    c1, c2 = (ux[k] * off[:, 1] - uy[k] * off[:, 0]
              for k in (np.where(plan.at_vertex, np.maximum(ia - 1, 0), ia),
                        np.minimum(ia, c.n_vertices - 2)))
    above = (c1 > eps_side) | (c2 > eps_side)
    below = (c1 < -eps_side) | (c2 < -eps_side)
    # on the curve, or straddling a vertex tangent wedge
    both = (above == below) | (np.minimum(np.abs(c1), np.abs(c2)) <= eps_side)
    return below | both, above | both


def _eligible_ends(c: Polyline, plan: TransportPlan) -> np.ndarray:
    """Per start a, the count of ends b = a + 1, a + 2, ... of eligible windows.

    Window (a, b) turns by the sequential sum of angles a .. b - 2, a
    nondecreasing prefix from a, and is eligible below 1/2.
    """
    m = c.n_vertices
    width = max(m - 2, 1)
    angles = np.concatenate([c.turning_angles, np.full(width, np.inf)])
    rows = np.lib.stride_tricks.sliding_window_view(angles, width)
    return 1 + np.concatenate([np.sum(np.cumsum(rows[a], axis=1) < 0.5, axis=1)
                               for a in _start_blocks(m - 1, width, plan, m)])


def turn_direction_sweep(mu: DiscreteMeasure, c: Polyline, p: float, lam: float,
                         plan: TransportPlan | None = None) -> TheoryCheck:
    """Worst turn-direction violation over all eligible (TV < 1/2) windows.

    Windows (a, b) are swept as start x end arrays per block of starts
    (`_start_blocks`). The mass on a side of window (a, b) is read from
    that side's prefix sums (`_window_mass_prefixes`), as tv_local reads
    its mass. The largest distance is a running maximum over each key's
    largest, which is exact in any grouping. A side whose mass times
    d^(p-1) is 0 gets bound 0 (p / lam may be inf). The first worst window
    in (a, b) order is reported. Without a plan, the measure must be in
    the range of `in_range_at`.
    """
    if c.dim != 2:
        return TheoryCheck("turn_direction", None, None, None, None, "needs d=2")
    if plan is None:
        plan, _ = build_plan(in_range_at(mu, p), c)
    m = c.n_vertices
    if m < 2:
        return TheoryCheck("turn_direction", True, 0.0, 0.0, ANGLE_TOL, "no segment")
    # vertex j has key 2j, segment j key 2j + 1, so window (a, b) holds keys 2a..2b
    key = plan.ia + plan.ib
    sides = _entry_sides(mu, c, plan, tie_tolerance(diameter(mu)))
    prefixes = [_window_mass_prefixes(plan, m, np.where(side, plan.mass, 0.0)) for side in sides]
    dists = np.zeros((2, 2 * m - 1))  # per side and key: the largest distance, 0.0 if none
    for out, side in zip(dists, sides):
        np.maximum.at(out, key, np.where(side, plan.dist, 0.0))
    seg_unit = c.unit_tangents
    count = _eligible_ends(c, plan)
    worst = None
    for a in _start_blocks(m - 1, 2 * int(np.max(count)) + 1, plan, m):
        window = np.arange(int(np.max(count[a])))
        eligible = window < count[a, None]
        end = a[:, None] + np.minimum(window + 1, count[a, None])  # padded with the last end
        key_at = np.minimum(2 * a[:, None] + np.arange(2 * len(window) + 1), 2 * m - 2)
        tk = seg_unit[end - 1]
        sine = seg_unit[a, 0, None] * tk[..., 1] - seg_unit[a, 1, None] * tk[..., 0]
        terms = []
        for run, (pv, ps), ds in zip((np.maximum.accumulate(sine, axis=1),
                                      np.maximum.accumulate(-sine, axis=1)), prefixes, dists):
            sup = np.where(run > 0.0, run, 0.0)  # from +0.0, which a -0.0 must not replace
            mass = (pv[end + 1] - pv[a, None]) + (ps[end] - ps[a, None])
            dist = np.maximum.accumulate(ds[key_at], axis=1)[:, 2 * window + 2]
            # (p / lam) d^(p-1) by Python's pow (np.power rounds differently), never inf * 0
            scale = np.zeros_like(dist)
            scale[eligible] = [p / lam * w if w else 0.0
                               for w in (d ** (p - 1.0) for d in dist[eligible].tolist())]
            terms.append(sup - np.multiply(scale, mass, out=np.zeros_like(mass), where=mass > 0.0))
        viol = np.maximum(*terms)
        viol[~eligible] = -np.inf
        value, row, k = _first_worst(viol)
        if worst is None or value > worst[0]:
            worst = (value, (int(a[row]), int(a[row]) + 1 + k))
    return TheoryCheck(
        "turn_direction", worst[0] <= ANGLE_TOL, 0.0, float(worst[0]), ANGLE_TOL,
        f"{int(np.sum(count))} eligible windows; worst {worst[1]} at violation {worst[0]:.3g}",
    )


def check_injectivity(c: Polyline, mu: DiscreteMeasure, p: float) -> TheoryCheck:
    """No self-intersections; reports tangent alignment at any double point.

    Segments closer than the measure's tie tolerance count as touching.
    """
    if c.dim != 2:
        return TheoryCheck("injectivity", None, None, None, None, "needs d=2")
    eps = tie_tolerance(diameter(mu))
    hits = self_intersections_2d(c, eps=eps)
    if not hits:
        return TheoryCheck("injectivity", True, 0.0, 0.0, eps, "no double points")
    details = []
    for h in hits[:8]:
        ta, tb = c.unit_tangents[h.seg_a], c.unit_tangents[h.seg_b]
        cross = abs(ta[0] * tb[1] - ta[1] * tb[0])
        dot = ta[0] * tb[0] + ta[1] * tb[1]
        align = "parallel" if cross <= 1e-6 and dot > 0 else (
            "antiparallel" if cross <= 1e-6 else "transversal")
        details.append(
            f"{h.kind} segs ({h.seg_a},{h.seg_b}) at ({h.point[0]:.4g},{h.point[1]:.4g})"
            f" tangents {align} (|sin|={cross:.2g})")
    extra = f" p={p}: double points contradict minimality" if p >= 2 else ""
    return TheoryCheck("injectivity", False, 0.0, float(len(hits)), eps,
                       "; ".join(details) + extra)


def full_report(mu: DiscreteMeasure, c: Polyline, p: float, lam: float) -> TheoryReport:
    """Run every certificate (with window sweeps) on one (measure, curve) pair.

    The plan is built once and shared by the window sweeps; the hull and
    the diameter are the measure's own, computed at most once.
    """
    validate_params(p, lam)
    in_range_at(mu, p)
    vertices_in_range(c.vertices)
    plan, _ = build_plan(mu, c)
    checks = [
        check_length_bound(mu, c, p, lam),
        check_hull_containment(mu, c),
        check_tv_bound(mu, c, p, lam),
        check_local_tv(mu, c, p, lam, plan=plan),
        turn_direction_sweep(mu, c, p, lam, plan=plan),
        check_injectivity(c, mu, p),
    ]
    return TheoryReport(tuple(checks))
