"""Certificates for geometric necessary conditions of minimizing curves.

Every check is a necessary condition for minimality, so FAIL on a fitted
curve is evidence of non-minimality, not a program error. Checks recompute
everything from their inputs and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import (
    Polyline,
    length,
    self_intersections_2d,
    turning_angles,
    tv_gamma_prime,
)
from .energy import validate_params
from .errors import PencurveError
from .measure import DiscreteMeasure, convex_hull_2d, diameter
from .projection import TransportPlan, build_plan

ANGLE_TOL = 5e-4  # radians; absorbs optimizer stationarity slack in angle checks


@dataclass(frozen=True)
class TheoryCheck:
    name: str
    passed: bool | None  # None = skipped
    bound: float | None
    observed: float | None
    tolerance: float | None
    detail: str = ""

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
    k = hull.shape[0]
    if k == 1:
        return np.linalg.norm(pts - hull[0], axis=1)
    if k == 2:
        return np.array([_dist_point_segment(x, hull[0], hull[1]) for x in pts])
    out = np.full(pts.shape[0], -np.inf)
    for i in range(k):
        a, b = hull[i], hull[(i + 1) % k]
        edge = b - a
        n = np.array([edge[1], -edge[0]]) / np.linalg.norm(edge)  # outward for CCW
        out = np.maximum(out, (pts - a) @ n)
    return out


def _dist_point_segment(x, a, b) -> float:
    ab = b - a
    t = float(np.clip(np.dot(x - a, ab) / np.dot(ab, ab), 0.0, 1.0))
    return float(np.linalg.norm(x - (a + t * ab)))


def project_to_hull(x: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Nearest point of the (possibly degenerate) convex polygon."""
    k = hull.shape[0]
    if k == 1:
        return hull[0].copy()
    if k == 2:
        a, b = hull
        ab = b - a
        t = float(np.clip(np.dot(x - a, ab) / np.dot(ab, ab), 0.0, 1.0))
        return a + t * ab
    if np.max(hull_edge_violations(x, hull)) <= 0.0:
        return np.asarray(x, dtype=float).copy()
    best, best_d = None, np.inf
    for i in range(k):
        a, b = hull[i], hull[(i + 1) % k]
        ab = b - a
        t = float(np.clip(np.dot(x - a, ab) / np.dot(ab, ab), 0.0, 1.0))
        cand = a + t * ab
        d = float(np.linalg.norm(x - cand))
        if d < best_d:
            best, best_d = cand, d
    return best


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def singleton_best_energy(mu: DiscreteMeasure, p: float) -> float:
    """Energy of the best single-point competitor (zero length).

    Candidates are every atom position plus the weighted mean; any single
    point is an admissible curve, so this is an upper bound for the optimal
    energy and hence for lambda * L of any minimizer.
    """
    X = mu.positions
    cands = np.vstack([X, (mu.masses / mu.total_mass) @ X])
    best = np.inf
    for start in range(0, len(cands), 16):  # blocks of 16 candidates: 16 x n temporaries
        Z = cands[start:start + 16]
        sq = np.zeros((len(Z), len(X)))
        for k in range(mu.dim):  # coordinate by coordinate, the order of a row norm
            diff = X[:, k] - Z[:, k, None]
            diff *= diff
            sq += diff
        np.power(np.sqrt(sq, out=sq), p, out=sq)
        best = min(best, float(np.min(np.sum(mu.masses * sq, axis=1))))
    return best


def check_length_bound(mu: DiscreteMeasure, c: Polyline, p: float, lam: float,
                       tol: float | None = None, diam: float | None = None) -> TheoryCheck:
    """lambda * L(curve) must not exceed the best singleton competitor's energy."""
    bound = singleton_best_energy(mu, p)
    observed = lam * length(c)
    if tol is None:
        tol = 1e-9 * max(1.0, bound)
    raw = (diameter(mu) if diam is None else diam) ** p * mu.total_mass
    return TheoryCheck(
        "length_bound", observed <= bound + tol, bound, observed, tol,
        f"raw bound lambda*L <= diam^p * mass = {raw:.6g}",
    )


def check_hull_containment(mu: DiscreteMeasure, c: Polyline, tol_rel: float = 1e-6,
                           hull: np.ndarray | None = None,
                           diam: float | None = None) -> TheoryCheck:
    """Every curve vertex must lie inside the convex hull of the atoms."""
    if mu.dim != 2 or c.dim != 2:
        return TheoryCheck("hull_containment", None, None, None, None, "needs d=2")
    hull = convex_hull_2d(mu) if hull is None else hull
    tol = tol_rel * max(diameter(mu, hull) if diam is None else diam, 1e-300)
    viol = hull_edge_violations(c.vertices, hull)
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
    if c.n_vertices == 1:
        return Polyline(project_to_hull(c.vertices[0], hull)[None, :])
    pts: list[np.ndarray] = []
    for a, b in zip(c.vertices[:-1], c.vertices[1:]):
        ts = {0.0, 1.0}
        for t in _hull_transition_params(a, b, hull):
            ts.add(t)
        for t in sorted(ts):
            q = project_to_hull(a + t * (b - a), hull)
            if not pts or np.linalg.norm(q - pts[-1]) > 0.0:
                pts.append(q)
    if not pts:  # every projection collapsed to one point
        pts = [project_to_hull(c.vertices[0], hull)]
    return Polyline(np.array(pts))


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


def check_tv_bound(mu: DiscreteMeasure, c: Polyline, p: float, lam: float,
                   tol: float = ANGLE_TOL, diam: float | None = None) -> TheoryCheck:
    """Total turning of the curve against the global mass/diameter bound."""
    bound = (p / lam) * (diameter(mu) if diam is None else diam) ** (p - 1.0) * mu.total_mass
    observed = tv_gamma_prime(c)
    return TheoryCheck("tv_global", observed <= bound + tol, bound, observed, tol)


def _window_mass_prefixes(plan: TransportPlan, m: int):
    at_vertex = plan.ia == plan.ib
    # bincount adds the weights one at a time in entry order
    wv = np.bincount(plan.ia[at_vertex], weights=plan.mass[at_vertex], minlength=m)
    ws = np.bincount(plan.ia[~at_vertex], weights=plan.mass[~at_vertex], minlength=m - 1)
    pv = np.concatenate([[0.0], np.cumsum(wv)])
    ps = np.concatenate([[0.0], np.cumsum(ws)])
    return pv, ps


def check_local_tv(mu: DiscreteMeasure, c: Polyline, p: float, lam: float,
                   plan: TransportPlan | None = None,
                   tol: float = ANGLE_TOL, diam: float | None = None) -> TheoryCheck:
    """Turning inside every vertex window against the mass projected there."""
    diam = diameter(mu) if diam is None else diam
    if plan is None:
        plan, _ = build_plan(mu, c, diam=diam)
    m = c.n_vertices
    if m < 3:
        return TheoryCheck("tv_local", True, None, 0.0, tol, "no interior vertex")
    coef = (p / lam) * diam ** (p - 1.0)
    angles = turning_angles(c)
    pa = np.concatenate([[0.0], np.cumsum(angles)])  # pa[j] = angles of vertices 1..j
    pv, ps = _window_mass_prefixes(plan, m)
    worst = (-np.inf, None)  # (violation, window)
    for a in range(m - 1):
        for b in range(a + 2, m):
            tv = pa[b - 1] - pa[a]  # interior vertices a+1..b-1
            sigma = (pv[b + 1] - pv[a]) + (ps[b] - ps[a])
            viol = tv - coef * sigma
            if viol > worst[0]:
                worst = (viol, (a, b))
    observed = worst[0]
    return TheoryCheck(
        "tv_local", observed <= tol, 0.0, float(observed), tol,
        f"worst window {worst[1]} exceeds its bound by {observed:.3g} rad"
        if observed > 0 else f"largest margin used at window {worst[1]}",
    )


def _entry_sides(mu: DiscreteMeasure, c: Polyline, plan: TransportPlan, eps_side: float):
    """Per entry: (below, above) boolean columns for the turn check.

    Side is the sign of tangent x (atom - target), against the target's
    segment or both segments at a vertex; ambiguous entries count on both
    sides, which can only loosen the resulting bound.
    """
    seg_unit = c.segment_vectors / c.segment_lengths[:, None]
    ia = plan.ia
    off = mu.positions - plan.point
    c1, c2 = (seg_unit[k][:, 0] * off[:, 1] - seg_unit[k][:, 1] * off[:, 0]
              for k in (np.where(ia == plan.ib, np.maximum(ia - 1, 0), ia),
                        np.minimum(ia, c.n_vertices - 2)))
    above = (c1 > eps_side) | (c2 > eps_side)
    below = (c1 < -eps_side) | (c2 < -eps_side)
    # on the curve, or straddling a vertex tangent wedge
    both = (above == below) | (np.minimum(np.abs(c1), np.abs(c2)) <= eps_side)
    return below | both, above | both


def _running(op, values: np.ndarray) -> np.ndarray:
    """0.0, then op applied cumulatively in entry order (sums add one entry at a time)."""
    return np.concatenate([[0.0], op.accumulate(values)])


def turn_direction_sweep(mu: DiscreteMeasure, c: Polyline, p: float, lam: float,
                         plan: TransportPlan | None = None,
                         tol: float = ANGLE_TOL, diam: float | None = None) -> TheoryCheck:
    """Worst turn-direction violation over all eligible (TV < 1/2) windows."""
    if c.dim != 2:
        return TheoryCheck("turn_direction", None, None, None, None, "needs d=2")
    diam = diameter(mu) if diam is None else diam
    if plan is None:
        plan, _ = build_plan(mu, c, diam=diam)
    m = c.n_vertices
    if m < 2:
        return TheoryCheck("turn_direction", True, 0.0, 0.0, tol, "no segment")
    # entries in curve order: vertex j has key 2j, segment j key 2j + 1, so
    # window (a, b) holds keys 2a..2b
    key = plan.ia + plan.ib
    order = np.argsort(key, kind="stable")
    key = key[order]
    sides = [(np.where(side, plan.mass, 0.0)[order], np.where(side, plan.dist, 0.0)[order])
             for side in _entry_sides(mu, c, plan, 1e-9 * diam)]
    angles = turning_angles(c)
    seg_unit = c.segment_vectors / c.segment_lengths[:, None]
    coef = p / lam
    worst = (-np.inf, None)
    checked = 0
    for a in range(m - 1):
        first = np.searchsorted(key, 2 * a)
        ends = np.searchsorted(key, 2 * np.arange(a, m), side="right") - first
        (mass_below, d_below), (mass_above, d_above) = (
            (_running(np.add, ms[first:])[ends].tolist(),
             _running(np.maximum, ds[first:])[ends].tolist())
            for ms, ds in sides)
        t0 = seg_unit[a]
        sup_up = sup_down = 0.0
        tv = 0.0
        for b in range(a + 1, m):
            # window (a, b) adds segment b-1 and vertex b: totals at ends[b - a]
            if b >= a + 2:
                tv += angles[b - 2]
                if tv >= 0.5:
                    break
            tk = seg_unit[b - 1]
            sine = t0[0] * tk[1] - t0[1] * tk[0]
            sup_up = max(sup_up, sine)
            sup_down = max(sup_down, -sine)
            k = b - a
            viol = max(sup_up - coef * d_below[k] ** (p - 1.0) * mass_below[k],
                       sup_down - coef * d_above[k] ** (p - 1.0) * mass_above[k])
            checked += 1
            if viol > worst[0]:
                worst = (viol, (a, b))
    if worst[1] is None:
        return TheoryCheck("turn_direction", True, 0.0, 0.0, tol, "no eligible window")
    return TheoryCheck(
        "turn_direction", worst[0] <= tol, 0.0, float(worst[0]), tol,
        f"{checked} eligible windows; worst {worst[1]} at violation {worst[0]:.3g}",
    )


def check_injectivity(c: Polyline, mu: DiscreteMeasure | None = None,
                      p: float | None = None, eps: float | None = None) -> TheoryCheck:
    """No self-intersections; reports tangent alignment at any double point."""
    if c.dim != 2:
        return TheoryCheck("injectivity", None, None, None, None, "needs d=2")
    if eps is None:
        scale = diameter(mu) if mu is not None else max(c.total_length, 1.0)
        eps = 1e-9 * scale
    hits = self_intersections_2d(c, eps=eps)
    if not hits:
        return TheoryCheck("injectivity", True, 0.0, 0.0, eps, "no double points")
    details = []
    seg_unit = c.segment_vectors / c.segment_lengths[:, None]
    for h in hits[:8]:
        ta, tb = seg_unit[h.seg_a], seg_unit[h.seg_b]
        cross = abs(ta[0] * tb[1] - ta[1] * tb[0])
        dot = float(np.dot(ta, tb))
        align = "parallel" if cross <= 1e-6 and dot > 0 else (
            "antiparallel" if cross <= 1e-6 else "transversal")
        details.append(
            f"{h.kind} segs ({h.seg_a},{h.seg_b}) at ({h.point[0]:.4g},{h.point[1]:.4g})"
            f" tangents {align} (|sin|={cross:.2g})")
    extra = f" p={p}: double points contradict minimality" if (p or 0) >= 2 else ""
    return TheoryCheck("injectivity", False, 0.0, float(len(hits)), eps,
                       "; ".join(details) + extra)


def full_report(mu: DiscreteMeasure, c: Polyline, p: float, lam: float,
                diam: float | None = None, hull: np.ndarray | None = None) -> TheoryReport:
    """Run every certificate (with window sweeps) on one (measure, curve) pair.

    The 2-D hull, the diameter and the plan are computed once and shared by
    the checks; a caller that holds diam and hull (fit does) passes them.
    """
    validate_params(p, lam)
    if hull is None and mu.dim == 2:
        hull = convex_hull_2d(mu)
    if diam is None:
        diam = diameter(mu, hull)
    plan, _ = build_plan(mu, c, diam=diam)
    checks = [
        check_length_bound(mu, c, p, lam, diam=diam),
        check_hull_containment(mu, c, hull=hull, diam=diam),
        check_tv_bound(mu, c, p, lam, diam=diam),
        check_local_tv(mu, c, p, lam, plan=plan, diam=diam),
        turn_direction_sweep(mu, c, p, lam, plan=plan, diam=diam),
        check_injectivity(c, mu, p, eps=1e-9 * diam),
    ]
    return TheoryReport(tuple(checks))
