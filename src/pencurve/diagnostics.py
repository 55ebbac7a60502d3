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
    point_segment_foot,
    self_intersections_2d,
    turning_angles,
    tv_gamma_prime,
)
from .energy import _entry_offsets, validate_params
from .errors import PencurveError
from .measure import DiscreteMeasure, convex_hull_2d, diameter, tie_tolerance
from .projection import TransportPlan, build_plan

ANGLE_TOL = 5e-4  # radians; absorbs optimizer stationarity slack in angle checks
HULL_TOL_REL = 1e-6  # outside distance a vertex may have, relative to the diameter


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
    k = hull.shape[0]
    if k == 1:
        return np.linalg.norm(pts - hull[0], axis=1)
    if k == 2:
        return np.array([point_segment_foot(x, hull[0], hull[1])[0] for x in pts])
    out = np.full(pts.shape[0], -np.inf)
    for i in range(k):
        a, b = hull[i], hull[(i + 1) % k]
        edge = b - a
        n = np.array([edge[1], -edge[0]]) / np.linalg.norm(edge)  # outward for CCW
        out = np.maximum(out, (pts - a) @ n)
    return out


def project_to_hull(x: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Nearest point of the (possibly degenerate) convex polygon."""
    k = hull.shape[0]
    if k == 1:
        return hull[0].copy()
    if k == 2:
        return point_segment_foot(x, hull[0], hull[1])[1]
    if np.max(hull_edge_violations(x, hull)) <= 0.0:
        return np.asarray(x, dtype=float).copy()
    best, best_d = None, np.inf
    for i in range(k):
        d, cand = point_segment_foot(x, hull[i], hull[(i + 1) % k])
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


def check_length_bound(mu: DiscreteMeasure, c: Polyline, p: float, lam: float) -> TheoryCheck:
    """lambda * L(curve) must not exceed the best singleton competitor's energy."""
    bound = singleton_best_energy(mu, p)
    observed = lam * length(c)
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


def check_tv_bound(mu: DiscreteMeasure, c: Polyline, p: float, lam: float) -> TheoryCheck:
    """Total turning of the curve against the global mass/diameter bound."""
    bound = (p / lam) * diameter(mu) ** (p - 1.0) * mu.total_mass
    observed = tv_gamma_prime(c)
    return TheoryCheck("tv_global", observed <= bound + ANGLE_TOL, bound, observed, ANGLE_TOL)


def _window_mass_prefixes(plan: TransportPlan, m: int):
    at_vertex = plan.ia == plan.ib
    # bincount adds the weights one at a time in entry order
    wv = np.bincount(plan.ia[at_vertex], weights=plan.mass[at_vertex], minlength=m)
    ws = np.bincount(plan.ia[~at_vertex], weights=plan.mass[~at_vertex], minlength=m - 1)
    pv = np.concatenate([[0.0], np.cumsum(wv)])
    ps = np.concatenate([[0.0], np.cumsum(ws)])
    return pv, ps


def check_local_tv(mu: DiscreteMeasure, c: Polyline, p: float, lam: float,
                   plan: TransportPlan | None = None) -> TheoryCheck:
    """Turning inside every vertex window against the mass projected there.

    Windows (a, b) are swept one start a at a time, all ends b in one array
    step: O(m) memory. The first worst window in (a, b) order is reported.
    """
    if plan is None:
        plan, _ = build_plan(mu, c)
    m = c.n_vertices
    if m < 3:
        return TheoryCheck("tv_local", True, None, 0.0, ANGLE_TOL, "no interior vertex")
    coef = (p / lam) * diameter(mu) ** (p - 1.0)
    angles = turning_angles(c)
    pa = np.concatenate([[0.0], np.cumsum(angles)])  # pa[j] = angles of vertices 1..j
    pv, ps = _window_mass_prefixes(plan, m)
    worst = (-np.inf, None)  # (violation, window)
    for a in range(m - 2):
        b = np.arange(a + 2, m)
        tv = pa[b - 1] - pa[a]  # interior vertices a+1..b-1
        sigma = (pv[b + 1] - pv[a]) + (ps[b] - ps[a])
        viol = tv - coef * sigma
        k = int(np.argmax(viol))
        if viol[k] > worst[0]:
            worst = (viol[k], (a, a + 2 + k))
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
    seg_unit = c.segment_vectors / c.segment_lengths[:, None]
    ia = plan.ia
    off = _entry_offsets(c.vertices, plan, mu.positions)[2]
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
                         plan: TransportPlan | None = None) -> TheoryCheck:
    """Worst turn-direction violation over all eligible (TV < 1/2) windows.

    Windows (a, b) are swept one start a at a time, all eligible ends b in
    one array step. The first worst window in (a, b) order is reported.
    """
    if c.dim != 2:
        return TheoryCheck("turn_direction", None, None, None, None, "needs d=2")
    if plan is None:
        plan, _ = build_plan(mu, c)
    m = c.n_vertices
    if m < 2:
        return TheoryCheck("turn_direction", True, 0.0, 0.0, ANGLE_TOL, "no segment")
    # entries in curve order: vertex j has key 2j, segment j key 2j + 1, so
    # window (a, b) holds keys 2a..2b
    key = plan.ia + plan.ib
    order = np.argsort(key, kind="stable")
    key = key[order]
    sides = [(np.where(side, plan.mass, 0.0)[order], np.where(side, plan.dist, 0.0)[order])
             for side in _entry_sides(mu, c, plan, tie_tolerance(diameter(mu)))]
    # d^(p-1) by Python's pow, for every distance a window can hold (np.power rounds
    # differently)
    levels = np.unique(np.concatenate([[0.0], plan.dist]))
    powers = np.array([d ** (p - 1.0) for d in levels.tolist()])
    angles = turning_angles(c)
    seg_unit = c.segment_vectors / c.segment_lengths[:, None]
    coef = p / lam
    worst = (-np.inf, None)
    checked = 0
    for a in range(m - 1):
        # ends b = a + 1 .. a + n: window (a, b) turns by the sequential sum of
        # angles a .. b - 2, a nondecreasing prefix, and is eligible below 1/2
        n = 1 + int(np.searchsorted(np.cumsum(angles[a:]), 0.5))
        first = np.searchsorted(key, 2 * a)
        ends = np.searchsorted(key, 2 * np.arange(a + 1, a + n + 1), side="right") - first
        tk = seg_unit[a:a + n]
        sine = seg_unit[a, 0] * tk[:, 1] - seg_unit[a, 1] * tk[:, 0]
        terms = []
        for run, (ms, ds) in zip((np.maximum.accumulate(sine), np.maximum.accumulate(-sine)),
                                 sides):
            sup = np.where(run > 0.0, run, 0.0)  # from +0.0, which a -0.0 must not replace
            mass = _running(np.add, ms[first:first + ends[-1]])[ends]
            dist = _running(np.maximum, ds[first:first + ends[-1]])[ends]
            terms.append(sup - coef * powers[np.searchsorted(levels, dist)] * mass)
        viol = np.maximum(*terms)
        k = int(np.argmax(viol))
        checked += n
        if viol[k] > worst[0]:
            worst = (viol[k], (a, a + 1 + k))
    if worst[1] is None:
        return TheoryCheck("turn_direction", True, 0.0, 0.0, ANGLE_TOL, "no eligible window")
    return TheoryCheck(
        "turn_direction", worst[0] <= ANGLE_TOL, 0.0, float(worst[0]), ANGLE_TOL,
        f"{checked} eligible windows; worst {worst[1]} at violation {worst[0]:.3g}",
    )


def check_injectivity(c: Polyline, mu: DiscreteMeasure, p: float | None = None) -> TheoryCheck:
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


def full_report(mu: DiscreteMeasure, c: Polyline, p: float, lam: float) -> TheoryReport:
    """Run every certificate (with window sweeps) on one (measure, curve) pair.

    The plan is built once and shared by the window sweeps; the hull and
    the diameter are the measure's own, computed at most once.
    """
    validate_params(p, lam)
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
