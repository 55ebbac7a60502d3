"""Penalized average-distance energy, its vertex gradient, stationarity residuals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import Polyline, axis_norms
from .errors import ConfigError, NonSmoothPointError
from .measure import DiscreteMeasure, diameter, in_range_at, tie_tolerance
from .projection import TransportPlan, build_plan


def validate_params(p: float, lam: float) -> None:
    """Raise ConfigError unless p >= 1 and lambda > 0, both finite."""
    if not (p >= 1.0 and math.isfinite(p)):
        raise ConfigError(f"p must be finite and >= 1, got {p}")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ConfigError(f"lambda must be finite and > 0, got {lam}")


def validate_count(name: str, value) -> int:
    """value as an int; ConfigError unless it is an integer (numpy integers included)."""
    if not hasattr(value, "__index__"):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class EnergyBreakdown:
    """fidelity = sum of mass * distance^p, length_term = lambda * L."""

    fidelity: float
    length_term: float
    total: float

    def to_dict(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "length_term": self.length_term,
            "total": self.total,
        }


def energy(
    mu: DiscreteMeasure,
    c: Polyline,
    p: float,
    lam: float,
    plan: TransportPlan | None = None,
) -> EnergyBreakdown:
    """Exact discrete energy with deterministic (atom-ordered) summation.

    Without a plan, the measure must be in the range of `in_range_at`.
    """
    validate_params(p, lam)
    if plan is None:
        plan, _ = build_plan(in_range_at(mu, p), c)
    fidelity = float((mu.masses * plan.dist**p).sum())
    length_term = lam * c.total_length
    return EnergyBreakdown(fidelity, length_term, fidelity + length_term)


def _entry_offsets(V: np.ndarray, plan: TransportPlan, X: np.ndarray):
    """Per plan entry: weights (1-t, t), offset x - y and its length r; V's segments and lengths.

    y = (1-t) V[ia] + t V[ib] is the entry's target, held affine in V; its
    atom sits on it when r <= the measure's tie tolerance. The fixed-plan
    kernels take these pieces, so that each point of a solver computes them once.
    """
    wa, wb = plan.weights
    y = wa[:, None] * V.take(plan.ia, axis=0) + wb[:, None] * V.take(plan.ib, axis=0)
    diff, seg = X - y, V[1:] - V[:-1]
    return wa, wb, diff, axis_norms(diff), seg, axis_norms(seg)


def _entry_weight(r: np.ndarray, mass: np.ndarray, p: float, eps_clamp: float) -> np.ndarray:
    """Per plan entry: mass * p * r^(p-2), r clamped below eps_clamp when p < 2.

    At r = 0 the offset vanishes too, so p >= 2 needs no guard (0^0 is 1
    for p = 2).
    """
    if p >= 2.0:
        return p * r ** (p - 2.0) * mass
    return p * np.maximum(r, eps_clamp) ** (p - 2.0) * mass


def _entry_kernel(w: np.ndarray, r: np.ndarray, p: float, eps_clamp: float) -> np.ndarray:
    """Per plan entry: the pull per unit of offset x - y, the entry weight w of _entry_weight.

    A p = 1 entry with r <= eps_clamp gets kernel 0: its pull is a
    subgradient, bounded by its mass.
    """
    return np.where(r <= eps_clamp, 0.0, w) if p == 1.0 else w


def _first_variation(V: np.ndarray, plan: TransportPlan, offsets: tuple, kern: np.ndarray,
                     lam: float) -> np.ndarray:
    """Vertex gradient of the fixed-plan objective, before any p = 1 shrink.

    Each entry's pull kernel * (x - y) at its target y enters with a minus
    sign, split onto the segment's vertices by the barycentric weights;
    each segment adds lambda times its unit tangent at its end, minus that
    at its start. A bincount per coordinate over plan.ends adds each
    vertex's terms in that order, as np.add.at would.
    """
    wa, wb, diff, _, seg, seg_len = offsets
    unit = np.divide(seg, seg_len[:, None], out=np.zeros(seg.shape), where=seg_len[:, None] > 0.0)
    unit *= lam  # lambda times each unit tangent
    neg, grad = -kern, np.empty(V.shape)
    for q in range(V.shape[1]):
        g_y, tangent = neg * diff[:, q], unit[:, q]
        grad[:, q] = np.bincount(plan.ends, np.concatenate((wa * g_y, wb * g_y, -tangent, tangent)),
                                 minlength=len(V))
    return grad


def _ties(plan: TransportPlan, r: np.ndarray, eps: float, pull: np.ndarray):
    """Vertex ties: the entries whose atom sits on their vertex target (r <= eps).

    Returns that entry mask and, per vertex, the mass sitting on it and the
    length of its pull (first variation without those atoms). At p = 1 a
    vertex with atoms on it is stationary when its pull is at most that
    mass; the difference is its slack.
    """
    on = (r <= eps) & plan.at_vertex
    tied_mass = np.bincount(plan.ia[on], plan.mass[on], minlength=len(pull))
    return on, tied_mass, axis_norms(pull)


def _fixed_plan_grad(V: np.ndarray, plan: TransportPlan, p: float, lam: float,
                     eps_clamp: float, offsets: tuple):
    """Vertex gradient of the fixed-plan objective and the next model's entry weights.

    For p = 1 the pull of a coincident (tied) entry is dropped and the
    vertex gradient is shrunk by the tied mass. The weights are
    _entry_weight's, except that at p = 1 a tied entry whose vertex the
    other pulls outweigh (negative slack) is released: its weight is 0,
    which is what the next majoriser needs of this point's pull.
    """
    r = offsets[3]
    w = _entry_weight(r, plan.mass, p, eps_clamp)
    grad = _first_variation(V, plan, offsets, _entry_kernel(w, r, p, eps_clamp), lam)
    if p == 1.0 and (r <= eps_clamp).any():
        on, tied_mass, norms = _ties(plan, r, eps_clamp, grad)
        w = np.where(on & (norms > tied_mass)[plan.ia], 0.0, w)
        j = (tied_mass > 0).nonzero()[0]
        tm, nj = tied_mass[j], norms[j]
        grad[j] = np.where((nj <= tm)[:, None], 0.0,
                           (1.0 - tm / np.maximum(nj, tm))[:, None] * grad[j])
    return grad, w


def fixed_plan_value_grad(
    V: np.ndarray,
    plan: TransportPlan,
    X: np.ndarray,
    p: float,
    lam: float,
    eps_clamp: float,
    want_grad: bool = True,
    offsets: tuple | None = None,
):
    """Value and vertex gradient of the fixed-plan objective.

    The objective keeps every entry's target as the affine point
    (1-t) * V[ia] + t * V[ib] while vertices move; it upper-bounds the true
    energy and coincides with it at the plan's construction point. For
    p = 1 the pull of a coincident (tied) entry is dropped and the vertex
    gradient is shrunk by the tied mass, which is the exact steepest
    descent direction of the nonsmooth convex objective.
    """
    offsets = _entry_offsets(V, plan, X) if offsets is None else offsets
    value = float((plan.mass * offsets[3]**p).sum()) + lam * float(offsets[5].sum())
    if not want_grad:
        return value, None
    return value, _fixed_plan_grad(V, plan, p, lam, eps_clamp, offsets)[0]


def fixed_plan_majoriser(plan: TransportPlan, X: np.ndarray, lam: float, eps_clamp: float,
                         offsets: tuple, weights: np.ndarray):
    """Quadratic model of the fixed-plan objective at V, as bands of the system A V* = B.

    Each entry's mass * r^p becomes (w / 2) |x - y|^2, w its entry weight
    (r clamped below eps_clamp) in weights, _fixed_plan_grad's at this
    point. A tied p = 1 entry keeps its clamped weight, which pins its
    vertex to the atom, unless it is released (the other pulls outweigh
    the tied mass): then its weight is 0 and the vertex can leave it. Each
    lambda |s_j| becomes lambda |s_j|^2 / (2 max(|s_j|, eps_clamp)). Where
    nothing is clamped the model's gradient at V is the objective's; for
    p <= 2 the model also lies above the objective, so its minimiser V*
    cannot raise it. An entry couples only vertices ia and ib = ia or
    ia + 1 and a segment only its two ends, so the model is isotropic with
    one symmetric tridiagonal matrix A shared by all d coordinates. Returns
    (diag, upper, B): A's diagonal and superdiagonal and the (m, d) right
    side; a vertex target's off-diagonal term, w * 1 * 0, is left out. V
    enters only through offsets, its `_entry_offsets`; m is plan.n_vertices.
    """
    m = plan.n_vertices
    wa, wb, _, _, _, seg_len = offsets
    pa, pb = weights * wa, weights * wb
    c = lam / np.maximum(seg_len, eps_clamp)
    diag = np.bincount(plan.ends, np.concatenate((pa * wa, pb * wb, c, c)), minlength=m)
    upper = np.bincount(plan.upper_ends, np.concatenate(((pa * wb)[plan.in_segment], -c)),
                        minlength=m - 1)
    ends, B = plan.ends[: 2 * len(pa)], np.empty((m, X.shape[1]))
    for q in range(X.shape[1]):
        x = X[:, q]
        B[:, q] = np.bincount(ends, np.concatenate((pa * x, pb * x)), minlength=m)
    return diag, upper, B


def fixed_plan_hessian(V: np.ndarray, plan: TransportPlan, p: float, lam: float,
                       eps_clamp: float, offsets: tuple) -> np.ndarray:
    """Dense Hessian of the fixed-plan objective at V, stacked over vertices.

    Fidelity blocks are w * p * r^(p-2) (I + (p-2) u u^T) pushed through the
    barycentric target map; each segment contributes the usual
    lam / |s| (I - s s^T / |s|^2) curvature. Positive semidefinite since the
    objective is convex; p = 1 kinks are clamped like the gradient. A
    bincount per coordinate pair adds each cell's terms: on the diagonal,
    over plan.ends, the ia terms, the ib terms, then the segment terms; off
    it, over plan.upper_ends, the segment targets' cross terms, then the
    segment terms.
    """
    m, d = V.shape
    wa, wb, diff, r, s, ln = offsets
    kern = _entry_kernel(_entry_weight(r, plan.mass, p, eps_clamp), r, p, eps_clamp)
    u = diff / np.maximum(r, eps_clamp)[:, None]
    inv = np.divide(1.0, ln, out=np.zeros(ln.shape), where=ln > 0.0)
    us = s * inv[:, None]
    upper, inner = plan.upper_ends * (m + 1), plan.in_segment
    cells = np.concatenate((plan.ends * (m + 1), upper + 1, upper + m))  # (i,i), (i,i+1), (i+1,i)
    waa, wbb, wab = wa * wa, wb * wb, (wa * wb)[inner]
    H = np.empty((d, d, m * m))  # H[a, b, i * m + j]: coordinates a, b of vertices i, j
    for a, b in np.ndindex(d, d):
        hy = kern * (float(a == b) + (p - 2.0) * u[:, a] * u[:, b])
        hseg = lam * inv * (float(a == b) - us[:, a] * us[:, b])
        cross = wab * hy[inner]
        terms = (waa * hy, wbb * hy, hseg, hseg, cross, -hseg, cross, -hseg)
        H[a, b] = np.bincount(cells, np.concatenate(terms), minlength=m * m)
    return H.reshape(d, d, m, m).transpose(2, 0, 3, 1).reshape(m * d, m * d)


def gradient(mu: DiscreteMeasure, c: Polyline, p: float, lam: float) -> np.ndarray:
    """Gradient of the total energy with respect to each vertex.

    The assignment is held fixed (it is locally constant away from ties,
    so this is the true gradient at smooth points). Raises at a p = 1 kink
    where an atom sits on its target, and outside the range of `in_range_at`.
    """
    validate_params(p, lam)
    plan, _ = build_plan(in_range_at(mu, p), c)
    eps_tie = tie_tolerance(diameter(mu))
    V = np.array(c.vertices)
    offsets = _entry_offsets(V, plan, mu.positions)
    if p == 1.0 and (offsets[3] <= eps_tie).any():
        raise NonSmoothPointError(
            "p=1 gradient at a coincident atom-target pair; use stationarity_report"
        )
    _, grad = fixed_plan_value_grad(V, plan, mu.positions, p, lam, eps_tie, offsets=offsets)
    return grad


@dataclass(frozen=True)
class VertexResidual:
    index: int
    position_kind: str  # "endpoint" or "interior"
    status: str  # "free" or "tied"
    tied_atom: int | None
    residual: np.ndarray
    residual_norm: float
    slack: float | None  # tied mass - |residual|, p=1 tied only

    def to_dict(self) -> dict:
        out = {
            "index": self.index,
            "position": self.position_kind,
            "status": self.status,
            "residual": [float(x) for x in self.residual],
            "residual_norm": self.residual_norm,
        }
        if self.tied_atom is not None:
            out["tied_atom"] = self.tied_atom
        if self.slack is not None:
            out["slack"] = self.slack
        return out


@dataclass(frozen=True)
class StationarityReport:
    """First-variation residuals per vertex.

    A vertex of a stationary curve must have residual zero (the largest
    is max_free_residual), except a tied vertex with p = 1: it must instead
    satisfy |residual| <= the mass of the atoms sitting on it, whose pulls
    the residual leaves out (reported as a nonnegative slack).
    """

    vertices: tuple[VertexResidual, ...]
    max_free_residual: float
    min_tied_slack: float | None
    p: float
    lam: float

    def passes(self, tol: float) -> bool:
        ok = self.max_free_residual <= tol
        if self.min_tied_slack is not None:
            ok = ok and self.min_tied_slack >= -tol
        return ok

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "lambda": self.lam,
            "max_free_residual": self.max_free_residual,
            "vertices": [v.to_dict() for v in self.vertices],
        }
        if self.min_tied_slack is not None:
            out["min_tied_slack"] = self.min_tied_slack
        return out


def stationarity_report(
    mu: DiscreteMeasure,
    c: Polyline,
    p: float,
    lam: float,
    plan: TransportPlan | None = None,
) -> StationarityReport:
    """Evaluate the first-variation conditions on every vertex.

    Each plan entry pulls its target y, the foot of its atom x, with
    p * mass * |x - y|^(p-2) * (x - y), split onto the segment's vertices by
    the barycentric weights; each vertex adds lambda times the unit vectors
    toward its neighbours. The residual is therefore minus the fixed-plan
    gradient, equal to -gradient() wherever that is defined. A vertex is
    tied when an atom sits on it (within the tie tolerance); its tied atom
    is the nearest such atom, the first on ties. For p = 1 the pulls of
    atoms within the tie tolerance are left out, and a tied vertex reports
    slack = tied mass - |residual| instead of a free residual; at p > 1 an
    atom on its target pulls with 0, and every residual counts as free.
    Without a plan, the measure must be in the range of `in_range_at`.
    """
    validate_params(p, lam)
    if plan is None:
        plan, _ = build_plan(in_range_at(mu, p), c)
    eps_tie = tie_tolerance(diameter(mu))
    m = c.n_vertices
    off = _entry_offsets(c.vertices, plan, mu.positions)
    r = off[3]
    kern = _entry_kernel(_entry_weight(r, plan.mass, p, eps_tie), r, p, eps_tie)
    residual = -_first_variation(c.vertices, plan, off, kern, lam)
    on, tied_mass, norms = _ties(plan, r, eps_tie, residual)
    tied_mass, norms = tied_mass.tolist(), norms.tolist()
    tied_atoms: list[int | None] = [None] * m
    sitting = on.nonzero()[0]
    for k in reversed(sitting[r[sitting].argsort(kind="stable")].tolist()):
        tied_atoms[plan.ia[k]] = k  # the last write per vertex is its nearest atom

    rows = []
    for j in range(m):
        kind = "interior" if 0 < j < m - 1 else "endpoint"
        tied_atom = tied_atoms[j]
        status = "tied" if tied_atom is not None else "free"
        slack = tied_mass[j] - norms[j] if p == 1.0 and tied_atom is not None else None
        rows.append(VertexResidual(j, kind, status, tied_atom, residual[j], norms[j], slack))
    max_free = max((v.residual_norm for v in rows if v.slack is None), default=0.0)
    min_slack = min((v.slack for v in rows if v.slack is not None), default=None)
    return StationarityReport(tuple(rows), max_free, min_slack, p, lam)
