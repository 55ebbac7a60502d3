"""Penalized average-distance energy, its vertex gradient, stationarity residuals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import Polyline
from .errors import ConfigError, NonSmoothPointError
from .measure import DiscreteMeasure, diameter, tie_tolerance
from .projection import TransportPlan, build_plan


def validate_params(p: float, lam: float) -> None:
    """Raise ConfigError unless p >= 1 and lambda > 0, both finite."""
    if not (p >= 1.0 and math.isfinite(p)):
        raise ConfigError(f"p must be finite and >= 1, got {p}")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ConfigError(f"lambda must be finite and > 0, got {lam}")


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
    """Exact discrete energy with deterministic (atom-ordered) summation."""
    validate_params(p, lam)
    if plan is None:
        plan, _ = build_plan(mu, c)
    fidelity = float(np.sum(mu.masses * plan.dist**p))
    length_term = lam * c.total_length
    return EnergyBreakdown(fidelity, length_term, fidelity + length_term)


def _entry_offsets(V: np.ndarray, plan: TransportPlan, X: np.ndarray):
    """Per plan entry: barycentric weights (1-t, t), offset x - y and its length r.

    y = (1-t) V[ia] + t V[ib] is the entry's target, held affine in V. The
    entry's atom sits on its target when r <= the measure's tie tolerance.
    """
    wa, wb = 1.0 - plan.t, plan.t
    y = wa[:, None] * V[plan.ia] + wb[:, None] * V[plan.ib]
    diff = X - y
    return wa, wb, diff, np.linalg.norm(diff, axis=1)


def _entry_weight(r: np.ndarray, mass: np.ndarray, p: float, eps_clamp: float) -> np.ndarray:
    """Per plan entry: mass * p * r^(p-2), r clamped below eps_clamp when p < 2.

    At r = 0 the offset vanishes too, so p >= 2 needs no guard (0^0 is 1
    for p = 2).
    """
    if p >= 2.0:
        return p * r ** (p - 2.0) * mass
    return p * np.maximum(r, eps_clamp) ** (p - 2.0) * mass


def _entry_kernel(r: np.ndarray, mass: np.ndarray, p: float, eps_clamp: float) -> np.ndarray:
    """Per plan entry: the pull per unit of offset x - y, the weight above.

    A p = 1 entry with r <= eps_clamp gets kernel 0: its pull is a
    subgradient, bounded by its mass. Value-only evaluations skip this, so
    it is apart from the offsets.
    """
    kern = _entry_weight(r, mass, p, eps_clamp)
    if p == 1.0:
        kern = np.where(r <= eps_clamp, 0.0, kern)
    return kern


def _first_variation(V: np.ndarray, plan: TransportPlan, wa: np.ndarray, wb: np.ndarray,
                     diff: np.ndarray, kern: np.ndarray, lam: float) -> np.ndarray:
    """Vertex gradient of the fixed-plan objective, before any p = 1 shrink.

    Each entry's pull kernel * (x - y) at its target y enters with a minus
    sign, split onto the segment's vertices by the barycentric weights;
    each segment adds lambda times its unit tangent at its end, minus that
    at its start.
    """
    m = V.shape[0]
    grad = np.zeros_like(V)
    g_y = -kern[:, None] * diff
    np.add.at(grad, plan.ia, wa[:, None] * g_y)
    np.add.at(grad, plan.ib, wb[:, None] * g_y)
    if m > 1:
        seg = np.diff(V, axis=0)
        seg_len = np.linalg.norm(seg, axis=1)
        unit = seg / np.maximum(seg_len, 1e-300)[:, None]
        unit[seg_len == 0.0] = 0.0
        np.subtract.at(grad, np.arange(m - 1), lam * unit)
        np.add.at(grad, np.arange(1, m), lam * unit)
    return grad


def _ties(plan: TransportPlan, r: np.ndarray, eps: float, pull: np.ndarray):
    """Vertex ties: the entries whose atom sits on their vertex (r <= eps, ia == ib).

    Returns that entry mask and, per vertex, the mass sitting on it and the
    length of its pull (first variation without those atoms). At p = 1 a
    vertex with atoms on it is stationary when its pull is at most that
    mass; the difference is its slack.
    """
    on = (r <= eps) & (plan.ia == plan.ib)
    tied_mass = np.zeros(len(pull))
    np.add.at(tied_mass, plan.ia[on], plan.mass[on])
    return on, tied_mass, np.linalg.norm(pull, axis=1)


def fixed_plan_value_grad(
    V: np.ndarray,
    plan: TransportPlan,
    X: np.ndarray,
    p: float,
    lam: float,
    eps_clamp: float,
    want_grad: bool = True,
):
    """Value and vertex gradient of the fixed-plan objective.

    The objective keeps every entry's target as the affine point
    (1-t) * V[ia] + t * V[ib] while vertices move; it upper-bounds the true
    energy and coincides with it at the plan's construction point. For
    p = 1 the pull of a coincident (tied) entry is dropped and the vertex
    gradient is shrunk by the tied mass, which is the exact steepest
    descent direction of the nonsmooth convex objective.
    """
    m = V.shape[0]
    mass = plan.mass
    wa, wb, diff, r = _entry_offsets(V, plan, X)
    value = float(np.sum(mass * r**p))
    seg_len = np.linalg.norm(np.diff(V, axis=0), axis=1) if m > 1 else np.zeros(0)
    value += lam * float(np.sum(seg_len))
    if not want_grad:
        return value, None

    kern = _entry_kernel(r, mass, p, eps_clamp)
    grad = _first_variation(V, plan, wa, wb, diff, kern, lam)
    if p == 1.0 and np.any(r <= eps_clamp):
        _, tied_mass, norms = _ties(plan, r, eps_clamp, grad)
        j = np.nonzero(tied_mass > 0)[0]
        tm, nj = tied_mass[j], norms[j]
        grad[j] = np.where((nj <= tm)[:, None], 0.0,
                           (1.0 - tm / np.maximum(nj, tm))[:, None] * grad[j])
    return value, grad


def fixed_plan_majoriser(
    V: np.ndarray,
    plan: TransportPlan,
    X: np.ndarray,
    p: float,
    lam: float,
    eps_clamp: float,
):
    """Quadratic model of the fixed-plan objective at V, as the system A V* = B.

    Each entry's mass * r^p becomes (w / 2) |x - y|^2 with w the entry
    weight at the current r (clamped below eps_clamp). A tied p = 1 entry
    keeps its clamped weight, which pins its vertex to the atom, unless the
    other pulls on that vertex outweigh the tied mass (negative slack): then
    it gets weight 0 so that the vertex can leave the atom. Each
    lambda |s_j| becomes lambda |s_j|^2 / (2 max(|s_j|, eps_clamp)). Where
    nothing is clamped the model's gradient at V is the objective's; for
    p <= 2 the model also lies above the objective, so its minimiser V*
    cannot raise it. An entry couples only vertices ia and ib = ia or ia + 1
    and a segment only its two ends, so the model is isotropic with one
    symmetric tridiagonal m x m matrix A shared by all d coordinates.
    """
    m = V.shape[0]
    ia, ib = plan.ia, plan.ib
    wa, wb, diff, r = _entry_offsets(V, plan, X)
    w = _entry_weight(r, plan.mass, p, eps_clamp)
    if p == 1.0 and np.any(r <= eps_clamp):
        pull = _first_variation(V, plan, wa, wb, diff,
                                _entry_kernel(r, plan.mass, p, eps_clamp), lam)
        on, tied_mass, norms = _ties(plan, r, eps_clamp, pull)
        w = np.where(on & (norms > tied_mass)[ia], 0.0, w)
    k = np.arange(m - 1)
    seg_len = np.linalg.norm(np.diff(V, axis=0), axis=1)
    c = lam / np.maximum(seg_len, eps_clamp)
    rows = np.concatenate((ia, ib, ia, ib, k, k + 1, k, k + 1))
    cols = np.concatenate((ia, ib, ib, ia, k, k + 1, k + 1, k))
    vals = np.concatenate((w * wa * wa, w * wb * wb, w * wa * wb, w * wa * wb, c, c, -c, -c))
    A = np.bincount(rows * m + cols, vals, minlength=m * m).reshape(m, m)
    ends = np.concatenate((ia, ib))
    pull = np.concatenate((w * wa, w * wb))
    Xe = np.concatenate((X, X))
    B = np.stack([np.bincount(ends, pull * Xe[:, q], minlength=m) for q in range(X.shape[1])],
                 axis=1)
    return A, B


def fixed_plan_hessian(
    V: np.ndarray,
    plan: TransportPlan,
    X: np.ndarray,
    p: float,
    lam: float,
    eps_clamp: float,
) -> np.ndarray:
    """Dense Hessian of the fixed-plan objective, stacked over vertices.

    Fidelity blocks are w * p * r^(p-2) (I + (p-2) u u^T) pushed through the
    barycentric target map; each segment contributes the usual
    lam / |s| (I - s s^T / |s|^2) curvature. Positive semidefinite since the
    objective is convex; p = 1 kinks are clamped like the gradient.
    """
    m, d = V.shape
    wa, wb, diff, r = _entry_offsets(V, plan, X)
    kern = _entry_kernel(r, plan.mass, p, eps_clamp)
    u = diff / np.maximum(r, eps_clamp)[:, None]
    hy = kern[:, None, None] * (np.eye(d) + (p - 2.0) * u[:, :, None] * u[:, None, :])
    ends = ((plan.ia, wa), (plan.ib, wb))
    H = np.zeros((m, m, d, d))  # H[i, j] is the d x d block of vertices i and j
    for i, wi in ends:
        for j, wj in ends:
            np.add.at(H, (i, j), (wi * wj)[:, None, None] * hy)
    if m > 1:
        s = np.diff(V, axis=0)
        ln = np.linalg.norm(s, axis=1)
        inv = np.divide(1.0, ln, out=np.zeros_like(ln), where=ln > 0.0)
        u = s * inv[:, None]
        hseg = (lam * inv)[:, None, None] * (np.eye(d) - u[:, :, None] * u[:, None, :])
        k = np.arange(m - 1)
        for i, j, sign in ((k, k, 1.0), (k + 1, k + 1, 1.0), (k, k + 1, -1.0), (k + 1, k, -1.0)):
            H[i, j] += sign * hseg
    return H.transpose(0, 2, 1, 3).reshape(m * d, m * d)


def gradient(
    mu: DiscreteMeasure,
    c: Polyline,
    p: float,
    lam: float,
    plan: TransportPlan | None = None,
) -> np.ndarray:
    """Gradient of the total energy with respect to each vertex.

    The assignment is held fixed (it is locally constant away from ties,
    so this is the true gradient at smooth points). Raises at a p = 1 kink
    where an atom sits on its target.
    """
    validate_params(p, lam)
    eps_tie = tie_tolerance(diameter(mu))
    if plan is None:
        plan, _ = build_plan(mu, c)
    V = np.array(c.vertices)
    if p == 1.0 and np.any(_entry_offsets(V, plan, mu.positions)[3] <= eps_tie):
        raise NonSmoothPointError(
            "p=1 gradient at a coincident atom-target pair; use stationarity_report"
        )
    _, grad = fixed_plan_value_grad(V, plan, mu.positions, p, lam, eps_tie)
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

    A free vertex of a stationary curve must have residual zero; a tied
    vertex with p = 1 must instead satisfy |residual| <= the mass of the
    atoms sitting on it, whose pulls the residual leaves out (reported as
    a nonnegative slack).
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
    slack = tied mass - |residual| instead of a free residual.
    """
    validate_params(p, lam)
    if plan is None:
        plan, _ = build_plan(mu, c)
    eps_tie = tie_tolerance(diameter(mu))
    m = c.n_vertices
    wa, wb, diff, r = _entry_offsets(c.vertices, plan, mu.positions)
    kern = _entry_kernel(r, plan.mass, p, eps_tie)
    residual = -_first_variation(c.vertices, plan, wa, wb, diff, kern, lam)
    on, tied_mass, norms = _ties(plan, r, eps_tie, residual)
    tied_atoms: list[int | None] = [None] * m
    sitting = np.nonzero(on)[0]
    for k in reversed(sitting[np.argsort(r[sitting], kind="stable")].tolist()):
        tied_atoms[plan.ia[k]] = k  # the last write per vertex is its nearest atom

    rows = []
    for j in range(m):
        kind = "interior" if 0 < j < m - 1 else "endpoint"
        tied_atom = tied_atoms[j]
        status = "tied" if tied_atom is not None else "free"
        slack = float(tied_mass[j] - norms[j]) if p == 1.0 and tied_atom is not None else None
        rows.append(VertexResidual(j, kind, status, tied_atom, residual[j], float(norms[j]), slack))
    max_free = max((v.residual_norm for v in rows if v.status == "free"), default=0.0)
    min_slack = min((v.slack for v in rows if v.slack is not None), default=None)
    return StationarityReport(tuple(rows), max_free, min_slack, p, lam)
