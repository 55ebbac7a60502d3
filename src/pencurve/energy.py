"""Penalized average-distance energy, its vertex gradient, stationarity residuals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import Polyline
from .errors import ConfigError, NonSmoothPointError
from .measure import DiscreteMeasure, diameter
from .projection import TransportPlan, VertexClassification, build_plan


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
    atom_distances: np.ndarray

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
    diam: float | None = None,
) -> EnergyBreakdown:
    """Exact discrete energy with deterministic (atom-ordered) summation."""
    validate_params(p, lam)
    if plan is None:
        plan, _ = build_plan(mu, c, diam=diam)
    dists = plan.atom_distances()
    fidelity = float(np.sum(mu.masses * dists**p))
    length_term = lam * c.total_length
    return EnergyBreakdown(fidelity, length_term, fidelity + length_term, dists)


def _kernel_factor(r: np.ndarray, p: float, eps_clamp: float) -> np.ndarray:
    """p * r^(p-2), with r clamped below eps_clamp when p < 2.

    At r = 0 the pull vector (x - v) vanishes too, so p >= 2 needs no guard
    (0^0 evaluates to 1 for p = 2).
    """
    if p >= 2.0:
        return p * r ** (p - 2.0)
    return p * np.maximum(r, eps_clamp) ** (p - 2.0)


def fixed_plan_value_grad(
    V: np.ndarray,
    packed: dict,
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
    ia, ib, t = packed["ia"], packed["ib"], packed["t"]
    mass = packed["mass"]
    y = (1.0 - t)[:, None] * V[ia] + t[:, None] * V[ib]
    diff = X[packed["atom"]] - y
    r = np.linalg.norm(diff, axis=1)
    value = float(np.sum(mass * r**p))
    seg = np.diff(V, axis=0)
    seg_len = np.linalg.norm(seg, axis=1) if m > 1 else np.zeros(0)
    value += lam * float(np.sum(seg_len))
    if not want_grad:
        return value, None

    grad = np.zeros_like(V)
    tied_here = r <= eps_clamp
    factor = _kernel_factor(r, p, eps_clamp) * mass
    if p == 1.0:
        factor = np.where(tied_here, 0.0, factor)
    g_y = -factor[:, None] * diff
    np.add.at(grad, ia, (1.0 - t)[:, None] * g_y)
    np.add.at(grad, ib, t[:, None] * g_y)
    if m > 1:
        safe = np.maximum(seg_len, 1e-300)
        unit = seg / safe[:, None]
        unit[seg_len == 0.0] = 0.0
        np.subtract.at(grad, np.arange(m - 1), lam * unit)
        np.add.at(grad, np.arange(1, m), lam * unit)
    if p == 1.0 and np.any(tied_here):
        tied_mass = np.zeros(m)
        sel = tied_here & (ia == ib)
        np.add.at(tied_mass, ia[sel], mass[sel])
        norms = np.linalg.norm(grad, axis=1)
        for j in np.nonzero(tied_mass > 0)[0]:
            if norms[j] <= tied_mass[j]:
                grad[j] = 0.0
            else:
                grad[j] *= 1.0 - tied_mass[j] / norms[j]
    return value, grad


def fixed_plan_hessian(
    V: np.ndarray,
    packed: dict,
    X: np.ndarray,
    p: float,
    lam: float,
    eps_clamp: float,
    envelope: bool = False,
) -> np.ndarray:
    """Dense Hessian of the fixed-plan objective, stacked over vertices.

    Fidelity blocks are w * p * r^(p-2) (I + (p-2) u u^T) pushed through the
    barycentric target map; each segment contributes the usual
    lam / |s| (I - s s^T / |s|^2) curvature. Positive semidefinite since the
    objective is convex; p = 1 kinks are clamped like the gradient.

    With envelope=True, segment-interior entries get the Schur-complement
    correction from implicit differentiation of the foot parameter, giving
    the exact Hessian of the projected (moving-foot) distance. That matrix
    models the true energy and is what Newton polishing should use; it is
    no longer guaranteed positive semidefinite.
    """
    m, d = V.shape
    H = np.zeros((m * d, m * d))
    ia, ib, t = packed["ia"], packed["ib"], packed["t"]
    mass = packed["mass"]
    y = (1.0 - t)[:, None] * V[ia] + t[:, None] * V[ib]
    diff = y - X[packed["atom"]]
    r = np.linalg.norm(diff, axis=1)
    rc = np.maximum(r, eps_clamp)
    eye = np.eye(d)
    for k in range(len(mass)):
        if p == 1.0 and r[k] <= eps_clamp:
            continue
        u = diff[k] / rc[k]
        kern = mass[k] * p * rc[k] ** (p - 2.0)
        hy = kern * (eye + (p - 2.0) * np.outer(u, u))
        a, b = int(ia[k]), int(ib[k])
        wa, wb = 1.0 - t[k], t[k]
        for i, wi in ((a, wa), (b, wb)):
            for j, wj in ((a, wa), (b, wb)):
                if wi and wj:
                    H[i * d : (i + 1) * d, j * d : (j + 1) * d] += wi * wj * hy
        if envelope and a != b:
            s = V[b] - V[a]
            s2 = float(np.dot(s, s))
            if s2 > 0.0:
                rho = -diff[k]  # x - y, perpendicular to s at the foot
                va = wa * s + rho
                vb = wb * s - rho
                coef = kern / s2
                for (i, vi), (j, vj) in (((a, va), (a, va)), ((a, va), (b, vb)),
                                         ((b, vb), (a, va)), ((b, vb), (b, vb))):
                    H[i * d : (i + 1) * d, j * d : (j + 1) * d] -= coef * np.outer(vi, vj)
    for k in range(m - 1):
        s = V[k + 1] - V[k]
        ln = float(np.linalg.norm(s))
        if ln == 0.0:
            continue
        u = s / ln
        hseg = (lam / ln) * (eye - np.outer(u, u))
        for i, j, sign in ((k, k, 1.0), (k + 1, k + 1, 1.0), (k, k + 1, -1.0), (k + 1, k, -1.0)):
            H[i * d : (i + 1) * d, j * d : (j + 1) * d] += sign * hseg
    return H


def gradient(
    mu: DiscreteMeasure,
    c: Polyline,
    p: float,
    lam: float,
    plan: TransportPlan | None = None,
    eps_tie: float | None = None,
) -> np.ndarray:
    """Gradient of the total energy with respect to each vertex.

    The assignment is held fixed (it is locally constant away from ties,
    so this is the true gradient at smooth points). Raises at a p = 1 kink
    where an atom coincides with its target.
    """
    validate_params(p, lam)
    diam = diameter(mu)
    if eps_tie is None:
        eps_tie = 1e-9 * diam
    if plan is None:
        plan, _ = build_plan(mu, c, eps_tie=eps_tie, diam=diam)
    if p == 1.0 and np.any(plan.dist <= eps_tie):
        raise NonSmoothPointError(
            "p=1 gradient at a coincident atom-target pair; use stationarity_report"
        )
    _, grad = fixed_plan_value_grad(
        np.array(c.vertices), plan.packed, mu.positions, p, lam, eps_tie
    )
    return grad


@dataclass(frozen=True)
class VertexResidual:
    index: int
    position_kind: str  # "endpoint" or "interior"
    status: str  # "free" or "tied"
    tied_atom: int | None
    residual: np.ndarray
    residual_norm: float
    slack: float | None  # m_k - |residual without the tied atom|, p=1 tied only

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
    vertex with p = 1 must instead satisfy |residual without its atom's
    pull| <= that atom's mass (reported as a nonnegative slack).
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
    classification: VertexClassification | None = None,
    eps_tie: float | None = None,
) -> StationarityReport:
    """Evaluate the first-variation conditions on every vertex.

    Interior plan targets are first folded onto their segment's endpoints
    with barycentric weights, after which each vertex j accumulates pulls
    p * T_ij * (x_i - v_j) * |x_i - v_j|^(p-2) plus the unit vector(s)
    toward its neighbor(s) scaled by lambda.
    """
    validate_params(p, lam)
    if plan is None or classification is None:
        plan, classification = build_plan(mu, c, eps_tie=eps_tie, diam=None)
    eps_tie = classification.eps_tie
    m = c.n_vertices
    V = c.vertices
    X = mu.positions

    folded: list[dict[int, float]] = [dict() for _ in range(m)]
    for e in plan.entries:
        if e.target.is_vertex:
            shares = ((e.target.vertex, e.mass),)
        else:
            k = e.target.seg
            shares = ((k, e.mass * (1.0 - e.target.t)), (k + 1, e.mass * e.target.t))
        for j, w in shares:
            if w > 0.0:
                folded[j][e.atom] = folded[j].get(e.atom, 0.0) + w

    rows = []
    max_free = 0.0
    min_slack = None
    for j in range(m):
        lam_term = np.zeros(c.dim)
        if m > 1:
            for w_idx in ((j - 1, j + 1) if 0 < j < m - 1 else ((j + 1,) if j == 0 else (j - 1,))):
                delta = V[w_idx] - V[j]
                lam_term += lam * delta / np.linalg.norm(delta)
        kind = "interior" if 0 < j < m - 1 and m > 1 else "endpoint"
        tied_atom = classification.tied_atom[j]
        status = "tied" if tied_atom is not None else "free"

        def pull(i: int, w: float) -> np.ndarray:
            d = X[i] - V[j]
            r = float(np.linalg.norm(d))
            if r == 0.0:
                return np.zeros(c.dim)
            return p * w * d * r ** (p - 2.0)

        if p == 1.0 and tied_atom is not None:
            vec = lam_term.copy()
            for i, w in sorted(folded[j].items()):
                if i != tied_atom:
                    vec += pull(i, w)
            norm = float(np.linalg.norm(vec))
            slack = float(mu.masses[tied_atom]) - norm
            rows.append(VertexResidual(j, kind, status, tied_atom, vec, norm, slack))
            min_slack = slack if min_slack is None else min(min_slack, slack)
        else:
            vec = lam_term.copy()
            for i, w in sorted(folded[j].items()):
                vec += pull(i, w)
            norm = float(np.linalg.norm(vec))
            rows.append(VertexResidual(j, kind, status, tied_atom, vec, norm, None))
            if status == "free":
                max_free = max(max_free, norm)
    return StationarityReport(tuple(rows), max_free, min_slack, p, lam)
