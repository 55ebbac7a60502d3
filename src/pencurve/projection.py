"""Nearest-point projection of atoms onto a polyline: transport plan, talking sets."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .curve import Polyline
from .errors import DimensionMismatchError, PencurveError
from .measure import DiscreteMeasure, diameter

EPS_PROJ = 1e-12  # relative tolerance for listing tied nearest targets
TIE_RULES = ("first_arc_length", "split_evenly")


@dataclass(frozen=True)
class Target:
    """A point on the curve: a vertex, or a barycentric point inside a segment.

    vertex is None for interior targets; seg/t locate the point as
    (1-t) * v_seg + t * v_{seg+1} with t strictly inside (0, 1).
    """

    vertex: int | None
    seg: int | None
    t: float
    arc: float
    point: np.ndarray

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None


@dataclass(frozen=True)
class PlanEntry:
    atom: int
    mass: float
    distance: float
    target: Target


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Atom-to-curve mass assignment in entry columns; first marginal is the measure.

    Entry k sends mass[k] of atom[k] to point[k] = (1-t[k]) V[ia[k]] + t[k] V[ib[k]]
    (vertex targets: ia == ib, t == 0) at arc length arc[k]. Entries are
    grouped by atom, then arc length: the deterministic summation order.
    Only nearest targets carry mass, so every dist[k] is d(x_atom[k], curve).
    """

    atom: np.ndarray
    mass: np.ndarray
    dist: np.ndarray
    ia: np.ndarray
    ib: np.ndarray
    t: np.ndarray
    arc: np.ndarray
    point: np.ndarray
    n_atoms: int
    n_vertices: int

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.mass))

    def atom_distances(self) -> np.ndarray:
        """d(x_i, curve) per atom, in atom order."""
        out = np.zeros(self.n_atoms)
        out[self.atom] = self.dist
        return out

    @property
    def packed(self) -> dict:
        """The columns the fixed-plan value, gradient, MM system and Hessian read."""
        return {"atom": self.atom, "mass": self.mass, "dist": self.dist,
                "ia": self.ia, "ib": self.ib, "t": self.t}

    @property
    def entries(self) -> "PlanEntries":
        """Read-only PlanEntry view of the columns; len() builds no entry."""
        return PlanEntries(self)

    def to_dict(self) -> dict:
        groups: dict[int, list] = {}
        for e in self.entries:
            g = e.target
            tgt = {"kind": "vertex" if g.is_vertex else "segment", "mass": e.mass,
                   "distance": e.distance, "arc": g.arc}
            tgt.update({"vertex": g.vertex} if g.is_vertex else {"segment": g.seg, "t": g.t})
            groups.setdefault(e.atom, []).append(tgt)
        return {"atoms": [{"atom": i, "targets": groups[i]} for i in sorted(groups)]}


@dataclass(frozen=True)
class PlanEntries(Sequence):
    """A plan's entries as PlanEntry objects, each built when it is read."""

    plan: TransportPlan

    def __len__(self) -> int:
        return len(self.plan.atom)

    def __getitem__(self, k: int) -> PlanEntry:
        k = range(len(self))[k]
        pl = self.plan
        tgt = _target(pl.ia[k], pl.ib[k], pl.t[k], pl.arc[k], pl.point[k])
        return PlanEntry(int(pl.atom[k]), float(pl.mass[k]), float(pl.dist[k]), tgt)


@dataclass(frozen=True)
class VertexClassification:
    """Free/tied status and talking set for every curve vertex.

    A vertex is tied when an atom sits on it (within eps_tie) and sends its
    full mass there; talking[j] lists atoms with a plan entry at vertex j.
    """

    tied_atom: tuple  # per vertex: atom index or None
    talking: tuple  # per vertex: tuple of atom indices
    eps_tie: float

    def is_tied(self, j: int) -> bool:
        return self.tied_atom[j] is not None


def _segment_feet(x: np.ndarray, c: Polyline):
    """Per-segment nearest point to x: (t values, distances)."""
    a = c.vertices[:-1]
    vec = c.segment_vectors
    denom = np.einsum("ij,ij->i", vec, vec)
    t = np.clip(np.einsum("ij,ij->i", x[None, :] - a, vec) / denom, 0.0, 1.0)
    foot = a + t[:, None] * vec
    d = np.linalg.norm(x[None, :] - foot, axis=1)
    return t, d


def _target(ia, ib, t, arc, point) -> Target:
    ia, arc = int(ia), float(arc)
    if ia == ib:
        return Target(ia, None, 0.0, arc, point.copy())
    return Target(None, ia, float(t), arc, point.copy())


def _snap_targets(c: Polyline, seg: np.ndarray, t: np.ndarray, snap: float):
    """Columns (ia, ib, t, arc, point) of the feet at parameters t on segments seg.

    A foot within snap (in length) of its segment's start or end is
    reported as that vertex, with ia == ib and t == 0.
    """
    ln = c.segment_lengths[seg]
    lo = t * ln <= snap
    hi = ~lo & ((1.0 - t) * ln <= snap)
    inner = ~(lo | hi)
    ia = seg + hi
    ib = np.where(inner, seg + 1, ia)
    arc = np.where(inner, c.cumulative_lengths[seg] + t * ln, c.cumulative_lengths[ia])
    point = np.where(inner[:, None], c.vertices[seg] + t[:, None] * c.segment_vectors[seg],
                     c.vertices[ia])
    return ia, ib, np.where(inner, t, 0.0), arc, point


def project_point(x, c: Polyline, eps_abs: float = 0.0, snap: float = 0.0):
    """Distance from x to the curve and every nearest target achieving it.

    Targets within eps_abs of the global minimum are all listed, ordered by
    arc length; snap controls how close to a vertex a foot point must be to
    be reported as that vertex.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (c.dim,):
        raise DimensionMismatchError(f"point of shape {x.shape} vs curve dim {c.dim}")
    if c.n_vertices == 1:
        d = float(np.linalg.norm(x - c.vertices[0]))
        return d, [Target(0, None, 0.0, 0.0, c.vertices[0].copy())]
    t, d = _segment_feet(x, c)
    dmin = float(np.min(d))
    seg = np.nonzero(d <= dmin + eps_abs)[0]
    targets: dict = {}
    for row in zip(*_snap_targets(c, seg, t[seg], snap)):
        tgt = _target(*row)
        key = ("v", tgt.vertex) if tgt.is_vertex else ("s", tgt.seg, round(tgt.arc, 15))
        targets.setdefault(key, tgt)
    return dmin, sorted(targets.values(), key=lambda g: g.arc)


def _split_evenly(mu: DiscreteMeasure, c: Polyline, cols: list, split, eps_abs, snap) -> list:
    """cols with each atom in split replaced by one entry per nearest target."""
    found = [project_point(mu.positions[i], c, eps_abs=eps_abs, snap=snap)[1] for i in split]
    counts = np.ones(mu.n_atoms, dtype=np.int64)
    counts[split] = [len(tgts) for tgts in found]
    cols = [col[np.repeat(np.arange(mu.n_atoms), counts)] for col in cols]
    for i, start, tgts in zip(split, np.cumsum(counts)[split] - counts[split], found):
        for r, g in enumerate(tgts, start=start):
            j = g.vertex if g.is_vertex else g.seg
            cols[1][r] = mu.masses[i] / len(tgts)
            cols[3][r], cols[4][r], cols[5][r], cols[6][r], cols[7][r] = (
                j, j + (not g.is_vertex), g.t, g.arc, g.point)
    return cols


def build_plan(
    mu: DiscreteMeasure,
    c: Polyline,
    tie_rule: str = "first_arc_length",
    eps_tie: float | None = None,
    eps_proj: float = EPS_PROJ,
    diam: float | None = None,
):
    """Assign every atom's mass to its nearest curve target(s).

    tie_rule resolves atoms with several nearest targets: all mass to the
    smallest arc length, or an even split. Returns the plan and the per-
    vertex free/tied classification (eps_tie defaults to 1e-9 * diameter).
    Callers that already hold diameter(mu) pass it as diam. The columns
    come from one dense n x (m-1) foot computation: O(n m) time and memory.
    """
    if mu.dim != c.dim:
        raise DimensionMismatchError(f"measure dim {mu.dim} vs curve dim {c.dim}")
    if tie_rule not in TIE_RULES:
        raise PencurveError(f"unknown tie rule {tie_rule!r}; choose from {TIE_RULES}")
    if diam is None:
        diam = diameter(mu)
    if eps_tie is None:
        eps_tie = 1e-9 * diam
    eps_abs = eps_proj * diam

    X = mu.positions
    n = mu.n_atoms
    m = c.n_vertices
    if m == 1:
        v0 = c.vertices[0]
        rel = X - v0  # row products use project_point's norm kernel: equal bits
        dist = np.sqrt((rel[:, None, :] @ rel[:, :, None])[:, 0, 0])
        zero = np.zeros(n, dtype=np.int64)
        cols = [np.arange(n), mu.masses, dist, zero, zero, np.zeros(n), np.zeros(n),
                np.repeat(v0[None, :], n, axis=0)]
    else:
        a = c.vertices[:-1]
        vec = c.segment_vectors
        denom = np.einsum("ij,ij->i", vec, vec)
        rel = X[:, None, :] - a[None, :, :]
        T = np.clip(np.einsum("nkj,kj->nk", rel, vec) / denom, 0.0, 1.0)
        feet = a[None, :, :] + T[:, :, None] * vec[None, :, :]
        D = np.linalg.norm(X[:, None, :] - feet, axis=2)
        dmin = np.min(D, axis=1)
        ties = D <= (dmin[:, None] + eps_abs)
        arcs = c.cumulative_lengths[:-1][None, :] + T * c.segment_lengths[None, :]
        first_seg = np.argmin(np.where(ties, arcs, np.inf), axis=1)
        rows = np.arange(n)
        cols = [rows, mu.masses, dmin, *_snap_targets(c, first_seg, T[rows, first_seg], eps_tie)]
        split = np.nonzero(np.sum(ties, axis=1) > 1)[0] if tie_rule == "split_evenly" else ()
        if len(split):
            cols = _split_evenly(mu, c, cols, split, eps_abs, eps_tie)
    plan = TransportPlan(*cols, n_atoms=n, n_vertices=m)

    atom, dist, ia = plan.atom, plan.dist, plan.ia
    at_vertex = ia == plan.ib
    groups = np.cumsum(np.bincount(ia[at_vertex], minlength=m))[:-1]
    talking = np.split(atom[at_vertex][np.argsort(ia[at_vertex], kind="stable")], groups)
    tied: list[int | None] = [None] * m
    tied_dist = np.full(m, np.inf)
    for k in np.nonzero(at_vertex & (dist <= eps_tie))[0]:
        if dist[k] < tied_dist[ia[k]]:
            tied[ia[k]], tied_dist[ia[k]] = int(atom[k]), dist[k]
    classification = VertexClassification(tuple(tied), tuple(tuple(g.tolist()) for g in talking),
                                          eps_tie)
    return plan, classification
