"""Nearest-point projection of atoms onto a polyline: transport plan, talking sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import Polyline
from .errors import DimensionMismatchError
from .measure import DiscreteMeasure, diameter

EPS_PROJ = 1e-12  # relative tolerance under which two segment distances tie
CHUNK = 512  # atoms per block of the nearest-foot pass: O(CHUNK * m) temporaries


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Atom-to-curve mass assignment in entry columns; first marginal is the measure.

    Entry k is atom k: it sends mass[k] to point[k] = (1-t[k]) V[ia[k]] + t[k] V[ib[k]]
    (vertex targets: ia == ib, t == 0) at arc length arc[k], the atom's
    first nearest target along the curve, so dist[k] is d(x_k, curve).
    """

    mass: np.ndarray
    dist: np.ndarray
    ia: np.ndarray
    ib: np.ndarray
    t: np.ndarray
    arc: np.ndarray
    point: np.ndarray
    n_vertices: int

    @property
    def packed(self) -> dict:
        """The columns the fixed-plan value, gradient, MM system and Hessian read."""
        return {"mass": self.mass, "dist": self.dist, "ia": self.ia, "ib": self.ib, "t": self.t}

    @property
    def entries(self) -> range:
        """Entry indices; len() is the entry count."""
        return range(len(self.mass))


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


def _nearest_feet(X: np.ndarray, c: Polyline, eps_abs: float):
    """Per atom: distance to the curve, first nearest segment, foot parameter on it.

    Atoms are taken in blocks of CHUNK rows. A segment is nearest when its
    distance is within eps_abs of the minimum; the first such segment has
    the smallest arc length, since arc length grows with the segment index.
    """
    a = c.vertices[:-1]
    vec = c.segment_vectors
    denom = np.einsum("ij,ij->i", vec, vec)
    n = len(X)
    dist, seg, t = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n)
    for lo in range(0, n, CHUNK):
        Xb = X[lo:lo + CHUNK]
        T = np.clip(np.einsum("nkj,kj->nk", Xb[:, None, :] - a[None, :, :], vec) / denom,
                    0.0, 1.0)
        sq = np.zeros(T.shape)
        for q in range(X.shape[1]):  # coordinate order: np.linalg.norm's sum of squares
            off = Xb[:, q, None] - (a[:, q] + T * vec[:, q])
            sq += off * off
        D = np.sqrt(sq)
        dmin = np.min(D, axis=1)
        first = np.argmax(D <= (dmin[:, None] + eps_abs), axis=1)
        rows = slice(lo, lo + CHUNK)
        dist[rows], seg[rows], t[rows] = dmin, first, T[np.arange(len(Xb)), first]
    return dist, seg, t


def build_plan(mu: DiscreteMeasure, c: Polyline, eps_tie: float | None = None,
               diam: float | None = None):
    """Send every atom's mass to its first nearest curve target.

    Returns the plan and the per-vertex free/tied classification (eps_tie
    defaults to 1e-9 * diameter). Callers that already hold diameter(mu)
    pass it as diam. Costs O(n m) time and O(CHUNK m) memory.
    """
    if mu.dim != c.dim:
        raise DimensionMismatchError(f"measure dim {mu.dim} vs curve dim {c.dim}")
    if diam is None:
        diam = diameter(mu)
    if eps_tie is None:
        eps_tie = 1e-9 * diam

    X = mu.positions
    n = mu.n_atoms
    m = c.n_vertices
    if m == 1:
        v0 = c.vertices[0]
        rel = X - v0  # row products as a matmul: its rounding, not a coordinate sum's
        dist = np.sqrt((rel[:, None, :] @ rel[:, :, None])[:, 0, 0])
        zero = np.zeros(n, dtype=np.int64)
        cols = [dist, zero, zero, np.zeros(n), np.zeros(n), np.repeat(v0[None, :], n, axis=0)]
    else:
        dist, seg, t = _nearest_feet(X, c, EPS_PROJ * diam)
        cols = [dist, *_snap_targets(c, seg, t, eps_tie)]
    plan = TransportPlan(mu.masses, *cols, n_vertices=m)

    dist, ia = plan.dist, plan.ia
    at_vertex = np.nonzero(ia == plan.ib)[0]
    groups = np.cumsum(np.bincount(ia[at_vertex], minlength=m))[:-1]
    talking = np.split(at_vertex[np.argsort(ia[at_vertex], kind="stable")], groups)
    tied: list[int | None] = [None] * m
    tied_dist = np.full(m, np.inf)
    for k in at_vertex[dist[at_vertex] <= eps_tie]:
        if dist[k] < tied_dist[ia[k]]:
            tied[ia[k]], tied_dist[ia[k]] = int(k), dist[k]
    classification = VertexClassification(tuple(tied), tuple(tuple(g.tolist()) for g in talking),
                                          eps_tie)
    return plan, classification
