"""Nearest-point projection of atoms onto a polyline: transport plan, talking sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import Polyline, row_norms
from .errors import DimensionMismatchError
from .measure import DiscreteMeasure, diameter, tie_tolerance

EPS_PROJ = 1e-12  # relative tolerance under which two segment distances tie
CHUNK = 512  # atoms per block of the nearest-foot pass: O(CHUNK * m) temporaries


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Atom-to-curve mass assignment in entry columns; first marginal is the measure.

    Entry k is atom k: it sends mass[k] to its target (1-t[k]) V[ia[k]] + t[k] V[ib[k]]
    (vertex targets: ia == ib, t == 0), the atom's first nearest target
    along the curve; dist[k] is d(x_k, curve), measured to the foot before
    snapping. energy._entry_offsets gives each entry's offset to its target.
    """

    mass: np.ndarray
    dist: np.ndarray
    ia: np.ndarray
    ib: np.ndarray
    t: np.ndarray
    n_vertices: int

    @property
    def entries(self) -> range:
        """Entry indices; len() is the entry count."""
        return range(len(self.mass))


@dataclass(frozen=True)
class VertexClassification:
    """Talking sets: talking[j] lists the atoms with a plan entry at vertex j."""

    talking: tuple  # per vertex: tuple of atom indices


def _snap_targets(c: Polyline, seg: np.ndarray, t: np.ndarray, snap: float):
    """Columns (ia, ib, t) of the feet at parameters t on segments seg.

    A foot within snap (in length) of its segment's start or end is
    reported as that vertex, with ia == ib and t == 0.
    """
    ln = c.segment_lengths[seg]
    lo = t * ln <= snap
    hi = ~lo & ((1.0 - t) * ln <= snap)
    inner = ~(lo | hi)
    ia = seg + hi
    ib = np.where(inner, seg + 1, ia)
    return ia, ib, np.where(inner, t, 0.0)


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


def build_plan(mu: DiscreteMeasure, c: Polyline):
    """Send every atom's mass to its first nearest curve target.

    Returns the plan and each vertex's talking set. Feet within
    tie_tolerance(diameter(mu)) of a vertex snap to it. Costs O(n m) time
    and O(CHUNK m) memory.
    """
    if mu.dim != c.dim:
        raise DimensionMismatchError(f"measure dim {mu.dim} vs curve dim {c.dim}")
    diam = diameter(mu)
    X = mu.positions
    n = mu.n_atoms
    m = c.n_vertices
    if m == 1:
        zero = np.zeros(n, dtype=np.int64)
        cols = [row_norms(X - c.vertices[0]), zero, zero, np.zeros(n)]
    else:
        dist, seg, t = _nearest_feet(X, c, EPS_PROJ * diam)
        cols = [dist, *_snap_targets(c, seg, t, tie_tolerance(diam))]
    plan = TransportPlan(mu.masses, *cols, n_vertices=m)

    ia = plan.ia
    at_vertex = np.nonzero(ia == plan.ib)[0]
    groups = np.cumsum(np.bincount(ia[at_vertex], minlength=m))[:-1]
    talking = np.split(at_vertex[np.argsort(ia[at_vertex], kind="stable")], groups)
    return plan, VertexClassification(tuple(tuple(g.tolist()) for g in talking))
