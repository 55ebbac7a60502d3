"""Nearest-point projection of atoms onto a polyline: transport plan, talking sets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curve import Polyline, axis_norms
from .errors import DimensionMismatchError
from .measure import DiscreteMeasure, diameter, tie_tolerance

EPS_PROJ = 1e-12  # relative tolerance under which two segment distances tie
CHUNK = 512  # atoms per block of the nearest-foot pass: O(CHUNK * m) temporaries


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Atom-to-curve mass assignment in entry columns; first marginal is the measure.

    Entry k is atom k: it sends mass[k] to its target (1-t[k]) V[ia[k]] + t[k] V[ib[k]]
    (vertex targets: ia == ib, t == 0; segment targets: ib == ia + 1), the
    atom's first nearest target along the curve of n_vertices vertices;
    dist[k] is d(x_k, curve), measured to the foot before snapping.
    energy._entry_offsets gives each entry's offset to its target. The
    views below decode that layout for every reader, once per plan.
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

    @cached_property
    def weights(self) -> tuple:
        """Barycentric weights (1 - t, t) of every entry's target."""
        return 1.0 - self.t, self.t

    @cached_property
    def at_vertex(self) -> np.ndarray:
        """Mask of the entries whose target is a vertex (ia == ib)."""
        return self.ia == self.ib

    @cached_property
    def in_segment(self) -> np.ndarray:
        """Mask of the entries whose target is inside segment ia (ib == ia + 1)."""
        return ~self.at_vertex

    @cached_property
    def ends(self) -> np.ndarray:
        """The vertex of every entry end and segment end, in the order (ia, ib, k, k+1)."""
        k = np.arange(self.n_vertices - 1)
        return np.concatenate((self.ia, self.ib, k, k + 1))

    @cached_property
    def upper_ends(self) -> np.ndarray:
        """Row i of the superdiagonal cell (i, i+1) of each segment target, then each segment."""
        return np.concatenate((self.ia[self.in_segment], np.arange(self.n_vertices - 1)))


@dataclass(frozen=True, eq=False)
class VertexClassification:
    """Talking sets, built on first read: talking[j] lists the atoms with an entry at vertex j."""

    plan: TransportPlan

    @cached_property
    def talking(self) -> tuple:
        ia, at_vertex = self.plan.ia, self.plan.at_vertex
        return tuple(tuple(np.nonzero(at_vertex & (ia == j))[0].tolist())
                     for j in range(self.plan.n_vertices))


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
    Every block works in one (4, rows, m - 1) array allocated per call: the
    foot parameter T, the odd-coordinate lane, the distance D and one
    offset. Its dot products add the coordinates as einsum does (checked to
    d = 7): (p0 + p2 + ...) + (p1 + p3 + ...).
    """
    a = c.vertices[:-1]
    vec = c.segment_vectors
    denom = np.einsum("ij,ij->i", vec, vec)
    n, d = X.shape
    dist, seg, t = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n)
    work = np.empty((4, min(CHUNK, n), len(vec)))
    for lo in range(0, n, CHUNK):
        Xb = X[lo:lo + CHUNK]
        T, odd, D, off = block = work[:, :len(Xb)]
        for q in range(d):  # einsum's two accumulators: even coordinates in T, odd in odd
            prod = block[q] if q < 2 else off
            np.subtract(Xb[:, q, None], a[:, q], out=prod)
            prod *= vec[:, q]
            if q >= 2:
                block[q % 2] += off
        if d > 1:
            T += odd
        np.clip(np.divide(T, denom, out=T), 0.0, 1.0, out=T)
        D.fill(0.0)
        for q in range(d):  # coordinate order: np.linalg.norm's sum of squares
            np.multiply(T, vec[:, q], out=off)
            off += a[:, q]
            np.subtract(Xb[:, q, None], off, out=off)
            off *= off
            D += off
        np.sqrt(D, out=D)
        dmin = np.min(D, axis=1)
        first = np.argmax(D <= (dmin[:, None] + eps_abs), axis=1)
        rows = slice(lo, lo + CHUNK)
        dist[rows], seg[rows], t[rows] = dmin, first, T[np.arange(len(Xb)), first]
    return dist, seg, t


def build_plan(mu: DiscreteMeasure, c: Polyline):
    """Send every atom's mass to its first nearest curve target.

    Returns the plan and its vertices' talking sets. Feet within
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
        cols = [axis_norms(X - c.vertices[0]), zero, zero, np.zeros(n)]
    else:
        dist, seg, t = _nearest_feet(X, c, EPS_PROJ * diam)
        cols = [dist, *_snap_targets(c, seg, t, tie_tolerance(diam))]
    plan = TransportPlan(mu.masses, *cols, m)
    return plan, VertexClassification(plan)
