"""Nearest-point projection of atoms onto a polyline: transport plan, talking sets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curve import Polyline, axis_norms
from .errors import DimensionMismatchError
from .measure import DiscreteMeasure, diameter, tie_tolerance

EPS_PROJ = 1e-12  # relative tolerance under which two segment distances tie
CHUNK = 512  # atoms per block of the nearest-foot pass: O(CHUNK * m) temporaries
CULL_MIN_PAIRS = 9000  # pairs n (m - 1) from which culling runs (demos/kernel_timing.py plan)


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
    ln = c.segment_lengths.take(seg)
    lo = t * ln <= snap
    hi = ~lo & ((1.0 - t) * ln <= snap)
    inner = ~(lo | hi)
    ia = seg + hi
    ib = np.where(inner, seg + 1, ia)
    return ia, ib, np.where(inner, t, 0.0)


def _foot_arithmetic(coords, denom, work: np.ndarray):
    """Foot parameter T and distance D of every (atom, segment) pair in work's lanes.

    coords[q] holds the q-th coordinates (atom, segment start, segment
    vector) of the pairs, broadcastable to work[0]; denom is each segment's
    squared length. work holds four lanes: T, the odd-coordinate lane, D
    and one offset. The dot products add the coordinates as einsum does
    (checked to d = 7): (p0 + p2 + ...) + (p1 + p3 + ...); the squared
    distance adds them in order, as np.linalg.norm does. Every pair's bits
    depend only on its own atom and segment, whatever layout coords has.
    """
    T, odd, D, off = work
    for q, (x, a, v) in enumerate(coords):  # einsum's two accumulators: even in T, odd in odd
        prod = work[q] if q < 2 else off
        np.subtract(x, a, out=prod)
        prod *= v
        if q >= 2:
            work[q % 2] += off
    if len(coords) > 1:
        T += odd
    np.divide(T, denom, out=T).clip(0.0, 1.0, out=T)
    D.fill(0.0)
    for x, a, v in coords:  # coordinate order: np.linalg.norm's sum of squares
        np.multiply(T, v, out=off)
        off += a
        np.subtract(x, off, out=off)
        off *= off
        D += off
    np.sqrt(D, out=D)
    return T, D


def _dense_block(Xb, a, vec, denom, eps_abs: float, work: np.ndarray):
    """(dist, seg, t) of the atoms Xb over every segment (starts a, vectors vec)."""
    rows = len(Xb)
    coords = [(Xb[:, q, None], a[:, q], vec[:, q]) for q in range(Xb.shape[1])]
    T, D = _foot_arithmetic(coords, denom, work[:, :rows])
    dmin = D.min(axis=1)
    first = (D <= (dmin[:, None] + eps_abs)).argmax(axis=1)
    return dmin, first, T[np.arange(rows), first]


def _midpoint_balls(c: Polyline):
    """The curve's midpoint balls, as `_kept_pairs` reads them.

    Returns z, the midpoint of the middle segment; one row per segment of
    [p, |p|^2, 1, 0] and of [p, |p|^2 - h^2, 1, -2h], for its midpoint
    minus z, p, and its half-length h; the largest |p|; and the largest h.
    """
    mid = c.vertices[:-1] + 0.5 * c.segment_vectors
    z = mid[len(mid) // 2]
    d = len(z)
    near = np.zeros((len(mid), d + 3))
    np.subtract(mid, z, out=near[:, :d])
    near[:, d] = np.einsum("ij,ij->i", near[:, :d], near[:, :d])
    near[:, d + 1] = 1.0
    half = 0.5 * c.segment_lengths
    keep = near.copy()
    keep[:, d] -= half * half
    keep[:, d + 2] = -2.0 * half
    return z, near, keep, math.sqrt(float(near[:, d].max())), float(half.max())


def _kept_pairs(Xb, balls, eps_abs: float, pad: float, G: np.ndarray) -> np.ndarray:
    """Flat indices j * rows + i of the (segment j, atom i) pairs the midpoint bound keeps.

    balls is `_midpoint_balls`'s tuple; G, a buffer of at least (m - 1) rows floats.

    In coordinates centred on z, G_j = |x - c_j|^2 for the midpoints c_j
    is one matrix product, [c_j, |c_j|^2, 1] [-2x; 1; |x|^2], and so is
    G_j - (r + h_j)^2 for a per-atom radius r. Each errs by less than
    tol, 2^-48 (d + 4) times the sum of the magnitudes of its terms (about
    32 (d + 4) times the rounding of any summation order, FMA included),
    plus a floor for subnormal terms. So r = sqrt(min_j G_j + tol) +
    eps_abs + pad is at least U + eps_abs + pad, U = min_j |x - c_j|, and
    a pair is dropped only when |x - c_j| > r + h_j is certain. Every atom
    keeps its nearest midpoint's segment.
    """
    z, near, keep, c_reach, h_max = balls
    rows, d = Xb.shape
    right = np.empty((d + 3, rows))  # [-2x; 1; |x|^2 - r^2; r]
    xc = np.subtract(Xb.T, z[:, None], out=right[:d])
    sx = np.einsum("ij,ij->j", xc, xc)
    xc *= -2.0
    right[d], right[d + 1], right[d + 2] = 1.0, sx, 0.0
    floor = (d + 4) * 2.0**-1070
    spread = (c_reach + math.sqrt(float(sx.max()))) ** 2
    G = G[:len(near) * rows].reshape(len(near), rows)
    np.matmul(near, right, out=G)
    r = np.sqrt(G.min(axis=0) + (2.0**-48 * (d + 4) * spread + floor)) + eps_abs + pad
    right[d + 1] -= r * r
    right[d + 2] = r
    np.matmul(keep, right, out=G)
    tol = 2.0**-48 * (d + 4) * (spread + (h_max + float(r.max())) ** 2) + floor
    return (G <= tol).ravel().nonzero()[0]


def _culled_block(Xb, a, vec, denom, balls, eps_abs: float, pad: float, G: np.ndarray):
    """_dense_block's (dist, seg, t), from the foot arithmetic on the kept pairs only.

    G holds the bound pass's (m - 1) CHUNK floats. Per atom, the minimum
    distance over its kept pairs and the first kept segment within eps_abs
    of it, as a dense row reduces them.
    """
    rows = len(Xb)
    k = _kept_pairs(Xb, balls, eps_abs, pad, G)
    jj = k // rows
    ii = k - jj * rows
    coords = [(Xb[:, q].take(ii), a[:, q].take(jj), vec[:, q].take(jj))
              for q in range(Xb.shape[1])]
    T, D = _foot_arithmetic(coords, denom.take(jj), np.empty((4, len(k))))
    dmin = np.full(rows, np.inf)
    np.minimum.at(dmin, ii, D)
    near = (D <= dmin.take(ii) + eps_abs).nonzero()[0]
    first = np.full(rows, len(k))
    np.minimum.at(first, ii.take(near), near)  # an atom's pairs run in segment order
    return dmin, jj.take(first), T.take(first)


def _nearest_feet(X: np.ndarray, c: Polyline, eps_abs: float, reach: float,
                  culled: bool | None = None):
    """Per atom: distance to the curve, first nearest segment, foot parameter on it.

    reach bounds |x| over the atoms X. A segment is nearest when its
    distance is within eps_abs of the minimum; the first such segment has
    the smallest arc length, since arc length grows with the segment index.
    Atoms are taken in blocks of CHUNK rows, in one of two layouts that
    return the same bits:

    - dense: the foot arithmetic on every (atom, segment) pair;
    - culled: a bound pass over the segment midpoints (`_kept_pairs`),
      then the foot arithmetic on the pairs it keeps (`_culled_block`).

    culled=None picks the culled layout from CULL_MIN_PAIRS pairs
    n (m - 1) on, where its bound pass costs less than the arithmetic it
    saves (`demos/kernel_timing.py plan` times both).

    Why culling is exact. Every midpoint c_j lies on the curve, so
    d(x, curve) <= U = min_j |x - c_j|; segment j lies in the ball of
    radius h_j around c_j, so its distance is at least |x - c_j| - h_j.
    A dropped segment is thus farther than U + eps_abs + pad. pad covers
    the rounding of both passes. With every |coordinate| of atoms and
    vertices at most R, the lengths along that chain err by less than
    (15 d + 84) u sqrt(d) (R + eps_abs) in all, u = 2^-53, plus
    16 d 2^-537 where squares are subnormal, and
    pad = 2^-40 (d + 8) sqrt(d) (R + eps_abs + 2^-490) exceeds both about
    500-fold. So a dropped pair's computed distance exceeds the computed
    minimum plus eps_abs: neither the minimum nor the first segment within
    eps_abs of it can change. The argument needs finite arithmetic, so the
    culled layout runs only while no square can overflow,
    sqrt(d) (R + eps_abs) <= 2^507; the supported coordinate range
    (|x| <= COORD_MAX = 2^500) meets it.

    Memory per call is one (4, CHUNK, m - 1) array in the dense layout;
    in the culled one, (m - 1) CHUNK floats for the bound, and per kept
    pair four lanes, three indices and 3 d gathered coordinates, which
    reach O(CHUNK m d) only if every pair is kept (atoms at the centre of
    a regular polygon).
    """
    n, d = X.shape
    a, vec = c.vertices[:-1], c.segment_vectors
    denom = np.einsum("ij,ij->i", vec, vec)
    if culled is None:
        culled = n * len(vec) >= CULL_MIN_PAIRS
    if culled:
        scale = math.sqrt(d) * (max(reach, float(np.abs(c.vertices).max())) + eps_abs)
        culled = scale <= 2.0**507
    if culled:
        balls, G = _midpoint_balls(c), np.empty(len(vec) * min(CHUNK, n))
        pad = 2.0**-40 * (d + 8) * (scale + math.sqrt(d) * 2.0**-490)
    else:
        work = np.empty((4, min(CHUNK, n), len(vec)))
    dist, seg, t = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n)
    for lo in range(0, n, CHUNK):
        Xb, rows = X[lo:lo + CHUNK], slice(lo, lo + CHUNK)
        if culled:
            cols = _culled_block(Xb, a, vec, denom, balls, eps_abs, pad, G)
        else:
            cols = _dense_block(Xb, a, vec, denom, eps_abs, work)
        dist[rows], seg[rows], t[rows] = cols
    return dist, seg, t


def build_plan(mu: DiscreteMeasure, c: Polyline):
    """Send every atom's mass to its first nearest curve target.

    Returns the plan and its vertices' talking sets. Feet within
    tie_tolerance(diameter(mu)) of a vertex snap to it. The nearest feet
    come from `_nearest_feet`: on n (m - 1) >= CULL_MIN_PAIRS pairs a
    midpoint-ball bound drops the segments that provably cannot be
    nearest, and the rest get the dense scan's arithmetic, so the plan is
    the same bit for bit either way. Costs O(n m) time at worst (1.5 to
    11.3 kept segments per atom on fitted curves) and O(CHUNK m) memory,
    O(CHUNK m d) if every pair survives the bound.
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
        dist, seg, t = _nearest_feet(X, c, EPS_PROJ * diam, mu.reach)
        cols = [dist, *_snap_targets(c, seg, t, tie_tolerance(diam))]
    plan = TransportPlan(mu.masses, *cols, m)
    return plan, VertexClassification(plan)
