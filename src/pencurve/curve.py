"""Polyline curves: arc-length parameterization, turning, crossings, vertex merging."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, PencurveError
from .measure import vertices_in_range


@dataclass(frozen=True)
class Polyline:
    """Ordered vertex list v_1..v_m, m >= 1, with no zero-length segment.

    The curve is the piecewise-linear interpolation of the vertices,
    parameterized by arc length (unit speed). vertices is a read-only copy
    of the given array, so its segment_vectors and segment_lengths, computed
    once on construction, and the cached geometry stay valid.
    """

    vertices: np.ndarray

    def __post_init__(self):
        self._measure(np.array(self.vertices, dtype=float))

    @classmethod
    def through(cls, verts: np.ndarray) -> "Polyline":
        """The curve through verts with exact repeats dropped.

        Polyline(merge_vertices(verts, 0.0)) bit for bit, from one copy of
        verts and, unless a repeat is dropped, one pass over its segments.
        """
        v = np.array(verts, dtype=float)
        c = object.__new__(cls)
        if not c._measure(v, raising=False):
            c._measure(merge_vertices(v, 0.0))
        return c

    def _measure(self, v: np.ndarray, raising: bool = True) -> bool:
        """Take v as the vertices and compute its segment vectors and lengths.

        A zero-length segment raises, or returns False when not raising.
        """
        if v.ndim != 2 or v.shape[0] < 1:
            raise PencurveError("polyline needs an (m, d) vertex array with m >= 1")
        if not np.isfinite(v).all():
            raise PencurveError("non-finite vertex coordinate")
        seg = v[1:] - v[:-1]
        lengths = axis_norms(seg)
        if (lengths == 0.0).any():
            if not raising:
                return False
            raise PencurveError("zero-length segment at vertex %d; run merge_vertices first"
                                % int(np.argmin(lengths)))
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "segment_vectors", seg)
        object.__setattr__(self, "segment_lengths", lengths)
        return True

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def cumulative_lengths(self) -> np.ndarray:
        """Arc length of every vertex; entry 0 is 0, entry m-1 is L."""
        out = np.zeros(self.n_vertices)
        if self.n_vertices > 1:
            self.segment_lengths.cumsum(out=out[1:])
        return out

    @cached_property
    def total_length(self) -> float:
        """L; 0 iff the curve is a single vertex."""
        return float(self.cumulative_lengths[-1])

    @cached_property
    def unit_tangents(self) -> np.ndarray:
        return self.segment_vectors / self.segment_lengths[:, None]

    @cached_property
    def turning_angles(self) -> np.ndarray:
        """Exterior angle in [0, pi] at each interior vertex (length max(m-2, 0)).

        Unit tangents a, b meet at 2 atan2(|a - b|, |a + b|), which stays
        accurate near 0 and near pi.
        """
        a, b = self.unit_tangents[:-1], self.unit_tangents[1:]
        return np.array([2.0 * math.atan2(y, x)
                         for y, x in zip(axis_norms(a - b).tolist(), axis_norms(a + b).tolist())])

    def to_dict(self) -> dict:
        return {"dim": self.dim, "vertices": [[float(c) for c in v] for v in self.vertices]}

    @staticmethod
    def from_dict(data: dict) -> "Polyline":
        try:
            verts = np.asarray(data["vertices"], dtype=float)
            dim = int(data["dim"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise PencurveError(f"curve JSON needs 'dim' and 'vertices': {exc}") from exc
        if verts.ndim != 2 or verts.shape[1] != dim:
            raise PencurveError("curve JSON vertex shape does not match 'dim'")
        return Polyline(vertices_in_range(verts))


def axis_norms(x: np.ndarray) -> np.ndarray:
    """Row norms of a 2-D array, bit for bit np.sqrt(np.add.reduce(x * x, axis=1))."""
    sq = x * x
    if not 0 < x.shape[1] < 8:  # the reduce adds 8 or more squares pairwise, fewer in order
        return np.sqrt(np.add.reduce(sq, axis=1))
    total = sq[:, 0]
    for q in range(1, x.shape[1]):
        total = total + sq[:, q]
    return np.sqrt(total)


@dataclass(frozen=True)
class Intersection:
    """A crossing or contact between two non-adjacent segments."""

    seg_a: int
    seg_b: int
    point: np.ndarray
    kind: str  # "crossing" (transversal) or "contact" (touch within eps)


def point_segment_foot(X: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(distances, feet) of the rows of X to segment [a, b]; dots add coordinates in order."""
    ab = b - a
    denom = np.add.reduce(ab * ab)
    t = np.add.reduce((X - a) * ab, axis=1)
    t = np.clip(np.divide(t, denom, out=np.zeros_like(t), where=denom != 0.0), 0.0, 1.0)
    feet = a + t[:, None] * ab
    return axis_norms(X - feet), feet


def self_intersections_2d(c: Polyline, eps: float) -> list[Intersection]:
    """All transversal crossings and eps-contacts between non-adjacent segments.

    Adjacent segments (sharing a vertex) are excluded. Exact-sign cross
    products decide transversal crossings; anything else within eps of
    touching is reported as a contact (this covers shared endpoints and
    collinear overlaps). Pairs whose bounding boxes are more than eps
    apart are dropped first, one array test per segment; hits come in
    (seg_a, seg_b) order.
    """
    if c.dim != 2:
        raise DimensionMismatchError("self-intersection test is 2-D only")
    m = c.n_vertices
    if m < 3:
        return []
    v = c.vertices
    nseg = m - 1
    lo = np.minimum(v[:-1], v[1:])
    hi = np.maximum(v[:-1], v[1:])
    found = []
    for i in range(nseg - 2):
        later = np.arange(i + 2, nseg)
        apart = (lo[i] > hi[later] + eps).any(axis=1) | (lo[later] > hi[i] + eps).any(axis=1)
        for j in later[~apart].tolist():
            p1, p2, q1, q2 = v[i], v[i + 1], v[j], v[j + 1]
            r = p2 - p1
            s = q2 - q1
            o1 = r[0] * (q1 - p1)[1] - r[1] * (q1 - p1)[0]
            o2 = r[0] * (q2 - p1)[1] - r[1] * (q2 - p1)[0]
            o3 = s[0] * (p1 - q1)[1] - s[1] * (p1 - q1)[0]
            o4 = s[0] * (p2 - q1)[1] - s[1] * (p2 - q1)[0]
            if (o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0 and \
               (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0:
                denom = r[0] * s[1] - r[1] * s[0]
                t = ((q1 - p1)[0] * s[1] - (q1 - p1)[1] * s[0]) / denom
                found.append(Intersection(i, j, p1 + t * r, "crossing"))
                continue
            ends = v[[i, i + 1, j, j + 1]]  # p1, p2, q1, q2: argmin keeps the first minimum
            d, feet = zip(point_segment_foot(ends[:2], q1, q2), point_segment_foot(ends[2:], p1, p2))
            d, feet = np.concatenate(d), np.concatenate(feet)
            k = int(d.argmin())
            if d[k] <= eps:
                found.append(Intersection(i, j, 0.5 * (ends[k] + feet[k]), "contact"))
    return found


def merge_vertices(verts: np.ndarray, eps: float) -> np.ndarray:
    """verts with consecutive vertices within eps merged to their midpoint.

    Each pass merges disjoint close pairs from the left: the pairs at even
    offsets within each run of close pairs. Passes repeat until no pair is
    close. At eps = 0 this drops exact repeats, which a Polyline forbids.
    """
    if eps < 0:
        raise PencurveError("eps must be >= 0")
    verts = np.array(verts, dtype=float)
    while len(verts) > 1:
        close = axis_norms(verts[1:] - verts[:-1]) <= eps
        if not close.any():
            break
        idx = np.arange(len(close))
        run_start = np.maximum.accumulate(np.where(close & ~np.r_[False, close[:-1]], idx, 0))
        first = idx[close & ((idx - run_start) % 2 == 0)]
        verts[first] = 0.5 * (verts[first] + verts[first + 1])
        verts = np.delete(verts, first + 1, axis=0)
    return verts
