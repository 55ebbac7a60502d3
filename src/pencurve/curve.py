"""Polyline curves: arc-length parameterization, turning, crossings, vertex merging."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, PencurveError


@dataclass(frozen=True)
class Polyline:
    """Ordered vertex list v_1..v_m, m >= 1, with no zero-length segment.

    The curve is the piecewise-linear interpolation of the vertices,
    parameterized by arc length (unit speed). vertices is a read-only copy
    of the given array, so the cached segment geometry stays valid.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise PencurveError("polyline needs an (m, d) vertex array with m >= 1")
        if not np.all(np.isfinite(v)):
            raise PencurveError("non-finite vertex coordinate")
        if v.shape[0] > 1:
            seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
            if np.any(seg == 0.0):
                raise PencurveError(
                    "zero-length segment at vertex %d; run merge_vertices first"
                    % int(np.argmin(seg))
                )
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def segment_vectors(self) -> np.ndarray:
        return np.diff(self.vertices, axis=0)

    @cached_property
    def segment_lengths(self) -> np.ndarray:
        if self.n_vertices == 1:
            return np.zeros(0)
        return np.linalg.norm(self.segment_vectors, axis=1)

    @cached_property
    def cumulative_lengths(self) -> np.ndarray:
        """Arc length of every vertex; entry 0 is 0, entry m-1 is L."""
        out = np.zeros(self.n_vertices)
        if self.n_vertices > 1:
            np.cumsum(self.segment_lengths, out=out[1:])
        return out

    @cached_property
    def total_length(self) -> float:
        return float(self.cumulative_lengths[-1])

    def to_dict(self) -> dict:
        return {"dim": self.dim, "vertices": [[float(c) for c in v] for v in self.vertices]}

    @staticmethod
    def from_dict(data: dict) -> "Polyline":
        try:
            verts = np.asarray(data["vertices"], dtype=float)
            dim = int(data["dim"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PencurveError(f"curve JSON needs 'dim' and 'vertices': {exc}") from exc
        if verts.ndim != 2 or verts.shape[1] != dim:
            raise PencurveError("curve JSON vertex shape does not match 'dim'")
        return Polyline(verts)


def length(c: Polyline) -> float:
    """Total arc length; 0 iff the curve is a single vertex."""
    return c.total_length


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded as np.linalg.norm rounds that row alone.

    Each row's dot product is taken as a matmul, which shares the 1-D
    norm's dot; an axis norm sums the squares another way and can differ
    in the last bit.
    """
    x = np.ascontiguousarray(x)
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def turning_angles(c: Polyline) -> np.ndarray:
    """Exterior angle in [0, pi] at each interior vertex (length max(m-2, 0)).

    Unit tangents a, b meet at 2 atan2(|a - b|, |a + b|), which stays
    accurate near 0 and near pi.
    """
    if c.n_vertices < 3:
        return np.zeros(0)
    seg = c.segment_vectors
    unit = seg / row_norms(seg)[:, None]
    a, b = unit[:-1], unit[1:]
    return np.array([2.0 * math.atan2(y, x)
                     for y, x in zip(row_norms(a - b).tolist(), row_norms(a + b).tolist())])


def tv_gamma_prime(c: Polyline) -> float:
    """Total variation of the unit tangent: sum of turning angles."""
    return float(np.sum(turning_angles(c)))


@dataclass(frozen=True)
class Intersection:
    """A crossing or contact between two non-adjacent segments."""

    seg_a: int
    seg_b: int
    point: np.ndarray
    kind: str  # "crossing" (transversal) or "contact" (touch within eps)


def point_segment_foot(x, a, b):
    """(distance, foot): the point of segment [a, b] nearest to x and its distance."""
    ab = b - a
    denom = float(np.dot(ab, ab))
    t = 0.0 if denom == 0.0 else float(np.clip(np.dot(x - a, ab) / denom, 0.0, 1.0))
    foot = a + t * ab
    return float(np.linalg.norm(x - foot)), foot


def self_intersections_2d(c: Polyline, eps: float = 1e-12) -> list[Intersection]:
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
        apart = np.any(lo[i] > hi[later] + eps, axis=1) | np.any(lo[later] > hi[i] + eps, axis=1)
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
            best = None
            for x, a, b in ((p1, q1, q2), (p2, q1, q2), (q1, p1, p2), (q2, p1, p2)):
                d, foot = point_segment_foot(x, a, b)
                if best is None or d < best[0]:
                    best = (d, 0.5 * (x + foot))
            if best[0] <= eps:
                found.append(Intersection(i, j, best[1], "contact"))
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
        close = row_norms(np.diff(verts, axis=0)) <= eps
        if not close.any():
            break
        idx = np.arange(len(close))
        run_start = np.maximum.accumulate(np.where(close & ~np.r_[False, close[:-1]], idx, 0))
        first = idx[close & ((idx - run_start) % 2 == 0)]
        verts[first] = 0.5 * (verts[first] + verts[first + 1])
        verts = np.delete(verts, first + 1, axis=0)
    return verts
