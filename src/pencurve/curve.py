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
    parameterized by arc length (unit speed).
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
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


def _angle_between(u: np.ndarray, w: np.ndarray) -> float:
    # robust for near-0 and near-pi angles
    a = u / np.linalg.norm(u)
    b = w / np.linalg.norm(w)
    return 2.0 * math.atan2(np.linalg.norm(a - b), np.linalg.norm(a + b))


def turning_angles(c: Polyline) -> np.ndarray:
    """Exterior angle in [0, pi] at each interior vertex (length max(m-2, 0))."""
    m = c.n_vertices
    if m < 3:
        return np.zeros(0)
    seg = c.segment_vectors
    return np.array([_angle_between(seg[j - 1], seg[j]) for j in range(1, m - 1)])


def _check_window(c: Polyline, window) -> tuple[int, int]:
    a, b = window
    a, b = int(a), int(b)
    if not (0 <= a <= b <= c.n_vertices - 1):
        raise PencurveError(f"invalid vertex window {window} for m={c.n_vertices}")
    return a, b


def tv_gamma_prime(c: Polyline, window=None) -> float:
    """Total variation of the unit tangent: sum of turning angles.

    window is an inclusive (first_vertex, last_vertex) pair restricting the
    sum to the sub-polyline's interior vertices; None means the whole curve.
    """
    angles = turning_angles(c)
    if window is None:
        return float(np.sum(angles))
    a, b = _check_window(c, window)
    return float(np.sum(angles[a : max(b - 1, a)]))


@dataclass(frozen=True)
class Intersection:
    """A crossing or contact between two non-adjacent segments."""

    seg_a: int
    seg_b: int
    point: np.ndarray
    kind: str  # "crossing" (transversal) or "contact" (touch within eps)


def _point_segment_distance(x, a, b):
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
                d, foot = _point_segment_distance(x, a, b)
                if best is None or d < best[0]:
                    best = (d, 0.5 * (x + foot))
            if best[0] <= eps:
                found.append(Intersection(i, j, best[1], "contact"))
    return found


def merge_vertices(c: Polyline, eps_merge: float) -> Polyline:
    """Collapse consecutive vertices within eps_merge to their midpoint.

    Repeats until no consecutive pair is within eps_merge. A Polyline has no
    zero-length segment, so eps_merge = 0 returns the curve unchanged.
    """
    if eps_merge < 0:
        raise PencurveError("eps_merge must be >= 0")
    verts = [row for row in np.asarray(c.vertices, dtype=float)]
    changed = True
    while changed and len(verts) > 1:
        changed = False
        out = []
        i = 0
        while i < len(verts):
            if i + 1 < len(verts) and np.linalg.norm(verts[i + 1] - verts[i]) <= eps_merge:
                out.append(0.5 * (verts[i] + verts[i + 1]))
                i += 2
                changed = True
            else:
                out.append(verts[i])
                i += 1
        verts = out
    return Polyline(np.array(verts))
