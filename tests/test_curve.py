import math

import numpy as np
import pytest

from pencurve.curve import (
    Polyline,
    length,
    merge_vertices,
    row_norms,
    self_intersections_2d,
    turning_angles,
    tv_gamma_prime,
)
from pencurve.errors import PencurveError


def V(*pts):
    return np.array(pts, dtype=float)


def P(*pts):
    return Polyline(V(*pts))


def test_length_examples():
    assert length(P((0, 0))) == 0.0
    assert length(P((0, 0), (1, 0), (1, 1))) == pytest.approx(2.0)
    assert length(P((0, 0), (3, 4))) == pytest.approx(5.0)


def test_zero_segment_rejected():
    with pytest.raises(PencurveError):
        P((0, 0), (0, 0), (1, 0))


def test_turning_angles():
    assert turning_angles(P((0, 0), (1, 0), (2, 0))).tolist() == [0.0]
    assert turning_angles(P((0, 0), (1, 0), (1, 1)))[0] == pytest.approx(np.pi / 2)
    assert turning_angles(P((0, 0), (1, 0))).size == 0


def test_tv_examples_and_additivity():
    straight = P((0, 0), (1, 0), (2, 0), (3, 0), (4, 0))
    assert tv_gamma_prime(straight) == 0.0
    square = P((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    assert tv_gamma_prime(square) == pytest.approx(3 * np.pi / 2)
    rng = np.random.default_rng(5)
    c = Polyline(rng.uniform(0, 1, (9, 2)))
    mid = 4
    left = tv_gamma_prime(Polyline(c.vertices[: mid + 1]))
    right = tv_gamma_prime(Polyline(c.vertices[mid:]))
    shared = turning_angles(c)[mid - 1]
    assert left + right + shared == pytest.approx(tv_gamma_prime(c), rel=1e-12)


def test_self_intersections_figure_eight():
    hits = self_intersections_2d(P((0, 0), (1, 1), (1, 0), (0, 1)), 1e-12)
    assert len(hits) == 1
    h = hits[0]
    assert (h.seg_a, h.seg_b) == (0, 2)
    assert h.kind == "crossing"
    assert np.allclose(h.point, [0.5, 0.5])


def test_self_intersections_convex_arc_empty():
    th = np.linspace(0, np.pi, 10)
    arc = Polyline(np.stack([np.cos(th), np.sin(th)], axis=1))
    assert self_intersections_2d(arc, 1e-12) == []


def test_self_intersections_revisited_vertex_contact():
    hits = self_intersections_2d(P((0, 0), (1, 0), (1, 1), (0, 0)), 1e-12)
    assert len(hits) == 1
    assert hits[0].kind == "contact"
    assert np.allclose(hits[0].point, [0.0, 0.0])


def test_merge_vertices():
    assert len(merge_vertices(V((0, 0), (1e-12, 0), (1, 0)), 1e-9)) == 2
    tiny = merge_vertices(V((0, 0), (0.1, 0), (0.2, 0)), 1.0)
    assert len(tiny) == 1
    keep = merge_vertices(V((0, 0), (1, 0), (2, 0)), 1e-9)
    assert len(keep) == 3
    # zero eps keeps distinct vertices and drops exact repeats
    assert len(merge_vertices(V((0, 0), (1, 0)), 0.0)) == 2
    repeats = V((0, 0), (0, 0), (0, 0), (1, 0), (1, 0))
    assert merge_vertices(repeats, 0.0).tolist() == [[0, 0], [1, 0]]


def _merge_loop(verts, eps):
    """Reference for merge_vertices: left-to-right scans, one pair at a time."""
    verts = list(np.asarray(verts, dtype=float))
    changed = True
    while changed and len(verts) > 1:
        changed, out, i = False, [], 0
        while i < len(verts):
            if i + 1 < len(verts) and np.linalg.norm(verts[i + 1] - verts[i]) <= eps:
                out.append(0.5 * (verts[i] + verts[i + 1]))
                i, changed = i + 2, True
            else:
                out.append(verts[i])
                i += 1
        verts = out
    return np.array(verts)


def _angle_loop(c):
    """Reference for turning_angles: one vertex at a time."""
    out = []
    for u, w in zip(c.segment_vectors[:-1], c.segment_vectors[1:]):
        a, b = u / np.linalg.norm(u), w / np.linalg.norm(w)
        out.append(2.0 * math.atan2(np.linalg.norm(a - b), np.linalg.norm(a + b)))
    return np.array(out)


def test_merge_vertices_and_turning_angles_match_the_loops():
    rng = np.random.default_rng(11)
    for trial in range(400):
        verts = rng.normal(size=(int(rng.integers(1, 12)), int(rng.integers(2, 4))))
        for k in range(len(verts) - 1):  # runs of exact repeats and of near-repeats
            r = rng.uniform()
            if r < 0.5:
                verts[k + 1] = verts[k] + (r >= 0.25) * 1e-10 * rng.normal(size=verts.shape[1])
        eps = (0.0, 1e-9, 1e-3, 1.0)[trial % 4]
        merged = merge_vertices(verts, eps)
        assert np.array_equal(merged, _merge_loop(verts, eps))
        distinct = merge_vertices(verts, 0.0)
        assert np.array_equal(turning_angles(Polyline(distinct)), _angle_loop(Polyline(distinct)))
        assert np.array_equal(row_norms(verts), [np.linalg.norm(v) for v in verts])
