import numpy as np
import pytest

from pencurve.curve import (
    Polyline,
    length,
    merge_vertices,
    self_intersections_2d,
    turning_angles,
    tv_gamma_prime,
)
from pencurve.errors import PencurveError


def P(*pts):
    return Polyline(np.array(pts, dtype=float))


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
    hits = self_intersections_2d(P((0, 0), (1, 1), (1, 0), (0, 1)))
    assert len(hits) == 1
    h = hits[0]
    assert (h.seg_a, h.seg_b) == (0, 2)
    assert h.kind == "crossing"
    assert np.allclose(h.point, [0.5, 0.5])


def test_self_intersections_convex_arc_empty():
    th = np.linspace(0, np.pi, 10)
    arc = Polyline(np.stack([np.cos(th), np.sin(th)], axis=1))
    assert self_intersections_2d(arc) == []


def test_self_intersections_revisited_vertex_contact():
    hits = self_intersections_2d(P((0, 0), (1, 0), (1, 1), (0, 0)))
    assert len(hits) == 1
    assert hits[0].kind == "contact"
    assert np.allclose(hits[0].point, [0.0, 0.0])


def test_merge_vertices():
    assert merge_vertices(P((0, 0), (1e-12, 0), (1, 0)), 1e-9).n_vertices == 2
    tiny = merge_vertices(P((0, 0), (0.1, 0), (0.2, 0)), 1.0)
    assert tiny.n_vertices == 1
    keep = merge_vertices(P((0, 0), (1, 0), (2, 0)), 1e-9)
    assert keep.n_vertices == 3
    # zero eps keeps every vertex: a Polyline has no zero-length segment
    assert merge_vertices(P((0, 0), (1, 0)), 0.0).n_vertices == 2
