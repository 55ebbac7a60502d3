import math
import timeit

import numpy as np
import pytest

from pencurve.curve import (
    Polyline,
    axis_norms,
    merge_vertices,
    point_segment_foot,
    self_intersections_2d,
)
from pencurve.errors import PencurveError


def V(*pts):
    return np.array(pts, dtype=float)


def P(*pts):
    return Polyline(V(*pts))


def test_length_examples():
    assert P((0, 0)).total_length == 0.0
    assert P((0, 0), (1, 0), (1, 1)).total_length == pytest.approx(2.0)
    assert P((0, 0), (3, 4)).total_length == pytest.approx(5.0)


def test_zero_segment_rejected():
    with pytest.raises(PencurveError):
        P((0, 0), (0, 0), (1, 0))


def test_turning_angles():
    assert P((0, 0), (1, 0), (2, 0)).turning_angles.tolist() == [0.0]
    assert P((0, 0), (1, 0), (1, 1)).turning_angles[0] == pytest.approx(np.pi / 2)
    assert P((0, 0), (1, 0)).turning_angles.size == 0


def tv(c):
    """Total variation of the unit tangent: the sum of the turning angles."""
    return float(np.sum(c.turning_angles))


def test_tv_examples_and_additivity():
    straight = P((0, 0), (1, 0), (2, 0), (3, 0), (4, 0))
    assert tv(straight) == 0.0
    square = P((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    assert tv(square) == pytest.approx(3 * np.pi / 2)
    rng = np.random.default_rng(5)
    c = Polyline(rng.uniform(0, 1, (9, 2)))
    mid = 4
    left = tv(Polyline(c.vertices[: mid + 1]))
    right = tv(Polyline(c.vertices[mid:]))
    shared = c.turning_angles[mid - 1]
    assert left + right + shared == pytest.approx(tv(c), rel=1e-12)


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


def _norm(x):
    """Length of one vector, its squares added coordinate by coordinate."""
    return math.sqrt(sum(q * q for q in x.tolist()))


def _angle_loop(c):
    """Reference for Polyline.turning_angles and .unit_tangents: one vertex at a time."""
    units = [u / _norm(u) for u in c.segment_vectors]
    out = [2.0 * math.atan2(_norm(a - b), _norm(a + b)) for a, b in zip(units[:-1], units[1:])]
    return np.array(out), np.array(units).reshape(-1, c.dim)


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
        angles, units = _angle_loop(Polyline(distinct))
        assert np.array_equal(Polyline(distinct).turning_angles, angles)
        assert np.array_equal(Polyline(distinct).unit_tangents, units)
        assert np.array_equal(axis_norms(verts), [_norm(v) for v in verts])


def test_through_equals_polyline_of_merged_vertices():
    rng = np.random.default_rng(12)
    cases = [V((0, 0), (0, 0), (1, 0), (1, 0), (1, 0)),
             V((0, 0), (1e-200, 0), (1, 0)),  # a difference whose square underflows to 0
             V((2, 3))]
    for _ in range(60):
        verts = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(2, 4))))
        repeats = rng.uniform(size=len(verts) - 1) < 0.3
        verts[1:][repeats] = verts[:-1][repeats]
        cases.append(verts)
    for verts in cases:
        ref, c = Polyline(merge_vertices(verts, 0.0)), Polyline.through(verts)
        for name in ("vertices", "segment_vectors", "segment_lengths", "cumulative_lengths"):
            got, want = getattr(c, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert not c.vertices.flags.writeable
    with pytest.raises(PencurveError, match="non-finite"):
        Polyline.through(V((0, 0), (np.nan, 1)))
    with pytest.raises(PencurveError, match="m >= 1"):
        Polyline.through(np.zeros((0, 2)))


def _foot_loop(x, a, b):
    """Reference for point_segment_foot: one point, coordinates added in order."""
    ab = b - a
    denom = sum(q * q for q in ab.tolist())
    dot = sum(u * v for u, v in zip((x - a).tolist(), ab.tolist()))
    t = 0.0 if denom == 0.0 else float(np.clip(dot / denom, 0.0, 1.0))
    foot = a + t * ab
    return _norm(x - foot), foot


def _segment_cases(rng):
    """(points, a, b): random segments, a point segment, and signed zeros."""
    zeros = V((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 1.0), (1.0, -0.0))
    yield zeros, V((-0.0, 0.0))[0], V((0.0, -0.0))[0]
    yield zeros, V((-0.0, -0.0))[0], V((1.0, 0.0))[0]
    yield rng.normal(size=(50, 2)), V((0.5, -0.5))[0], V((0.5, -0.5))[0]
    for d in (2, 3):
        for _ in range(20):
            a, b = rng.normal(size=(2, d))
            X = np.concatenate([rng.normal(size=(30, d)), [a, b, 0.5 * (a + b)]])
            yield X, a, b


def test_point_segment_foot_matches_the_loop():
    for X, a, b in _segment_cases(np.random.default_rng(19)):
        dist, feet = point_segment_foot(X, a, b)
        ref = [_foot_loop(x, a, b) for x in X]
        assert dist.tobytes() == np.array([r[0] for r in ref]).tobytes()
        assert feet.tobytes() == np.array([r[1] for r in ref]).tobytes()


def _reduce_norms(x):
    """The numpy form axis_norms must equal bit for bit."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


@pytest.mark.parametrize("d", range(11))  # numpy's reduce sums 8 or more terms pairwise
def test_axis_norms_equal_the_reduce_bitwise(d):
    rng = np.random.default_rng(d)
    scales = np.array([5e-324, 1e-200, 1.0, 1e154, np.inf, np.nan])
    for n in (0, 1, 3, 1000):
        for _ in range(5):
            x = rng.normal(size=(n, d)) * rng.choice(scales[:4], size=(n, d))
            if n:
                x[rng.integers(0, n, size=max(1, n // 20))] = rng.choice(scales, size=d)
            with np.errstate(over="ignore", invalid="ignore"):  # 1e154 squares overflow in sums
                assert axis_norms(x).tobytes() == _reduce_norms(x).tobytes()


def test_axis_norms_are_not_slower_than_the_reduce():
    # the column sums must pay off on plan-sized arrays and cost nothing on tiny ones
    rng = np.random.default_rng(3)
    for shape, ratio in (((3, 2), 1.5), ((1000, 2), 1.0)):
        x = rng.normal(size=shape)
        best = {axis_norms: math.inf, _reduce_norms: math.inf}
        for _ in range(7):
            for f in best:
                best[f] = min(best[f], timeit.timeit(lambda: f(x), number=2000))
        assert best[axis_norms] <= ratio * best[_reduce_norms]
