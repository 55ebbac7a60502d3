"""Finite weighted point clouds in R^d: ingestion, synthesis, basic geometry."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import DimensionMismatchError, ParseError, PencurveError

SYNTH_FAMILIES = ("uniform_square", "gaussian_clusters", "noisy_circle", "noisy_segment")
# the coordinate range that load_measure accepts: 2^500 is about 3.27e150
COORD_MAX, SPAN_MIN = 2.0**500, 2.0**-500
GRAD_LOG2_MAX = 511  # at p > 2: p * mass * diam^(p-1) at most 2^511, so its square is a float


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finite positive measure given by weighted atoms.

    positions: (n, d) float array, one atom per row (row order is the
    deterministic summation order used everywhere downstream).
    masses: (n,) strictly positive weights. Not renormalized on load.
    Both are read-only copies of the given arrays, so the 2-D hull, the
    diameter and the reach, each computed on first use, stay valid.
    """

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        mas = np.array(self.masses, dtype=float)
        if pos.ndim != 2 or pos.shape[0] == 0:
            raise PencurveError("measure needs at least one atom, got shape %s" % (pos.shape,))
        if pos.shape[1] < 2:
            raise PencurveError("ambient dimension must be >= 2, got %d" % pos.shape[1])
        if mas.shape != (pos.shape[0],):
            raise PencurveError("mass array shape %s does not match %d atoms" % (mas.shape, pos.shape[0]))
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(mas)):
            raise PencurveError("non-finite atom position or mass")
        if np.any(mas <= 0):
            raise PencurveError("all masses must be strictly positive")
        pos.setflags(write=False)
        mas.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mas)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    @cached_property
    def _hull(self) -> np.ndarray:
        return _monotone_chain(self.positions)

    @cached_property
    def reach(self) -> float:
        """Largest |coordinate| of any atom, computed once."""
        return float(np.max(np.abs(self.positions)))

    @cached_property
    def _diameter(self) -> float:
        return _max_pair_distance(convex_hull_2d(self) if self.dim == 2 else self.positions)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [
                {"x": [float(c) for c in x], "m": float(m)}
                for x, m in zip(self.positions, self.masses)
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "DiscreteMeasure":
        return _measure_from_json_dict(data)


def load_measure(source, format: str) -> DiscreteMeasure:
    """Parse a measure from a byte/text stream.

    CSV: one atom per line, comma separated, no header. Two columns are
    read as 2-D coordinates with uniform masses 1/n; with three or more
    columns the last one is the mass and the rest are coordinates.
    JSON: {"dim": d, "atoms": [{"x": [...], "m": ...}, ...]}, "m" optional
    (all atoms or none). Coordinates outside the range of `_in_range`
    raise PencurveError.
    """
    text = source.read() if hasattr(source, "read") else source
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"measure input is not UTF-8: {exc}") from exc
    if format == "csv":
        return _in_range(_parse_csv(text))
    if format == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        return _in_range(_measure_from_json_dict(data))
    raise ParseError(f"unknown measure format {format!r}")


def _in_range(mu: DiscreteMeasure) -> DiscreteMeasure:
    """The measure, if its coordinates are in the supported range.

    Every |coordinate| is at most COORD_MAX, and the larger side of the
    bounding box is 0 (all atoms coincide) or at least SPAN_MIN. Then
    squared distances and p = 2 energies are normal floats.
    """
    reach = mu.reach
    # column by column: numpy reduces an (n, 2) array along axis 0 about 10x slower
    span = max(float(np.ptp(col)) for col in mu.positions.T)
    if reach > COORD_MAX or 0.0 < span < SPAN_MIN:
        raise PencurveError(
            f"coordinates out of the supported range: largest |x| {reach:.3g} (at most "
            f"{COORD_MAX:.3g}), bounding-box side {span:.3g} (0 or at least {SPAN_MIN:.3g})"
        )
    return mu


def vertices_in_range(verts: np.ndarray) -> np.ndarray:
    """verts, if every |coordinate| is at most COORD_MAX, as for measures: squares stay floats."""
    if (reach := float(np.max(np.abs(verts), initial=0.0))) > COORD_MAX:
        raise PencurveError(f"curve coordinates out of the supported range: largest |x| "
                            f"{reach:.3g} (at most {COORD_MAX:.3g})")
    return verts


def in_range_at(mu: DiscreteMeasure, p: float) -> DiscreteMeasure:
    """The measure, if its energy at exponent p stays in the float range.

    The coordinate range of `_in_range` makes p <= 2 energies normal
    floats. At a finite p > 2 the first variation's scale
    p * mass * diam^(p-1) must also be at most 2^GRAD_LOG2_MAX, so that its
    squares and the energy mass * diam^p are normal floats too. fit,
    full_report and brute_force_min refuse a measure outside this range.
    """
    _in_range(mu)
    if 2.0 < p < math.inf and diameter(mu) > 0.0:
        spare = GRAD_LOG2_MAX - math.log2(p * mu.total_mass)
        if (p - 1.0) * math.log2(diameter(mu)) > spare:
            raise PencurveError(
                f"coordinates out of the supported range at p = {p:g}: diameter "
                f"{diameter(mu):.3g} (at most {2.0 ** (spare / (p - 1.0)):.3g} at total mass "
                f"{mu.total_mass:.3g})"
            )
    return mu


def _parse_csv(text: str) -> DiscreteMeasure:
    lines = text.splitlines()
    rows = list(filter(None, map(str.strip, lines)))
    if not rows:
        raise ParseError("no atoms in CSV input")
    ncols = rows[0].count(",") + 1
    try:  # every field in one call; only a failing input is read again row by row
        if ncols < 2 or set(map(str.count, rows, repeat(","))) != {ncols - 1}:
            raise ValueError
        values = np.array(",".join(rows).split(","), dtype=float).reshape(len(rows), ncols)
    except ValueError:
        values = _parse_rows(lines)
    if ncols >= 3:
        coords, masses = values[:, :-1], values[:, -1]
        bad = np.flatnonzero(~(masses > 0))
        if bad.size:
            lineno = [k for k, raw in enumerate(lines, start=1) if raw.strip()][bad[0]]
            raise ParseError(f"non-positive mass {masses[bad[0]]}", line=lineno)
    else:
        coords, masses = values, np.full(len(rows), 1.0 / len(rows))
    return DiscreteMeasure(coords, masses)


def _parse_rows(lines: list) -> np.ndarray:
    """Row-by-row parse: the first bad line in file order raises.

    Blank lines are skipped. Within a line a malformed field outranks a
    field count that differs from the first row's; the first row needs at
    least 2 fields.
    """
    values = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            row = [float(f) for f in line.split(",")]
        except ValueError:
            raise ParseError(f"malformed row {raw!r}", line=lineno)
        if not values and len(row) < 2:
            raise ParseError("need at least 2 coordinates per atom", line=lineno)
        if values and len(row) != len(values[0]):
            raise ParseError(
                f"inconsistent dimension: expected {len(values[0])} fields, got {len(row)}",
                line=lineno,
            )
        values.append(row)
    return np.array(values, dtype=float)


def _measure_from_json_dict(data: dict) -> DiscreteMeasure:
    try:
        dim = int(data["dim"])
        atoms = data["atoms"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"measure JSON needs an integer 'dim' and 'atoms': {exc}") from exc
    if not atoms or not isinstance(atoms, list) or not all(isinstance(a, dict) for a in atoms):
        raise ParseError("measure JSON 'atoms' must be a nonempty list of {'x': [...], 'm': ...}")
    coords, masses = [], []
    mass_seen = "m" in atoms[0]
    for idx, atom in enumerate(atoms):
        x = atom.get("x")
        if not isinstance(x, list) or len(x) != dim:
            raise ParseError(f"atom {idx}: coordinate vector of length {dim} required")
        if ("m" in atom) != mass_seen:
            raise ParseError(f"atom {idx}: masses must be given for all atoms or none")
        try:
            coords.append([float(c) for c in x])
            masses.append(float(atom.get("m", 1.0)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"atom {idx}: coordinates and mass must be numbers: {exc}") from exc
        if not masses[-1] > 0:
            raise ParseError(f"atom {idx}: non-positive mass {masses[-1]}")
    n = len(coords)
    mass_arr = np.array(masses) if mass_seen else np.full(n, 1.0 / n)
    return DiscreteMeasure(np.array(coords, dtype=float), mass_arr)


def diameter(mu: DiscreteMeasure) -> float:
    """Largest pairwise distance among atom positions (0 for one atom).

    In 2-D the farthest pair is a pair of convex-hull vertices, so only the
    hull is searched: O(n log n) overall. Other dimensions compare all
    pairs in row chunks. Computed once per measure.
    """
    return mu._diameter


def tie_tolerance(diam: float) -> float:
    """Length below which two points count as one: 1e-9 of the diameter.

    A measure whose atoms all coincide has no length scale, so its diameter
    0 counts as 1. Ties, merges, turn sides and contacts all use it.
    """
    return 1e-9 * (diam or 1.0)


def _max_pair_distance(pos: np.ndarray) -> float:
    e = _exponent(pos)
    pos = np.ldexp(pos, -e)  # below 1 by an exact 2^-e: no square overflows
    n = pos.shape[0]
    best = 0.0
    chunk = max(1, int(2_000_000 // n))
    for i0 in range(0, n, chunk):
        block = pos[i0 : i0 + chunk]
        d2 = np.sum((block[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
        best = max(best, float(np.max(d2)))
    return math.ldexp(math.sqrt(best), e)


def _exponent(pos: np.ndarray) -> int:
    """The e with every |coordinate| below 2^e, as small as that allows."""
    return math.frexp(float(np.max(np.abs(pos))))[1]


def _cross2(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(mu: DiscreteMeasure) -> np.ndarray:
    """Counterclockwise hull vertices of the support, read-only.

    Collinear points are dropped from the vertex list, so collinear input
    yields the two extreme points and a single atom yields itself.
    Computed once per measure.
    """
    if mu.dim != 2:
        raise DimensionMismatchError(f"convex hull implemented for d=2 only, got d={mu.dim}")
    return mu._hull


def _sorted_unique(positions: np.ndarray) -> np.ndarray:
    """Distinct 2-D rows sorted by x, then y: one stable sort, repeats dropped.

    Of rows equal up to the sign of a zero coordinate, the first in row
    order keeps its bits.
    """
    pts = positions[np.lexsort((positions[:, 1], positions[:, 0]))]
    return pts[np.concatenate([[True], np.any(pts[1:] != pts[:-1], axis=1)])]


def _deep_interior(pos: np.ndarray) -> np.ndarray:
    """Rows more than a margin inside the polygon P of extreme rows.

    P joins, in counterclockwise order, the rows that are extreme along 32
    fixed directions (the argmax and argmin of x cos t + y sin t for 16
    angles t). A row is deep when its computed cross product with every
    edge of P exceeds 2^-30 W^2, W the larger side of the bounding box.
    """
    x, y = pos[:, 0], pos[:, 1]
    hi, lo = [], []
    for t in np.arange(16) * (math.pi / 16):
        proj = x * math.cos(t) + y * math.sin(t)
        hi.append(int(np.argmax(proj)))
        lo.append(int(np.argmin(proj)))
    ring = hi + lo
    ring = [i for k, i in enumerate(ring) if i != ring[k - 1]]
    if len(ring) < 3:  # collinear or coincident rows: no interior
        return np.zeros(len(pos), dtype=bool)
    deep = np.ones(len(pos), dtype=bool)
    margin = 2.0**-30 * max(float(np.ptp(col)) for col in pos.T) ** 2
    ox, oy = pos[ring[0]].tolist()
    x, y = x - ox, y - oy
    corners = (pos[ring] - pos[ring[0]]).tolist()
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        dx, dy = bx - ax, by - ay
        deep &= dx * y - dy * x > dx * ay - dy * ax + margin
    return deep


def _monotone_chain(positions: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain (IPL 9:216, 1979) behind Akl & Toussaint's
    interior-point filter (IPL 7:219, 1978).

    The rows are scaled by an exact power of two into (-1, 1) and the
    vertices scaled back. Neither step rounds (unless subnormal coordinates
    sit beside coordinates of 1 or more), so the hull of X 2^k is the hull
    of X times 2^k at every finite scale, and no cross product overflows.

    Why a dropped row cannot change the output. A row q is dropped when
    its computed cross product with every edge of the polygon P of
    `_deep_interior` exceeds 2^-30 W^2. That computation errs by less than
    2^-46 W^2, so q is strictly left of every edge, P winds around q, and q
    lies inside the hull of the rows, about 2^-32 W or more from its
    boundary. Take the lower chain (the upper one is its mirror) and two
    consecutive strict vertices u, v of the lower hull. Every row sorted
    between them lies on or above the line uv, so when v arrives the chain
    pops every row pushed after u, whatever rows those are, and keeps u:
    the stack after v is the hull up to v, with or without the dropped rows.
    A `_cross2` errs by less than 2^-46 W^2, so a test can come out wrong
    only on rows collinear to within that. Rows that close to uv lie within
    the margin of P's edges or outside P, and the filter keeps all of them;
    a dropped row sits far above uv, and the tests that pop it keep their
    exact sign. The tests compare the output bit for bit with the
    unfiltered chain on the synthetic families up to 10^5 rows, on grids,
    rounded circles and lines, repeats and signed zeros, and at scales
    2^-700 to 2^700.
    """
    e = _exponent(positions)
    pos = np.ldexp(positions, -e)
    pts = _sorted_unique(pos[~_deep_interior(pos)])
    if len(pts) > 1:
        pts = pts.tolist()  # python floats: the same IEEE arithmetic, without numpy scalar overhead
        lower: list = []
        for p in pts:
            while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        upper: list = []
        for p in pts[::-1]:
            while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
                upper.pop()
            upper.append(p)
        pts = np.array(lower[:-1] + upper[:-1], dtype=float)
    pts = np.ldexp(pts, e)
    pts.setflags(write=False)
    return pts


def _nested_cells(mu: DiscreteMeasure):
    """Atoms ordered so that every cell of every grid level is a run of them.

    Level l cuts the atoms' bounding cube into 2^l cells per axis, for
    l = 1 .. levels, where levels = ceil(log2(n) / d) leaves about one atom
    per finest cell. Returns (order, key, levels): atom order[j] has the
    Morton key key[j], ascending, whose top d * l bits name its level-l
    cell. A single atom, coincident atoms, a span that overflows or a key
    past 62 bits give levels = 0: one cell.
    """
    X = mu.positions
    n, d = X.shape
    levels = math.ceil(math.log2(n) / d)
    lo = np.array([np.min(col) for col in X.T])  # column by column: 10x faster than axis=0
    span = max(float(np.max(col)) - low for col, low in zip(X.T, lo))
    side = span / 2.0 ** levels
    if not 0.0 < side < np.inf or d * levels > 62:
        return np.arange(n), np.zeros(n, dtype=np.int64), 0
    idx = np.minimum(np.floor((X - lo) / side), 2 ** levels - 1).astype(np.int64)
    # bit b of axis k goes to key bit d * b + d - 1 - k, through a table that
    # spreads the bits of a byte d places apart (bits past `levels` never occur)
    bits = np.arange(min(levels, 8))
    spread = ((np.arange(256)[:, None] >> bits & 1) << d * bits).sum(axis=1)
    key = np.zeros(n, dtype=np.int64)
    for k in range(d):
        for low in range(0, levels, 8):
            key |= spread[idx[:, k] >> low & 255] << (d * low + d - 1 - k)
    order = np.arange(n)
    for low in range(0, d * levels, 16):  # a radix sort: stable sorts of 16-bit digits
        order = order[np.argsort((key[order] >> low).astype(np.uint16), kind="stable")]
    return order, key[order], levels


def synth_measure(family: str, n: int, seed: int, **params) -> DiscreteMeasure:
    """Deterministic synthetic test measures with uniform masses 1/n.

    Families:
      uniform_square     iid uniform on [0,1]^2
      gaussian_clusters  k blobs (params: k=3, spread=0.06)
      noisy_circle       radial Gaussian noise around a circle
                         (params: radius=0.35, noise=0.02, center=(0.5,0.5))
      noisy_segment      points near a segment (params: start=(0,0),
                         end=(1,0), noise=0.05)
    """
    if n < 1:
        raise PencurveError("synth_measure needs n >= 1")
    if family not in SYNTH_FAMILIES:
        raise PencurveError(f"unknown family {family!r}; choose from {SYNTH_FAMILIES}")
    rng = np.random.default_rng(seed)
    if family == "uniform_square":
        pos = rng.uniform(0.0, 1.0, size=(n, 2))
    elif family == "gaussian_clusters":
        k = int(params.get("k", 3))
        spread = float(params.get("spread", 0.06))
        centers = rng.uniform(0.15, 0.85, size=(k, 2))
        labels = rng.integers(0, k, size=n)
        pos = centers[labels] + rng.normal(0.0, spread, size=(n, 2))
    elif family == "noisy_circle":
        radius = float(params.get("radius", 0.35))
        noise = float(params.get("noise", 0.02))
        center = np.asarray(params.get("center", (0.5, 0.5)), dtype=float)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        r = radius + rng.normal(0.0, noise, size=n)
        pos = center + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    else:  # noisy_segment
        start = np.asarray(params.get("start", (0.0, 0.0)), dtype=float)
        end = np.asarray(params.get("end", (1.0, 0.0)), dtype=float)
        noise = float(params.get("noise", 0.05))
        t = rng.uniform(0.0, 1.0, size=(n, 1))
        pos = start + t * (end - start)
        if noise > 0:
            pos = pos + rng.normal(0.0, noise, size=(n, 2))
    return DiscreteMeasure(pos, np.full(n, 1.0 / n))
