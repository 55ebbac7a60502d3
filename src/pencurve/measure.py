"""Finite weighted point clouds in R^d: ingestion, synthesis, basic geometry."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ParseError, PencurveError

SYNTH_FAMILIES = ("uniform_square", "gaussian_clusters", "noisy_circle", "noisy_segment")


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finite positive measure given by weighted atoms.

    positions: (n, d) float array, one atom per row (row order is the
    deterministic summation order used everywhere downstream).
    masses: (n,) strictly positive weights. Not renormalized on load.
    Both are read-only copies of the given arrays, so the 2-D hull and the
    diameter, each computed on first use, stay valid.
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
    (all atoms or none).
    """
    text = source.read() if hasattr(source, "read") else source
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if format == "csv":
        return _parse_csv(text)
    if format == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        return _measure_from_json_dict(data)
    raise ParseError(f"unknown measure format {format!r}")


def _parse_csv(text: str) -> DiscreteMeasure:
    rows = []
    ncols = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise ParseError(f"malformed row {raw!r}", line=lineno)
        if ncols is None:
            ncols = len(values)
            if ncols < 2:
                raise ParseError("need at least 2 coordinates per atom", line=lineno)
        elif len(values) != ncols:
            raise ParseError(
                f"inconsistent dimension: expected {ncols} fields, got {len(values)}",
                line=lineno,
            )
        rows.append((lineno, values))
    if not rows:
        raise ParseError("no atoms in CSV input")
    has_mass = ncols >= 3
    coords = np.array([v[:-1] if has_mass else v for _, v in rows], dtype=float)
    if has_mass:
        masses = np.array([v[-1] for _, v in rows], dtype=float)
        for (lineno, _), m in zip(rows, masses):
            if not m > 0:
                raise ParseError(f"non-positive mass {m}", line=lineno)
    else:
        masses = np.full(len(rows), 1.0 / len(rows))
    return DiscreteMeasure(coords, masses)


def _measure_from_json_dict(data: dict) -> DiscreteMeasure:
    try:
        dim = int(data["dim"])
        atoms = data["atoms"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"measure JSON needs 'dim' and 'atoms': {exc}") from exc
    if not atoms:
        raise ParseError("no atoms in JSON input")
    coords = []
    masses = []
    mass_seen = "m" in atoms[0]
    for idx, atom in enumerate(atoms):
        x = atom.get("x")
        if x is None or len(x) != dim:
            raise ParseError(f"atom {idx}: coordinate vector of length {dim} required")
        if ("m" in atom) != mass_seen:
            raise ParseError(f"atom {idx}: masses must be given for all atoms or none")
        coords.append([float(c) for c in x])
        if mass_seen:
            m = float(atom["m"])
            if not m > 0:
                raise ParseError(f"atom {idx}: non-positive mass {m}")
            masses.append(m)
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
    n = pos.shape[0]
    best = 0.0
    chunk = max(1, int(2_000_000 // n))
    for i0 in range(0, n, chunk):
        block = pos[i0 : i0 + chunk]
        d2 = np.sum((block[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
        best = max(best, float(np.max(d2)))
    return float(np.sqrt(best))


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


def _monotone_chain(positions: np.ndarray) -> np.ndarray:
    pts = np.unique(positions, axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
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
    pts.setflags(write=False)
    return pts


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
