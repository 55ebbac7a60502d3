"""The bytes of `full_report`, pinned by one SHA-256 per case.

Each case is a seeded cloud and a seeded random-walk curve across it:
the four synthetic families at n = 300 and p = 1, 1.5, 2 and 3; the
length bound's pruning regime at n = 3500 (noisy_circle at p = 2,
uniform_square at p = 1); and a 3-D Gaussian cloud. The walks turn by
small steps, so that the window sweeps see both eligible and ineligible
windows. A digest is of `json.dumps(report.to_dict(), sort_keys=True)`,
which holds every certificate's bound, observed value and detail string.
The recorded digests date from before the length-bound search bounded
cells coarse to fine and the window sweeps became array passes, except
two: noisy_circle-3500-p2 and uniform_square-3500-p1 were re-pinned when
turn_direction began to read its window masses from prefix sums, which
moved only its observed value, by 1.9e-16 and 3.0e-15 relative
(tests/test_diagnostics.py bounds that move on every case).
"""

import hashlib
import json

import numpy as np
import pytest

from pencurve.curve import Polyline
from pencurve.diagnostics import full_report
from pencurve.measure import SYNTH_FAMILIES, DiscreteMeasure, synth_measure

LAM = 0.01
CASES = {f"{family}-300-p{p:g}": (family, 300, p) for family in SYNTH_FAMILIES
         for p in (1.0, 1.5, 2.0, 3.0)}
CASES |= {"noisy_circle-3500-p2": ("noisy_circle", 3500, 2.0),
          "uniform_square-3500-p1": ("uniform_square", 3500, 1.0),
          "gaussian3d-300-p2": ("gaussian3d", 300, 2.0)}
DIGESTS = {
    "gaussian3d-300-p2": "fc2d541ab32e8d727d33d6db650c542df12582a67162469cc744555a613bf792",
    "gaussian_clusters-300-p1": "10d385d24745892e8a484bf825ecf82bc4c934b6c580cc0d3e4627e0485d8488",
    "gaussian_clusters-300-p1.5":
        "07491ad4f41c442cc56b795698d4eedadbde11ea60f77e7120b58f53b9786923",
    "gaussian_clusters-300-p2": "e03422a28343a77f8c52bb88d43f692762e780a7a3a4bea6f7ee1ecbe74ba598",
    "gaussian_clusters-300-p3": "653d857050e5e98330bff042cf0886ddd8cab3963b31aa1347d47dec8d5478c7",
    "noisy_circle-300-p1": "eefdfbbcbafd0ca7c7a4a07fb06e214bb4a063a1631e78a962b05f0aa7abcd4b",
    "noisy_circle-300-p1.5": "8e3c9c63d173a2edcbe670ded0770ff6c8692b92ff01f227c1109de54a119857",
    "noisy_circle-300-p2": "8047de2417f2faf36fea01adfe0115063a4aef772f1e453c40c2bd1d80a9ec0c",
    "noisy_circle-300-p3": "881706c900904f75b6e45b192dbd24dc8e5b34dccaa4bc0ba95bcfbaa82f852e",
    "noisy_circle-3500-p2": "e05191372ba5346154a3923b109715d9dd27f69d7fa0d7b16a2d5a7f8befa0be",
    "noisy_segment-300-p1": "74f528fa9cfe5c6adacb0d43b6e917cc655c93a406c1cb04f10f58889de8909d",
    "noisy_segment-300-p1.5": "d5b7c607b4b4352596930c752f05d9031fd90a317bd277866873f6c29c31db34",
    "noisy_segment-300-p2": "f480624fc0ed58c8499aa2ab4ee0f92734cecb65f715e92f3a0df2dc5970913b",
    "noisy_segment-300-p3": "ccf05a63c1cc3eee663ba6cce23b14e1cb5f86f49c1013117aa66e8e87a8a3f8",
    "uniform_square-300-p1": "2d8a0d8d3378b40423c931256c666047f96e51d89fc90e7da136e516ceb953a3",
    "uniform_square-300-p1.5": "46b6ec0428af2fb6f7e9083f8692bfb1f74c94e17c94ad761637770dcf6e7aba",
    "uniform_square-300-p2": "797f3337ce5b9d0190405b16e59eda051a8c1249935d330c406715c6ccd3d718",
    "uniform_square-300-p3": "c5c40a805083afa866d0401d8c45d1f3b9b0c6edc10fec66f83e1846e60a033e",
    "uniform_square-3500-p1": "973c39b1d9f9c35317eef1f185f6268732670170f1f40a58c97cbc605a2050f9",
}


def _walk(rng, m: int, d: int, turn: float) -> Polyline:
    """m vertices from a seeded start, steps of 0.015 to 0.035 whose heading drifts by `turn`."""
    steps = rng.normal(0.0, 1.0, (m - 1, d))
    steps[0] /= np.linalg.norm(steps[0])
    for k in range(1, m - 1):  # each step the previous one's direction, nudged
        steps[k] = steps[k - 1] + turn * steps[k]
        steps[k] /= np.linalg.norm(steps[k])
    steps *= rng.uniform(0.015, 0.035, (m - 1, 1))
    start = rng.uniform(0.3, 0.45, (1, d))
    return Polyline(np.concatenate([start, start + np.cumsum(steps, axis=0)]))


def _case(name: str):
    family, n, p = CASES[name]
    seed = sorted(CASES).index(name)
    rng = np.random.default_rng(seed)
    if family == "gaussian3d":
        mu = DiscreteMeasure(0.5 + 0.2 * rng.normal(size=(n, 3)), rng.uniform(0.1, 1.0, n))
    else:
        mu = synth_measure(family, n, seed=seed)
    return mu, _walk(rng, 20, mu.dim, (0.05, 0.2, 0.6)[seed % 3]), p


def report_digest(name: str) -> str:
    mu, c, p = _case(name)
    text = json.dumps(full_report(mu, c, p, LAM).to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_the_recorded_ones(name):
    assert report_digest(name) == DIGESTS[name]
