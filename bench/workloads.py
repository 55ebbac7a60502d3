"""The four benchmark workloads: seeded inputs, the timed operations, output checks.

Each workload is a fixed list of jobs made from the seed. One round runs
every job once; the worker repeats rounds and reports per-round totals.
README.md in this directory gives the reason for each workload and size.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import pencurve.cli as cli
from pencurve import DiscreteMeasure, FitConfig, OracleConfig, Polyline, synth_measure
from pencurve import brute_force_min, certify_fit, energy, fit, gradient
from pencurve.errors import NonSmoothPointError
from pencurve.oracle import lipschitz_constant

from harness import Round

WORKLOADS = ("fit_scale", "fit_exponents", "oracle_certify", "check_large")

# Sizes chosen so one round fits the run budget; README.md gives the
# seed-commit timings they were scaled from.
FIT_FAMILY = "noisy_segment"
SCALE_N, SCALE_DRAWS, SCALE_M_INIT, SCALE_ITERS = 1000, 2, 100, 10
EXPONENTS_N, EXPONENTS_DRAWS, EXPONENTS_ITERS = 200, 2, 12
EXPONENTS_P = (1.0, 1.5, 2.0, 3.0)
# 12 instances: one per (n, p, lam) in {3, 4, 5} x {1, 2} x {0.05, 0.2}, so the
# seed moves only the atoms; a cap of 5 stops most restarts at the cap, so the
# seed barely moves the iteration count either
CERTIFY_INSTANCES, CERTIFY_ITERS, CERTIFY_H = 12, 5, 0.025
CERTIFY_BOX = 0.6  # typical bounding-box side of 3-5 uniform atoms in the unit square
CHECK_N, CHECK_ARC_VERTICES = 3500, 24

TRIANGLE = DiscreteMeasure(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]), np.full(3, 1.0 / 3.0))
TRIANGLE_CFG = OracleConfig(m=2, h=0.025, p=1.0, lam=1.0)
# brute_force_min(TRIANGLE, TRIANGLE_CFG) at the commit that added this benchmark
TRIANGLE_ENERGY = 0.5773795158203555

CERTIFICATES = ("length_bound", "hull_containment", "tv_global", "tv_local",
                "turn_direction", "injectivity")


def _subseed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def oracle_cost(mu: DiscreteMeasure, m: int, h: float) -> dict:
    """Grid size, pair-cost evaluations and array bytes of brute_force_min.

    Computed from (n, m, h) with the formulas brute_force_min uses, before
    the call; bytes count the float64 arrays the search keeps alive.
    """
    lo = np.min(mu.positions, axis=0)
    hi = np.max(mu.positions, axis=0)
    axes = [1 if hi[k] - lo[k] <= 0.0 else max(2, math.ceil((hi[k] - lo[k]) / h - 1e-9) + 1)
            for k in range(2)]
    G = axes[0] * axes[1]
    n = mu.n_atoms
    if m == 1:
        work, floats = n * G, n * G
    elif m == 2:
        work = floats = (n + 1) * G * G
    elif m == 3:
        work = (n + 2 ** (n + 1)) * G * G
        floats = (n + 1) * G * G + 2 * 2 ** n * G
    else:
        work = (n + ((m - 1) ** n) * (m - 1)) * G * G
        floats = (n + 1 + (m - 1)) * G * G
    return {"grid_points": G, "pair_cost_evals": work, "bytes": 8 * floats}


def fit_problems(mu, cfg, result) -> tuple[list, float]:
    """Output checks on one fit; returns (problems, energy recomputed by energy())."""
    problems = []
    total = result.breakdown.total
    if not math.isfinite(total):
        problems.append(f"non-finite energy {total}")
    trace = np.asarray(result.energy_trace)
    rises = np.nonzero(trace[1:] - trace[:-1] > 1e-12 * np.abs(trace[:-1]))[0]
    if rises.size:
        k = int(rises[0])
        problems.append(f"energy_trace rises at {k}: {trace[k]!r} -> {trace[k + 1]!r}")
    recomputed = energy(mu, result.curve, cfg.p, cfg.lam).total
    if not abs(recomputed - total) <= 1e-12 * abs(total):
        problems.append(f"energy() gives {recomputed!r}, fit reports {total!r}")
    return problems, recomputed


def fit_facts(mu, cfg, result, recomputed: float, with_gradient: bool) -> dict:
    facts = {
        "energy": recomputed,
        "iterations": result.iterations,
        "hit_max_iters": result.iterations == cfg.max_outer_iters,
    }
    if with_gradient:
        try:
            g = gradient(mu, result.curve, cfg.p, cfg.lam)
            facts["grad_max"] = float(np.max(np.linalg.norm(g, axis=1))) / cfg.lam
        except NonSmoothPointError:
            facts["grad_undefined"] = True
    return facts


class FitJob:
    def __init__(self, tag, mu, cfg):
        self.tag, self.mu, self.cfg = tag, mu, cfg

    def run(self, rnd: Round):
        return rnd.call("fit", "fit", "optimizer", fit, self.mu, self.cfg)

    def check(self, out, with_gradient: bool):
        problems, recomputed = fit_problems(self.mu, self.cfg, out)
        return problems, fit_facts(self.mu, self.cfg, out, recomputed, with_gradient)


class CertifyJob:
    """Fit a tiny instance, then certify the fit against the grid oracle."""

    def __init__(self, tag, mu, cfg, ocfg):
        self.tag, self.mu, self.cfg, self.ocfg = tag, mu, cfg, ocfg

    def run(self, rnd: Round):
        res = rnd.call("fit", "fit", "optimizer", fit, self.mu, self.cfg)
        cost = oracle_cost(self.mu, self.ocfg.m, self.ocfg.h)
        rec = rnd.call("oracle", "certify_fit", "oracle", certify_fit, self.mu, res.curve,
                       self.ocfg)
        return res, rec, cost

    def check(self, out, with_gradient: bool):
        res, rec, cost = out
        problems, recomputed = fit_problems(self.mu, self.cfg, res)
        facts = fit_facts(self.mu, self.cfg, res, recomputed, with_gradient)
        if rec["status"] == "SKIPPED":
            problems.append(f"certify_fit SKIPPED: {rec.get('reason')}")
            del facts["energy"]
        else:
            # relative to the instance's grid optimum, so the random instances'
            # own energy scale drops out and 1.0 means "as good as the oracle"
            facts["energy"] = recomputed / rec["oracle_energy"]
        facts["certified"] = rec["status"] == "PASS"
        facts["oracle"] = cost
        return problems, facts


class TriangleJob:
    """Oracle on the equilateral triangle: the memory-bound m=2 path."""

    tag = "triangle"

    def run(self, rnd: Round):
        cost = oracle_cost(TRIANGLE, TRIANGLE_CFG.m, TRIANGLE_CFG.h)
        _, value = rnd.call("oracle", "brute_force_min", "oracle", brute_force_min, TRIANGLE,
                            TRIANGLE_CFG)
        return value, cost

    def check(self, out, with_gradient: bool):
        value, cost = out
        problems = []
        if not abs(value - TRIANGLE_ENERGY) <= 1e-12:
            problems.append(f"oracle energy {value!r}, recorded {TRIANGLE_ENERGY!r}")
        slack = lipschitz_constant(TRIANGLE, TRIANGLE_CFG.p, TRIANGLE_CFG.lam,
                                   TRIANGLE_CFG.m) * TRIANGLE_CFG.h
        if not abs(value - 1.0 / math.sqrt(3.0)) <= slack:
            problems.append(f"oracle energy {value!r} further than {slack} from 1/sqrt(3)")
        return problems, {"oracle": cost}


class CheckJob:
    """`pencurve check` in-process on files written at set-up."""

    tag = "check"

    def __init__(self, mu, curve, workdir: Path, p: float, lam: float):
        self.mu, self.curve, self.p, self.lam = mu, curve, p, lam
        self.measure_path = workdir / "atoms.csv"
        self.curve_path = workdir / "curve.json"
        self.report_path = workdir / "report.json"
        np.savetxt(self.measure_path, mu.positions, delimiter=",", fmt="%.17g")
        self.curve_path.write_text(json.dumps(curve.to_dict()))
        self.argv = ["check", str(self.measure_path), str(self.curve_path), "--p", repr(p),
                     "--lambda", repr(lam), "--out", str(self.report_path)]

    def run(self, rnd: Round):
        return rnd.call("check", "main", "cli", cli.main, self.argv)

    def check(self, out, with_gradient: bool):
        problems = []
        if out != 0:
            problems.append(f"exit code {out}")
        names = {}
        try:
            names = {c["name"]: c for c in json.loads(self.report_path.read_text())["checks"]}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report.json: {exc}")
        for name in CERTIFICATES:
            obs = names.get(name, {}).get("observed")
            if not isinstance(obs, (int, float)) or not math.isfinite(obs):
                problems.append(f"certificate {name} missing or observed={obs!r}")
        facts = {
            "energy": energy(self.mu, self.curve, self.p, self.lam).total,
            "artifact_bytes": self.report_path.stat().st_size if self.report_path.exists()
            else 0,
        }
        return problems, facts


def _arc(seed: int, m: int) -> Polyline:
    """Open arc of the noisy_circle's circle, starting at a seeded angle."""
    start = np.random.default_rng(_subseed(seed, 2)).uniform(0.0, 2.0 * math.pi)
    theta = start + np.linspace(0.0, 1.75 * math.pi, m)
    return Polyline(0.5 + 0.35 * np.stack([np.cos(theta), np.sin(theta)], axis=1))


def _boxed_instance(rng, n: int) -> DiscreteMeasure:
    """n uniform atoms, rescaled so their bounding box is [0, CERTIFY_BOX]^2.

    The oracle grid spans the bounding box, so a fixed box fixes the grid
    at (CERTIFY_BOX/h + 1)^2 points and the oracle's work depends on n alone.
    """
    pos = rng.uniform(0.0, 1.0, (n, 2))
    pos = CERTIFY_BOX * (pos - pos.min(axis=0)) / (pos.max(axis=0) - pos.min(axis=0))
    return DiscreteMeasure(pos, np.full(n, 1.0 / n))


def build(name: str, seed: int, workdir: Path) -> list:
    """The jobs of one round of workload `name`, made from `seed`."""
    if name == "fit_scale":
        cfg = FitConfig(p=1.0, lam=0.01, m_init=SCALE_M_INIT, max_outer_iters=SCALE_ITERS)
        return [FitJob(f"draw{k}", synth_measure(FIT_FAMILY, SCALE_N, seed=_subseed(seed, 0, k)),
                       cfg) for k in range(SCALE_DRAWS)]
    if name == "fit_exponents":
        draws = [synth_measure(FIT_FAMILY, EXPONENTS_N, seed=_subseed(seed, 0, k))
                 for k in range(EXPONENTS_DRAWS)]
        return [FitJob(f"draw{k} p={p}", mu, FitConfig(p=p, lam=0.01,
                                                        max_outer_iters=EXPONENTS_ITERS))
                for k, mu in enumerate(draws) for p in EXPONENTS_P]
    if name == "oracle_certify":
        jobs: list = [TriangleJob()]
        for i in range(CERTIFY_INSTANCES):
            rng = np.random.default_rng(_subseed(seed, 1, i))
            mu = _boxed_instance(rng, 3 + i % 3)
            p, lam = (1.0, 2.0)[i % 2], (0.05, 0.2)[(i // 2) % 2]
            cfg = FitConfig(p=p, lam=lam, m_init=3, restarts=6, max_outer_iters=CERTIFY_ITERS,
                            seed=int(rng.integers(0, 2**31 - 1)))
            jobs.append(CertifyJob(f"instance{i}", mu, cfg, OracleConfig(m=3, h=CERTIFY_H, p=p,
                                                                         lam=lam)))
        return jobs
    if name == "check_large":
        mu = synth_measure("noisy_circle", CHECK_N, seed=_subseed(seed, 0))
        return [CheckJob(mu, _arc(seed, CHECK_ARC_VERTICES), workdir, 2.0, 0.01)]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def warm_up(name: str, workdir: Path) -> None:
    """Run each code path of the workload once on a tiny input."""
    tiny = synth_measure("noisy_circle", 40, seed=1)
    if name in ("fit_scale", "fit_exponents"):
        fit(tiny, FitConfig(p=2.0, lam=0.01, max_outer_iters=1))
    elif name == "oracle_certify":
        mu = _boxed_instance(np.random.default_rng(0), 3)
        res = fit(mu, FitConfig(p=2.0, lam=0.2, m_init=3, max_outer_iters=2))
        certify_fit(mu, res.curve, OracleConfig(m=3, h=0.25, p=2.0, lam=0.2))
        brute_force_min(TRIANGLE, OracleConfig(m=2, h=0.25, p=1.0, lam=1.0))
    else:
        warm = workdir / "warm"
        warm.mkdir(exist_ok=True)
        job = CheckJob(tiny, _arc(0, 6), warm, 2.0, 0.01)
        job.check(job.run(Round()), with_gradient=False)
