"""Alternating assignment / vertex-relocation fitting of penalized polylines.

Each curve is evaluated once into a state (plan, vertex classes, true
energy), whose plan serves the energy, the vertex edits and the next
fixed-plan solve. An outer iteration lowers the convex fixed-plan
objective by majorise-minimise steps (one O(m) LDL^T sweep of a
tridiagonal system each, decrease-only), then merges, splits and drops
vertices, each edit passing one energy gate. For p > 1 a quasi-Newton
finish then drives the curve to the stationarity tolerance, accepting
only energy decreases, so the energy trace is non-increasing; its
starting matrix, the frozen fixed-plan Hessian, is rebuilt and inverted
every FINISH_REFACTOR steps and when the vertex count changes. The status
is "converged" only when the final curve passes the stationarity check,
else "plateau" (an outer iteration's relative drop fell below
TOL_ENERGY_REL) or "max_iters".
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .curve import Polyline, axis_norms, merge_vertices, self_intersections_2d
# full_report is unused here but stays bound: bench/worker.py traces optimizer.full_report
from .diagnostics import full_report, project_to_hull  # noqa: F401
from .energy import (
    EnergyBreakdown,
    StationarityReport,
    _entry_offsets,
    _fixed_plan_grad,
    energy,
    fixed_plan_hessian,
    fixed_plan_majoriser,
    fixed_plan_value_grad,
    stationarity_report,
    validate_count,
    validate_params,
)
from .errors import ConfigError, NumericError
from .measure import DiscreteMeasure, convex_hull_2d, diameter, in_range_at, tie_tolerance
from .projection import TransportPlan, build_plan

INNER_MAX_STEPS = 10  # majorise-minimise steps per fixed-plan solve
TOL_ENERGY_REL = 1e-8  # relative energy drop that ends a solve and the outer loop
FINISH_MAX_STEPS = 150  # quasi-Newton steps of the final polish
FINISH_MEMORY = 5  # secant pairs the quasi-Newton finish keeps
FINISH_REFACTOR = 5  # finish steps between rebuilds of its starting matrix

@dataclass(frozen=True)
class FitConfig:
    """Exponent, penalty, vertex budget, iteration caps and seed for fit().

    None values are resolved against the measure: m_max defaults to
    10 * ceil(sqrt(n)) capped at 200, m_init to ceil(sqrt(n)) clamped into
    [2, m_max]. Tolerances are derived, not set: tol_stationarity is
    1e-6 * lam, the relative energy drop is TOL_ENERGY_REL, and ties and
    merges use the measure's tie_tolerance.
    """

    p: float = 2.0
    lam: float = 0.1
    m_init: int | None = None
    m_max: int | None = None
    max_outer_iters: int = 200
    restarts: int = 1
    seed: int = 0

    @property
    def tol_stationarity(self) -> float:
        return 1e-6 * self.lam

    def resolved(self, mu: DiscreteMeasure) -> "FitConfig":
        validate_params(self.p, self.lam)
        in_range_at(mu, self.p)
        root_n = math.ceil(math.sqrt(mu.n_atoms))
        m_max = min(200, 10 * root_n) if self.m_max is None else validate_count("m_max", self.m_max)
        m_init = min(m_max, max(2, root_n)) if self.m_init is None else self.m_init
        counts = {k: validate_count(k, v) for k, v in (
            ("m_init", m_init), ("max_outer_iters", self.max_outer_iters),
            ("restarts", self.restarts), ("seed", self.seed))}
        if counts["m_init"] < 1 or m_max < counts["m_init"]:
            raise ConfigError(f"need 1 <= m_init <= m_max, got {m_init}, {m_max}")
        for name in ("max_outer_iters", "restarts"):
            if counts[name] < 1:
                raise ConfigError(f"{name} must be >= 1")
        return replace(self, m_max=m_max, **counts)


@dataclass(frozen=True)
class FitResult:
    curve: Polyline
    energy_trace: np.ndarray  # total energy after each outer iteration, [0] = init
    breakdown: EnergyBreakdown
    stationarity: StationarityReport
    iterations: int
    restart_index: int
    status: str  # "converged" (stationarity passes), else "plateau" or "max_iters"

    def to_dict(self) -> dict:
        return {
            "curve": self.curve.to_dict(),
            "energy_trace": [float(e) for e in self.energy_trace],
            "energy": self.breakdown.to_dict(),
            "stationarity": self.stationarity.to_dict(),
            "iterations": self.iterations,
            "restart_index": self.restart_index,
            "status": self.status,
        }


def _principal_frame(mu: DiscreteMeasure):
    """Weighted mean and PCA basis, sign-fixed by third moments.

    Eigenvectors are ordered by descending eigenvalue. Each axis sign is
    chosen so the weighted third central moment along it is positive,
    which keeps initialization equivariant under rigid motions; exactly
    symmetric data falls back to a coordinate-based sign and a tied top
    eigenvalue falls back to the first coordinate axis.
    """
    X = mu.positions
    w = mu.masses / mu.total_mass
    mean = w @ X
    e = math.frexp(np.max(np.abs(X - mean)))[1]
    centered = np.ldexp(X - mean, -e)  # offsets below 1 by an exact 2^-e: no moment overflows
    cov = (centered * w[:, None]).T @ centered
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    scale = math.sqrt(evals[0])
    if len(evals) > 1 and evals[0] - evals[1] <= 1e-12 * evals[0]:
        evecs = np.eye(mu.dim)
    for k in range(evecs.shape[1]):
        axis = evecs[:, k]
        skew = float(np.sum(w * (centered @ axis) ** 3))
        if abs(skew) > 1e-12 * scale**3:
            if skew < 0:
                evecs[:, k] = -axis
        else:
            lead = np.argmax(np.abs(axis))
            if axis[lead] < 0:
                evecs[:, k] = -axis
    return mean, np.ldexp(evals, 2 * e), evecs


def init_curve(mu: DiscreteMeasure, cfg: FitConfig, restart: int = 0) -> Polyline:
    """Initial polyline on the first principal axis of the measure.

    m_init vertices are spread over +/- one weighted standard deviation
    around the weighted mean; restarts > 0 jitter the vertices (in the
    principal frame, clipped to the hull in 2-D) with seeded noise.
    """
    cfg = cfg.resolved(mu)
    mean, evals, evecs = _principal_frame(mu)
    std = math.sqrt(max(evals[0], 0.0))
    if std == 0.0 or cfg.m_init == 1:
        verts = mean[None, :].copy()
    else:
        offsets = np.linspace(-std, std, cfg.m_init)
        verts = mean[None, :] + offsets[:, None] * evecs[:, 0][None, :]
    if restart > 0 and verts.shape[0] > 0:
        rng = np.random.default_rng([cfg.seed, restart])
        coeffs = rng.normal(0.0, 0.1 * diameter(mu), size=verts.shape)
        verts = verts + coeffs @ evecs.T
        if mu.dim == 2:
            hull = convex_hull_2d(mu)
            verts = project_to_hull(verts, hull)
    return Polyline.through(verts)


def _solve_tridiagonal(diag: np.ndarray, upper: np.ndarray, B: np.ndarray):
    """Solve A X = B for the symmetric tridiagonal A with these bands, or None.

    One sweep factors A = L D L^T without pivoting and substitutes forward,
    one substitutes back, in Python floats: O(m) time and memory. A pivot
    that is not > 0 (A singular or indefinite, or a NaN) gives None.
    """
    piv, mult = diag.tolist(), upper.tolist()  # overwritten by D and L's subdiagonal
    cols, a = B.T.tolist(), piv[0]
    if not a > 0.0:
        return None
    for i, u in enumerate(mult, 1):
        f = mult[i - 1] = u / a
        a = piv[i] = piv[i] - f * u
        if not a > 0.0:
            return None
        for x in cols:
            x[i] -= f * x[i - 1]
    for x in cols:
        x[-1] /= a
        for i in range(len(x) - 2, -1, -1):
            x[i] = x[i] / piv[i] - mult[i] * x[i + 1]
    return np.array(cols).T


def fixed_plan_solve(mu: DiscreteMeasure, c: Polyline, plan, cfg: FitConfig) -> Polyline:
    """Majorise-minimise the fixed-plan objective; returns the new curve.

    Each of at most INNER_MAX_STEPS steps solves the quadratic model of
    energy.fixed_plan_majoriser at the current vertices V and accepts its
    minimiser V* if the fixed-plan objective drops; otherwise it halves the
    step along V* - V, a descent direction because the model's gradient is
    the objective's and its matrix is positive definite. For p <= 2 the
    model lies above the objective, so unless an entry or a segment is
    clamped the first trial passes. Stops on the gradient tolerance, on a
    relative drop below TOL_ENERGY_REL, or when no trial decreases the
    objective, so the fixed-plan objective and hence the true energy cannot
    go up. A point is evaluated once: its trial's offsets and value, and
    the entry weights its gradient builds, serve its next model too.
    """
    V = np.array(c.vertices)
    X = mu.positions
    p, lam, eps = cfg.p, cfg.lam, tie_tolerance(diameter(mu))
    off = _entry_offsets(V, plan, X)
    val, _ = fixed_plan_value_grad(V, plan, X, p, lam, eps, False, off)
    if not math.isfinite(val):
        raise NumericError("non-finite fixed-plan objective at start")
    grad, weights = _fixed_plan_grad(V, plan, p, lam, eps, off)
    for it in range(INNER_MAX_STEPS):
        if float(axis_norms(grad).max()) <= cfg.tol_stationarity:
            break
        minimiser = _solve_tridiagonal(*fixed_plan_majoriser(plan, X, lam, eps, off, weights))
        if minimiser is None:
            break
        step = minimiser - V
        for _ in range(30):
            W = V + step
            off = _entry_offsets(W, plan, X)
            cand_val, _ = fixed_plan_value_grad(W, plan, X, p, lam, eps, False, off)
            if cand_val < val:  # False for NaN too
                break
            step *= 0.5
        else:
            break
        drop = val - cand_val
        V, val = W, cand_val
        if drop <= TOL_ENERGY_REL * abs(val) or it == INNER_MAX_STEPS - 1:
            break  # no gradient is needed past the last step
        grad, weights = _fixed_plan_grad(V, plan, p, lam, eps, off)
    return Polyline.through(V)


@dataclass(frozen=True)
class _State:
    """A curve evaluated once: its nearest-point plan and true energy."""

    curve: Polyline
    plan: TransportPlan
    energy: EnergyBreakdown


def _evaluate(mu: DiscreteMeasure, verts: np.ndarray, cfg: FitConfig) -> _State:
    """The curve through verts, exact repeats dropped, with its plan and energy."""
    curve = Polyline.through(verts)
    plan, _ = build_plan(mu, curve)
    return _State(curve, plan, energy(mu, curve, cfg.p, cfg.lam, plan=plan))


def _gate(cand: _State, current: _State) -> _State:
    """cand if its energy is at most current's plus a 1e-13 relative slack.

    The slack lets an edit that keeps the image survive re-evaluation.
    """
    if cand.energy.total <= current.energy.total * (1.0 + 1e-13):
        return cand
    return current


def _split_long_segments(c: Polyline, m_max: int) -> Polyline:
    """c with its first longest segment halved while it is over twice the median, m <= m_max."""
    verts, lens = list(c.vertices), c.segment_lengths.tolist()
    ranked = sorted(lens)
    while 1 < len(verts) < m_max:
        h = len(ranked) // 2
        median = ranked[h] if len(ranked) % 2 else (ranked[h - 1] + ranked[h]) / 2
        if ranked[-1] <= 2.0 * median:
            break
        k = lens.index(ranked.pop())
        mid = 0.5 * (verts[k] + verts[k + 1])
        lens[k:k + 1] = halves = axis_norms(np.array([mid - verts[k], verts[k + 1] - mid])).tolist()
        for x in halves:
            bisect.insort(ranked, x)
        verts.insert(k + 1, mid)
    return Polyline(np.array(verts)) if len(verts) > c.n_vertices else c


def _manage_vertices(mu: DiscreteMeasure, c: Polyline, cfg: FitConfig) -> _State:
    """Merge close vertices, split oversized segments, drop idle endpoints.

    The merge and each endpoint drop pass the energy gate; splits leave the
    image unchanged. The split curve is built and evaluated once, and its
    plan gives the idle endpoints, the traced energy and the next solve.
    """
    state = None
    merged = merge_vertices(c.vertices, tie_tolerance(diameter(mu)))
    if len(merged) < c.n_vertices:
        state = _gate(_evaluate(mu, merged, cfg), _evaluate(mu, c.vertices, cfg))
        c = state.curve

    c = _split_long_segments(c, cfg.m_max)
    if state is None or state.curve is not c:
        state = _evaluate(mu, c.vertices, cfg)

    dropped = True
    while dropped and state.curve.n_vertices > 1:
        dropped = False
        plan, verts = state.plan, state.curve.vertices
        # a target at vertex 0 has ib == 0, one at the last vertex ia == m - 1
        for busy, keep in ((plan.ib == 0, verts[1:]), (plan.ia == len(verts) - 1, verts[:-1])):
            if not busy.any():
                cand = _gate(_evaluate(mu, keep, cfg), state)
                if cand is not state:
                    state, dropped = cand, True
                    break
    return state


def _fit_single(mu: DiscreteMeasure, cfg: FitConfig, restart: int):
    """One restart: (final state, energy trace, outer iterations, status)."""
    curve = init_curve(mu, cfg, restart=restart)
    state = _evaluate(mu, curve.vertices, cfg)
    if not math.isfinite(state.energy.total):
        raise NumericError("non-finite energy at initialization")
    trace = [state.energy.total]
    status = "max_iters"
    for iterations in range(1, cfg.max_outer_iters + 1):  # resolved() keeps this >= 1
        solved = fixed_plan_solve(mu, state.curve, state.plan, cfg)
        new = _manage_vertices(mu, solved, cfg)
        if not math.isfinite(new.energy.total):
            raise NumericError(f"non-finite energy at outer iteration {iterations}")
        trace.append(new.energy.total)
        plateau = state.energy.total - new.energy.total <= TOL_ENERGY_REL * state.energy.total
        state = new
        if plateau:  # a relative drop below TOL_ENERGY_REL, or E = 0
            status = "plateau"
            break
    state = _finalize(mu, state, cfg)
    if trace[-1] != state.energy.total:
        trace.append(state.energy.total)
    return state, np.array(trace), iterations, status


def _quasi_newton_finish(mu: DiscreteMeasure, state: _State, cfg: FitConfig) -> _State:
    """Drive a p > 1 curve to the stationarity tolerance.

    Majorise-minimise steps converge linearly, and slowly where vertices
    slide along the curve: the fixed plan holds every foot, so it is stiff
    there while the true energy is nearly flat. This is L-BFGS on the true
    energy, whose gradient is the fixed-plan gradient on the plan of the
    current state, started from the frozen fixed-plan Hessian; the secant
    pairs learn the softer true curvature, so the starting matrix need not
    be current: it is built, regularised by 1e-12 of its mean diagonal and
    inverted at steps 0, FINISH_REFACTOR, 2*FINISH_REFACTOR, ... and
    whenever the vertex count has changed since the last build, and each
    step applies the stored inverse. Only pairs with y.s > 0 are kept,
    so the model stays positive definite and each step is a descent
    direction. A trial is evaluated (re-planned) and accepted only if its
    true energy drops, and is halved otherwise; a segment the step would
    reverse collapses to its midpoint instead. Stops at tol_stationarity,
    when no trial drops, on a singular starting matrix, or after
    FINISH_MAX_STEPS.
    """
    X, p, lam, eps = mu.positions, cfg.p, cfg.lam, tie_tolerance(diameter(mu))
    V = state.curve.vertices
    off = _entry_offsets(V, state.plan, X)  # shared by the gradient and the Hessian at V
    grad = _fixed_plan_grad(V, state.plan, p, lam, eps, off)[0]
    pairs, H_inv = [], None  # pairs: (s, y, y.s)
    for k in range(FINISH_MAX_STEPS):
        if float(axis_norms(grad).max()) <= cfg.tol_stationarity:
            break
        m, d = V.shape
        if k % FINISH_REFACTOR == 0 or H_inv.shape[0] != m * d:
            H = fixed_plan_hessian(V, state.plan, p, lam, eps, off)
            H.flat[::m * d + 1] += 1e-12 * H.trace() / (m * d)
            try:
                H_inv = np.linalg.inv(H)
            except np.linalg.LinAlgError:
                break
        q = grad.reshape(-1).copy()  # L-BFGS two-loop recursion around H_inv
        alphas = []
        for s, y, ys in reversed(pairs):
            alphas.append(float(s @ q) / ys)
            q -= alphas[-1] * y
        q = H_inv @ q
        for (s, y, ys), a in zip(pairs, reversed(alphas)):
            q += s * (a - float(y @ q) / ys)
        step, segs = -q.reshape(m, d), state.curve.segment_vectors
        for _ in range(30):
            cand = V + step
            flip = (((cand[1:] - cand[:-1]) * segs).sum(axis=1) <= 0).nonzero()[0]
            if flip.size:
                cand[flip] = cand[flip + 1] = 0.5 * (cand[flip] + cand[flip + 1])
            trial = _evaluate(mu, cand, cfg)
            if trial.energy.total < state.energy.total:  # False for NaN too
                break
            step *= 0.5
        else:
            break
        W = trial.curve.vertices
        off = _entry_offsets(W, trial.plan, X)
        trial_grad = _fixed_plan_grad(W, trial.plan, p, lam, eps, off)[0]
        if W.shape != V.shape:
            pairs = []
        else:
            s, y = (W - V).reshape(-1), (trial_grad - grad).reshape(-1)
            ys = float(y @ s)
            if ys > 0.0:
                pairs = (pairs + [(s, y, ys)])[-FINISH_MEMORY:]
        state, V, grad = trial, W, trial_grad
    return state


def _finalize(mu: DiscreteMeasure, state: _State, cfg: FitConfig) -> _State:
    """Canonicalize degeneracies, then finish to the stationarity tolerance.

    A curve that wants a corner leaves two vertices a few ulps apart, where
    the length term is effectively kinked, so they are merged. A vertex on
    a straight stretch is a flat direction of the energy (its position
    along the stretch is undetermined), so all of them are dropped at once.
    Both edits pass the energy gate. For p > 1 the quasi-Newton finish runs
    last (at p = 1 an atom on the curve is a kink of the energy, and the
    frozen Hessian is singular along every offset).
    """
    merged = merge_vertices(state.curve.vertices, 1e-6 * diameter(mu))
    if len(merged) < state.curve.n_vertices:
        state = _gate(_evaluate(mu, merged, cfg), state)
    straight = np.nonzero(state.curve.turning_angles <= 1e-9)[0] + 1
    if straight.size:
        cand = np.delete(state.curve.vertices, straight, axis=0)
        state = _gate(_evaluate(mu, cand, cfg), state)
    if cfg.p > 1.0:
        state = _quasi_newton_finish(mu, state, cfg)
    return state


def fit(mu: DiscreteMeasure, cfg: FitConfig) -> FitResult:
    """Fit a polyline minimizing the penalized energy; best restart wins.

    Restarts run independently with derived seeds. A later restart replaces
    the best one only when its final energy is lower by more than 1e-12
    relative, so restarts that reach the same minimiser up to rounding keep
    the lowest index and results are deterministic. The status is
    "converged" only when the final curve passes the stationarity check at
    tol_stationarity; otherwise it says why the outer loop stopped.
    """
    cfg = cfg.resolved(mu)
    best = None
    for r in range(cfg.restarts):
        run = (*_fit_single(mu, cfg, r), r)
        e = run[0].energy.total
        if best is None or e < best[0].energy.total - 1e-12 * abs(best[0].energy.total):
            best = run
    state, trace, iterations, status, r = best
    stat = stationarity_report(mu, state.curve, cfg.p, cfg.lam, plan=state.plan)
    if stat.passes(cfg.tol_stationarity):
        status = "converged"
    return FitResult(state.curve, trace, state.energy, stat, iterations, r, status)


def conjecture_search(p: float, budget: int = 20, seed: int = 0,
                      restarts: int = 4) -> list[dict]:
    """Hunt for self-intersecting stationary fits on random instances.

    Each instance has 3 to 8 uniform atoms in the unit square with random
    masses and a log-uniform lambda in [0.02, 0.5]. Returns full records
    for every instance whose best fitted curve crosses itself while meeting
    the stationarity tolerance; finding none proves nothing, and candidates
    carry no claim of global optimality. For p >= 2 the run serves as a
    consistency control: minimizers are provably injective there, so
    candidates should not appear.
    """
    if not p >= 1.0:
        raise ConfigError(f"p must be >= 1, got {p}")
    candidates = []
    for i in range(int(budget)):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(3, 9))
        pos = rng.uniform(0.0, 1.0, size=(n, 2))
        masses = rng.uniform(0.2, 1.0, size=n)
        mu = DiscreteMeasure(pos, masses / masses.sum())
        lam = float(np.exp(rng.uniform(np.log(0.02), np.log(0.5))))
        cfg = FitConfig(p=p, lam=lam, restarts=restarts, seed=int(rng.integers(0, 2**31 - 1)),
                        m_init=max(3, n // 2), m_max=max(6, n))
        result = fit(mu, cfg)
        hits = self_intersections_2d(result.curve, eps=tie_tolerance(diameter(mu)))
        if hits and result.stationarity.passes(cfg.tol_stationarity):
            candidates.append({
                "instance": i,
                "family": "random_atoms",
                "p": p,
                "lambda": lam,
                "measure": mu.to_dict(),
                "curve": result.curve.to_dict(),
                "energy": result.breakdown.total,
                "max_free_residual": result.stationarity.max_free_residual,
                "intersections": [
                    {"segments": [h.seg_a, h.seg_b], "kind": h.kind,
                     "point": [float(h.point[0]), float(h.point[1])]}
                    for h in hits
                ],
            })
    return candidates
