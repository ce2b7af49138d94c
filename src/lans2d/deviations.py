"""Rate functions, small-noise Monte Carlo and limit probes.

The rate function of the deviation principle is the minimum control energy
``0.5 * int ||h||_K^2 dt`` over controls steering the deterministic controlled
system to a target.  Here this is solved on the discrete grid:

* delta=1 targets are linear-quadratic.  Scalar terminal observables are
  solved exactly through the discrete controllability Gramian assembled by one
  adjoint sweep; terminal-field targets by one truncated SVD of the response
  matrix ``R``, which holds y(T) of every unit control, marched once in
  batches.  The solve keeps the fewest singular directions that reach the
  target within the tolerance, and only the reported residual takes a march
  of its own.
* delta=0 targets use a quadratic-penalty formulation with an increasing
  weight schedule and L-BFGS descent driven by the exact discrete adjoint
  gradient; the reported cost is extrapolated in the weight, and is no
  bound: it can lie below the energy of every feasible control found.  An
  evaluation sweeps the unscaled terminal seed, so a memo of the last
  control evaluated serves every weight: a weight that ends at that control
  reads its residual, and the next weight's start, from the memo.

Monte Carlo tail estimation runs independent trajectories of the stochastic
system (vectorized in batches, reproducible per-trajectory streams) and
reports Wilson-interval uncertainty alongside the speed-normalized rate
estimate.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .dynamics import (
    ScalingLaw,
    SkeletonStepper,
    SolverConfig,
    TrajectoryRecord,
    UnifiedStepper,
    _check_wiener,
    _dense_fields,
    dense_nse,
    indexed_step,
    initial_state,
    march,
)
from .noise import (Control, WienerPath, _SeedWords, _stream_seeds, control_cost, sine_control,
                    weak_distance, zero_control)
from .spectral import SpectralField

# ---------------------------------------------------------------------------
# Problem statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TerminalObservable:
    """Scalar target: steer ``<y(T), g>_H`` to ``level``."""

    g: SpectralField
    level: float


@dataclass(frozen=True)
class TerminalField:
    """Field target: steer ``y(T)`` to ``x`` in H."""

    x: SpectralField


Target = Union[TerminalObservable, TerminalField]


@dataclass(frozen=True)
class RateProblem:
    delta: int
    target: Target
    beta_schedule: tuple = (1e1, 1e2, 1e3, 1e4)
    tolerance: float = 1e-3
    max_iterations: int = 500

    def __post_init__(self):
        ScalingLaw(delta=self.delta)  # refuses a delta other than 0 or 1
        betas = tuple(float(b) for b in self.beta_schedule)
        if not betas or not all(0.0 < b < math.inf for b in betas):
            raise ValueError(f"beta_schedule must hold positive finite weights, got {betas}")
        if not all(b2 > b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("beta_schedule must be strictly increasing")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        level = getattr(self.target, "level", 0.0)
        if not abs(level) <= math.sqrt(np.finfo(float).max):  # the costs square it
            raise ValueError(f"level must have a finite square, got {level}")
        object.__setattr__(self, "beta_schedule", betas)


@dataclass
class RateResult:
    cost: float                 # 0.5 * int ||h*||^2; +inf when infeasible
    control: Control
    residual: float             # terminal constraint residual of h*
    converged: bool
    kkt_residual: Optional[float] = None
    details: dict = field(default_factory=dict)


@dataclass
class TailEstimate:
    alpha: float
    delta: int
    event: str
    n_samples: int
    hits: int
    p_hat: float
    speed: float                       # alpha^-1 * lam_delta(alpha)^2
    rate_estimate: Optional[float]     # -log(p_hat) / speed, None when p_hat = 0
    wilson_low: float
    wilson_high: float
    master_seed: int


# ---------------------------------------------------------------------------
# Discrete adjoint of the controlled skeleton
# ---------------------------------------------------------------------------


def _skeleton_march(delta, hv, cfg, xi, u_fields, observe):
    """March the controlled system under control values ``hv``; returns y(T).
    ``hv`` of shape ``(steps, B, J)`` marches a batch of ``B`` states."""
    step = indexed_step(SkeletonStepper(cfg, delta).step, u_n=u_fields, h_n=hv)
    y0 = initial_state(delta, xi.coeffs, hv.shape[1:-1])
    return march(step, y0, cfg.steps, observe, cfg.lattice)


def _adjoint_sweep(delta, hv, cfg, states, u_fields, p_terminal):
    """Backward pass: returns d<terminal functional>/dh as a (steps, J) array.

    ``p_terminal`` is the H-gradient of the terminal functional at y(T); the
    cost term of the objective is *not* included here.  The result is linear
    in ``p_terminal``.
    """
    lat = cfg.lattice
    noise = cfg.noise
    S = cfg.implicit_multiplier()
    dt = cfg.dt
    grad = np.zeros((cfg.steps, noise.rank))
    p = p_terminal
    for m in range(cfg.steps - 1, -1, -1):
        s = S * p
        w_m = states[m] if delta == 0 else u_fields[m]
        pairings = lat.inner_h(s, noise.outputs)  # (s, phi_j) for every direction j
        grad[m] = dt * noise.coefficients(w_m) * pairings
        # transpose of the drift linearization around w_m
        p = s - dt * (lat.adjoint_b_first(w_m, s) - lat.bilinear_b(w_m, s))
        if delta == 0 and noise.probes is not None:
            # multiplicative coefficient depends on the state
            w = noise.sigma * hv[m] * pairings
            p = p + dt * np.einsum("k,kcij->cij", w, noise.probes)
    return grad


def _terminal_pieces(target, lat, y_terminal):
    """Residual rho and the unscaled terminal seed: ``g`` for an observable
    target, ``y(T) - x`` for a field target."""
    if isinstance(target, TerminalObservable):
        rho = float(lat.inner_h(y_terminal, target.g.coeffs)) - target.level
        return rho, target.g.coeffs
    diff = y_terminal - target.x.coeffs
    return float(lat.norm_h(diff)), diff


def skeleton_gradient(
    delta: int,
    h: Control,
    target: Target,
    cfg: SolverConfig,
    xi: SpectralField,
    beta: float,
    nse: Optional[TrajectoryRecord] = None,
    memo: Optional[dict] = None,
):
    """Value and exact gradient of ``J_beta(h) = cost(h) + (beta/2) rho(h)^2``.

    ``rho`` is the terminal constraint residual (scalar-observable gap or
    H-distance to the field target).  The gradient is the exact reverse-mode
    derivative of the discrete forward scheme, returned as a (steps, J) array.
    It takes one forward march and one adjoint sweep of the unscaled terminal
    seed, ``a = d<y(T), g>/dh`` or ``d(|y(T) - x|^2 / 2)/dh``; the sweep is
    linear in its seed, so the penalty's gradient is ``beta rho a`` or
    ``beta a``.  Only a delta=0 march keeps its states, which the sweep
    linearizes around (delta=1: around ``nse``).  ``h`` must lie on the
    config's grid.

    ``memo``, a dict, keeps the cost, ``rho`` and ``a`` of the last control
    evaluated, keyed by its bytes: a call at that control, at any ``beta``,
    returns what a fresh call returns and marches nothing.  A memo serves one
    problem only (one delta, target, config, ``xi`` and ``nse``).
    """
    cfg.require_noise()
    cfg.check_grid("control", h.dt, h.steps, exact=True)  # the gradient has the run's shape
    u_fields = _dense_fields(nse, cfg, "skeleton_gradient", xi) if delta == 1 else None
    hv = h.values
    key = hv.tobytes()
    if memo is not None and key in memo:
        cost, rho, a = memo[key]
    else:
        states = [] if delta == 0 else None
        y_final = _skeleton_march(delta, hv, cfg, xi, u_fields,
                                  None if states is None else lambda m, y: states.append(y))
        rho, seed = _terminal_pieces(target, cfg.lattice, y_final)
        cost = control_cost(h)
        a = _adjoint_sweep(delta, hv, cfg, states, u_fields, seed)
        if memo is not None:
            memo.clear()
            memo[key] = cost, rho, a
    scale = beta * rho if isinstance(target, TerminalObservable) else beta
    return cost + 0.5 * beta * rho**2, cfg.dt * hv + scale * a


def _exact_lq_observable(problem, cfg, xi, nse):
    lat = cfg.lattice
    noise = cfg.noise
    target = problem.target
    # one adjoint sweep of the terminal vector g: the linear map h -> <y(T), g>
    L = _adjoint_sweep(1, None, cfg, None, nse.fields, target.g.coeffs)
    gram = float(np.sum(L**2)) / cfg.dt
    if gram <= 0.0:
        return RateResult(
            math.inf, zero_control(noise.rank, cfg.dt, cfg.steps), abs(target.level),
            False, None, {"gramian": gram, "reason": "target not reachable (zero Gramian)"},
        )
    cost = target.level**2 / (2.0 * gram)
    mu = target.level / gram
    hv = mu * L / cfg.dt
    h_star = Control(cfg.dt, hv)
    # independent feasibility check: march the controlled system
    y_final = _skeleton_march(1, hv, cfg, xi, nse.fields, None)
    reached = float(lat.inner_h(y_final, target.g.coeffs))
    residual = abs(reached - target.level)
    stationarity = float(np.max(np.abs(cfg.dt * hv - mu * L))) if hv.size else 0.0
    kkt = stationarity + residual
    return RateResult(
        cost, h_star, residual, residual <= problem.tolerance * _target_scale(target), kkt,
        {"gramian": gram, "multiplier": mu, "bound": "exact"},
    )


def _response_matrix(cfg, xi, u_fields):
    """The delta=1 response map ``R``: row ``m * J + j`` is y(T) of the unit
    control ``e_(m,j)``, so y(T) of control values ``hv`` is
    ``np.tensordot(hv.ravel(), R, axes=1)``.  The unit controls march in
    batches of ``_batch_size(cfg)`` rows, each batch's controls made for it
    alone; a field's bytes do not depend on its batch, so neither does ``R``."""
    steps, J = cfg.steps, cfg.noise.rank
    R = np.empty((steps * J,) + cfg.lattice.shape, np.complex128)
    for start, stop in _batches(len(R), cfg):
        cols = np.arange(start, stop)
        hv = np.zeros((steps, len(cols), J))
        hv[cols // J, cols - start, cols % J] = 1.0
        R[cols] = _skeleton_march(1, hv, cfg, xi, u_fields, None)
    return R


def _svd_field(problem, cfg, xi, nse):
    """Minimum-energy control onto a terminal field by a truncated SVD of ``R``.

    Scaled by the square roots of the H weights, ``R`` becomes a real matrix
    ``M`` whose dot product is ``inner_h``, and the target ``x`` a vector
    ``b``.  With ``M.T = U S V^T`` and ``c = U^T b``, the ``k`` strongest
    directions steer to ``U_k c_k`` with the control ``sum_(i<k) (c_i/s_i) v_i``
    and leave the residual ``|b - U c|^2 + sum_(i>=k) c_i^2``, the off-range
    part formed as a vector.  ``k`` is the fewest directions that meet the
    tolerance, capped at the numerical rank and at ``max_iterations``.  A
    control whose predicted residual meets the tolerance is marched once for
    the reported residual; one that does not is infeasible and marches
    nothing.
    """
    lat = cfg.lattice
    x = problem.target.x.coeffs
    R = _response_matrix(cfg, xi, nse.fields)
    w = np.sqrt(lat.norm_table(0.0)[0])
    R *= w
    M = R.view(np.float64).reshape(len(R), -1)
    b = (x * w).view(np.float64).ravel()
    U, s, Vt = np.linalg.svd(M.T, full_matrices=False)
    c = U.T @ b
    rank = int(np.sum(s > s[0] * max(M.shape) * np.finfo(float).eps))
    # tail[k] = sum_(i>=k) c_i^2, summed from the weakest direction up
    tail = np.append(np.cumsum(c[::-1] ** 2)[::-1], 0.0)
    off_range = float(np.sum((b - U @ c) ** 2))
    predicted = np.sqrt(off_range + tail[:min(rank, problem.max_iterations) + 1])
    bound = problem.tolerance * _target_scale(problem.target)
    meets = np.flatnonzero(predicted <= bound)
    k = int(meets[0]) if meets.size else len(predicted) - 1
    hv = ((c[:k] / s[:k]) @ Vt[:k]).reshape(cfg.steps, cfg.noise.rank)
    if meets.size:
        y_final = _skeleton_march(1, hv, cfg, xi, nse.fields, None)
        residual = float(lat.norm_h(y_final - x))
    else:
        residual = float(predicted[k])
    converged = residual <= bound
    h = Control(cfg.dt, hv)
    cost = control_cost(h)
    condition = float(s[0] / s[rank - 1]) if rank else math.inf
    details = {"iterations": k, "rank": rank, "condition": condition,
               "bound": "exact" if converged else "infeasible"}
    if converged:  # an infeasible control's energy means nothing (up to 1e24 near the rank)
        details["feasible_cost"] = cost
    return RateResult(cost if converged else math.inf, h, residual, converged, None, details)


def _target_scale(target):
    """What a target's tolerance is relative to: ``max(1, |level|)`` or
    ``|x|_H`` (at least 1e-150, so that a zero field has a positive bound)."""
    if isinstance(target, TerminalObservable):
        return max(1.0, abs(target.level))
    x = target.x
    return math.sqrt(max(float(x.lattice.inner_h(x.coeffs, x.coeffs)), 1e-300))


def _penalized_descent(problem, cfg, xi):
    """The delta=0 rate: L-BFGS on the penalized objective over ``beta_schedule``.

    One memo of the last control evaluated serves the whole schedule.  Where
    L-BFGS ends a weight at that control, as in the benchmark's capped rate
    problems, the weight's residual and the next weight's first evaluation
    march nothing; where it returns an earlier control, after a line search
    that stepped past it, each of them marches that control again.
    """
    from scipy.optimize import minimize

    noise = cfg.noise
    steps, J = cfg.steps, noise.rank
    shape = (steps, J)
    hv = np.zeros(shape)
    scale = _target_scale(problem.target)
    history = []
    memo = {}
    for beta in problem.beta_schedule:
        def fun(flat):
            val, grad = skeleton_gradient(
                0, Control(cfg.dt, flat.reshape(shape)), problem.target, cfg, xi, beta, memo=memo
            )
            return val, grad.ravel()

        res = minimize(
            fun, hv.ravel(), jac=True, method="L-BFGS-B",
            options={"maxiter": problem.max_iterations, "ftol": 1e-14, "gtol": 1e-12},
        )
        hv = res.x.reshape(shape)
        key = hv.tobytes()
        if key in memo:
            _, rho, _ = memo[key]
        else:
            y_final = _skeleton_march(0, hv, cfg, xi, None, None)
            rho, _ = _terminal_pieces(problem.target, cfg.lattice, y_final)
        cost = control_cost(Control(cfg.dt, hv))
        history.append({"beta": beta, "cost": cost, "residual": abs(rho)})
    # extrapolate cost(beta) = cost_inf - a / beta using the last two weights
    if len(history) >= 2:
        b1, b2 = history[-2]["beta"], history[-1]["beta"]
        c1, c2 = history[-2]["cost"], history[-1]["cost"]
        a = (c2 - c1) / (1.0 / b1 - 1.0 / b2)
        cost_inf = c2 + a / b2
    else:
        cost_inf = history[-1]["cost"]
    residual = history[-1]["residual"]
    converged = residual <= problem.tolerance * scale
    return RateResult(
        cost_inf if converged else math.inf,
        Control(cfg.dt, hv),
        residual,
        converged,
        None,
        {"schedule": history, "extrapolated_cost": cost_inf,
         "final_cost": history[-1]["cost"], "bound": "extrapolated"},
    )


def rate_function(
    problem: RateProblem,
    cfg: SolverConfig,
    xi: SpectralField,
    nse: Optional[TrajectoryRecord] = None,
) -> RateResult:
    """Minimum control energy steering the controlled system to the target.

    For a ``TerminalField`` target the cost is that of a relaxed problem:
    the energy of the truncated-SVD control of the response map ``R`` that
    keeps the fewest of its strongest singular directions reaching the target
    within ``tolerance`` (relative to ``|x|_H``), not the exact minimum
    energy.  The response map is ill-conditioned, and the control skips its
    weak directions, so the cost can lie well below the exact one (7-80 %
    below it on the benchmark's n = 16 problems at tolerance 1e-6, where
    ``R`` has full column rank and the exact one is the energy of the
    control that made the target).  ``max_iterations`` caps the directions kept, as does
    the numerical rank of ``R``; ``details`` holds the directions kept
    (``"iterations"``), the ``"rank"`` and the ``"condition"`` ``s_0 /
    s_(rank-1)``, and ``kkt_residual`` is None.

    Infeasible targets carry ``cost = inf`` (the empty infimum) with
    ``converged = False`` and the residual the solve could reach reported;
    only a feasible one's ``details`` hold its control's ``"feasible_cost"``.
    """
    cfg.require_noise()
    if problem.delta == 1:
        if nse is None:
            nse = dense_nse(xi, cfg)
        _dense_fields(nse, cfg, "rate_function", xi)
        if isinstance(problem.target, TerminalObservable):
            return _exact_lq_observable(problem, cfg, xi, nse)
        return _svd_field(problem, cfg, xi, nse)
    return _penalized_descent(problem, cfg, xi)


# ---------------------------------------------------------------------------
# Monte Carlo tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupNormEvent:
    """Event: the running H-norm exceeds ``threshold`` at any step."""

    threshold: float

    def describe(self):
        return f"sup-norm > {self.threshold:g}"


@dataclass(frozen=True)
class TerminalObservableEvent:
    """Event: the terminal observable ``<y(T), g>`` exceeds ``level``."""

    g: SpectralField
    level: float

    def describe(self):
        return f"terminal-observable > {self.level:g}"


def wilson_interval(hits: int, n: int, z: float = 1.959963984540054):
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def wilson_upper_zero(n: int, z: float = 1.6448536269514722) -> float:
    """One-sided 95% upper bound on p when no hits were observed."""
    return z * z / (n + z * z)


# Monte Carlo batches hold about this many bytes of states and increments.
# It bounds memory, not what a batch touches: the first step of a batch makes
# the quadratic kernel's scratch and the stepper's buffers and peaks at 9-11
# times the states by transforms (unified-default at T = 0.1, n = 16 and 32:
# the grid samples of Btilde's three planes per field, 8-15 MB) and at 4.6
# times by the drift tensor (ou-toy, n = 4: the gathered coordinates, their
# products and the contraction's output, 1.9 MB); later steps allocate only
# the new state and numpy's iteration buffers, 1.1-1.7 times the states
# (tracemalloc, one step of a fresh stepper on a batch of this size)
_BATCH_BYTES = 1 << 21


def _batch_size(cfg):
    """Trajectories per batch: states and increments within ``_BATCH_BYTES``."""
    J = cfg.noise.rank if cfg.noise is not None else 0
    state_bytes = math.prod(cfg.lattice.shape) * np.dtype(np.complex128).itemsize
    return max(1, _BATCH_BYTES // (state_bytes + 8 * cfg.steps * J))


def _batches(count, cfg):
    """The ``(start, stop)`` bounds of ``count`` runs in batches of ``_batch_size(cfg)``."""
    if count <= 0:
        raise ValueError("n_samples must be positive")
    size = _batch_size(cfg)
    return [(start, min(start + size, count)) for start in range(0, count, size)]


def _chunk_increments(J, dt, steps, master_seed, start, stop):
    """Row ``i - start``: ``trajectory_wiener(J, dt, steps, master_seed, i).increments``,
    drawn in place and scaled once for the chunk.  Each row's PCG64 takes its
    seed from ``noise._stream_seeds``, which hashes the whole chunk's
    ``(master_seed, i)`` in one vectorized pass, as ``SeedSequence`` would."""
    out = np.empty((stop - start, steps, J))
    for row, words in zip(out, _stream_seeds(master_seed, start, stop)):
        np.random.Generator(np.random.PCG64(_SeedWords(words))).standard_normal(out=row)
    return np.multiply(out, np.sqrt(dt), out=out)


def _march_batch(delta, cfg, xi_coeffs, u_fields, master_seed, start, stop, observe):
    """March trajectories ``start..stop-1`` of the stochastic system as one
    batch, trajectory ``i`` driven by the stream ``(master_seed, i)``."""
    inc = None
    if cfg.noise is not None:
        inc = _chunk_increments(cfg.noise.rank, cfg.dt, cfg.steps, master_seed, start, stop)
        inc = inc.transpose(1, 0, 2)  # step-major: inc[m] is the batch's increment
    step = indexed_step(UnifiedStepper(cfg, delta).step, u_n=u_fields, dw=inc)
    y0 = initial_state(delta, xi_coeffs, (stop - start,))
    return march(step, y0, cfg.steps, observe, cfg.lattice)


def _mc_chunk(shared, start, stop):
    """Hits among trajectories ``start..stop-1``; ``shared`` is ``(delta,
    cfg, xi_coeffs, u_fields, event, master_seed)``."""
    delta, cfg, xi_coeffs, u_fields, event, master_seed = shared
    lat = cfg.lattice
    if isinstance(event, SupNormEvent):
        peak = np.zeros(stop - start)
        _march_batch(delta, cfg, xi_coeffs, u_fields, master_seed, start, stop,
                     lambda m, y: np.maximum(peak, lat.norm_h(y), out=peak))
        hit = peak > event.threshold
    else:  # a terminal event observes nothing on the way
        y = _march_batch(delta, cfg, xi_coeffs, u_fields, master_seed, start, stop, None)
        hit = lat.inner_h(y, event.g.coeffs) > event.level
    return int(np.sum(hit))


# a pool worker's ``shared`` argument of ``_mc_chunk``, set once per worker
_worker_shared = None


def _set_worker_shared(shared, errors):
    global _worker_shared
    _worker_shared = shared
    np.seterr(**errors)  # the caller's floating-point error policy


def _worker_chunk(bounds):
    return _mc_chunk(_worker_shared, *bounds)


def _available_cpus():
    """CPUs this process may run on (all CPUs where affinity is not known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mc_tail(
    delta: int,
    alpha: float,
    event,
    n_samples: int,
    cfg: SolverConfig,
    xi: SpectralField,
    master_seed: int = 0,
    workers: Optional[int] = None,
    nse: Optional[TrajectoryRecord] = None,
) -> TailEstimate:
    """Empirical tail probability of ``event`` under the stochastic system.

    Trajectories are marched in batches of about ``_BATCH_BYTES``, so memory
    stays bounded whatever the sample count.  Trajectory ``i`` always consumes
    the stream derived from ``(master_seed, i)``, so the estimate is
    independent of worker count and batching; batches are merged by summing
    hit counts.  ``workers`` processes share the batches; None means the CPUs
    this process may run on.  Either way there are no more workers than
    batches.  delta=1 needs the dense reference ``nse`` of ``xi``.
    """
    bounds = _batches(n_samples, cfg)  # alpha does not size a batch
    if workers is None:
        workers = _available_cpus()
    elif workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    run_cfg = replace(cfg, alpha=float(alpha))
    u_fields = _dense_fields(nse, run_cfg, "mc_tail", xi) if delta == 1 else None
    shared = (delta, run_cfg, xi.coeffs, u_fields, event, master_seed)
    if workers > 1 and len(bounds) > 1:
        # the shared arguments (the dense reference among them) go to each
        # worker once, not with every batch
        with multiprocessing.Pool(processes=min(workers, len(bounds)),
                                  initializer=_set_worker_shared,
                                  initargs=(shared, np.geterr())) as pool:
            counts = pool.map(_worker_chunk, bounds)
    else:
        counts = [_mc_chunk(shared, a, b) for a, b in bounds]
    hits = int(sum(counts))
    p_hat = hits / n_samples
    speed = ScalingLaw(run_cfg.kappa, delta).speed(alpha)
    if hits == 0:
        lo, hi, rate = 0.0, wilson_upper_zero(n_samples), None
    else:
        lo, hi = wilson_interval(hits, n_samples)
        rate = -math.log(p_hat) / speed if p_hat < 1.0 else 0.0
    return TailEstimate(
        alpha, delta, event.describe(), n_samples, hits, p_hat, speed, rate, lo, hi,
        master_seed,
    )


# ---------------------------------------------------------------------------
# Limit and continuity probes
# ---------------------------------------------------------------------------


def convergence_study(
    alpha_grid: Sequence[float],
    n_samples: int,
    cfg: SolverConfig,
    xi: SpectralField,
    master_seed: int = 0,
) -> list[dict]:
    """Estimate ``E[sup_t |u_a - u|^2 + int ||u_a - u||_V^2 dt]`` per alpha.

    Shared-seed batches: sample ``i`` uses the same Wiener stream at every
    alpha, so the decay across the grid is not masked by sampling noise.
    Samples are marched in batches of about ``_BATCH_BYTES``, so memory stays
    bounded; sums are kept per sample, so the rows do not depend on batching.
    """
    bounds = _batches(n_samples, cfg)
    lat = cfg.lattice
    u_path = dense_nse(xi, cfg).fields
    rows = []
    for alpha in alpha_grid:
        run_cfg = replace(cfg, alpha=float(alpha))
        # per-sample sums: the means do not depend on the chunking
        sup_sq = np.zeros(n_samples)
        diss = np.zeros(n_samples)
        for start, stop in bounds:
            sup, dis = sup_sq[start:stop], diss[start:stop]

            def observe(m, y):
                diff = y - u_path[m]
                np.maximum(sup, lat.norm_h(diff) ** 2, out=sup)
                np.add(dis, cfg.dt * lat.norm_v(diff) ** 2, out=dis)

            _march_batch(0, run_cfg, xi.coeffs, None, master_seed, start, stop, observe)
        rows.append(
            {
                "alpha": float(alpha),
                "estimate": float(np.mean(sup_sq + diss)),
                "sup_mean": float(np.mean(sup_sq)),
                "dissipation_mean": float(np.mean(diss)),
                "n_samples": n_samples,
            }
        )
    return rows


def weak_continuity_probe(
    delta: int,
    n_list: Sequence[int],
    cfg: SolverConfig,
    xi: SpectralField,
    direction: Optional[np.ndarray] = None,
    amplitude: float = 1.0,
    basis_count: int = 128,
    nse: Optional[TrajectoryRecord] = None,
) -> list[dict]:
    """Response of the controlled system to oscillatory controls h_n -> 0 weakly.

    For each oscillation index, reports
    ``e(n) = sup_t |y_hn - y_0|_H + (int ||y_hn - y_0||_V^2 dt)^(1/2)`` and the
    weak distance ``d1(h_n, 0)``; both decrease as the control oscillates away.
    Row 0 (the zero control) and every ``h_n`` march as one batch, and only
    each row's running sup and dissipation are kept, the floats of a march of
    its own (one ``stacked_norms`` reduction, the square a float's ``pow``).
    """
    J = cfg.require_noise().rank
    if any(osc < 1 for osc in n_list):
        raise ValueError(f"oscillation indices must be at least 1, got {tuple(n_list)}")
    if basis_count < 1:
        raise ValueError(f"basis_count must be at least 1, got {basis_count}")
    u_fields = None
    if delta == 1:
        if nse is None:
            nse = dense_nse(xi, cfg)
        u_fields = _dense_fields(nse, cfg, "weak_continuity_probe", xi)
    zero = zero_control(J, cfg.dt, cfg.steps)
    controls = [sine_control(J, cfg.dt, cfg.steps, osc, direction=direction, amplitude=amplitude)
                for osc in n_list]
    hv = np.stack([zero.values] + [h.values for h in controls], axis=1)
    lat = cfg.lattice
    table = lat.norm_table(0.0)[:2]  # the H and V weights
    sup, diss = [0.0] * len(controls), [0.0] * len(controls)

    def observe(m, y):
        nh, nv = lat.stacked_norms(y[1:] - y[0], table).tolist()
        for i, (h_i, v_i) in enumerate(zip(nh, nv)):
            sup[i] = max(sup[i], h_i)
            diss[i] += cfg.dt * v_i**2

    _skeleton_march(delta, hv, cfg, xi, u_fields, observe)
    return [{"oscillation": int(osc), "e": s + math.sqrt(d),
             "d1": weak_distance(h_n, zero, basis_count=basis_count),
             "control_cost": control_cost(h_n)}
            for osc, h_n, s, d in zip(n_list, controls, sup, diss)]


def mdp_rescale(
    xi: SpectralField,
    cfg: SolverConfig,
    wiener: Optional[WienerPath],
    nse: TrajectoryRecord,
) -> tuple[np.ndarray, np.ndarray]:
    """The rescaled fluctuation ``(u_a - u) / (sqrt(a) lambda(a))`` at
    ``a = cfg.alpha`` against the delta=1 unified run ``y``, step by step.

    ``lambda(a) = a**-cfg.kappa``: the factor is the reciprocal of the
    ``lam_delta`` that the delta=1 row divides by.  The smoothed run
    (``solve_lans``) and ``solve_unified(1, ...)`` march as the two rows of
    one state through one ``UnifiedStepper``, driven by the same ``wiener``
    path, with ``u`` and ``B(u, u)`` taken from the dense ``nse`` record,
    which must start from ``xi``.  Returns the H-norm of the rescaled
    fluctuation and the gap ``|rescaled - y|_H`` at every step from
    ``t = 0``, each equal bit for bit to the norm of the difference of the
    two separate runs' states; no state but the current one is kept.
    """
    inc = _check_wiener(cfg, wiener)
    u_fields = _dense_fields(nse, cfg, "mdp_rescale", xi)
    if nse.drifts is None:
        raise ValueError("mdp_rescale needs the limit flow's drifts (run dense_nse)")
    lat = cfg.lattice
    stepper = UnifiedStepper(cfg, (0, 1))  # refuses an alpha outside (0, 1]
    fac = 1.0 / ScalingLaw(cfg.kappa, 1).lam_delta(cfg.alpha)
    # the reference rows: zero for the delta=0 row, u_m and B(u_m, u_m) for
    # the delta=1 row, written at each step
    u_n = np.zeros((2,) + lat.shape, np.complex128)
    b_n = np.zeros_like(u_n)

    def step(m, y):
        u_n[1], b_n[1] = u_fields[m], nse.drifts[m]
        return stepper.step(y, u_n=u_n, b_n=b_n, dw=None if inc is None else inc[m])

    pair = np.empty_like(u_n)  # the rescaled fluctuation and the gap
    norms = np.empty((cfg.steps + 1, 2))

    def observe(m, y):
        rescaled = np.subtract(y[0], u_fields[m], out=pair[0])
        np.multiply(rescaled, fac, out=rescaled)
        np.subtract(rescaled, y[1], out=pair[1])
        norms[m] = lat.norm_h(pair)

    march(step, np.stack([xi.coeffs, initial_state(1, xi.coeffs)]), cfg.steps, observe, lat)
    return norms[:, 0], norms[:, 1]
