"""Semi-implicit time integrators for the four model systems.

All solvers share one first-order scheme: the Stokes term is treated
implicitly (exact diagonal solve ``(I + dt nu A)^{-1}``), every other drift
term explicitly at the left endpoint, and noise by explicit Euler-Maruyama.
This keeps the linear part unconditionally stable and makes the discrete
difference-quotient identity between the smoothed system, the limit system
and the unified fluctuation system exact (see ``solve_unified``).

Every forward run, single path or Monte Carlo batch, goes through the one
loop ``march``, which hands each state to an observer and applies the
blowup rule of ``BlowupError`` to each trajectory.  A step's rule is
certified by one bound on the largest entry of the whole batch, and an
H-norm is taken only where that bound does not settle it; an observer
computes the norms it uses (the recorder all four in one reduction).  The
noise term is scaled on its support, so a step adds it in one pass.  The
unified stepper also takes delta per leading row: a delta=0 row is the
delta=1 formula at ``u = 0`` and ``lam_delta = 1``, so the smoothed run and
the delta=1 run can march as the two rows of one state (``mdp_rescale``).

Systems
-------
* ``solve_nse``       du/dt + nu A u + B(u, u) = 0
* ``solve_lans``      du + [nu A u + Btilde_a(u, v)] dt = sqrt(a) G_a(u) dW,
  with v = (I + a^2 A) u; the delta=0 case of ``solve_unified``
* ``solve_unified``   the delta-parameterized fluctuation system with control
  and noise.  delta=1 evolves y = (u_a - u) / lam_delta, so its drift is the
  difference quotient [Btilde_a(w, (I + a^2 A) w) - B(u, u)] / lam_delta at
  w = u + lam_delta y; with u = 0 and lam_delta = 1 it is the delta=0 drift.
  Its B(u, u) is the limit flow's own drift, which the reference record of
  ``dense_nse`` keeps from its run, so ``solve_unified`` forms no B term itself
* ``solve_skeleton``  the deterministic controlled system whose solution map
  defines the deviation rate function (no smoothing; alpha-free)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .noise import Control, NoiseOperator, WienerPath
from .spectral import SpectralField, TorusLattice

_BLOWUP_FACTOR = 1.0e6
# ``march`` certifies a step when its norm bound times this margin, far above
# the rounding of the bound and of the norm, is at most the smallest limit;
# and only below ``_CEILING_MAX``, where no square in a norm can overflow
_CEILING_MARGIN = 1.0 + 1.0e-6
_CEILING_MAX = 1.0e150


class BlowupError(RuntimeError):
    """Numeric abort: an H-norm became non-finite or exceeded
    ``_BLOWUP_FACTOR * max(1, |y0|)`` (``record``: last good single-path record)."""

    def __init__(self, message, record=None, step=None):
        super().__init__(message)
        self.record = record
        self.step = step


@dataclass(frozen=True)
class ScalingLaw:
    """Deviation scaling ``lambda(a) = a**-kappa`` with the delta switch.

    ``lam_delta`` is 1 for delta=0 and ``sqrt(a) * lambda(a)`` for delta=1;
    the associated deviation speed is ``lam_delta(a)^2 / a``.  The ranges of
    kappa and delta and the default kappa are written here alone (the run
    document repeats the ranges to name its keys).
    """

    kappa: float = 0.25
    delta: int = 0

    def __post_init__(self):
        if not 0.0 < self.kappa < 0.5:
            raise ValueError("kappa must lie in (0, 1/2)")
        if self.delta not in (0, 1):
            raise ValueError("delta must be 0 or 1")

    def lam(self, alpha: float) -> float:
        return float(alpha) ** (-self.kappa)

    def lam_delta(self, alpha: float) -> float:
        if self.delta == 0:
            return 1.0
        return math.sqrt(alpha) * self.lam(alpha)

    def speed(self, alpha: float) -> float:
        """LDP/MDP speed: 1/alpha for delta=0, lambda(alpha)^2 for delta=1."""
        return self.lam_delta(alpha) ** 2 / alpha


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver settings; ``steps * dt`` must reproduce ``t_final``.
    ``check_grid`` and ``require_noise`` are the rules for a run's inputs."""

    lattice: TorusLattice
    dt: float
    t_final: float
    alpha: float = 0.0
    kappa: float = ScalingLaw.kappa  # the fluctuation scaling lambda(a) = a**-kappa
    noise: Optional[NoiseOperator] = None
    viscosity: float = 1.0
    record_stride: int = 1
    store_fields: bool = False

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        ScalingLaw(self.kappa)  # refuses a kappa outside (0, 1/2)
        if self.viscosity <= 0:
            raise ValueError("viscosity must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError(f"t_final / dt = {self.t_final / self.dt} is not a finite step count")
        steps = round(self.t_final / self.dt)
        if steps < 1 or abs(steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError("t_final must be an integer multiple of dt")
        if self.noise is not None and self.noise.lattice.n != self.lattice.n:
            raise ValueError("noise operator lives on a different lattice")

    @property
    def steps(self) -> int:
        return round(self.t_final / self.dt)

    def check_grid(self, what: str, dt: float, steps: int, exact: bool = False) -> None:
        """Refuse a series ``what`` (Wiener path, control, reference record) of
        ``steps`` steps of ``dt`` unless it covers the run: the run's ``dt``
        within 1e-15, and at least the run's steps (exactly them if ``exact``)."""
        if (steps != self.steps if exact else steps < self.steps) or abs(dt - self.dt) > 1e-15:
            raise ValueError(f"{what} grid does not match the config")

    def require_noise(self) -> NoiseOperator:
        """The noise operator, which the caller's run cannot do without."""
        if self.noise is None:
            raise ValueError("this run needs a noise operator in the config")
        return self.noise

    def implicit_multiplier(self) -> np.ndarray:
        return 1.0 / (1.0 + self.dt * self.viscosity * self.lattice.eigenvalue)


@dataclass
class TrajectoryRecord:
    """Scalar time series (and optional snapshots) produced by one solver run.

    ``dissipation`` is the running sum ``sum dt * ||y_m||_V^2`` over all steps
    taken so far, i.e. the discrete dissipation integral appearing in the
    energy inequality.  ``drifts``, kept by ``dense_nse`` only, holds each
    step's drift ``B(u_m, u_m)`` for ``m < steps``.
    """

    times: np.ndarray
    norm_h: np.ndarray
    norm_v: np.ndarray
    norm_a: np.ndarray
    norm_alpha: np.ndarray
    dissipation: np.ndarray
    alpha: float
    dt: float
    fields: Optional[list] = None
    drifts: Optional[list] = None

    def __len__(self):
        return self.times.size

    def field_at(self, i: int, lattice: TorusLattice) -> SpectralField:
        if self.fields is None:
            raise ValueError("this record was produced without snapshots")
        return SpectralField(lattice, self.fields[i])


def march(step, y: np.ndarray, steps: int, observe, lattice: TorusLattice) -> np.ndarray:
    """The forward time loop ``y_{m+1} = step(m, y_m)`` from ``y_0 = y``;
    returns ``y_steps``.

    Batched over leading axes of ``y``.  ``observe(m, y_m)``, if given, sees
    every state from ``y_0`` on, once; a trajectory that breaks the
    ``BlowupError`` rule raises before it is observed.

    The rule is certified without a norm where it can be: a state whose
    float view has no entry above ``M`` has ``|y|_H <= 2 M sqrt(sum w_h)``
    (``TorusLattice.norm_h_ceiling``) in every trajectory, so a step where
    that bound, times ``_CEILING_MARGIN``, is at most the smallest limit
    cannot break the rule.  Any other step, NaN and inf among them, takes
    the H-norms and applies the rule exactly.  The limits come from the
    exact norms of ``y_0``.
    """
    nh = lattice.norm_h(y)
    limit = _BLOWUP_FACTOR * np.maximum(1.0, nh)
    # the largest entry M that certifies every trajectory (NaN if a limit is)
    peak_cap = np.minimum(np.min(limit), _CEILING_MAX) / lattice.norm_h_ceiling(_CEILING_MARGIN)
    if observe is not None:
        observe(0, y)
    for m in range(1, steps + 1):
        y = step(m - 1, y)
        if not np.abs(y.view(np.float64)).max() <= peak_cap:  # NaN fails every comparison
            nh = lattice.norm_h(y)
            if not (nh <= limit).all():
                bad = np.flatnonzero(~(nh <= limit))[0]
                where = f" in trajectory {bad}" if np.ndim(nh) else ""
                size = np.ravel(nh)[bad]
                raise BlowupError(f"solution blew up at step {m}{where}: |y| = {size:.3e}", step=m)
        if observe is not None:
            observe(m, y)
    return y


def indexed_step(step, **series):
    """``step(m, y)`` for one run: calls ``step(y, key=series[key][m], ...)``
    for every series given (reference states, increments, controls)."""
    series = {k: v for k, v in series.items() if v is not None}
    return lambda m, y: step(y, **{k: v[m] for k, v in series.items()})


def initial_state(delta: int, coeffs: np.ndarray, batch: tuple = ()) -> np.ndarray:
    """Initial value ``(1 - delta) xi`` of the unified and skeleton systems;
    for a ``batch`` of runs a read-only view of it, one per run."""
    y0 = np.zeros_like(coeffs) if delta == 1 else coeffs
    return np.broadcast_to(y0, batch + y0.shape) if batch else y0


class _Recorder:
    """Observer that builds a ``TrajectoryRecord`` every ``record_stride`` steps.

    It takes each state's H, V, A and alpha norms from one ``stacked_norms``
    reduction over the four ``norm_table`` rows, as floats; the square in the
    dissipation is a float's (``pow``).  It records one trajectory, one row
    per recorded state: a batch of states (``_skeleton_march``'s) goes to an
    observer of its own.
    """

    def __init__(self, cfg: SolverConfig, alpha: float):
        self.cfg = cfg
        self.alpha = alpha
        self._table = cfg.lattice.norm_table(alpha)
        self.rows = []  # (time, H, V, A and alpha norms, dissipation)
        self.fields = [] if cfg.store_fields else None
        self._dissipation = 0.0

    def __call__(self, m, y):
        cfg = self.cfg
        nh, nv, na, nal = cfg.lattice.stacked_norms(y, self._table).tolist()
        if m:
            self._dissipation += cfg.dt * nv**2
        if m % cfg.record_stride and m != cfg.steps:
            return
        self.rows.append((m * cfg.dt, nh, nv, na, nal, self._dissipation))
        if self.fields is not None:
            self.fields.append(y.copy())

    def build(self) -> TrajectoryRecord:
        return TrajectoryRecord(*np.array(self.rows).T, self.alpha, self.cfg.dt, self.fields)


def _drive(cfg: SolverConfig, y0: np.ndarray, step_fn, alpha_for_norms: float) -> TrajectoryRecord:
    rec = _Recorder(cfg, alpha_for_norms)
    try:
        march(step_fn, y0, cfg.steps, rec, cfg.lattice)
    except BlowupError as exc:
        exc.record = rec.build()  # the last good record
        raise
    return rec.build()


# ---------------------------------------------------------------------------
# The four systems
# ---------------------------------------------------------------------------


def solve_nse(xi: SpectralField, cfg: SolverConfig) -> TrajectoryRecord:
    """Limit system: the delta=0 skeleton step with no control."""
    step = indexed_step(SkeletonStepper(cfg, 0).step)
    return _drive(cfg, xi.coeffs, step, alpha_for_norms=0.0)


def dense_nse(xi: SpectralField, cfg: SolverConfig) -> TrajectoryRecord:
    """Reference run with snapshots at every step (for delta=1 solvers) and
    each step's drift ``B(u_m, u_m)``, which the delta=1 unified step reuses."""
    dense_cfg = replace(cfg, record_stride=1, store_fields=True, noise=None)
    stepper = SkeletonStepper(dense_cfg, 0)
    stepper.drifts = []
    record = _drive(dense_cfg, xi.coeffs, indexed_step(stepper.step), alpha_for_norms=0.0)
    record.drifts = stepper.drifts
    return record


def _check_wiener(cfg, wiener):
    """The increments of ``wiener`` that the run's noise takes (None without
    a path or a noise), once the path is checked against the run."""
    if wiener is None:
        return None
    cfg.check_grid("Wiener path", wiener.dt, wiener.steps)
    if cfg.noise is not None and wiener.rank != cfg.noise.rank:
        raise ValueError("Wiener path rank does not match the noise rank")
    return None if cfg.noise is None else wiener.increments


def solve_lans(xi: SpectralField, cfg: SolverConfig, wiener: Optional[WienerPath] = None) -> TrajectoryRecord:
    """Smoothed stochastic system in velocity form, noise scaled by sqrt(alpha):
    the delta=0 unified system."""
    return solve_unified(0, xi, cfg, wiener=wiener)


class _Stepper:
    """What the unified and the skeleton steppers share: the scheme's
    constants and work buffers that are replaced when the state shape
    changes."""

    def __init__(self, cfg: SolverConfig, delta: int):
        ScalingLaw(cfg.kappa, delta)  # refuses a delta other than 0 or 1
        self.lat = cfg.lattice
        self.S = cfg.implicit_multiplier()
        self.dt = cfg.dt
        self.delta = delta
        self.noise = cfg.noise
        self._buffers = [None, None]

    def _buffer(self, shape, which):
        """Work buffer ``which`` (0 or 1) for states of ``shape``."""
        buf = self._buffers[which]
        if buf is None or buf.shape != shape:
            buf = self._buffers[which] = np.empty(shape, np.complex128)
        return buf


class UnifiedStepper(_Stepper):
    """One step of the delta-parameterized controlled/stochastic system.

    Drift and noise are evaluated at one coefficient argument
    ``w = u_n + lam_delta y`` (``w = y`` for delta=0, where ``u_n = 0`` and
    ``lam_delta = 1``).  The drift is the difference quotient
    ``[J_a Btilde(w, (I + a^2 A) w) - B(u_n, u_n)] / lam_delta`` of the smoothed
    and the limit drifts, so for delta=1 ``y`` is exactly ``(u_a - u) / lam_delta``.
    The smoothed drift is one call, ``btilde_alpha``: at n = 4 and 6 one
    contraction with the lattice's drift tensor of ``a``; above, ``Btilde``
    by the kernel in rotational form, ``P(q (-w_2, w_1))`` with ``q`` the curl
    of ``(I + a^2 A) w`` (3 planes per field on the grid), smoothed in place.
    ``B(u_n, u_n)``, by the kernel at every n, is the reference step's own
    drift: ``b_n``, from the dense record's ``drifts``, is the same kernel
    call on the same state, so the step is the same bit for bit with it.
    Without ``b_n`` the step forms it.

    Batched: ``y`` may carry leading axes; ``u_n`` (the reference-system state
    at the left endpoint, required for delta=1) broadcasts against it.

    ``delta`` may also be a sequence, one delta per leading row of ``y``.
    ``lam_delta``, its reciprocal and ``noise_scale`` then become per-row
    factors of shape ``(rows, 1, 1, 1)``, and with any delta=1 row every row
    takes the delta=1 formula.  A delta=0 row takes it at ``lam_delta = 1``
    with its rows of ``u_n`` and ``b_n`` zero, which is the delta=0 step, so
    each row gets the floats of a stepper of its own delta.  A single delta
    keeps the factors plain floats.

    A step allocates only the state it returns: ``w`` lives in buffer 0 and,
    by transforms, ``(I + a^2 A) w`` in buffer 1, the noise term, scaled on
    its support (by ``dt`` or ``noise_scale``), is formed in buffer 1 once
    the drift is done, and the drift array is updated in place into the new
    state.
    """

    def __init__(self, cfg: SolverConfig, delta):
        if not 0.0 < cfg.alpha <= 1.0:
            raise ValueError("the unified system needs alpha in (0, 1]")
        rows = np.ndim(delta) == 1
        deltas = tuple(delta) if rows else (delta,)
        # 1 when any row takes the delta=1 formula; None, which the law
        # refuses, for an empty sequence
        super().__init__(cfg, max(deltas, default=None))
        self.alpha = cfg.alpha
        lam = [ScalingLaw(cfg.kappa, d).lam_delta(cfg.alpha) for d in deltas]
        self.lam_delta = np.reshape(lam, (-1, 1, 1, 1)) if rows else lam[0]
        # multiplying by it divides by lam_delta to the last bit (see spectral)
        self._inv_lam_delta = 1.0 / self.lam_delta
        self.noise_scale = math.sqrt(cfg.alpha) * self._inv_lam_delta
        # the noise term's scale on its support values, (rows, 1) per row
        self._support_scale = np.reshape(self.noise_scale, (-1, 1)) if rows else self.noise_scale

    def coefficient_argument(self, y, u_n):
        """``w``: ``y`` itself for delta=0; for delta=1 the stepper's buffer,
        overwritten by the next call."""
        if self.delta == 0:
            return y
        w = self._buffer(np.broadcast_shapes(u_n.shape, y.shape), 0)
        np.multiply(y, self.lam_delta, out=w)
        return np.add(u_n, w, out=w)

    def drift(self, w, u_n, b_n=None):
        """Drift at the coefficient argument ``w``: ``J_a Btilde(w, (I + a^2 A) w)``,
        and for delta=1 its difference quotient ``(... - B(u_n, u_n)) / lam_delta``,
        with ``B(u_n, u_n)`` given as ``b_n`` or formed here.  Returns a fresh array."""
        lat = self.lat
        drift = lat.btilde_alpha(w, self.alpha, work=self._buffer(w.shape, 1))
        if self.delta == 1:
            np.subtract(drift, lat.bilinear_b(u_n, u_n) if b_n is None else b_n, out=drift)
            np.multiply(drift, self._inv_lam_delta, out=drift)
        return drift

    def step(self, y, u_n=None, b_n=None, dw=None, h_n=None):
        if self.delta == 1 and u_n is None:
            raise ValueError("delta=1 needs the reference-system state u_n")
        w = self.coefficient_argument(y, u_n)
        # S (y - dt drift + dt G h + noise_scale G dW), in place on the drift
        rhs = self.drift(w, u_n, b_n)
        np.multiply(rhs, self.dt, out=rhs)
        np.subtract(y, rhs, out=rhs)
        if self.noise is not None:
            for coords, scale in ((h_n, self.dt), (dw, self._support_scale)):
                if coords is not None:
                    rhs += self.noise.apply_smoothed(w, coords, self.alpha, scale,
                                                     out=self._buffer(w.shape, 1))
        return np.multiply(self.S, rhs, out=rhs)


def _dense_fields(nse: Optional[TrajectoryRecord], cfg: SolverConfig, what: str,
                  xi: Optional[SpectralField]):
    """The reference states of ``nse``, checked against the run's grid and,
    unless ``xi`` is None, its initial field.  A record holds a state at
    every step when its times are ``m * dt``, ``m = 0, 1, ...``; a strided one
    (``record_stride > 1``) is refused."""
    if nse is None:
        raise ValueError(f"delta=1 {what} needs the dense reference record (run dense_nse first)")
    if nse.fields is None or not np.array_equal(nse.times, np.arange(len(nse)) * nse.dt):
        raise ValueError("reference record must hold snapshots at every step")
    cfg.check_grid("reference record", nse.dt, len(nse) - 1)
    if xi is not None and nse.fields[0].tobytes() != xi.coeffs.tobytes():
        raise ValueError("reference record starts from another initial field")
    return nse.fields


def solve_unified(
    delta: int,
    xi: SpectralField,
    cfg: SolverConfig,
    h: Optional[Control] = None,
    wiener: Optional[WienerPath] = None,
    nse: Optional[TrajectoryRecord] = None,
) -> TrajectoryRecord:
    """Unified fluctuation system; initial value ``(1 - delta) xi``.

    delta=0 is the smoothed stochastic system (``solve_lans``); delta=1 evolves
    ``(u_smoothed - u) / lam_delta`` exactly for the discrete scheme, with the
    reference states taken from the dense ``nse`` record at left endpoints.
    """
    inc = _check_wiener(cfg, wiener)
    if h is not None:
        cfg.check_grid("control", h.dt, h.steps)
        cfg.require_noise()
    stepper = UnifiedStepper(cfg, delta)
    u_fields = _dense_fields(nse, cfg, "solve_unified", xi) if delta == 1 else None
    b_fields = nse.drifts if delta == 1 else None
    step = indexed_step(stepper.step, u_n=u_fields, b_n=b_fields, dw=inc,
                        h_n=None if h is None else h.values)
    return _drive(cfg, initial_state(delta, xi.coeffs), step, alpha_for_norms=cfg.alpha)


class SkeletonStepper(_Stepper):
    """One step of the deterministic controlled system (alpha-free).

    delta=0: the controlled limit system around the state itself, drift
    ``B(y, y)``.  delta=1: the linearization around the reference flow,
    driven through the fixed coefficient ``G(u_n)``; its drift
    ``B(u_n, y) + B(y, u_n)`` is the alpha -> 0 limit of the unified delta=1
    drift, the difference quotient of ``B`` at ``u_n`` in the direction
    ``y`` (``Btilde(w, w) = B(w, w)``, ``J_a -> I`` and ``lam_delta -> 0``),
    formed by one stacked kernel call in rotational form,
    ``P(-u_n x curl y - y x curl u_n)``: 6 planes per field on the grid.

    Like ``UnifiedStepper`` a step allocates only the state it returns: the
    coefficient argument is ``y`` or ``u_n`` itself, so only buffer 1 is
    used, for the noise term, and the drift array becomes the new state.
    Batched: ``y`` may carry leading axes and ``h_n`` the same ones, one
    control per state; ``u_n`` broadcasts against them.
    Set ``drifts`` to a list to keep a copy of each step's drift in it.
    """

    drifts = None

    def coefficient_argument(self, y, u_n):
        return y if self.delta == 0 else u_n

    def drift(self, y, u_n):
        """``B(y, y)`` (delta=0) or ``B(u_n, y) + B(y, u_n)``; a fresh array."""
        if self.delta == 0:
            return self.lat.bilinear_b(y, y)
        return self.lat.linearized_b(u_n, y)

    def step(self, y, u_n=None, h_n=None):
        # S (y - dt drift + dt G h), in place on the drift
        rhs = self.drift(y, u_n)
        if self.drifts is not None:
            self.drifts.append(rhs.copy())  # before rhs becomes the new state
        np.multiply(rhs, self.dt, out=rhs)
        np.subtract(y, rhs, out=rhs)
        if h_n is not None and self.noise is not None:
            arg = self.coefficient_argument(y, u_n)
            # one control's term has the batch of arg, a batch of controls
            # that of the new state (which y must then carry)
            shape = arg.shape if h_n.ndim == 1 else rhs.shape
            rhs += self.noise.apply(arg, h_n, self.dt, out=self._buffer(shape, 1))
        return np.multiply(self.S, rhs, out=rhs)


def solve_skeleton(
    delta: int,
    xi: SpectralField,
    cfg: SolverConfig,
    h: Control,
    nse: Optional[TrajectoryRecord] = None,
) -> TrajectoryRecord:
    """Deterministic controlled system: the rate-function solution map.

    ``h`` is one control, ``(steps, J)`` values; a batch of controls marches
    through ``deviations._skeleton_march``, which records nothing.
    """
    if h is None:
        raise ValueError("solve_skeleton needs a control (possibly zero)")
    cfg.check_grid("control", h.dt, h.steps)
    cfg.require_noise()  # it shapes the control
    if h.values.ndim != 2:
        raise ValueError(f"solve_skeleton takes one (steps, J) control, got {h.values.shape}")
    u_fields = _dense_fields(nse, cfg, "solve_skeleton", xi) if delta == 1 else None
    step = indexed_step(SkeletonStepper(cfg, delta).step, u_n=u_fields, h_n=h.values)
    return _drive(cfg, initial_state(delta, xi.coeffs), step, alpha_for_norms=0.0)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


@dataclass
class EnergyReport:
    sup_norm_alpha_sq: float       # sup_t ||y||_a^2
    sup_norm_alpha_4: float        # sup_t ||y||_a^4
    dissipation_integral: float    # int ||y||_V^2 dt over the run
    phi_integral: float            # int Phi_delta dt along the reference
    growth_bound: float            # (1 + ||y(0)||_a^2) * exp(phi_integral), capped
    flagged: bool


def energy_report(
    traj: TrajectoryRecord,
    cfg: SolverConfig,
    u_ref: Optional[TrajectoryRecord] = None,
    delta: int = 0,
) -> EnergyReport:
    """Moment functionals of a trajectory plus the Gronwall-style growth flag.

    ``Phi_delta = 1 + delta^2 (|A u|^2 + |u|^2) + |B(u,u)|^2
    + |A u|^2 ||u||_V^2`` integrated along the reference record (u = 0 when no
    reference is given).  The flag compares ``sup_t ||y||_a^2`` against
    ``(1 + ||y(0)||_a^2) * exp(int Phi)``; constants in the underlying
    estimate are unknown, so this is a trend check only.
    """
    sup2 = float(np.max(traj.norm_alpha**2))
    sup4 = float(np.max(traj.norm_alpha**4))
    diss = float(traj.dissipation[-1])

    steps = cfg.steps
    phi = np.ones(steps)
    if u_ref is not None:
        lat = cfg.lattice
        fields = _dense_fields(u_ref, cfg, "energy_report", None)
        for m in range(steps):
            u = fields[m]
            au2 = float(lat.norm_a(u)) ** 2
            vu2 = float(lat.norm_v(u)) ** 2
            hu2 = float(lat.norm_h(u)) ** 2
            b2 = float(lat.norm_h(lat.bilinear_b(u, u))) ** 2
            phi[m] += delta**2 * (au2 + hu2) + b2 + au2 * vu2
    phi_int = float(np.sum(phi) * cfg.dt)

    with np.errstate(over="ignore"):
        bound = (1.0 + float(traj.norm_alpha[0]) ** 2) * math.exp(min(phi_int, 700.0))
    flagged = sup2 > bound
    return EnergyReport(sup2, sup4, diss, phi_int, bound, flagged)
