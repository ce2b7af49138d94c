"""The four benchmark workloads, each with its op and correctness gate.

A workload builds its fixed state from the benchmark seed (``__init__``),
makes the inputs of op ``i`` outside the timed region (``inputs``), runs one
op (``op``) and checks its outputs (``check``, which returns an error message
or ``None``).  Op ``-1`` is the untimed warm-up.  ``work`` describes what one
op computes, counted from its inputs, for the derived throughput figures.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
from dataclasses import replace

import numpy as np

# Ops call lans2d through module attributes, so that the traced run's
# wrappers (installed on those attributes) see every call.
import lans2d
from lans2d import (
    Control,
    RateProblem,
    SpectralField,
    TerminalField,
    TerminalObservable,
    TerminalObservableEvent,
    cli,
    control_cost,
    dense_nse,
    preset,
    solve_skeleton,
    zero_control,
)
from lans2d.runio import read_csv

# a binomial count further than this many standard deviations from its mean
# fails the gate; at 1000 samples per op the false-alarm rate is ~2e-9
Z_GATE = 6.0


class McOu:
    """Crude Monte Carlo tail of the ou-toy preset (n=4, delta=0, 100 steps)."""

    name = "mc-ou"
    alpha = 0.1
    level = 0.2
    samples = 1000

    def __init__(self, seed, workdir):
        cfg = preset("ou-toy")
        lat = cfg.build_lattice()
        self.seed = seed
        self.xi = cfg.build_initial(lat)
        self.cfg = cfg.build_solver_config(lat)
        self.event = TerminalObservableEvent(cfg.observable_field(lat), self.level)
        self.p_exact = self._exact_tail()
        self.hits = None
        self.work = {"trajectories": self.samples,
                     "field_steps": self.samples * self.cfg.steps}

    def _exact_tail(self):
        """Tail of the OU recursion a <- s (a + sqrt(alpha) J sigma dW) on the
        observed mode: the closed form acceptance criterion 7 also uses."""
        cfg = self.cfg
        lam = 1.0  # |k|^2 of the observed and forced mode (1, 0)
        sigma = float(cfg.noise.sigma[0])
        s = 1.0 / (1.0 + cfg.dt * cfg.viscosity * lam)
        geom = cfg.dt * s**2 * (1.0 - s ** (2 * cfg.steps)) / (1.0 - s**2)
        var = self.alpha * (sigma / (1.0 + self.alpha**2 * lam)) ** 2 * geom
        return 0.5 * math.erfc(self.level / math.sqrt(2.0 * var))

    def inputs(self, i):
        return ()

    def op(self):
        return lans2d.mc_tail(0, self.alpha, self.event, self.samples, self.cfg, self.xi,
                              master_seed=self.seed, workers=1)

    def check(self, est, args):
        p, n = self.p_exact, est.n_samples
        if abs(est.hits - n * p) > Z_GATE * math.sqrt(n * p * (1.0 - p)):
            return f"p_hat={est.p_hat:.4f} is off the exact tail {p:.4f}"
        if self.hits is None:
            self.hits = est.hits
        elif est.hits != self.hits:
            return f"hits changed between repeats: {est.hits} != {self.hits}"
        return None


class McFluct:
    """Batched delta=1 Monte Carlo on the fluctuation system (n=16, 100 steps)."""

    name = "mc-fluct"
    level = 0.05
    samples = 64

    def __init__(self, seed, workdir):
        cfg = preset("unified-default")
        cfg.n, cfg.dt, cfg.t_final, cfg.delta, cfg.seed = 16, 2e-3, 0.2, 1, seed
        cfg.validate()
        lat = cfg.build_lattice()
        self.seed = seed
        self.alpha = cfg.alpha
        self.xi = cfg.build_initial(lat)
        self.cfg = cfg.build_solver_config(lat)
        self.event = TerminalObservableEvent(cfg.observable_field(lat), self.level)
        # the dense reference is shared by every op, as a caller reusing it would
        self.nse = dense_nse(self.xi, self.cfg)
        self.hits = None
        self.work = {"trajectories": self.samples,
                     "field_steps": self.samples * self.cfg.steps}

    def inputs(self, i):
        return ()

    def op(self):
        return lans2d.mc_tail(1, self.alpha, self.event, self.samples, self.cfg, self.xi,
                              master_seed=self.seed, workers=1, nse=self.nse)

    def check(self, est, args):
        if self.hits is None:
            self.hits = est.hits
        elif est.hits != self.hits:
            return f"hits changed between repeats: {est.hits} != {self.hits}"
        return None


class MdpN32:
    """The ``mdp-check`` subcommand at unified-default (n=32), one alpha."""

    name = "mdp-n32"
    t_final = 0.5
    data_files = ("mdp_check.csv", "mdp_check.ndjson")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.reference = None
        steps = round(self.t_final / preset("unified-default").dt)
        # dense_nse, solve_lans and solve_unified each advance one field per step
        self.work = {"trajectories": None, "field_steps": 3 * steps}

    def inputs(self, i):
        out = os.path.join(self.workdir, f"op{i}")
        shutil.rmtree(out, ignore_errors=True)
        return (out,)

    def op(self, out):
        argv = ["mdp-check", "--preset", "unified-default", "--alphas", "0.1",
                "--seed", str(self.seed), "--t-final", repr(self.t_final),
                "--out-dir", out]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, code, args):
        out = args[0]
        try:
            if code != 0:
                return f"mdp-check exited {code}"
            gap = read_csv(os.path.join(out, "mdp_check.csv"))[0]["max_gap"]
            if not gap <= 1e-8:
                return f"max_gap={gap:.3e} breaks the exact delta=1 identity"
            data = {}
            for name in self.data_files:
                with open(os.path.join(out, name), "rb") as fh:
                    data[name] = fh.read()
            if self.reference is None:
                self.reference = data
            elif data != self.reference:
                return "data files differ between repeats"
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)


class RateN16:
    """Rate solves at n=16, dt=5e-3, T=0.025: per problem, one delta=0
    penalized L-BFGS observable solve and one delta=1 CG field solve.

    Each op solves ``problems`` fresh problems drawn from (seed, op index).
    The L-BFGS stage is capped at two iterations per penalty weight: every
    problem then converges with 17 evaluations, where uncapped runs end at
    scipy's 1e-14 ftol floor after 20 to 100 evaluations that change with the
    last bits of the input.  CG takes 17 to 21 iterations at this horizon.
    """

    name = "rate-n16"
    t_final = 0.025
    problems = 6
    offset = 0.1
    betas = (1e1, 1e2, 1e3, 1e4, 1e5)
    lbfgs_iterations = 2
    cg_tolerance = 1e-6

    def __init__(self, seed, workdir):
        cfg = preset("unified-default")
        cfg.n, cfg.dt, cfg.t_final = 16, 5e-3, self.t_final
        cfg.validate()
        self.seed = seed
        self.base = cfg
        self.lat = cfg.build_lattice()
        self.cfg = cfg.build_solver_config(self.lat)
        self.g = cfg.observable_field(self.lat)
        self.work = {"trajectories": None, "field_steps": None}

    def inputs(self, i):
        seeds = np.random.SeedSequence([self.seed, i + 1]).generate_state(2 * self.problems)
        return ([self._problem(int(a), int(b)) for a, b in zip(seeds[::2], seeds[1::2])],)

    def _problem(self, field_seed, control_seed):
        cfg, lat = self.cfg, self.lat
        self.base.seed = field_seed
        xi = self.base.build_initial(lat)
        terminal = replace(cfg, store_fields=True, record_stride=cfg.steps)
        # delta=0 target: 0.1 above where the uncontrolled flow ends
        free = solve_skeleton(0, xi, terminal, zero_control(cfg.noise.rank, cfg.dt, cfg.steps))
        level = float(lat.inner_h(free.fields[-1], self.g.coeffs)) + self.offset
        observable = RateProblem(0, TerminalObservable(self.g, level), beta_schedule=self.betas,
                                 max_iterations=self.lbfgs_iterations)
        # delta=1 target: the endpoint of a random control, so it is reachable
        rng = np.random.default_rng(control_seed)
        h0 = Control(cfg.dt, rng.standard_normal((cfg.steps, cfg.noise.rank)))
        x = solve_skeleton(1, xi, terminal, h0, nse=dense_nse(xi, cfg)).fields[-1]
        field = RateProblem(1, TerminalField(SpectralField(lat, x)), tolerance=self.cg_tolerance)
        return xi, observable, field, control_cost(h0)

    def op(self, problems):
        return [(lans2d.rate_function(observable, self.cfg, xi),
                 lans2d.rate_function(field, self.cfg, xi))
                for xi, observable, field, _ in problems]

    def check(self, results, args):
        for (xi, observable, field, h0_cost), (r0, r1) in zip(args[0], results):
            level = observable.target.level
            if not (r0.converged and r0.residual <= observable.tolerance * max(1.0, abs(level))):
                return f"delta=0 solve did not converge (residual {r0.residual:.3e})"
            x_norm = float(self.lat.norm_h(field.target.x.coeffs))
            if not (r1.converged and r1.residual <= self.cg_tolerance * x_norm):
                return f"delta=1 CG solve did not converge (residual {r1.residual:.3e})"
            # the minimum energy cannot exceed that of the control that made the target
            if not r1.cost <= h0_cost * (1.0 + 1e-9):
                return f"delta=1 cost {r1.cost:.6e} exceeds a feasible control's {h0_cost:.6e}"
        return None


WORKLOADS = {w.name: w for w in (McOu, McFluct, MdpN32, RateN16)}
