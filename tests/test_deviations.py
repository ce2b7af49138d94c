"""Rate machinery: adjoint gradients, LQ oracle, Monte Carlo tails, probes."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from lans2d import (
    BlowupError,
    Control,
    RateProblem,
    SolverConfig,
    SupNormEvent,
    TerminalField,
    TerminalObservable,
    TerminalObservableEvent,
    additive_noise,
    convergence_study,
    dense_nse,
    eigenmode_field,
    make_lattice,
    mc_tail,
    mdp_rescale,
    preset,
    projection_multiplicative_noise,
    random_field,
    rate_function,
    sample_wiener,
    skeleton_gradient,
    solve_lans,
    solve_nse,
    solve_skeleton,
    solve_unified,
    taylor_green,
    weak_continuity_probe,
    zero_control,
    zero_field,
)
from lans2d import deviations
from lans2d.noise import NoiseOperator
from test_spectral import reflect_x1, reflect_x2, rotate_quarter, shift_cells


def implicit_decay(lam, dt, viscosity=1.0):
    return 1.0 / (1.0 + dt * viscosity * lam)


def discrete_gramian(lam, sigma, dt, steps, viscosity=1.0):
    """Hand-derived Gramian of the scalar recursion a' = s (a + dt sigma h):
    W = sum_m (dt sigma s^(N-m))^2 / dt = sigma^2 dt s^2 (1 - s^2N) / (1 - s^2)."""
    s = implicit_decay(lam, dt, viscosity)
    return sigma**2 * dt * s**2 * (1.0 - s ** (2 * steps)) / (1.0 - s**2)


def toy_setup(lam_mode, sigma, dt, T, n=12):
    lat = make_lattice(n)
    mode = {1.0: (1, 0), 2.0: (1, 1), 4.0: (2, 0), 5.0: (2, 1), 8.0: (2, 2)}[lam_mode]
    noise = additive_noise(lat, [sigma], [mode])
    cfg = SolverConfig(lattice=lat, dt=dt, t_final=T, alpha=0.1, noise=noise)
    xi = zero_field(lat)
    g = eigenmode_field(lat, mode)
    return lat, cfg, xi, g


class TestSkeletonGradient:
    @pytest.fixture
    def small(self):
        lat = make_lattice(8)
        rng = np.random.default_rng(21)
        xi = random_field(lat, rng, norm=0.5)
        noise = additive_noise(lat, [0.8, 0.5], [(1, 0), (0, 1)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.25, alpha=0.0, noise=noise)
        g = eigenmode_field(lat, (1, 0))
        return lat, rng, xi, noise, cfg, g

    def test_zero_control_zero_level_is_stationary(self, small):
        lat, rng, xi, noise, cfg, g = small
        target = TerminalObservable(g, 0.0)
        h0 = zero_control(2, cfg.dt, cfg.steps)
        nse = dense_nse(xi, cfg)
        val, grad = skeleton_gradient(1, h0, target, cfg, xi, beta=100.0, nse=nse)
        assert val == 0.0
        assert np.abs(grad).max() == 0.0

    def test_pure_cost_gradient(self, small):
        lat, rng, xi, noise, cfg, g = small
        h = Control(cfg.dt, rng.standard_normal((cfg.steps, 2)))
        # beta = 0: only the control energy remains; the (steps, J) partials
        # are dt * h (the L2-in-time gradient is h itself)
        val, grad = skeleton_gradient(0, h, TerminalObservable(g, 0.3), cfg, xi, beta=0.0)
        assert val == pytest.approx(0.5 * cfg.dt * float(np.sum(h.values**2)))
        assert np.abs(grad - cfg.dt * h.values).max() <= 1e-12

    @pytest.mark.parametrize("delta", [0, 1])
    def test_finite_difference_agreement(self, small, delta):
        lat, rng, xi, noise, cfg, g = small
        nse = dense_nse(xi, cfg) if delta == 1 else None
        target = TerminalObservable(g, 0.4)
        eps = 1e-5
        for _ in range(10):
            h = Control(cfg.dt, rng.standard_normal((cfg.steps, 2)))
            d = rng.standard_normal((cfg.steps, 2))
            d /= np.linalg.norm(d)
            _, grad = skeleton_gradient(delta, h, target, cfg, xi, beta=50.0, nse=nse)
            vp, _ = skeleton_gradient(delta, Control(cfg.dt, h.values + eps * d),
                                      target, cfg, xi, beta=50.0, nse=nse)
            vm, _ = skeleton_gradient(delta, Control(cfg.dt, h.values - eps * d),
                                      target, cfg, xi, beta=50.0, nse=nse)
            fd = (vp - vm) / (2 * eps)
            an = float(np.sum(grad * d))
            assert an == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_finite_difference_field_target_multiplicative(self):
        # exercise the multiplicative-coefficient adjoint branch (delta=0)
        from lans2d import projection_multiplicative_noise

        lat = make_lattice(8)
        rng = np.random.default_rng(22)
        xi = random_field(lat, rng, norm=0.5)
        noise = projection_multiplicative_noise(
            lat, [0.7], [(1, 0)], [(0, 1)], [0.5]
        )
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.1, alpha=0.0, noise=noise)
        x_t = random_field(lat, rng, norm=0.1)
        target = TerminalField(x_t)
        eps = 1e-5
        for _ in range(5):
            h = Control(cfg.dt, rng.standard_normal((cfg.steps, 1)))
            d = rng.standard_normal((cfg.steps, 1))
            d /= np.linalg.norm(d)
            _, grad = skeleton_gradient(0, h, target, cfg, xi, beta=20.0)
            vp, _ = skeleton_gradient(0, Control(cfg.dt, h.values + eps * d), target, cfg, xi, beta=20.0)
            vm, _ = skeleton_gradient(0, Control(cfg.dt, h.values - eps * d), target, cfg, xi, beta=20.0)
            assert float(np.sum(grad * d)) == pytest.approx((vp - vm) / (2 * eps), rel=2e-5, abs=1e-10)

    def test_forward_blowup_raises(self, small):
        lat, rng, xi, noise, cfg, g = small
        h = Control(cfg.dt, np.full((cfg.steps, noise.rank), 1e300))
        with np.errstate(over="ignore"), pytest.raises(BlowupError):
            skeleton_gradient(0, h, TerminalObservable(g, 0.0), cfg, xi, beta=1.0)


    @pytest.mark.parametrize("kind", ["additive", "multiplicative"])
    @pytest.mark.parametrize("delta", [0, 1])
    def test_sweep_is_linear_in_its_seed(self, kind, delta):
        # skeleton_gradient sweeps the unscaled seed and scales the result
        from lans2d import projection_multiplicative_noise

        lat = make_lattice(8)
        rng = np.random.default_rng(26)
        xi = random_field(lat, rng, norm=0.5)
        if kind == "additive":
            noise = additive_noise(lat, [0.8, 0.5], [(1, 0), (0, 1)])
        else:
            noise = projection_multiplicative_noise(lat, [0.7], [(1, 0)], [(0, 1)], [0.5])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.1, alpha=0.0, noise=noise)
        hv = rng.standard_normal((cfg.steps, noise.rank))
        u_fields = dense_nse(xi, cfg).fields if delta == 1 else None
        states = []
        deviations._skeleton_march(delta, hv, cfg, xi, u_fields, lambda m, y: states.append(y))
        seed = random_field(lat, rng).coeffs

        def sweep(p):
            return deviations._adjoint_sweep(delta, hv, cfg, states, u_fields, p)

        unit = sweep(seed)
        assert np.abs(unit).max() > 0
        for c in (-3.7, 1e-4, 250.0):
            assert np.abs(sweep(c * seed) - c * unit).max() <= 1e-13 * np.abs(c * unit).max()

    @pytest.mark.parametrize("dt, steps", [(2e-2, 50), (5e-3, 51), (5e-3, 49)],
                             ids=["coarser-dt", "longer", "shorter"])
    def test_refuses_a_control_off_the_config_grid(self, small, dt, steps):
        lat, rng, xi, noise, cfg, g = small
        h = Control(dt, rng.standard_normal((steps, noise.rank)))
        for delta, nse in ((0, None), (1, dense_nse(xi, cfg))):
            with pytest.raises(ValueError, match="control grid does not match the config"):
                skeleton_gradient(delta, h, TerminalObservable(g, 0.3), cfg, xi, 10.0, nse=nse)

    @pytest.mark.parametrize("kind", ["additive", "multiplicative"])
    @pytest.mark.parametrize("field_target", [False, True])
    def test_delta1_marches_without_keeping_states(self, monkeypatch, kind, field_target):
        # the delta=1 sweep linearizes around the reference flow, so its
        # march passes no observer; the result is that of the route that
        # keeps every state, rebuilt here
        from lans2d import projection_multiplicative_noise

        lat = make_lattice(8)
        rng = np.random.default_rng(27)
        xi = random_field(lat, rng, norm=0.5)
        if kind == "additive":
            noise = additive_noise(lat, [0.8, 0.5], [(1, 0), (0, 1)])
        else:
            noise = projection_multiplicative_noise(lat, [0.7], [(1, 0)], [(0, 1)], [0.5])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.1, alpha=0.0, noise=noise)
        nse = dense_nse(xi, cfg)
        h = Control(cfg.dt, rng.standard_normal((cfg.steps, noise.rank)))
        if field_target:
            target = TerminalField(random_field(lat, rng, norm=0.1))
        else:
            target = TerminalObservable(eigenmode_field(lat, (1, 0)), 0.3)
        beta = 40.0

        states = []
        deviations._skeleton_march(1, h.values, cfg, xi, nse.fields,
                                   lambda m, y: states.append(y))
        rho, seed = deviations._terminal_pieces(target, lat, states[-1])
        a = deviations._adjoint_sweep(1, h.values, cfg, states, nse.fields, seed)
        scale = beta if field_target else beta * rho
        want_val = 0.5 * cfg.dt * float(np.sum(h.values**2)) + 0.5 * beta * rho**2
        want_grad = cfg.dt * h.values + scale * a

        march = deviations._skeleton_march
        observers = []

        def recorded(delta, hv, cfg, xi, u_fields, observe):
            observers.append(observe)
            return march(delta, hv, cfg, xi, u_fields, observe)

        monkeypatch.setattr(deviations, "_skeleton_march", recorded)
        val, grad = skeleton_gradient(1, h, target, cfg, xi, beta, nse=nse)
        assert observers == [None]
        assert val == want_val
        assert grad.tobytes() == want_grad.tobytes()
        skeleton_gradient(0, h, target, cfg, xi, beta)
        assert observers[-1] is not None  # delta=0 linearizes around its own states


class TestRateFunction:
    def test_problem_validation(self):
        lat = make_lattice(8)
        g = eigenmode_field(lat, (1, 0))
        with pytest.raises(ValueError, match="increasing"):
            RateProblem(1, TerminalObservable(g, 0.1), beta_schedule=(10.0, 10.0))
        for betas in ((), (-1.0,), (0.0, 10.0), (10.0, math.inf), (math.nan,)):
            with pytest.raises(ValueError, match="positive finite weights"):
                RateProblem(0, TerminalObservable(g, 0.1), beta_schedule=betas)
        for tolerance in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                RateProblem(1, TerminalObservable(g, 0.1), tolerance=tolerance)
        with pytest.raises(ValueError, match="delta"):
            RateProblem(2, TerminalObservable(g, 0.1))
        for delta in (0, 1):
            for target in (TerminalObservable(g, 0.1), TerminalField(g)):
                with pytest.raises(ValueError, match="max_iterations must be at least 1"):
                    RateProblem(delta, target, max_iterations=0)

    def test_a_level_with_no_finite_square_is_refused(self):
        # the costs square the level: 1e308 ended in an OverflowError traceback
        g = eigenmode_field(make_lattice(8), (1, 0))
        for delta in (0, 1):
            for level in (1e308, -1.4e154, math.inf, math.nan):
                with pytest.raises(ValueError, match="level must have a finite square"):
                    RateProblem(delta, TerminalObservable(g, level))
            RateProblem(delta, TerminalObservable(g, -1.3e154))

    def test_lq_toy_matches_discrete_gramian(self):
        lam, sigma, dt, T, b = 2.0, 1.3, 1e-3, 0.8, 0.4
        lat, cfg, xi, g = toy_setup(lam, sigma, dt, T)
        problem = RateProblem(1, TerminalObservable(g, b), tolerance=1e-8)
        res = rate_function(problem, cfg, xi)
        W = discrete_gramian(lam, sigma, dt, cfg.steps)
        assert res.cost == pytest.approx(b * b / (2 * W), rel=1e-6)
        assert res.converged and res.kkt_residual <= 1e-8
        # the continuum formula is the dt -> 0 limit of the discrete Gramian
        W_cont = sigma**2 * (1 - math.exp(-2 * lam * T)) / (2 * lam)
        assert W == pytest.approx(W_cont, rel=0.02)

    def test_quadratic_level_scaling(self):
        lat, cfg, xi, g = toy_setup(1.0, 0.9, 2e-3, 0.5)
        r1 = rate_function(RateProblem(1, TerminalObservable(g, 0.2)), cfg, xi)
        r2 = rate_function(RateProblem(1, TerminalObservable(g, 0.4)), cfg, xi)
        assert r2.cost == pytest.approx(4.0 * r1.cost, rel=1e-8)

    def test_zero_level_costs_nothing(self):
        lat, cfg, xi, g = toy_setup(1.0, 0.9, 2e-3, 0.5)
        res = rate_function(RateProblem(1, TerminalObservable(g, 0.0)), cfg, xi)
        assert res.cost == 0.0 and res.converged

    def test_level_set_surrogate(self):
        # every minimizer below level a satisfies int ||h||^2 <= 2a (definition)
        lat, cfg, xi, g = toy_setup(2.0, 1.0, 2e-3, 0.5)
        a = 0.2
        for b in (0.05, 0.1, 0.2, 0.3):
            res = rate_function(RateProblem(1, TerminalObservable(g, b)), cfg, xi)
            if res.cost <= a:
                energy = cfg.dt * float(np.sum(res.control.values**2))
                assert energy <= 2 * a + 1e-9

    def test_delta0_penalty_reaches_known_image(self):
        lat = make_lattice(8)
        rng = np.random.default_rng(23)
        xi = random_field(lat, rng, norm=0.5)
        noise = additive_noise(lat, [0.8], [(1, 0)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.25, alpha=0.0, noise=noise)
        h0 = Control(cfg.dt, 0.6 * np.ones((cfg.steps, 1)))
        ref = solve_skeleton(0, xi, SolverConfig(
            lattice=lat, dt=cfg.dt, t_final=cfg.t_final, alpha=0.0, noise=noise,
            record_stride=cfg.steps, store_fields=True), h0)
        g = eigenmode_field(lat, (1, 0))
        b = float(lat.inner_h(ref.fields[-1], g.coeffs))
        problem = RateProblem(0, TerminalObservable(g, b), tolerance=1e-2)
        res = rate_function(problem, cfg, xi)
        assert res.converged
        assert res.residual <= 1e-2 * max(1.0, abs(b))
        # h0 attains the target, so the infimum cannot exceed its energy
        from lans2d import control_cost
        assert res.cost <= control_cost(h0) * 1.01
        assert res.details["bound"] == "extrapolated"

    def test_delta0_zero_control_image_costs_nothing(self):
        lat = make_lattice(8)
        rng = np.random.default_rng(24)
        xi = random_field(lat, rng, norm=0.5)
        noise = additive_noise(lat, [0.8], [(1, 0)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.1, alpha=0.0, noise=noise)
        dense = SolverConfig(lattice=lat, dt=cfg.dt, t_final=cfg.t_final, alpha=0.0,
                             noise=noise, record_stride=cfg.steps, store_fields=True)
        image = solve_skeleton(0, xi, dense, zero_control(1, cfg.dt, cfg.steps))
        g = eigenmode_field(lat, (1, 0))
        b = float(lat.inner_h(image.fields[-1], g.coeffs))
        res = rate_function(RateProblem(0, TerminalObservable(g, b)), cfg, xi)
        assert res.converged
        assert res.cost <= 1e-10

    def test_delta0_field_target_penalty(self):
        lat = make_lattice(8)
        rng = np.random.default_rng(25)
        xi = random_field(lat, rng, norm=0.5)
        noise = additive_noise(lat, [0.8], [(1, 0)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.1, alpha=0.0, noise=noise)
        dense = SolverConfig(lattice=lat, dt=cfg.dt, t_final=cfg.t_final, alpha=0.0,
                             noise=noise, record_stride=cfg.steps, store_fields=True)
        h0 = Control(cfg.dt, 0.4 * np.ones((cfg.steps, 1)))
        image = solve_skeleton(0, xi, dense, h0)
        target = TerminalField(image.field_at(-1, lat))
        res = rate_function(RateProblem(0, target, tolerance=1e-2), cfg, xi)
        assert res.converged
        from lans2d import control_cost
        assert res.cost <= control_cost(h0) * 1.01

    def test_field_target_feasible_and_infeasible(self):
        lat, cfg, xi, g = toy_setup(1.0, 1.0, 5e-3, 0.25)
        nse = dense_nse(xi, cfg)
        h0 = Control(cfg.dt, 0.5 * np.ones((cfg.steps, 1)))
        dense_run = SolverConfig(lattice=lat, dt=cfg.dt, t_final=cfg.t_final,
                                 alpha=cfg.alpha, noise=cfg.noise,
                                 record_stride=cfg.steps, store_fields=True)
        image = solve_skeleton(1, xi, dense_run, h0, nse=nse)
        x_feasible = image.field_at(-1, lat)
        res = rate_function(
            RateProblem(1, TerminalField(x_feasible), tolerance=1e-6, max_iterations=50),
            cfg, xi, nse=nse,
        )
        assert res.converged and math.isfinite(res.cost)
        from lans2d import control_cost
        assert res.cost <= control_cost(h0) * (1 + 1e-6)
        # a field with energy outside the reachable direction is infeasible
        x_bad = eigenmode_field(lat, (0, 1))
        res_bad = rate_function(
            RateProblem(1, TerminalField(x_bad), tolerance=1e-6, max_iterations=50),
            cfg, xi, nse=nse,
        )
        assert math.isinf(res_bad.cost) and not res_bad.converged

    def test_field_target_does_not_follow_the_rounding(self):
        # the response map has rank at most steps * J = 30 here; the solve
        # keeps at most that many directions, and nudging the last bit of the
        # reference fields leaves the cost alone.  The nudged record starts
        # from its own nudged xi, which a delta=1 run reads only to check the
        # record
        lat = make_lattice(12)
        noise = additive_noise(lat, [0.6, 0.4, 0.3], [(1, 0), (0, 1), (1, 1)])
        rng = np.random.default_rng(32)
        xi = random_field(lat, rng)
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.05, alpha=0.1, noise=noise)
        nse = dense_nse(xi, cfg)
        h0 = Control(cfg.dt, rng.standard_normal((cfg.steps, noise.rank)))
        terminal = replace(cfg, store_fields=True, record_stride=cfg.steps)
        x = solve_skeleton(1, xi, terminal, h0, nse=nse).field_at(-1, lat)
        problem = RateProblem(1, TerminalField(x), tolerance=1e-6)
        res = rate_function(problem, cfg, xi, nse=nse)
        nudged = replace(nse, fields=[f * (1 + 2e-16) for f in nse.fields])
        res_nudged = rate_function(problem, cfg, replace(xi, coeffs=nudged.fields[0]), nse=nudged)
        assert res.converged and res_nudged.converged
        assert res.details["iterations"] <= cfg.steps * noise.rank
        assert res_nudged.cost == pytest.approx(res.cost, rel=1e-10)


    @staticmethod
    def rank_deficient_setup():
        """A repeated noise mode: R has rank 12 of its 30 columns."""
        lat = make_lattice(8)
        noise = additive_noise(lat, [0.6, 0.3, 0.4], [(1, 0), (1, 0), (0, 1)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.05, alpha=0.1, noise=noise)
        xi = random_field(lat, np.random.default_rng(5))
        return lat, cfg, xi, dense_nse(xi, cfg)

    def test_unreachable_field_target_costs_inf(self):
        # the target's distance to R's range is 0.7645: the solve reports it
        # and marches no control (CG on the Gramian blew up here)
        lat, cfg, xi, nse = self.rank_deficient_setup()
        problem = RateProblem(1, TerminalField(eigenmode_field(lat, (2, 1))))
        res = rate_function(problem, cfg, xi, nse=nse)
        assert math.isinf(res.cost) and not res.converged
        assert res.residual == pytest.approx(0.7645, abs=1e-4)
        assert res.details["rank"] == 12 and res.details["bound"] == "infeasible"
        assert "feasible_cost" not in res.details  # its energy read 6.7e24 here
        assert res.kkt_residual is None

    @pytest.mark.parametrize("tolerance", [1e-6, 1e-12])
    def test_reachable_field_target_under_a_rank_deficient_map(self, tolerance):
        # CG stalled at 7.4e-10 relative on the 1e-12 case
        lat, cfg, xi, nse = self.rank_deficient_setup()
        h0 = Control(cfg.dt, np.random.default_rng(6).standard_normal((cfg.steps, 3)))
        terminal = replace(cfg, store_fields=True, record_stride=cfg.steps)
        x = solve_skeleton(1, xi, terminal, h0, nse=nse).field_at(-1, lat)
        res = rate_function(RateProblem(1, TerminalField(x), tolerance=tolerance), cfg, xi,
                            nse=nse)
        assert res.converged
        assert res.residual <= tolerance * float(lat.norm_h(x.coeffs))
        assert res.details["iterations"] <= res.details["rank"] == 12
        from lans2d import control_cost
        assert res.cost <= control_cost(h0)

    @staticmethod
    def rate_n16_field(field_seed):
        """A field target of the benchmark's n = 16 size: the endpoint of a
        random control over 5 steps of 4 noise directions, so R has 20
        columns and full column rank."""
        run = preset("unified-default")
        run.n, run.dt, run.t_final, run.seed = 16, 5e-3, 0.025, field_seed
        run.validate()
        lat = run.build_lattice()
        cfg, xi = run.build_solver_config(lat), run.build_initial(lat)
        nse = dense_nse(xi, cfg)
        h0 = Control(cfg.dt, np.random.default_rng(field_seed).standard_normal((cfg.steps, 4)))
        terminal = replace(cfg, store_fields=True, record_stride=cfg.steps)
        x = solve_skeleton(1, xi, terminal, h0, nse=nse).field_at(-1, lat)
        return cfg, xi, nse, h0, TerminalField(x)

    @pytest.mark.parametrize("field_seed", [101, 102, 103, 104])
    def test_full_rank_field_solve_returns_the_generating_control(self, field_seed):
        # at tolerance 1e-12 these keep every direction, and the one control
        # reaching the target is the one that made it (measured over seeds
        # 101-112: cost within 7e-11 to 7e-9 relative, values within 7.2e-8;
        # other problems can meet 1e-12 with 19 of the 20 directions)
        cfg, xi, nse, h0, target = self.rate_n16_field(field_seed)
        res = rate_function(RateProblem(1, target, tolerance=1e-12), cfg, xi, nse=nse)
        from lans2d import control_cost
        assert res.converged
        assert res.details["iterations"] == res.details["rank"] == 20
        assert res.cost == pytest.approx(control_cost(h0), rel=1e-7)
        assert np.max(np.abs(res.control.values - h0.values)) <= 1e-6

    def test_field_solve_does_not_depend_on_the_blas_thread_count(self):
        src = os.path.dirname(os.path.dirname(deviations.__file__))
        tests = os.path.dirname(os.path.abspath(__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run([sys.executable, "-c", FIELD_SOLVE_DIGEST], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout.split()[-1])
        assert outputs[0] == outputs[1]


# the control and cost bytes of three n = 16 field solves at tolerance 1e-6
FIELD_SOLVE_DIGEST = """
import hashlib
from lans2d import RateProblem, rate_function
from test_deviations import TestRateFunction
digest = hashlib.sha256()
for field_seed in (101, 102, 103):
    cfg, xi, nse, h0, target = TestRateFunction.rate_n16_field(field_seed)
    res = rate_function(RateProblem(1, target, tolerance=1e-6), cfg, xi, nse=nse)
    digest.update(res.control.values.tobytes())
    digest.update(repr(res.cost).encode())
print(digest.hexdigest())
"""


class TestEvaluationReuse:
    """A rate solve marches and sweeps a control again only where it is not
    the last one evaluated, and the reuse changes no result."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"march": 0, "sweep": 0}
        march, sweep = deviations.march, deviations._adjoint_sweep

        def counted_march(*args, **kwargs):
            calls["march"] += 1
            return march(*args, **kwargs)

        def counted_sweep(*args, **kwargs):
            calls["sweep"] += 1
            return sweep(*args, **kwargs)

        monkeypatch.setattr(deviations, "march", counted_march)
        monkeypatch.setattr(deviations, "_adjoint_sweep", counted_sweep)
        return calls

    @staticmethod
    def setup(seed=27):
        lat = make_lattice(8)
        rng = np.random.default_rng(seed)
        xi = random_field(lat, rng, norm=0.5)
        noise = additive_noise(lat, [0.8, 0.5], [(1, 0), (0, 1)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.1, alpha=0.1, noise=noise)
        return lat, rng, xi, cfg

    @pytest.mark.parametrize("delta", [0, 1])
    @pytest.mark.parametrize("field", [False, True])
    def test_memo_hit_is_a_fresh_call(self, counted, delta, field):
        lat, rng, xi, cfg = self.setup()
        nse = dense_nse(xi, cfg) if delta == 1 else None
        if field:
            target = TerminalField(random_field(lat, rng, norm=0.1))
        else:
            target = TerminalObservable(eigenmode_field(lat, (1, 0)), 0.3)
        h = Control(cfg.dt, rng.standard_normal((cfg.steps, cfg.noise.rank)))
        memo = {}
        skeleton_gradient(delta, h, target, cfg, xi, 50.0, nse=nse, memo=memo)
        assert counted == {"march": 1, "sweep": 1} and len(memo) == 1
        for beta in (50.0, 7.0):
            fresh = skeleton_gradient(delta, h, target, cfg, xi, beta, nse=nse)
            marches = counted["march"]
            hit = skeleton_gradient(delta, Control(cfg.dt, h.values.copy()), target, cfg, xi,
                                    beta, nse=nse, memo=memo)
            assert counted["march"] == marches
            assert hit[0] == fresh[0]
            assert hit[1].tobytes() == fresh[1].tobytes()
        # the memo keeps only the last control evaluated
        for scale in (2.0, 1.0):
            skeleton_gradient(delta, Control(cfg.dt, scale * h.values), target, cfg, xi, 7.0,
                              nse=nse, memo=memo)
            assert list(memo) == [(scale * h.values).tobytes()]
        assert counted == {"march": 5, "sweep": 5}

    @staticmethod
    def observable_above_free(cfg, xi, g):
        """The target 0.1 above where the uncontrolled flow ends, as in the
        benchmark's rate problems."""
        terminal = replace(cfg, store_fields=True, record_stride=cfg.steps)
        free = solve_skeleton(0, xi, terminal, zero_control(cfg.noise.rank, cfg.dt, cfg.steps))
        return TerminalObservable(g, float(cfg.lattice.inner_h(free.fields[-1], g.coeffs)) + 0.1)

    @staticmethod
    def rate_n16_problem(field_seed):
        """One of the benchmark's n = 16 observable problems."""
        run = preset("unified-default")
        run.n, run.dt, run.t_final, run.seed = 16, 5e-3, 0.025, field_seed
        run.validate()
        lat = run.build_lattice()
        cfg, xi = run.build_solver_config(lat), run.build_initial(lat)
        return cfg, xi, TestEvaluationReuse.observable_above_free(cfg, xi, run.observable_field(lat))

    @pytest.mark.parametrize("kind, max_iterations", [
        ("observable", 2), ("observable", 500), ("field", 2), ("field", 500),
        ("rate-n16", 500)])
    def test_delta0_solve_marches_once_per_new_control(self, counted, monkeypatch, kind,
                                                       max_iterations):
        # an evaluation marches and sweeps unless its control is the one
        # evaluated just before it; a weight's residual marches unless L-BFGS
        # returns that control
        lat, rng, xi, cfg = self.setup()
        if kind == "field":
            terminal = replace(cfg, store_fields=True, record_stride=cfg.steps)
            h0 = Control(cfg.dt, rng.standard_normal((cfg.steps, cfg.noise.rank)))
            target = TerminalField(solve_skeleton(0, xi, terminal, h0).field_at(-1, lat))
        elif kind == "observable":
            target = self.observable_above_free(cfg, xi, eigenmode_field(lat, (1, 0)))
        else:  # one whose L-BFGS twice returns a control before the last one
            cfg, xi, target = self.rate_n16_problem(932022950)
        evaluated, residual_marches = [], 0
        gradient = deviations.skeleton_gradient
        minimize = scipy.optimize.minimize

        def recorded(delta, h, *args, **kwargs):
            evaluated.append(h.values.tobytes())
            return gradient(delta, h, *args, **kwargs)

        def recorded_minimize(*args, **kwargs):
            nonlocal residual_marches
            res = minimize(*args, **kwargs)
            residual_marches += res.x.tobytes() != evaluated[-1]
            return res

        monkeypatch.setattr(deviations, "skeleton_gradient", recorded)
        monkeypatch.setattr(scipy.optimize, "minimize", recorded_minimize)
        counted["march"] = counted["sweep"] = 0
        betas = (1e1, 1e2, 1e3, 1e4, 1e5)
        res = rate_function(RateProblem(0, target, beta_schedule=betas,
                                        max_iterations=max_iterations), cfg, xi)
        assert res.converged
        new = sum(i == 0 or h != evaluated[i - 1] for i, h in enumerate(evaluated))
        assert new < len(evaluated)  # some weight starts where the last one ended
        assert counted["sweep"] == new
        assert counted["march"] == new + residual_marches
        assert residual_marches == (2 if kind == "rate-n16" else 0)

    @pytest.mark.parametrize("field_seed, max_iterations", [
        (3196802727, 2), (3196802727, 500), (1204021905, 500), (932022950, 500)])
    def test_memo_changes_no_result(self, monkeypatch, field_seed, max_iterations):
        # three of the benchmark's n = 16 observable problems (seeds 8302 and
        # 8304 of its rate workload), capped as it caps them and uncapped:
        # the memo'd solve is the solve that evaluates every control afresh.
        # Uncapped, the last one's L-BFGS twice returns a control before the
        # last one evaluated, so two weights march their residual
        cfg, xi, target = self.rate_n16_problem(field_seed)
        problem = RateProblem(0, target, beta_schedule=(1e1, 1e2, 1e3, 1e4, 1e5),
                              max_iterations=max_iterations)
        memoized = rate_function(problem, cfg, xi)
        gradient = deviations.skeleton_gradient
        monkeypatch.setattr(deviations, "skeleton_gradient",
                            lambda *args, memo=None, **kwargs: gradient(*args, **kwargs))
        fresh = rate_function(problem, cfg, xi)
        assert memoized.converged
        assert memoized.cost == fresh.cost and memoized.residual == fresh.residual
        assert memoized.control.values.tobytes() == fresh.control.values.tobytes()
        assert memoized.details["schedule"] == fresh.details["schedule"]

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("tolerance, max_iterations", [(1e-6, 100), (1e-12, 3)])
    def test_field_solve_marches_once_per_block(self, counted, monkeypatch, tolerance,
                                                max_iterations, block):
        # the solve factorizes R: one march per block of unit controls, one
        # of the control when its predicted residual meets the tolerance
        # (none when capped short of it), and no adjoint sweep
        lat, rng, xi, cfg = self.setup(29)
        columns = cfg.steps * cfg.noise.rank
        if block is not None:
            # a unit control counts as a trajectory: its state and values
            monkeypatch.setattr(deviations, "_BATCH_BYTES", block * TestMcTail.sample_bytes(cfg))
        blocks = -(-columns // deviations._batch_size(cfg))
        assert blocks == (1 if block is None else 6)
        nse = dense_nse(xi, cfg)
        h0 = Control(cfg.dt, rng.standard_normal((cfg.steps, cfg.noise.rank)))
        terminal = replace(cfg, store_fields=True, record_stride=cfg.steps)
        x = solve_skeleton(1, xi, terminal, h0, nse=nse).field_at(-1, lat)
        problem = RateProblem(1, TerminalField(x), tolerance=tolerance,
                              max_iterations=max_iterations)
        counted["march"] = 0
        res = rate_function(problem, cfg, xi, nse=nse)
        assert res.converged == (max_iterations == 100)
        assert res.details["iterations"] >= 3
        assert counted == {"march": blocks + res.converged, "sweep": 0}
        # the reported residual is the control's, marched or predicted
        y = solve_skeleton(1, xi, terminal, res.control, nse=nse).fields[-1]
        assert float(lat.norm_h(y - x.coeffs)) == pytest.approx(res.residual, rel=1e-9, abs=1e-15)


class TestResponseMatrix:
    """The delta=1 response map R that the field-target solve factorizes."""

    @staticmethod
    def setup(n, variant, steps=10):
        lat = make_lattice(n)
        rng = np.random.default_rng(41)
        if variant == "additive":
            noise = additive_noise(lat, [0.6, 0.4, 0.3], [(1, 0), (0, 1), (1, 1)])
        else:
            noise = projection_multiplicative_noise(
                lat, [0.4, 0.3, 0.5], [(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 0), (1, 1)],
                [0.5, -0.2, 0.1])
        xi = random_field(lat, rng)
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=steps * 5e-3, alpha=0.1, noise=noise)
        return lat, rng, xi, cfg, dense_nse(xi, cfg)

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("variant", ["additive", "projection-multiplicative"])
    def test_contractions_match_sweep_and_march(self, n, variant):
        # R* mu against an adjoint sweep of mu, and R R* mu against a march
        # of that control (measured: at most 7.3e-16 relative)
        lat, rng, xi, cfg, nse = self.setup(n, variant)
        R = deviations._response_matrix(cfg, xi, nse.fields)
        assert R.shape == (cfg.steps * cfg.noise.rank,) + lat.shape
        for _ in range(3):
            mu = random_field(lat, rng).coeffs
            hv = lat.inner_h(R, mu).reshape(cfg.steps, cfg.noise.rank) / cfg.dt
            q = np.tensordot(hv.ravel(), R, axes=1)
            hv_ref = deviations._adjoint_sweep(1, None, cfg, None, nse.fields, mu) / cfg.dt
            q_ref = deviations._skeleton_march(1, hv_ref, cfg, xi, nse.fields, None)
            assert np.max(np.abs(hv - hv_ref)) <= 1e-14 * np.max(np.abs(hv_ref))
            assert float(lat.norm_h(q - q_ref)) <= 1e-14 * float(lat.norm_h(q_ref))

    @pytest.mark.parametrize("variant", ["additive", "projection-multiplicative"])
    def test_blocks_do_not_change_the_bytes(self, monkeypatch, variant):
        # blocks of 1 and 4 columns (J = 3: edges inside a step's columns)
        # against one block of all 30
        lat, rng, xi, cfg, nse = self.setup(8, variant)
        built = []
        for block in (30, 4, 1):
            monkeypatch.setattr(deviations, "_BATCH_BYTES", block * TestMcTail.sample_bytes(cfg))
            assert deviations._batch_size(cfg) == block
            built.append(deviations._response_matrix(cfg, xi, nse.fields).tobytes())
        assert built[1] == built[0] and built[2] == built[0]


class TestMcTail:
    def ou_cfg(self, alpha, dt=0.01, T=1.0, sigma=1.0):
        lat = make_lattice(4)
        noise = additive_noise(lat, [sigma], [(1, 0)])
        cfg = SolverConfig(lattice=lat, dt=dt, t_final=T, alpha=alpha, noise=noise)
        return lat, cfg, zero_field(lat), eigenmode_field(lat, (1, 0))

    def test_deterministic_path_gives_indicator(self):
        lat = make_lattice(8)
        xi = taylor_green(lat)
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.1, alpha=0.2, noise=None)
        low = mc_tail(0, 0.2, SupNormEvent(0.1 * float(lat.norm_h(xi.coeffs))),
                      32, cfg, xi, master_seed=5)
        high = mc_tail(0, 0.2, SupNormEvent(10.0 * float(lat.norm_h(xi.coeffs))),
                       32, cfg, xi, master_seed=5)
        assert low.p_hat == 1.0 and high.p_hat == 0.0
        assert high.rate_estimate is None and high.wilson_high > 0

    def test_threshold_monotonicity(self):
        lat, cfg, xi, g = self.ou_cfg(0.2)
        ps = []
        for r in (0.05, 0.1, 0.2, 0.4):
            est = mc_tail(0, 0.2, SupNormEvent(r), 2000, cfg, xi, master_seed=9)
            ps.append(est.p_hat)
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_ou_terminal_law(self):
        # exact Gaussian law of the discrete recursion a' = s(a + sqrt(alpha) sigma_a dW)
        alpha, sigma, dt, T, b = 0.1, 1.0, 0.01, 1.0, 0.32
        lat, cfg, xi, g = self.ou_cfg(alpha, dt, T, sigma)
        steps = cfg.steps
        s = implicit_decay(1.0, dt)
        sigma_a = sigma / (1.0 + alpha**2 * 1.0)
        var = alpha * sigma_a**2 * dt * s**2 * (1 - s ** (2 * steps)) / (1 - s**2)
        p_exact = 0.5 * math.erfc(b / math.sqrt(2 * var))
        est = mc_tail(0, alpha, TerminalObservableEvent(g, b), 20000, cfg, xi, master_seed=17)
        assert est.p_hat == pytest.approx(p_exact, rel=0.10)
        assert est.wilson_low <= p_exact <= est.wilson_high
        assert est.rate_estimate == pytest.approx(-alpha * math.log(p_exact), rel=0.05)

    @staticmethod
    def sample_bytes(cfg):
        """Bytes of one trajectory's state and increments."""
        return math.prod(cfg.lattice.shape) * 16 + 8 * cfg.steps * cfg.noise.rank

    def test_worker_count_invariance(self, monkeypatch):
        lat, cfg, xi, g = self.ou_cfg(0.2)
        monkeypatch.setattr(deviations, "_BATCH_BYTES", 100 * self.sample_bytes(cfg))
        a = mc_tail(0, 0.2, SupNormEvent(0.15), 400, cfg, xi, master_seed=4, workers=1)
        monkeypatch.setattr(deviations, "_BATCH_BYTES", 37 * self.sample_bytes(cfg))
        b = mc_tail(0, 0.2, SupNormEvent(0.15), 400, cfg, xi, master_seed=4, workers=3)
        assert a.hits == b.hits

    def test_worker_count_invariance_delta1(self, monkeypatch):
        # the fluctuation system's shared dense reference reaches each worker
        # once; batches of 7 and 3 over 2 workers give the one-process hits
        lat = make_lattice(8)
        noise = additive_noise(lat, [0.5, 0.4], [(1, 0), (1, 1)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.05, alpha=0.1, noise=noise)
        xi = random_field(lat, np.random.default_rng(21))
        g = eigenmode_field(lat, (1, 0))
        nse = dense_nse(xi, cfg)
        event = TerminalObservableEvent(g, 0.0)
        monkeypatch.setattr(deviations, "_BATCH_BYTES", 7 * self.sample_bytes(cfg))
        a = mc_tail(1, 0.1, event, 20, cfg, xi, master_seed=3, workers=1, nse=nse)
        monkeypatch.setattr(deviations, "_BATCH_BYTES", 3 * self.sample_bytes(cfg))
        b = mc_tail(1, 0.1, event, 20, cfg, xi, master_seed=3, workers=2, nse=nse)
        assert 0 < a.hits < 20
        assert a.hits == b.hits

    def test_default_workers_are_the_available_cpus(self, monkeypatch):
        # None runs the batches on one process per available CPU, capped at
        # the batch count, and gives the one-process hits
        assert deviations._available_cpus() >= 1
        lat, cfg, xi, g = self.ou_cfg(0.2)
        monkeypatch.setattr(deviations, "_BATCH_BYTES", 100 * self.sample_bytes(cfg))
        a = mc_tail(0, 0.2, SupNormEvent(0.15), 400, cfg, xi, master_seed=4, workers=1)
        pools = []
        real_pool = deviations.multiprocessing.Pool

        def spy(processes, **kwargs):
            pools.append(processes)
            return real_pool(processes, **kwargs)

        monkeypatch.setattr(deviations.multiprocessing, "Pool", spy)
        monkeypatch.setattr(deviations, "_available_cpus", lambda: 3)
        b = mc_tail(0, 0.2, SupNormEvent(0.15), 400, cfg, xi, master_seed=4)
        monkeypatch.setattr(deviations, "_available_cpus", lambda: 8)
        c = mc_tail(0, 0.2, SupNormEvent(0.15), 400, cfg, xi, master_seed=4)
        assert pools == [3, 4]  # 400 samples in batches of 100
        assert a.hits == b.hits == c.hits

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_fewer_than_one_worker(self, workers):
        lat, cfg, xi, g = self.ou_cfg(0.2)
        with pytest.raises(ValueError, match="workers"):
            mc_tail(0, 0.2, SupNormEvent(0.15), 10, cfg, xi, workers=workers)

    def test_blowup_raises_through_the_process_pool(self, monkeypatch):
        # the states stay finite while their H-norm overflows to inf
        lat, cfg, xi, g = self.ou_cfg(0.1, sigma=1e300)
        monkeypatch.setattr(deviations, "_BATCH_BYTES", 25 * self.sample_bytes(cfg))
        with np.errstate(over="ignore"), pytest.raises(BlowupError):
            mc_tail(0, 0.1, TerminalObservableEvent(g, 0.2), 50, cfg, xi, workers=2)

    def test_batches_stay_within_the_byte_budget(self, monkeypatch):
        # at n=32 one trajectory holds 7.2 KiB of state, so 3000 of them are
        # split into batches of at most _BATCH_BYTES; the hits do not depend on
        # the split (one batch of 3000 would peak near 0.7 GB, so the reference
        # split is a finer one)
        lat = make_lattice(32)
        noise = additive_noise(lat, [0.3, 0.2], [(1, 0), (1, 1)])
        cfg = SolverConfig(lattice=lat, dt=1e-3, t_final=2e-3, alpha=0.1, noise=noise)
        xi = random_field(lat, np.random.default_rng(35))
        g = eigenmode_field(lat, (1, 0))
        free = solve_lans(xi, replace(cfg, noise=None, store_fields=True))
        event = TerminalObservableEvent(g, float(lat.inner_h(free.fields[-1], g.coeffs)))
        sizes = []
        draw = deviations._chunk_increments

        def recording(J, dt, steps, master_seed, start, stop):
            sizes.append(stop - start)
            return draw(J, dt, steps, master_seed, start, stop)

        monkeypatch.setattr(deviations, "_chunk_increments", recording)
        # one process, so that the recording sees every batch
        batched = mc_tail(0, 0.1, event, 3000, cfg, xi, master_seed=6, workers=1)
        assert len(sizes) > 1 and sum(sizes) == 3000
        assert max(sizes) * self.sample_bytes(cfg) <= deviations._BATCH_BYTES
        monkeypatch.setattr(deviations, "_BATCH_BYTES", 128 * self.sample_bytes(cfg))
        del sizes[:]
        finer = mc_tail(0, 0.1, event, 3000, cfg, xi, master_seed=6, workers=1)
        assert len(sizes) == math.ceil(3000 / 128)
        assert 0 < batched.hits < 3000
        assert batched.hits == finer.hits

    def test_presets_fit_in_one_batch(self):
        # the benchmark's Monte Carlo sizes: 1000 ou-toy trajectories, and 64
        # trajectories of the fluctuation system at n=16 over 100 steps
        _, ou, _, _ = self.ou_cfg(0.1)
        assert deviations._batch_size(ou) >= 1000
        lat = make_lattice(16)
        noise = additive_noise(lat, [0.25, 0.25, 0.2, 0.2], [(1, 0), (0, 1), (1, 1), (2, -1)])
        fluct = SolverConfig(lattice=lat, dt=2e-3, t_final=0.2, alpha=0.1, noise=noise)
        assert deviations._batch_size(fluct) >= 64


class TestReferenceRecord:
    @pytest.fixture
    def mismatched(self):
        # a reference at dt=1e-2 with as many records as the dt=5e-3 problem
        lat = make_lattice(8)
        xi = random_field(lat, np.random.default_rng(36), norm=0.5)
        noise = additive_noise(lat, [0.5], [(1, 0)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.05, alpha=0.1, noise=noise)
        coarse = dense_nse(xi, SolverConfig(lattice=lat, dt=1e-2, t_final=0.1, alpha=0.1))
        assert len(coarse) == cfg.steps + 1
        return lat, cfg, xi, eigenmode_field(lat, (1, 0)), coarse

    def test_skeleton_gradient(self, mismatched):
        lat, cfg, xi, g, coarse = mismatched
        h = zero_control(1, cfg.dt, cfg.steps)
        with pytest.raises(ValueError, match="reference record"):
            skeleton_gradient(1, h, TerminalObservable(g, 0.1), cfg, xi, 10.0, nse=coarse)

    def test_rate_function(self, mismatched):
        lat, cfg, xi, g, coarse = mismatched
        for target in (TerminalObservable(g, 0.1), TerminalField(g)):
            with pytest.raises(ValueError, match="reference record"):
                rate_function(RateProblem(1, target), cfg, xi, nse=coarse)

    def test_mc_tail(self, mismatched):
        lat, cfg, xi, g, coarse = mismatched
        with pytest.raises(ValueError, match="reference record"):
            mc_tail(1, 0.1, SupNormEvent(1.0), 4, cfg, xi, nse=coarse)

    def test_weak_continuity_probe(self, mismatched):
        lat, cfg, xi, g, coarse = mismatched
        with pytest.raises(ValueError, match="reference record"):
            weak_continuity_probe(1, [2], cfg, xi, nse=coarse)

    @pytest.fixture
    def foreign(self):
        # a reference on the problem's own grid, from another initial field
        lat = make_lattice(8)
        rng = np.random.default_rng(37)
        xi, other = (random_field(lat, rng, norm=0.5) for _ in range(2))
        noise = additive_noise(lat, [0.5], [(1, 0)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.05, alpha=0.1, noise=noise)
        return lat, cfg, xi, eigenmode_field(lat, (1, 0)), dense_nse(other, cfg)

    def test_solvers_refuse_another_initial_field(self, foreign):
        lat, cfg, xi, g, other = foreign
        with pytest.raises(ValueError, match="another initial field"):
            solve_unified(1, xi, cfg, nse=other)
        with pytest.raises(ValueError, match="another initial field"):
            solve_skeleton(1, xi, cfg, zero_control(1, cfg.dt, cfg.steps), nse=other)

    def test_mc_tail_refuses_another_initial_field(self, foreign):
        lat, cfg, xi, g, other = foreign
        with pytest.raises(ValueError, match="another initial field"):
            mc_tail(1, 0.1, SupNormEvent(1.0), 4, cfg, xi, nse=other)

    def test_rate_function_refuses_another_initial_field(self, foreign):
        lat, cfg, xi, g, other = foreign
        for target in (TerminalObservable(g, 0.1), TerminalField(g)):
            with pytest.raises(ValueError, match="another initial field"):
                rate_function(RateProblem(1, target), cfg, xi, nse=other)

    def test_mdp_rescale_refuses_another_initial_field(self, foreign):
        lat, cfg, xi, g, other = foreign
        with pytest.raises(ValueError, match="another initial field"):
            mdp_rescale(xi, cfg, None, other)

    @pytest.fixture
    def strided(self):
        # a stored run of 2T at stride 2 has the dt and the rows of a dense
        # run of T (but every other state), and the dense run itself
        lat = make_lattice(8)
        xi = random_field(lat, np.random.default_rng(39), norm=0.5)
        noise = additive_noise(lat, [0.5], [(1, 0)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.05, alpha=0.1, noise=noise)
        record = solve_nse(xi, replace(cfg, t_final=2 * cfg.t_final, store_fields=True,
                                       record_stride=2))
        assert len(record) == cfg.steps + 1 and record.dt == cfg.dt
        return cfg, xi, record, dense_nse(xi, cfg)

    def test_solvers_refuse_a_strided_record(self, strided):
        cfg, xi, record, dense = strided
        h = zero_control(1, cfg.dt, cfg.steps)
        for nse, refused in ((record, True), (dense, False)):
            runs = (lambda: solve_unified(1, xi, cfg, nse=nse),
                    lambda: solve_skeleton(1, xi, cfg, h, nse=nse),
                    lambda: mc_tail(1, 0.1, SupNormEvent(1.0), 4, cfg, xi, workers=1, nse=nse))
            for run in runs:
                if refused:
                    with pytest.raises(ValueError, match="snapshots at every step"):
                        run()
                else:
                    run()


class TestConvergenceStudy:
    def test_chunked_rows_match_one_chunk(self, monkeypatch):
        lat = make_lattice(8)
        xi = random_field(lat, np.random.default_rng(34), norm=1.0)
        noise = additive_noise(lat, [0.1, 0.05], [(1, 0), (1, 1)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.1, alpha=0.1, noise=noise)
        whole = convergence_study((0.4, 0.1), 7, cfg, xi, master_seed=8)
        monkeypatch.setattr(deviations, "_BATCH_BYTES", 3 * xi.coeffs.nbytes)
        chunked = convergence_study((0.4, 0.1), 7, cfg, xi, master_seed=8)
        for a, b in zip(whole, chunked):
            assert a.keys() == b.keys()
            for key in a:
                assert b[key] == pytest.approx(a[key], rel=1e-12, abs=0)

    def test_repeatable_single_sample(self):
        lat = make_lattice(8)
        rng = np.random.default_rng(30)
        xi = random_field(lat, rng, norm=1.0)
        noise = additive_noise(lat, [0.1], [(1, 0)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.2, alpha=0.1, noise=noise)
        rows1 = convergence_study((0.4, 0.1), 1, cfg, xi, master_seed=3)
        rows2 = convergence_study((0.4, 0.1), 1, cfg, xi, master_seed=3)
        assert rows1 == rows2

    def test_noise_free_bias_decreases(self):
        # random initial data has a genuine O(alpha^2) smoothing bias (the
        # classical vortex with gradient nonlinearity is alpha-exact instead)
        lat = make_lattice(16)
        rng = np.random.default_rng(31)
        xi = random_field(lat, rng, norm=1.5)
        cfg = SolverConfig(lattice=lat, dt=2e-3, t_final=0.3, alpha=0.1, noise=None)
        rows = convergence_study((0.4, 0.2, 0.1, 0.05), 1, cfg, xi, master_seed=0)
        est = [r["estimate"] for r in rows]
        assert all(a > b for a, b in zip(est, est[1:]))
        assert all(a / b >= 2.0 for a, b in zip(est, est[1:]))

    def test_taylor_green_is_alpha_exact(self):
        # regression: the vortex nonlinearity is a pure gradient, so the
        # smoothed flow equals the limit flow for every alpha
        lat = make_lattice(16)
        xi = taylor_green(lat)
        cfg = SolverConfig(lattice=lat, dt=2e-3, t_final=0.2, alpha=0.1, noise=None)
        rows = convergence_study((0.4, 0.05), 1, cfg, xi, master_seed=0)
        assert max(r["estimate"] for r in rows) <= 1e-24

    def test_stochastic_trend(self):
        lat = make_lattice(8)
        rng = np.random.default_rng(32)
        xi = random_field(lat, rng, norm=1.0)
        noise = additive_noise(lat, [0.02], [(1, 0)])
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.2, alpha=0.1, noise=noise)
        rows = convergence_study((0.4, 0.05), 16, cfg, xi, master_seed=7)
        assert rows[-1]["estimate"] < rows[0]["estimate"]


class TestWeakProbe:
    def probe_cfg(self):
        lat = make_lattice(16)
        rng = np.random.default_rng(33)
        xi = random_field(lat, rng, norm=0.8)
        noise = additive_noise(lat, [0.8], [(1, 0)])
        cfg = SolverConfig(lattice=lat, dt=2e-3, t_final=0.5, alpha=0.0, noise=noise)
        return cfg, xi

    def test_zero_amplitude_gives_zero_gap(self):
        cfg, xi = self.probe_cfg()
        rows = weak_continuity_probe(0, (4,), cfg, xi, amplitude=0.0)
        assert rows[0]["e"] == 0.0

    @pytest.mark.parametrize("n_list, basis_count, message", [
        ((0,), 128, "oscillation indices must be at least 1"),
        ((2, -3), 128, "oscillation indices must be at least 1"),
        ((2, 4), 0, "basis_count must be at least 1"),
    ])
    def test_refuses_what_is_no_oscillation(self, monkeypatch, n_list, basis_count, message):
        cfg, xi = self.probe_cfg()
        monkeypatch.setattr(deviations, "march", None)  # refused before any march
        with pytest.raises(ValueError, match=message):
            weak_continuity_probe(0, n_list, cfg, xi, basis_count=basis_count)

    def test_oscillation_decreases_response_and_metric(self):
        cfg, xi = self.probe_cfg()
        rows = weak_continuity_probe(0, (2, 8, 32), cfg, xi, amplitude=1.0)
        es = [r["e"] for r in rows]
        ds = [r["d1"] for r in rows]
        assert all(a > b for a, b in zip(es, es[1:]))
        assert all(a > b for a, b in zip(ds, ds[1:]))
        assert es[-1] <= es[0] / 4

    @staticmethod
    def per_index_probe(delta, n_list, cfg, xi, direction=None, amplitude=1.0,
                        basis_count=128):
        """The reference: the zero control's states kept, then each
        oscillation index marched on its own against them."""
        from lans2d import sine_control, weak_distance

        J = cfg.noise.rank
        u_fields = dense_nse(xi, cfg).fields if delta == 1 else None
        zero = zero_control(J, cfg.dt, cfg.steps)
        base = []
        deviations._skeleton_march(delta, zero.values, cfg, xi, u_fields,
                                   lambda m, y: base.append(y))
        lat = cfg.lattice
        rows = []
        for osc in n_list:
            h_n = sine_control(J, cfg.dt, cfg.steps, osc, direction=direction,
                               amplitude=amplitude)
            sup = diss = 0.0

            def observe(m, y):
                nonlocal sup, diss
                diff = y - base[m]
                sup = max(sup, float(lat.norm_h(diff)))
                diss += cfg.dt * float(lat.norm_v(diff)) ** 2

            deviations._skeleton_march(delta, h_n.values, cfg, xi, u_fields, observe)
            rows.append({
                "oscillation": int(osc),
                "e": sup + math.sqrt(diss),
                "d1": weak_distance(h_n, zero, basis_count=basis_count),
                "control_cost": 0.5 * cfg.dt * float(np.sum(h_n.values**2)),
            })
        return rows

    @pytest.mark.parametrize("n, variant, delta, direction", [
        *((n, variant, delta, None) for n in (8, 16)
          for variant in ("additive", "projection-multiplicative") for delta in (0, 1)),
        *((8, "additive", delta, (0.6, -0.8)) for delta in (0, 1)),
    ])
    def test_batch_rows_are_the_per_index_rows(self, n, variant, delta, direction):
        lat = make_lattice(n)
        xi = random_field(lat, np.random.default_rng(n + 40), norm=0.8)
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.1, alpha=0.0,
                           noise=_bridge_noise(lat, variant))
        n_list = (2, 3, 8)
        got = weak_continuity_probe(delta, n_list, cfg, xi, direction=direction, basis_count=32)
        want = self.per_index_probe(delta, n_list, cfg, xi, direction=direction, basis_count=32)
        assert [r.keys() for r in got] == [r.keys() for r in want]
        for a, b in zip(got, want):
            assert a["oscillation"] == b["oscillation"]
            floats = [k for k in a if k != "oscillation"]
            assert np.array([a[k] for k in floats]).tobytes() == \
                np.array([b[k] for k in floats]).tobytes()
        assert min(r["e"] for r in got) > 0.0

    @pytest.mark.parametrize("n_list", [(), (4,), (2, 4, 8, 16, 32)])
    def test_one_march_per_probe(self, monkeypatch, n_list):
        cfg, xi = self.probe_cfg()
        cfg = replace(cfg, t_final=0.02)
        march = deviations._skeleton_march
        batches = []

        def counted(delta, hv, *args):
            batches.append(hv.shape)
            return march(delta, hv, *args)

        monkeypatch.setattr(deviations, "_skeleton_march", counted)
        rows = weak_continuity_probe(0, n_list, cfg, xi)
        assert len(rows) == len(n_list)
        assert batches == [(cfg.steps, 1 + len(n_list), cfg.noise.rank)]

    @pytest.mark.parametrize("delta", [0, 1])
    def test_memory_does_not_grow_with_the_step_count(self, delta):
        # four times the steps add only the controls (about 48 B a step at
        # two indices and one direction: 14 KB over 300 steps at n = 32),
        # where a kept trajectory adds a state a step (2.3 MB); the reference
        # record of delta=1 is made before tracing
        import tracemalloc

        lat = make_lattice(32)
        xi = random_field(lat, np.random.default_rng(909), norm=0.8)
        noise = additive_noise(lat, [0.8], [(1, 0)])
        peaks = []
        for t_final in (0.1, 0.4):
            cfg = SolverConfig(lattice=lat, dt=1e-3, t_final=t_final, alpha=0.0, noise=noise)
            nse = dense_nse(xi, cfg) if delta == 1 else None
            weak_continuity_probe(delta, (2, 8), cfg, xi, nse=nse)  # the kernel's scratch
            tracemalloc.start()
            try:
                weak_continuity_probe(delta, (2, 8), cfg, xi, nse=nse)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 3 * xi.coeffs.nbytes, peaks


def _bridge_noise(lat, variant):
    from lans2d import projection_multiplicative_noise

    if variant == "additive":
        return additive_noise(lat, [0.3, 0.2], [(1, 0), (1, 1)])
    return projection_multiplicative_noise(lat, [0.4, 0.3], [(1, 0), (1, 1)],
                                           [(0, 1), (1, 0)], [0.5, -0.2])


class TestMdpBridge:
    @staticmethod
    def separate_runs(xi, cfg, w):
        """The oracle: the smoothed and the delta=1 run marched apart, the
        first rescaled against the limit flow; per-step norms and gaps."""
        lat = cfg.lattice
        nse = dense_nse(xi, cfg)
        lans = solve_lans(xi, replace(cfg, store_fields=True), w)
        unified = solve_unified(1, xi, replace(cfg, store_fields=True), wiener=w, nse=nse)
        fac = 1.0 / (math.sqrt(cfg.alpha) * cfg.alpha ** -cfg.kappa)
        rescaled = [fac * (a - u) for a, u in zip(lans.fields, nse.fields)]
        norms = [float(lat.norm_h(r)) for r in rescaled]
        gaps = [float(lat.norm_h(r - y)) for r, y in zip(rescaled, unified.fields)]
        return nse, np.array(norms), np.array(gaps)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("variant", ["additive", "projection-multiplicative"])
    @pytest.mark.parametrize("alpha", [0.2, 0.05])
    def test_pair_march_is_the_separate_runs_bit_for_bit(self, n, variant, alpha):
        lat = make_lattice(n)
        xi = random_field(lat, np.random.default_rng(n))
        cfg = SolverConfig(lattice=lat, dt=1e-3, t_final=0.05, alpha=alpha,
                           noise=_bridge_noise(lat, variant))
        w = sample_wiener(2, cfg.dt, cfg.steps, 88)
        nse, norms, gaps = self.separate_runs(xi, cfg, w)
        got_norms, got_gaps = mdp_rescale(xi, cfg, w, nse)
        assert got_norms.tobytes() == norms.tobytes()
        assert got_gaps.tobytes() == gaps.tobytes()
        assert norms.max() > 0.0

    def test_identical_records_rescale_to_zero(self):
        # from a zero field with no noise the smoothed run and the limit
        # flow are the same zero run
        lat = make_lattice(8)
        xi = zero_field(lat)
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.1, alpha=0.2)
        norms, gaps = mdp_rescale(xi, cfg, None, dense_nse(xi, cfg))
        assert norms.shape == gaps.shape == (cfg.steps + 1,)
        assert norms.max() == 0.0 and gaps.max() == 0.0

    def test_rescale_linearity(self):
        # the rescaled norms scale by the ratio of the factors
        # 1 / (sqrt(a) lambda(a)) = a^(kappa - 1/2) of two configs' kappa
        lat = make_lattice(8)
        xi = random_field(lat, np.random.default_rng(34))
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.05, alpha=0.3,
                           noise=_bridge_noise(lat, "additive"))
        w = sample_wiener(2, cfg.dt, cfg.steps, 34)
        nse = dense_nse(xi, cfg)
        low, _ = mdp_rescale(xi, replace(cfg, kappa=0.2), w, nse)
        high, _ = mdp_rescale(xi, replace(cfg, kappa=0.3), w, nse)
        np.testing.assert_allclose(high, 0.3**0.1 * low, rtol=1e-12)

    def test_matches_unified_delta1(self):
        lat = make_lattice(16)
        rng = np.random.default_rng(35)
        xi = random_field(lat, rng)
        noise = additive_noise(lat, [0.3], [(1, 0)])
        cfg = SolverConfig(lattice=lat, dt=1e-3, t_final=0.1, alpha=0.2, noise=noise)
        w = sample_wiener(1, 1e-3, 100, 88)
        nse = dense_nse(xi, cfg)
        # the rescaling and the delta=1 run take the one kappa of the config
        for kappa in (cfg.kappa, 0.3):
            _, gaps = mdp_rescale(xi, replace(cfg, kappa=kappa), w, nse)
            assert gaps.max() <= 1e-8, kappa

    def test_refuses_alpha_zero(self):
        # the stepper refuses it before the factor 1 / (sqrt(a) lambda(a))
        lat = make_lattice(8)
        xi = random_field(lat, np.random.default_rng(38))
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.05, alpha=0.0,
                           noise=_bridge_noise(lat, "additive"))
        with pytest.raises(ValueError, match=r"alpha in \(0, 1\]"):
            mdp_rescale(xi, cfg, None, dense_nse(xi, cfg))

    def test_needs_the_dense_reference(self):
        lat = make_lattice(8)
        xi = random_field(lat, np.random.default_rng(36))
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.05, alpha=0.2)
        for record, match in ((solve_nse(xi, cfg), "snapshots at every step"),
                              (solve_nse(xi, replace(cfg, store_fields=True)), "drifts")):
            with pytest.raises(ValueError, match=match):
                mdp_rescale(xi, cfg, None, record)


class TestWholeRunShifts:
    """Whole runs commute with whole-cell shifts, both reflections and the
    quarter turn: ``xi``, the observable and the noise's outputs and probes
    moved alike leave the delta=1 rate and mdp-check's per-step norms
    unchanged to rounding.  Observed over seeds 0-7, n = 8 and 16 and both
    noise variants: at most 2.1e-14 relative for the rate and 5.1e-14 of the
    largest norm for the norms under the three shifts, and 3.1e-16 and
    5.2e-16 under the reflections and the quarter turn, which move every
    value exactly.  The delta=1 ``TerminalField`` rate, its target the
    endpoint of a standard-normal control moved alike, kept its directions
    and rank in all 192 cases of seeds 0-7 under each motion, and its cost
    moved by at most 1.4e-10 relative under the shifts and 2.7e-10 under the
    reflections and the quarter turn, both where ``R`` is rank-deficient
    (n = 8, seed 6: rank 14 of 40 columns, condition 7.7e12)."""

    TURNS = {"x1 reflection": reflect_x1, "x2 reflection": reflect_x2,
             "quarter turn": rotate_quarter}

    @classmethod
    def moved(cls, lat, cfg, shift):
        """``shift``: whole cells, or the name of one of ``TURNS``."""
        noise = cfg.noise
        turn = cls.TURNS.get(shift)

        def move(a):
            if a is None:
                return None
            return shift_cells(lat, a, shift) if turn is None else turn(lat, a)

        moved_noise = NoiseOperator(lat, noise.variant, noise.sigma, move(noise.outputs),
                                    move(noise.probes), noise.offsets)
        return move, replace(cfg, noise=moved_noise)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("variant", ["additive", "projection-multiplicative"])
    @pytest.mark.parametrize("seed, shift", [(0, (1, 0)), (1, (3, 5)), (2, (1, 3)),
                                             (3, "x1 reflection"), (4, "x2 reflection"),
                                             (5, "quarter turn")])
    def test_rate_and_rescaled_norms(self, n, variant, seed, shift):
        lat = make_lattice(n)
        rng = np.random.default_rng(seed)
        xi, g = random_field(lat, rng), random_field(lat, rng)
        cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.1, alpha=0.1,
                           noise=_bridge_noise(lat, variant))
        move, moved_cfg = self.moved(lat, cfg, shift)
        moved_xi, moved_g = (replace(f, coeffs=move(f.coeffs)) for f in (xi, g))

        cost = rate_function(RateProblem(1, TerminalObservable(g, 0.3)), cfg, xi).cost
        moved_cost = rate_function(RateProblem(1, TerminalObservable(moved_g, 0.3)),
                                   moved_cfg, moved_xi).cost
        assert abs(moved_cost - cost) <= 1e-13 * cost

        # a field target: the endpoint of a standard-normal control
        nse = dense_nse(xi, cfg)
        h0 = Control(cfg.dt, rng.standard_normal((cfg.steps, cfg.noise.rank)))
        terminal = replace(cfg, store_fields=True, record_stride=cfg.steps)
        x = solve_skeleton(1, xi, terminal, h0, nse=nse).fields[-1]

        def field_rate(x, cfg, xi):
            target = TerminalField(replace(xi, coeffs=x))
            return rate_function(RateProblem(1, target, tolerance=1e-6), cfg, xi)

        field, moved_field = field_rate(x, cfg, xi), field_rate(move(x), moved_cfg, moved_xi)
        assert field.converged and moved_field.converged
        for key in ("iterations", "rank"):
            assert moved_field.details[key] == field.details[key], key
        assert abs(moved_field.cost - field.cost) <= 1e-9 * field.cost

        w = sample_wiener(2, cfg.dt, cfg.steps, seed)
        norms, _ = mdp_rescale(xi, cfg, w, nse)
        moved_norms, _ = mdp_rescale(moved_xi, moved_cfg, w, dense_nse(moved_xi, moved_cfg))
        assert norms.max() > 0.0
        assert np.abs(moved_norms - norms).max() <= 2e-13 * norms.max()
