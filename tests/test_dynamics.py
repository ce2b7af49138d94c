"""Time integrators: exact-solution regressions, scheme algebra, energy laws."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lans2d import (
    BlowupError,
    Control,
    ScalingLaw,
    SolverConfig,
    SpectralField,
    additive_noise,
    dense_nse,
    deviations,
    energy_report,
    make_lattice,
    mdp_rescale,
    projection_multiplicative_noise,
    random_field,
    sample_wiener,
    single_shear,
    solve_lans,
    solve_nse,
    solve_skeleton,
    solve_unified,
    taylor_green,
    zero_control,
    zero_field,
)
from lans2d.dynamics import SkeletonStepper, UnifiedStepper, indexed_step, march
from lans2d.spectral import TorusLattice


def cfg_for(lat, dt=1e-3, T=0.5, alpha=0.1, noise=None, **kw):
    return SolverConfig(lattice=lat, dt=dt, t_final=T, alpha=alpha, noise=noise, **kw)


class TestScalingLaw:
    def test_lam_delta_limits(self):
        s0 = ScalingLaw(0.25, 0)
        s1 = ScalingLaw(0.25, 1)
        assert s0.lam_delta(1e-8) == 1.0
        # alpha^(1/2 - kappa) -> 0, i.e. lam_delta -> 1 - delta
        assert s1.lam_delta(1e-8) == pytest.approx(1e-2)
        assert s1.lam_delta(1e-12) < s1.lam_delta(1e-8)

    def test_lam_diverges_but_sqrt_alpha_lam_vanishes(self):
        s = ScalingLaw(0.25, 1)
        grid = (1e-4, 1e-6, 1e-8, 1e-10)
        lams = [s.lam(a) for a in grid]
        rooted = [math.sqrt(a) * s.lam(a) for a in grid]
        assert all(a < b for a, b in zip(lams, lams[1:]))          # diverges
        assert all(a > b for a, b in zip(rooted, rooted[1:]))      # vanishes
        assert rooted[-1] < 1e-2

    def test_remark_bound(self):
        # alpha^k * lam_delta^-l <= 2 for l in {1,2}, k >= l/2, alpha in (0,1)
        for delta in (0, 1):
            s = ScalingLaw(0.3, delta)
            for alpha in np.linspace(1e-6, 0.999, 200):
                for ell in (1, 2):
                    for k in (ell / 2, ell / 2 + 0.5, 2.0):
                        assert alpha**k * s.lam_delta(alpha) ** (-ell) <= 2.0

    def test_speed(self):
        assert ScalingLaw(0.25, 0).speed(0.1) == pytest.approx(10.0)
        assert ScalingLaw(0.25, 1).speed(1e-4) == pytest.approx(100.0)

    def test_mdp_slower_than_ldp(self):
        s1 = ScalingLaw(0.2, 1)
        ratios = [s1.speed(a) * a for a in (0.1, 0.01, 0.001)]
        assert all(x > y for x, y in zip(ratios, ratios[1:]))  # alpha * lam^2 -> 0

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            ScalingLaw(0.5, 0)
        with pytest.raises(ValueError):
            ScalingLaw(0.0, 1)


class TestNse:
    def test_taylor_green_decay(self):
        lat = make_lattice(32)
        xi = taylor_green(lat)
        traj = solve_nse(xi, cfg_for(lat, T=0.5))
        exact = math.exp(-2.0 * 0.5) * float(lat.norm_h(xi.coeffs))
        assert traj.norm_h[-1] == pytest.approx(exact, rel=0.01)

    def test_taylor_green_exact_discrete(self):
        # B(xi, xi) vanishes on the vortex, so step m is (1 + 2 nu dt)^-m xi
        lat = make_lattice(32)
        xi = taylor_green(lat)
        cfg = cfg_for(lat, dt=1e-3, T=0.5, store_fields=True)
        traj = solve_nse(xi, cfg)
        scale = float(lat.norm_h(xi.coeffs))
        for m, y in enumerate(traj.fields):
            exact = (1.0 + 2.0 * cfg.viscosity * cfg.dt) ** -m * xi.coeffs
            assert float(lat.norm_h(y - exact)) <= 1e-12 * scale

    def test_shear_decay(self):
        lat = make_lattice(16)
        xi = single_shear(lat, (0, 1))
        traj = solve_nse(xi, cfg_for(lat, T=0.5))
        assert traj.norm_h[-1] == pytest.approx(math.exp(-0.5), rel=0.01)

    def test_self_convergence_first_order(self):
        # errors against a dt/8 reference: expected ratio 7/3 between dt, dt/2
        lat = make_lattice(16)
        rng = np.random.default_rng(8)
        xi = random_field(lat, rng)
        T = 0.1
        finals = {}
        for dt in (4e-3, 2e-3, 5e-4):
            traj = solve_nse(xi, cfg_for(lat, dt=dt, T=T, record_stride=10**9,
                                         store_fields=True))
            finals[dt] = traj.fields[-1]
        e1 = float(lat.norm_h(finals[4e-3] - finals[5e-4]))
        e2 = float(lat.norm_h(finals[2e-3] - finals[5e-4]))
        assert 1.8 <= e1 / e2 <= 2.8

    def test_discrete_energy_inequality(self):
        lat = make_lattice(16)
        rng = np.random.default_rng(9)
        xi = random_field(lat, rng, norm=2.0)
        cfg = cfg_for(lat, dt=2e-3, T=0.1, store_fields=True)
        traj = solve_nse(xi, cfg)
        nu, dt = cfg.viscosity, cfg.dt
        for m in range(len(traj) - 1):
            u_n = traj.fields[m]
            u_next = traj.fields[m + 1]
            b = lat.bilinear_b(u_n, u_n)
            lhs = float(lat.norm_h(u_next)) ** 2 + 2 * dt * nu * float(lat.norm_v(u_next)) ** 2
            tol = 10.0 * dt**2 * float(lat.norm_h(b)) * (
                nu * float(lat.norm_a(u_n)) + float(lat.norm_h(b))
            )
            assert lhs <= float(lat.norm_h(u_n)) ** 2 + tol

    def test_blowup_sentinel(self):
        lat = make_lattice(16)
        rng = np.random.default_rng(10)
        xi = random_field(lat, rng, norm=1e4)
        with pytest.raises(BlowupError) as exc:
            solve_nse(xi, cfg_for(lat, dt=0.25, T=2.0))
        assert exc.value.record is not None  # last-good record attached

    def test_alpha_norm_consistency(self):
        lat = make_lattice(16)
        rng = np.random.default_rng(11)
        xi = random_field(lat, rng)
        cfg = cfg_for(lat, dt=1e-3, T=0.05, alpha=0.3, store_fields=True)
        noise = additive_noise(lat, [0.3], [(1, 0)])
        cfg = cfg_for(lat, dt=1e-3, T=0.05, alpha=0.3, noise=noise, store_fields=True)
        w = sample_wiener(1, 1e-3, 50, 3)
        traj = solve_lans(xi, cfg, w)
        for i in range(len(traj)):
            recomputed = float(lat.norm_alpha(traj.fields[i], 0.3))
            assert abs(recomputed - traj.norm_alpha[i]) <= 1e-10 * max(1.0, recomputed)
            direct = math.sqrt(traj.norm_h[i] ** 2 + 0.3**2 * traj.norm_a[i] ** 2)
            assert direct == pytest.approx(traj.norm_alpha[i], abs=1e-10)

    @pytest.mark.parametrize("solver", ["solve_nse", "dense_nse", "solve_lans", "solve_unified",
                                        "solve_skeleton"])
    def test_records_hold_the_norm_methods_and_their_running_sum(self, solver):
        # the recorder takes its four norms from one reduction; each is the
        # norm method's value on the stored field, and the dissipation the
        # running sum of dt |y_m|_V^2 over every step, recorded or not
        lat = make_lattice(16)
        rng = np.random.default_rng(12)
        xi = random_field(lat, rng)
        noise = additive_noise(lat, [0.3, 0.2], [(1, 0), (1, 1)])
        cfg = cfg_for(lat, dt=1e-3, T=0.03, alpha=0.3, noise=noise, store_fields=True)
        w = sample_wiener(2, cfg.dt, cfg.steps, 3)
        h = Control(cfg.dt, rng.standard_normal((cfg.steps, 2)))
        nse = dense_nse(xi, cfg)
        run = {
            "solve_nse": lambda c: solve_nse(xi, c),
            "dense_nse": lambda c: dense_nse(xi, c),
            "solve_lans": lambda c: solve_lans(xi, c, w),
            "solve_unified": lambda c: solve_unified(1, xi, c, h=h, wiener=w, nse=nse),
            "solve_skeleton": lambda c: solve_skeleton(0, xi, c, h),
        }[solver]
        every = run(cfg)
        record = run(replace(cfg, record_stride=3)) if solver == "solve_unified" else every
        assert len(record) == (11 if solver == "solve_unified" else 31)
        for name, norm in (("norm_h", lat.norm_h), ("norm_v", lat.norm_v),
                           ("norm_a", lat.norm_a),
                           ("norm_alpha", lambda f: lat.norm_alpha(f, record.alpha))):
            each = np.array([float(norm(f)) for f in record.fields])
            assert getattr(record, name).tobytes() == each.tobytes(), name
        running, total = [], 0.0
        for m, f in enumerate(every.fields):
            if m:
                total += cfg.dt * float(lat.norm_v(f)) ** 2
            running.append(total)
        steps = np.rint(record.times / cfg.dt).astype(int)
        assert record.dissipation.tobytes() == np.array(running)[steps].tobytes()

    def test_recorded_norms_are_the_norm_methods_bit_for_bit(self):
        # mdp_rescale takes the norms of both of its rows from one reduction
        lat = make_lattice(16)
        xi = random_field(lat, np.random.default_rng(12))
        noise = additive_noise(lat, [0.3], [(1, 0)])
        cfg = cfg_for(lat, dt=1e-3, T=0.05, alpha=0.3, noise=noise, store_fields=True)
        w = sample_wiener(1, 1e-3, 50, 3)
        lans = solve_lans(xi, cfg, w)
        nse = dense_nse(xi, cfg)
        norms, _ = mdp_rescale(xi, cfg, w, nse)
        fac = 1.0 / (math.sqrt(0.3) * ScalingLaw(cfg.kappa, 1).lam(0.3))
        each = np.array([float(lat.norm_h(fac * (a - u))) for a, u in zip(lans.fields, nse.fields)])
        assert norms.tobytes() == each.tobytes()


class TestMarch:
    def test_observer_sees_each_state_once(self):
        lat = make_lattice(8)
        y0 = np.stack([random_field(lat, np.random.default_rng(i)).coeffs for i in range(3)])
        seen = []
        final = march(lambda m, y: 0.5 * y, y0, 4, lambda m, y: seen.append((m, y)), lat)
        assert [m for m, _ in seen] == [0, 1, 2, 3, 4]
        for m, y in seen:
            assert y.tobytes() == (0.5**m * y0).tobytes()
        assert seen[-1][1] is final

    def test_blowup_is_judged_per_trajectory(self):
        # each trajectory has its own limit 1e6 * max(1, |y0_i|): trajectory 1
        # crosses its limit at step 2, still far below trajectory 0's limit
        lat = make_lattice(8)
        y0 = np.stack([1e3 * single_shear(lat).coeffs, single_shear(lat).coeffs])
        scale = np.array([1.0, 2e3])[:, None, None, None]
        with pytest.raises(BlowupError, match="step 2 in trajectory 1") as exc:
            march(lambda m, y: scale * y, y0, 3, None, lat)
        assert exc.value.step == 2

    def test_overflowing_norm_is_a_blowup(self):
        # the state stays finite while its H-norm overflows to inf
        lat = make_lattice(8)
        y0 = single_shear(lat).coeffs
        with np.errstate(over="ignore"), pytest.raises(BlowupError, match="inf"):
            march(lambda m, y: 1e300 * y, y0, 1, None, lat)

    @pytest.fixture
    def norms_taken(self, monkeypatch):
        """The number of ``norm_h`` calls, counted."""
        calls = []
        norm_h = TorusLattice.norm_h
        monkeypatch.setattr(TorusLattice, "norm_h",
                            lambda self, a: calls.append(a.shape) or norm_h(self, a))
        return calls

    def test_certified_steps_take_no_norm(self, norms_taken):
        # the bound 2 max|x| sqrt(sum w_h) settles the rule: only y_0's
        # norm, which sets the limits, is taken
        lat = make_lattice(8)
        y0 = np.stack([random_field(lat, np.random.default_rng(i)).coeffs for i in range(3)])
        assert lat.norm_h_ceiling(np.abs(y0.view(float)).max()) >= lat.norm_h(y0).max()
        norms_taken.clear()
        march(lambda m, y: 1.5 * y, y0, 5, None, lat)
        assert norms_taken == [y0.shape]

    def test_bound_above_the_smallest_limit_takes_the_exact_rule(self, norms_taken):
        # trajectory 0 grows to 1e10, above trajectory 1's limit 1e6 but below
        # its own 1e11: each step takes the norms, none raises, and the states
        # are the steps' own
        lat = make_lattice(8)
        y0 = np.stack([1e5 * single_shear(lat).coeffs, single_shear(lat).coeffs])
        scale = np.array([10.0, 1.0])[:, None, None, None]
        seen = []
        norms_taken.clear()
        final = march(lambda m, y: scale * y, y0, 5, lambda m, y: seen.append(y), lat)
        assert len(norms_taken) == 6
        assert lat.norm_h(final)[0] > 1e6 * max(1.0, lat.norm_h(y0)[1])
        want = y0
        for y in seen[1:]:
            want = scale * want
            assert y.tobytes() == want.tobytes()

    def test_nan_is_a_blowup_of_its_trajectory(self):
        lat = make_lattice(8)
        y0 = np.stack([single_shear(lat).coeffs] * 4)

        def step(m, y):
            y = 0.5 * y
            if m == 2:
                y[2, 1, 1, 0] = complex(np.nan, 0.0)
            return y

        with pytest.raises(BlowupError, match="step 3 in trajectory 2: .*nan") as exc:
            march(step, y0, 5, None, lat)
        assert exc.value.step == 3

    def test_overflowing_norm_is_a_blowup_under_a_huge_limit(self):
        # y_0 sets a limit of 1e159, and the bound of the state stays below
        # it while its norm overflows: the rule takes the exact norm
        lat = make_lattice(8)
        y0 = 1e153 * single_shear(lat).coeffs
        assert lat.norm_h_ceiling(1e3 * np.abs(y0.view(float)).max()) < 1e159
        with np.errstate(over="ignore"), pytest.raises(BlowupError, match="inf"):
            march(lambda m, y: 1e3 * y, y0, 1, None, lat)


class TestLans:
    def test_taylor_green_noise_free(self):
        # Btilde terms vanish on the Taylor-Green field: pure heat decay
        lat = make_lattice(32)
        xi = taylor_green(lat)
        for alpha in (0.1, 0.9):
            traj = solve_lans(xi, cfg_for(lat, T=0.5, alpha=alpha))
            exact = math.exp(-1.0) * float(lat.norm_h(xi.coeffs))
            assert traj.norm_h[-1] == pytest.approx(exact, rel=0.01)

    def test_sqrt_alpha_noise_scaling(self):
        # the deviation of the momentum state v = (I + a^2 A) u scales as
        # sqrt(a): noise enters the v-equation unsmoothed, so the ratio across
        # a fourfold alpha change is 2 up to drift feedback (the u-deviation
        # carries the extra smoother factor (1 + a^2 l)^-1)
        lat = make_lattice(16)
        rng = np.random.default_rng(12)
        xi = random_field(lat, rng)
        noise = additive_noise(lat, [0.05], [(1, 1)])
        steps = 200
        w = sample_wiener(1, 1e-3, steps, 99)
        base = {}
        for alpha in (0.4, 0.1):
            cfg = cfg_for(lat, dt=1e-3, T=0.2, alpha=alpha, noise=noise,
                          record_stride=steps, store_fields=True)
            with_noise = solve_lans(xi, cfg, w)
            silent = solve_lans(xi, cfg_for(lat, dt=1e-3, T=0.2, alpha=alpha,
                                            record_stride=steps, store_fields=True))
            diff = with_noise.fields[-1] - silent.fields[-1]
            base[alpha] = float(lat.norm_h(lat.unsmooth(diff, alpha)))
        ratio = base[0.4] / base[0.1]
        assert ratio == pytest.approx(2.0, rel=0.10)

    def test_bit_reproducible(self):
        lat = make_lattice(16)
        rng = np.random.default_rng(13)
        xi = random_field(lat, rng)
        noise = additive_noise(lat, [0.4, 0.3], [(1, 0), (0, 1)])
        cfg = cfg_for(lat, dt=1e-3, T=0.05, alpha=0.2, noise=noise, store_fields=True)
        w = sample_wiener(2, 1e-3, 50, 555)
        a = solve_lans(xi, cfg, w)
        b = solve_lans(xi, cfg, w)
        assert all(np.array_equal(x, y) for x, y in zip(a.fields, b.fields))
        assert np.array_equal(a.norm_h, b.norm_h)

    def test_requires_positive_alpha(self):
        # alpha = 0 is reserved for the limit and skeleton systems
        lat = make_lattice(16)
        with pytest.raises(ValueError):
            solve_lans(taylor_green(lat), cfg_for(lat, alpha=0.0))
        with pytest.raises(ValueError):
            solve_unified(0, taylor_green(lat), cfg_for(lat, alpha=0.0))


class TestUnified:
    @pytest.fixture
    def setup(self):
        lat = make_lattice(16)
        rng = np.random.default_rng(14)
        xi = random_field(lat, rng)
        noise = additive_noise(lat, [0.3, 0.2], [(1, 0), (1, 1)])
        return lat, xi, noise

    def test_delta0_reduces_to_lans(self, setup):
        lat, xi, noise = setup
        cfg = cfg_for(lat, dt=1e-3, T=0.2, alpha=0.25, noise=noise, store_fields=True)
        w = sample_wiener(2, 1e-3, 200, 77)
        lans = solve_lans(xi, cfg, w)
        unified = solve_unified(0, xi, cfg, wiener=w)
        for a, b in zip(lans.fields, unified.fields):
            assert float(lat.norm_h(a - b)) <= 1e-12
        # solve_lans is solve_unified(0): the reference is the smoothed
        # stochastic step written out on its own, matched bit for bit
        S, dt, alpha = cfg.implicit_multiplier(), cfg.dt, cfg.alpha

        def step(m, u):
            rhs = u - dt * lat.smooth(lat.bilinear_btilde(u, lat.unsmooth(u, alpha)), alpha)
            rhs = rhs + math.sqrt(alpha) * noise.apply_smoothed(u, w.increments[m], alpha)
            return S * rhs

        states = []
        march(step, xi.coeffs, cfg.steps, lambda m, y: states.append(y), lat)
        for a, b in zip(lans.fields, states):
            assert np.array_equal(a, b)

    def test_delta1_difference_quotient(self, setup):
        lat, xi, noise = setup
        for alpha in (0.4, 0.1):
            cfg = cfg_for(lat, dt=1e-3, T=0.2, alpha=alpha, noise=noise, store_fields=True)
            w = sample_wiener(2, 1e-3, 200, 78)
            nse = dense_nse(xi, cfg)
            lans = solve_lans(xi, cfg, w)
            unified = solve_unified(1, xi, cfg, wiener=w, nse=nse)
            lam_delta = ScalingLaw(cfg.kappa, 1).lam_delta(alpha)
            # records share the stride-1 grid: compare every snapshot
            for ua, u, y in zip(lans.fields, nse.fields, unified.fields):
                gap = float(lat.norm_h((ua - u) / lam_delta - y))
                assert gap <= 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 32).map(lambda k: 2 * k),
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        kappa=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        batch=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drift_is_the_expanded_difference_quotient(self, n, alpha, kappa, batch, seed):
        # reference: the delta=1 drift expanded by bilinearity into four
        # Btilde terms and one B term
        lat = make_lattice(n)
        rng = np.random.default_rng(seed)
        u = random_field(lat, rng).coeffs
        y = np.stack([random_field(lat, rng).coeffs for _ in range(batch or 1)])
        if batch is None:
            y = y[0]
        cfg = cfg_for(lat, alpha=alpha, kappa=kappa)
        stepper = UnifiedStepper(cfg, 1)
        ld = stepper.lam_delta
        z = lat.unsmooth(y, alpha)
        jinv_u = lat.unsmooth(u, alpha)
        def btilde_alpha(a, b):
            return lat.smooth(lat.bilinear_btilde(a, b), alpha)

        expanded = (
            ld * btilde_alpha(y, z)
            + btilde_alpha(u, z)
            + btilde_alpha(y, jinv_u)
            + (btilde_alpha(u, jinv_u) - lat.bilinear_b(u, u)) / ld
        )
        w = stepper.coefficient_argument(y, u)
        drift = stepper.drift(w, u)
        assert drift.shape == expanded.shape
        # a difference quotient rounds at eps times its operands over lam_delta;
        # max-abs sizes, since the operands over a tiny lam_delta overflow |.|^2
        size = lambda a: np.abs(a).max(axis=(-3, -2, -1))
        operands = size(btilde_alpha(w, lat.unsmooth(w, alpha)))
        scale = size(expanded) + (operands + size(lat.bilinear_b(u, u))) / ld
        assert np.all(size(drift - expanded) <= 1e-10 * scale)

    @pytest.mark.parametrize("n", [4, 16])  # the Galerkin tensor and the transforms
    def test_dense_record_keeps_each_steps_drift(self, n):
        lat = make_lattice(n)
        xi = random_field(lat, np.random.default_rng(n))
        cfg = cfg_for(lat, dt=1e-3, T=0.05)
        nse = dense_nse(xi, cfg)
        assert len(nse.drifts) == cfg.steps
        for f, b in zip(nse.fields, nse.drifts):
            assert b.tobytes() == lat.bilinear_b(f, f).tobytes()

    @pytest.mark.parametrize("n", [4, 16])
    def test_reused_drift_repeats_the_formed_one_bit_for_bit(self, n, monkeypatch):
        lat = make_lattice(n)
        xi = random_field(lat, np.random.default_rng(n))
        noise = additive_noise(lat, [0.3, 0.2], [(1, 0), (1, 1)])
        cfg = cfg_for(lat, dt=1e-3, T=0.05, alpha=0.1, noise=noise, store_fields=True)
        w = sample_wiener(2, cfg.dt, cfg.steps, 79)
        nse = dense_nse(xi, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(type(lat), "bilinear_b", lambda *a: pytest.fail("B formed again"))
            unified = solve_unified(1, xi, cfg, wiener=w, nse=nse)
        # the reference: a stepper given no b_n forms B(u_n, u_n) itself
        step = indexed_step(UnifiedStepper(cfg, 1).step, u_n=nse.fields, dw=w.increments)
        states = []
        march(step, np.zeros(lat.shape, complex), cfg.steps,
              lambda m, y: states.append(y), lat)
        assert [a.tobytes() for a in unified.fields] == [b.tobytes() for b in states]

    @pytest.mark.parametrize("n", [4, 16])  # the Galerkin tensor and the transforms
    @pytest.mark.parametrize("variant", ["additive", "projection-multiplicative"])
    def test_rows_of_delta_step_as_their_own_steppers(self, n, variant):
        # rows (0, 1) through one stepper: the delta=0 row with its u_n and
        # b_n rows zero, the delta=1 row with the reference's
        lat = make_lattice(n)
        rng = np.random.default_rng(n)
        if variant == "additive":
            noise = additive_noise(lat, [0.3, 0.2], [(1, 0), (1, 1)])
        else:
            noise = projection_multiplicative_noise(lat, [0.4, 0.3], [(1, 0), (1, 1)],
                                                    [(0, 1), (1, 0)], [0.5, -0.2])
        cfg = cfg_for(lat, dt=2e-3, T=0.2, alpha=0.1, noise=noise)
        y0, y1, u = (random_field(lat, rng).coeffs for _ in range(3))
        b = lat.bilinear_b(u, u)
        dw, h = 0.05 * rng.standard_normal((2, 2))
        rows = UnifiedStepper(cfg, (0, 1))
        assert rows.lam_delta.shape == (2, 1, 1, 1)
        zero = np.zeros_like(u)
        pair = rows.step(np.stack([y0, y1]), u_n=np.stack([zero, u]),
                         b_n=np.stack([zero, b]), dw=dw, h_n=h)
        single0 = UnifiedStepper(cfg, 0).step(y0, dw=dw, h_n=h)
        single1 = UnifiedStepper(cfg, 1).step(y1, u_n=u, b_n=b, dw=dw, h_n=h)
        assert pair[0].tobytes() == single0.tobytes()
        assert pair[1].tobytes() == single1.tobytes()

    def test_delta_rows_must_be_zero_or_one(self):
        cfg = cfg_for(make_lattice(8))
        for delta in ((0, 2), (), 2):
            with pytest.raises(ValueError, match="delta must be 0 or 1"):
                UnifiedStepper(cfg, delta)

    def test_delta1_zero_reference_zero_trajectory(self, setup):
        lat, _, noise = setup
        xi0 = zero_field(lat)
        cfg = cfg_for(lat, dt=1e-3, T=0.05, alpha=0.3, noise=None, store_fields=True)
        nse = dense_nse(xi0, cfg)
        traj = solve_unified(1, xi0, cfg, nse=nse)
        assert traj.norm_h.max() == 0.0

    @pytest.fixture
    def batched_step(self):
        """A delta=1 stepper at n=16 with a 64-trajectory state, its
        reference state and increments, as in a Monte Carlo batch."""
        lat = make_lattice(16)
        rng = np.random.default_rng(16)
        noise = additive_noise(lat, [0.25, 0.25, 0.2, 0.2], [(1, 0), (0, 1), (1, 1), (2, -1)])
        stepper = UnifiedStepper(cfg_for(lat, dt=2e-3, T=0.2, alpha=0.1, noise=noise), 1)
        y = 0.1 * np.stack([random_field(lat, rng).coeffs for _ in range(64)])
        u_n = random_field(lat, rng).coeffs
        dw = 0.05 * rng.standard_normal((3, 64, 4))
        return stepper, y, u_n, dw

    def test_batched_step_allocates_little(self, batched_step):
        # w, (I + a^2 A) w and the noise term live in the stepper's buffers
        # and the drift array becomes the new state, so after a warm-up step
        # the traced peak is the new state and numpy's iteration buffers
        # (1.76 times the state here)
        stepper, y, u_n, dw = batched_step
        stepper.step(y, u_n=u_n, dw=dw[0])
        tracemalloc.start()
        try:
            stepper.step(y, u_n=u_n, dw=dw[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * y.nbytes

    def test_step_leaves_returned_states_alone(self, batched_step):
        # march observers and the skeleton's forward pass keep the states
        stepper, y, u_n, dw = batched_step
        states = [y]
        for m in range(3):
            states.append(stepper.step(states[-1], u_n=u_n, dw=dw[m]))
        kept = [s.copy() for s in states]
        for m in range(3):
            stepper.step(states[m], u_n=u_n, dw=dw[m])
        assert all(np.array_equal(s, k) for s, k in zip(states, kept))
        assert len({id(s) for s in states}) == 4

    def test_delta1_missing_reference(self, setup):
        lat, xi, noise = setup
        cfg = cfg_for(lat, alpha=0.3, noise=noise)
        with pytest.raises(ValueError, match="reference"):
            solve_unified(1, xi, cfg)

    @pytest.mark.parametrize("delta", [0, 1])
    def test_control_is_shifted_noise(self, setup, delta):
        # the controlled run equals the uncontrolled run driven by the
        # shifted increments dW + alpha^(-1/2) lam_delta h dt, exactly at the
        # discrete level (the representation behind the controlled system)
        lat, xi, noise = setup
        alpha = 0.3
        cfg = cfg_for(lat, dt=1e-3, T=0.1, alpha=alpha, noise=noise, store_fields=True)
        rng = np.random.default_rng(40)
        h = Control(cfg.dt, 0.5 * rng.standard_normal((cfg.steps, 2)))
        w = sample_wiener(2, cfg.dt, cfg.steps, 41)
        lam_delta = ScalingLaw(cfg.kappa, delta).lam_delta(alpha)
        from lans2d import WienerPath

        w_shift = WienerPath(
            cfg.dt,
            w.increments + cfg.dt * lam_delta / math.sqrt(alpha) * h.values,
        )
        nse = dense_nse(xi, cfg) if delta == 1 else None
        controlled = solve_unified(delta, xi, cfg, h=h, wiener=w, nse=nse)
        folded = solve_unified(delta, xi, cfg, wiener=w_shift, nse=nse)
        gap = max(
            float(lat.norm_h(a - b))
            for a, b in zip(controlled.fields, folded.fields)
        )
        assert gap <= 1e-12

    def test_fields_stay_valid_under_noise(self, setup):
        lat, xi, noise = setup
        cfg = cfg_for(lat, dt=1e-3, T=0.3, alpha=0.2, noise=noise,
                      record_stride=300, store_fields=True)
        w = sample_wiener(2, 1e-3, 300, 91)
        traj = solve_lans(xi, cfg, w)
        SpectralField(lat, traj.fields[-1]).validate(tol=1e-10)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("delta", [0, 1])
    @pytest.mark.parametrize("variant", ["additive", "multiplicative"])
    def test_drift_tensor_route_stays_in_h_exactly(self, n, delta, variant):
        # at n = 4 and 6 the drift reads a state's coordinates on H only, so
        # every state a noisy run marches through must stay in H bit for bit:
        # k . uhat == 0.0 and a zero mean, from a start (w_0 = xi for both
        # deltas) where the drift is not zero
        lat = make_lattice(n)
        xi = random_field(lat, np.random.default_rng(92 + n))
        if variant == "additive":
            noise = additive_noise(lat, [0.5, 0.4], [(1, 0), (1, 1)])
        else:
            noise = projection_multiplicative_noise(lat, [0.4, 0.3], [(1, 0), (1, 1)],
                                                    [(0, 1), (1, -1)], [0.5, -0.2])
        cfg = cfg_for(lat, dt=1e-2, T=0.5, alpha=0.3, noise=noise, store_fields=True)
        w = sample_wiener(2, cfg.dt, cfg.steps, 93)
        nse = dense_nse(xi, cfg) if delta == 1 else None
        fields = np.stack(solve_unified(delta, xi, cfg, wiener=w, nse=nse).fields)
        assert fields.shape[0] == cfg.steps + 1
        assert np.all(lat.k1 * fields[:, 0] + lat.k2 * fields[:, 1] == 0.0)
        assert np.all(fields[:, :, 0, 0] == 0.0)
        assert np.abs(lat.btilde_alpha(xi.coeffs, cfg.alpha)).max() > 1e-3


class TestSkeleton:
    @pytest.fixture
    def setup(self):
        lat = make_lattice(16)
        rng = np.random.default_rng(15)
        xi = random_field(lat, rng)
        noise = additive_noise(lat, [0.5, 0.4], [(1, 0), (0, 1)])
        return lat, rng, xi, noise

    def test_zero_control_delta0_equals_nse(self, setup):
        lat, _, xi, noise = setup
        cfg = cfg_for(lat, dt=1e-3, T=0.2, alpha=0.0, noise=noise, store_fields=True)
        h0 = zero_control(2, 1e-3, 200)
        skel = solve_skeleton(0, xi, cfg, h0)
        ref = solve_nse(xi, cfg)
        for a, b in zip(skel.fields, ref.fields):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [4, 16])
    def test_nse_is_the_uncontrolled_skeleton_bit_for_bit(self, n):
        lat = make_lattice(n)
        xi = random_field(lat, np.random.default_rng(n))
        noise = additive_noise(lat, [0.5, 0.4], [(1, 0), (0, 1)])
        cfg = cfg_for(lat, dt=1e-3, T=0.05, alpha=0.0, noise=noise, store_fields=True)
        ref = solve_nse(xi, cfg)
        skel = solve_skeleton(0, xi, cfg, zero_control(2, 1e-3, 50))
        for name in ("times", "norm_h", "norm_v", "norm_a", "norm_alpha", "dissipation"):
            assert getattr(ref, name).tobytes() == getattr(skel, name).tobytes(), name
        assert [a.tobytes() for a in ref.fields] == [b.tobytes() for b in skel.fields]

    def test_zero_control_delta1_zero_trajectory(self, setup):
        lat, _, xi, noise = setup
        cfg = cfg_for(lat, dt=1e-3, T=0.1, alpha=0.0, noise=noise, store_fields=True)
        nse = dense_nse(xi, cfg)
        traj = solve_skeleton(1, xi, cfg, zero_control(2, 1e-3, 100), nse=nse)
        assert traj.norm_h.max() == 0.0

    @staticmethod
    def batch_setup(variant):
        lat = make_lattice(16)
        rng = np.random.default_rng(21)
        if variant == "additive":
            noise = additive_noise(lat, [0.5, 0.4], [(1, 0), (0, 1)])
        else:
            noise = projection_multiplicative_noise(lat, [0.4, 0.3], [(1, 0), (1, 1)],
                                                    [(0, 1), (1, 0)], [0.5, -0.2])
        cfg = cfg_for(lat, dt=2e-3, T=0.02, alpha=0.0, noise=noise, store_fields=True)
        return lat, rng, cfg, random_field(lat, rng)

    @pytest.mark.parametrize("delta", [0, 1])
    @pytest.mark.parametrize("variant", ["additive", "projection-multiplicative"])
    def test_batch_of_controls_marches_as_single_marches(self, delta, variant):
        # a batch of states under a batch of controls: the noise term takes
        # the controls' batch, where delta=1 evaluates G at the unbatched u_n
        lat, rng, cfg, xi = self.batch_setup(variant)
        u = dense_nse(xi, cfg).fields if delta == 1 else None
        h = rng.standard_normal((cfg.steps, 3, 2))
        y0 = np.zeros_like(xi.coeffs) if delta == 1 else xi.coeffs

        def final(y, hv):
            step = indexed_step(SkeletonStepper(cfg, delta).step, u_n=u, h_n=hv)
            return march(step, y, cfg.steps, None, lat)

        batch = final(np.stack([y0] * 3), h)
        assert batch.shape == (3,) + lat.shape
        for i in range(3):
            assert batch[i].tobytes() == final(y0, h[:, i]).tobytes()

    @pytest.mark.parametrize("delta", [0, 1])
    @pytest.mark.parametrize("variant", ["additive", "projection-multiplicative"])
    def test_batch_of_controls_starts_from_one_field(self, delta, variant):
        # the rate solves' march takes (steps, B, J) controls and starts each
        # of the B states from (1 - delta) xi, as solve_skeleton's one control
        lat, rng, cfg, xi = self.batch_setup(variant)
        nse = dense_nse(xi, cfg) if delta == 1 else None
        u = nse.fields if delta == 1 else None
        h = rng.standard_normal((cfg.steps, 3, 2))
        states = []
        final = deviations._skeleton_march(delta, h, cfg, xi, u, lambda m, y: states.append(y))
        assert final.shape == (3,) + lat.shape
        for i in range(3):
            single = solve_skeleton(delta, xi, cfg, Control(cfg.dt, h[:, i]), nse=nse)
            assert [y[i].tobytes() for y in states] == [f.tobytes() for f in single.fields]
            assert final[i].tobytes() == single.fields[-1].tobytes()
        with pytest.raises(ValueError, match=r"one \(steps, J\) control, got \(10, 3, 2\)"):
            solve_skeleton(delta, xi, cfg, Control(cfg.dt, h), nse=nse)

    def test_delta1_linearity(self, setup):
        lat, rng, xi, noise = setup
        cfg = cfg_for(lat, dt=1e-3, T=0.1, alpha=0.0, noise=noise, store_fields=True)
        nse = dense_nse(xi, cfg)
        for _ in range(10):
            h1 = Control(1e-3, rng.standard_normal((100, 2)))
            h2 = Control(1e-3, rng.standard_normal((100, 2)))
            y1 = solve_skeleton(1, xi, cfg, h1, nse=nse)
            y2 = solve_skeleton(1, xi, cfg, h2, nse=nse)
            y12 = solve_skeleton(1, xi, cfg, h1 + h2, nse=nse)
            y2x = solve_skeleton(1, xi, cfg, 2.0 * h1, nse=nse)
            sup = max(
                float(lat.norm_h(a + b - c))
                for a, b, c in zip(y1.fields, y2.fields, y12.fields)
            )
            assert sup <= 1e-10
            suph = max(
                float(lat.norm_h(2.0 * a - b)) for a, b in zip(y1.fields, y2x.fields)
            )
            assert suph <= 1e-10


class TestEnergyReport:
    def test_zero_trajectory(self):
        lat = make_lattice(16)
        noise = additive_noise(lat, [1.0], [(1, 0)])
        cfg = cfg_for(lat, dt=1e-2, T=0.1, alpha=0.0, noise=noise, store_fields=True)
        traj = solve_skeleton(0, zero_field(lat), cfg, zero_control(1, 1e-2, 10))
        rep = energy_report(traj, cfg)
        assert rep.sup_norm_alpha_sq == 0.0
        assert rep.dissipation_integral == 0.0
        assert rep.phi_integral > 0.0  # the constant-1 part still integrates

    def test_taylor_green_energy_balance(self):
        lat = make_lattice(32)
        xi = taylor_green(lat)
        cfg = cfg_for(lat, dt=1e-3, T=3.0, record_stride=100)
        traj = solve_nse(xi, cfg)
        energy = float(lat.norm_h(xi.coeffs)) ** 2
        assert 2.0 * traj.dissipation[-1] == pytest.approx(energy, rel=0.02)

    def test_uniform_in_alpha_boundedness(self):
        lat = make_lattice(16)
        xi = taylor_green(lat)
        noise = additive_noise(lat, [0.25], [(1, 0)])
        w = sample_wiener(1, 1e-3, 300, 31)
        sups = []
        for alpha in (0.4, 0.2, 0.1, 0.05):
            cfg = cfg_for(lat, dt=1e-3, T=0.3, alpha=alpha, noise=noise)
            traj = solve_lans(xi, cfg, w)
            sups.append(float(np.max(traj.norm_alpha)))
        assert max(sups) / min(sups) < 1.5

    def test_growth_flag_quiet_on_tame_run(self):
        lat = make_lattice(16)
        xi = taylor_green(lat)
        cfg = cfg_for(lat, dt=1e-3, T=0.2, store_fields=True)
        traj = solve_nse(xi, cfg)
        rep = energy_report(traj, cfg, u_ref=traj, delta=1)
        assert not rep.flagged
