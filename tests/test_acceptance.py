"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The Monte Carlo criterion (7) runs 3 x 10^5 trajectories and
dominates the runtime (several minutes on one core).
"""

import math

import numpy as np

from lans2d import (
    Control,
    RateProblem,
    ScalingLaw,
    SolverConfig,
    TerminalObservable,
    TerminalObservableEvent,
    additive_noise,
    convergence_study,
    dense_nse,
    eigenmode_field,
    identity_report,
    make_lattice,
    mc_tail,
    random_field,
    rate_function,
    sample_wiener,
    skeleton_gradient,
    solve_lans,
    solve_nse,
    solve_skeleton,
    solve_unified,
    taylor_green,
    verify_operator_bounds,
    weak_continuity_probe,
    zero_control,
    zero_field,
)
from lans2d.cli import main as cli_main


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def implicit_decay(lam, dt):
    return 1.0 / (1.0 + dt * lam)


def discrete_gramian(lam, sigma, dt, steps):
    """Independent oracle: closed form of the scalar implicit-Euler recursion
    a_{m+1} = s (a_m + dt sigma h_m), derived by hand (geometric sum)."""
    s = implicit_decay(lam, dt)
    return sigma**2 * dt * s**2 * (1.0 - s ** (2 * steps)) / (1.0 - s**2)


def test_criterion_1_identity_suite():
    """n=32, 100 random triples: all bilinear identities at 1e-10 relative."""
    lat = make_lattice(32)
    worst = identity_report(lat, trials=100, seed=101)
    for name, resid in worst.items():
        assert resid <= 1e-10, f"{name}: {resid:.3e}"
    report(1, f"identity suite, worst residual {max(worst.values()):.3e} <= 1e-10 "
              f"(100 triples at n=32)")


def test_criterion_2_operator_bounds():
    """Damping maxima at exactly <=1 and <=1/2; smoothing-gap bound on 100 pairs."""
    lat = make_lattice(32)
    worst_gap = 0.0
    for alpha in (0.05, 0.3, 0.9):
        rep = verify_operator_bounds(lat, alpha, trials=100, seed=202)
        assert rep.max_smoother_damping <= 1.0
        assert rep.max_halfpower_damping <= 0.5
        assert rep.smoothing_gap_max_ratio <= 1.0
        worst_gap = max(worst_gap, rep.smoothing_gap_max_ratio)
    report(2, f"operator bounds at alpha in (0.05, 0.3, 0.9); worst gap ratio "
              f"{worst_gap:.3f} <= 1")


def test_criterion_3_exact_solution_regression():
    """Taylor-Green decays as exp(-2t) within 1% under both solvers."""
    lat = make_lattice(32)
    xi = taylor_green(lat)
    cfg = SolverConfig(lattice=lat, dt=1e-3, t_final=0.5, alpha=0.0, record_stride=50)
    nse = solve_nse(xi, cfg)
    worst = 0.0
    for t, nh in zip(nse.times, nse.norm_h):
        exact = math.exp(-2.0 * t) * nse.norm_h[0]
        worst = max(worst, abs(nh - exact) / exact)
    for alpha in (0.1, 0.9):
        cfg_a = SolverConfig(lattice=lat, dt=1e-3, t_final=0.5, alpha=alpha,
                             record_stride=50)
        lans = solve_lans(xi, cfg_a)
        for t, nh in zip(lans.times, lans.norm_h):
            exact = math.exp(-2.0 * t) * lans.norm_h[0]
            worst = max(worst, abs(nh - exact) / exact)
    assert worst <= 0.01
    report(3, f"Taylor-Green exp(-2t) regression, worst relative error "
              f"{worst:.2e} <= 1e-2 (T=0.5, dt=1e-3, n=32)")


def test_criterion_4_unified_system_algebra():
    """5 seeds x alpha in (0.4, 0.1): delta=0 matches the stochastic solver at
    1e-12 per record; delta=1 matches the rescaled difference at 1e-8."""
    lat = make_lattice(16)
    noise = additive_noise(lat, [0.3, 0.2], [(1, 0), (1, 1)])
    worst0 = worst1 = 0.0
    for seed in range(5):
        rng = np.random.default_rng((4000, seed))
        xi = random_field(lat, rng)
        for alpha in (0.4, 0.1):
            cfg = SolverConfig(lattice=lat, dt=1e-3, t_final=0.5, alpha=alpha,
                               noise=noise, record_stride=1, store_fields=True)
            w = sample_wiener(2, 1e-3, cfg.steps, (seed, int(alpha * 1000)))
            nse = dense_nse(xi, cfg)
            lans = solve_lans(xi, cfg, w)
            uni0 = solve_unified(0, xi, cfg, wiener=w)
            uni1 = solve_unified(1, xi, cfg, wiener=w, nse=nse)
            lam_delta = ScalingLaw(cfg.kappa, 1).lam_delta(alpha)
            for a, b in zip(lans.fields, uni0.fields):
                worst0 = max(worst0, float(lat.norm_h(a - b)))
            for ua, u, y in zip(lans.fields, nse.fields, uni1.fields):
                worst1 = max(worst1, float(lat.norm_h((ua - u) / lam_delta - y)))
    assert worst0 <= 1e-12
    assert worst1 <= 1e-8
    report(4, f"unified algebra over 5 seeds x 2 alphas: delta=0 gap "
              f"{worst0:.2e} <= 1e-12, delta=1 gap {worst1:.2e} <= 1e-8")


def test_criterion_5_skeleton_linearity():
    """delta=1 superposition/homogeneity at 1e-10 over 10 control pairs;
    delta=0 zero control reproduces the uncontrolled limit solver exactly."""
    lat = make_lattice(16)
    rng = np.random.default_rng(505)
    xi = random_field(lat, rng)
    noise = additive_noise(lat, [0.6, 0.4], [(1, 0), (0, 1)])
    cfg = SolverConfig(lattice=lat, dt=1e-3, t_final=0.2, alpha=0.0, noise=noise,
                       record_stride=1, store_fields=True)
    nse = dense_nse(xi, cfg)
    worst = 0.0
    for _ in range(10):
        h1 = Control(cfg.dt, rng.standard_normal((cfg.steps, 2)))
        h2 = Control(cfg.dt, rng.standard_normal((cfg.steps, 2)))
        y1 = solve_skeleton(1, xi, cfg, h1, nse=nse)
        y2 = solve_skeleton(1, xi, cfg, h2, nse=nse)
        y12 = solve_skeleton(1, xi, cfg, h1 + h2, nse=nse)
        y2x = solve_skeleton(1, xi, cfg, 2.0 * h1, nse=nse)
        for a, b, c in zip(y1.fields, y2.fields, y12.fields):
            worst = max(worst, float(lat.norm_h(a + b - c)))
        for a, b in zip(y1.fields, y2x.fields):
            worst = max(worst, float(lat.norm_h(2.0 * a - b)))
    assert worst <= 1e-10
    skel = solve_skeleton(0, xi, cfg, zero_control(2, cfg.dt, cfg.steps))
    ref = solve_nse(xi, cfg)
    zero_gap = max(
        float(np.abs(a - b).max()) for a, b in zip(skel.fields, ref.fields)
    )
    assert zero_gap == 0.0
    report(5, f"skeleton linearity worst gap {worst:.2e} <= 1e-10; zero control "
              f"reproduces the limit solver bit-exactly")


def test_criterion_6_rate_function_oracle():
    """5 randomized rank-1 LQ problems against the closed-form discrete
    Gramian at 1e-6; 20 adjoint-vs-central-difference probes at 1e-5."""
    modes = {1.0: (1, 0), 2.0: (1, 1), 4.0: (2, 0), 5.0: (2, 1), 8.0: (2, 2)}
    rng = np.random.default_rng(606)
    dt = 1e-3
    worst_rate = 0.0
    for _ in range(5):
        lam = float(rng.choice(list(modes)))
        sigma = float(rng.uniform(0.5, 2.0))
        T = round(float(rng.uniform(0.5, 2.0)), 3)
        b = float(rng.uniform(0.1, 1.0))
        lat = make_lattice(12)
        noise = additive_noise(lat, [sigma], [modes[lam]])
        cfg = SolverConfig(lattice=lat, dt=dt, t_final=T, alpha=0.1, noise=noise)
        res = rate_function(
            RateProblem(1, TerminalObservable(eigenmode_field(lat, modes[lam]), b),
                        tolerance=1e-8),
            cfg, zero_field(lat),
        )
        oracle = b * b / (2.0 * discrete_gramian(lam, sigma, dt, cfg.steps))
        gap = abs(res.cost - oracle) / oracle
        worst_rate = max(worst_rate, gap)
        assert gap <= 1e-6, (lam, sigma, T, b, gap)
        assert res.converged
    # gradient probes, both delta values, random controls and directions
    lat = make_lattice(8)
    rng2 = np.random.default_rng(607)
    xi = random_field(lat, rng2, norm=0.5)
    noise = additive_noise(lat, [0.8, 0.5], [(1, 0), (0, 1)])
    cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.25, alpha=0.0, noise=noise)
    nse = dense_nse(xi, cfg)
    g = eigenmode_field(lat, (1, 0))
    target = TerminalObservable(g, 0.4)
    eps = 1e-5
    worst_fd = 0.0
    for k in range(20):
        delta = k % 2
        h = Control(cfg.dt, rng2.standard_normal((cfg.steps, 2)))
        d = rng2.standard_normal((cfg.steps, 2))
        d /= np.linalg.norm(d)
        ref = nse if delta == 1 else None
        _, grad = skeleton_gradient(delta, h, target, cfg, xi, beta=50.0, nse=ref)
        vp, _ = skeleton_gradient(delta, Control(cfg.dt, h.values + eps * d),
                                  target, cfg, xi, beta=50.0, nse=ref)
        vm, _ = skeleton_gradient(delta, Control(cfg.dt, h.values - eps * d),
                                  target, cfg, xi, beta=50.0, nse=ref)
        fd = (vp - vm) / (2 * eps)
        an = float(np.sum(grad * d))
        rel = abs(an - fd) / max(abs(fd), 1e-30)
        worst_fd = max(worst_fd, rel)
        assert rel <= 1e-5
    report(6, f"LQ rate vs discrete-Gramian oracle, worst gap {worst_rate:.2e} "
              f"<= 1e-6; adjoint vs central differences worst {worst_fd:.2e} <= 1e-5")


def test_criterion_7_monte_carlo_ldp_trend():
    """OU toy, delta=0, 1e5 samples per alpha: the speed-normalized tail matches
    the exact Gaussian law of the discrete recursion within 25% at alpha=0.025
    and its gap to the LQ rate shrinks monotonically."""
    lam_mode, sigma, dt, T, b = 1.0, 1.0, 0.01, 1.0, 0.32
    lat = make_lattice(4)
    noise = additive_noise(lat, [sigma], [(1, 0)])
    cfg = SolverConfig(lattice=lat, dt=dt, t_final=T, alpha=0.1, noise=noise)
    xi = zero_field(lat)
    g = eigenmode_field(lat, (1, 0))
    steps = cfg.steps
    s = implicit_decay(lam_mode, dt)
    geom = dt * s**2 * (1.0 - s ** (2 * steps)) / (1.0 - s**2)
    rate_lq = b * b / (2.0 * sigma**2 * geom)
    gaps = []
    rows = []
    for alpha in (0.1, 0.05, 0.025):
        sigma_a = sigma / (1.0 + alpha**2 * lam_mode)  # smoothed gain
        var = alpha * sigma_a**2 * geom
        p_exact = 0.5 * math.erfc(b / math.sqrt(2.0 * var))
        est = mc_tail(0, alpha, TerminalObservableEvent(g, b), 100_000, cfg, xi,
                      master_seed=7070)
        r_hat = -alpha * math.log(est.p_hat)
        r_exact = -alpha * math.log(p_exact)
        rows.append((alpha, est.p_hat, p_exact, r_hat, r_exact))
        gaps.append(abs(r_hat - rate_lq))
    final_alpha, final_p, final_p_exact, final_r, final_r_exact = rows[-1]
    assert abs(final_r - final_r_exact) / final_r_exact <= 0.25
    assert gaps[0] > gaps[1] > gaps[2]
    lines = "; ".join(
        f"alpha={a:g}: p_hat={p:.3e} (exact {pe:.3e}), rate {r:.4f}"
        for a, p, pe, r, _ in rows
    )
    report(7, f"OU tail trend toward LQ rate {rate_lq:.4f} "
              f"(gaps {gaps[0]:.3f} > {gaps[1]:.3f} > {gaps[2]:.3f}); {lines}")


def test_criterion_8_convergence_in_probability():
    """n=16, 64 shared-seed samples: the smoothing-limit error estimate at
    least halves at each halving of alpha."""
    lat = make_lattice(16)
    rng = np.random.default_rng(31)
    xi = random_field(lat, rng, norm=1.5)
    noise = additive_noise(lat, [0.003, 0.003], [(1, 0), (0, 1)])
    cfg = SolverConfig(lattice=lat, dt=1e-3, t_final=0.5, alpha=0.1, noise=noise)
    rows = convergence_study((0.4, 0.2, 0.1, 0.05), 64, cfg, xi, master_seed=808)
    est = [r["estimate"] for r in rows]
    ratios = [a / b for a, b in zip(est, est[1:])]
    assert all(r >= 2.0 for r in ratios), ratios
    report(8, "limit-convergence estimate ratios per alpha halving: "
              + ", ".join(f"{r:.2f}" for r in ratios) + " (all >= 2)")


def test_criterion_9_weak_continuity_probe():
    """Oscillatory controls: trajectory response e(32) <= e(2)/4 and the weak
    metric d1(h_n, 0) strictly decreasing over n in (2, 4, 8, 16, 32)."""
    lat = make_lattice(32)
    rng = np.random.default_rng(909)
    xi = random_field(lat, rng, norm=0.8)
    noise = additive_noise(lat, [0.8], [(1, 0)])
    cfg = SolverConfig(lattice=lat, dt=1e-3, t_final=1.0, alpha=0.0, noise=noise)
    rows = weak_continuity_probe(0, (2, 4, 8, 16, 32), cfg, xi, amplitude=1.0)
    es = [r["e"] for r in rows]
    ds = [r["d1"] for r in rows]
    assert es[-1] <= es[0] / 4.0
    assert all(a > b for a, b in zip(ds, ds[1:]))
    report(9, f"weak probe: e(32)={es[-1]:.3e} <= e(2)/4={es[0]/4:.3e}; d1 strictly "
              "decreasing: " + " > ".join(f"{d:.2e}" for d in ds))


def test_criterion_10_determinism(tmp_path):
    """Any run repeated with the same seed is byte-identical in its data files."""
    argsets = [
        ["simulate-unified", "--preset", "unified-default", "--n", "16",
         "--dt", "0.002", "--t-final", "0.1", "--seed", "42", "--delta", "1"],
        ["mc-tails", "--preset", "ou-toy", "--alphas", "0.1,0.05",
         "--set", "experiment.samples=500", "--seed", "11"],
        ["weak-probe", "--preset", "unified-default", "--n", "8",
         "--dt", "0.005", "--t-final", "0.2", "--indices", "2,8", "--seed", "5"],
        ["weak-probe", "--preset", "unified-default", "--n", "8",
         "--dt", "0.005", "--t-final", "0.2", "--indices", "2,8", "--seed", "5",
         "--delta", "1", "--set", "noise.variant=projection-multiplicative"],
    ]
    checked = 0
    for i, args in enumerate(argsets):
        outs = []
        for run in ("first", "second"):
            out = tmp_path / f"{i}-{run}"
            code = cli_main(args + ["--out-dir", str(out)])
            assert code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        for name in names:
            if name == "resolved_config.txt":
                continue  # carries the timestamp header by design
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            checked += 1
    assert checked >= 3
    report(10, f"byte-identical reruns across {checked} data files from 3 subcommands")
