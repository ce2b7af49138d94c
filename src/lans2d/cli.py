"""Command-line front end.

Subcommands map one-to-one onto the library operations; every run writes its
fully resolved configuration (timestamp comment included) next to the data
files, which themselves are timestamp-free and byte-reproducible from the
seed.  A run's settings come from a document or preset, then every ``--set
SECTION.KEY=VALUE``, then the shortcut flags of ``FLAGS``, each of which is
another spelling of one ``--set``; all go through ``RunConfig.set``.  Exit
codes: 0 success, 1 configuration/validation or usage error, 2 numeric abort
(blowup or a violated identity in ``verify-identities``).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import math
import sys
from pathlib import Path

import numpy as np

from . import deviations as dev
from .config import ConfigError, RunConfig, load_config, preset
from .dynamics import (
    BlowupError,
    ScalingLaw,
    dense_nse,
    energy_report,
    solve_lans,
    solve_nse,
    solve_skeleton,
    solve_unified,
)
from .noise import Control, control_cost, trajectory_wiener, zero_control
from .runio import (
    load_control,
    save_control,
    save_field,
    save_trajectory,
    write_csv,
    write_ndjson,
    write_outputs,
)
from .spectral import IDENTITY_BOUND, calibrate_estimates, identity_report, verify_operator_bounds

# shortcut flag -> (the config key it sets, the subcommands that take it; None: all)
FLAGS = {
    "--seed": ("run.seed", None),
    "--n": ("lattice.n", None),
    "--alpha": ("model.alpha", None),
    "--delta": ("model.delta", None),
    "--dt": ("time.dt", None),
    "--t-final": ("time.t_final", None),
    "--trials": ("experiment.trials", ("verify-identities",)),
    "--samples": ("experiment.samples", ("mc-tails", "converge")),
    "--alphas": ("experiment.alphas", ("mc-tails", "converge", "mdp-check")),
    "--indices": ("experiment.indices", ("weak-probe",)),
    "--level": ("experiment.level", ("rate",)),
    "--control": ("control.path", ("skeleton",)),
}
# the subcommands that write their data as --format csv or ndjson
FORMATTED = ("verify-identities", "simulate-nse", "simulate-lans", "simulate-unified", "skeleton")


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser():
    top = _Parser(
        prog="lans2d",
        description="Pseudo-spectral toolkit for the smoothed 2D stochastic "
        "fluid model and its deviation principles.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="run document path")
        p.add_argument("--preset", type=str, default=None,
                       help="named preset: taylor-green, single-shear, ou-toy, unified-default")
        p.add_argument("--out-dir", type=str, default=None, help="output directory")
        if name == "mc-tails":
            p.add_argument("--workers", type=int, default=None,
                           help="Monte Carlo worker processes (default: the CPUs available)")
        if name in FORMATTED:
            p.add_argument("--format", choices=("csv", "ndjson"), default="csv")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override any config key (repeatable)")
        for flag, (key, commands) in FLAGS.items():
            if commands is None or name in commands:
                p.add_argument(flag, dest=key, metavar="VALUE", help=f"same as --set {key}=VALUE")
    return top


def _resolve_config(args) -> RunConfig:
    """The run document, then every ``--set``, then the shortcut flags."""
    cfg = load_config(args.config) if args.config else preset(args.preset or "unified-default")
    for pair in args.set:
        key, eq, text = pair.partition("=")
        if not eq or "." not in key:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {pair!r}")
        cfg.set(key.strip(), text, f"--set {pair!r}")
    for flag, (key, _) in FLAGS.items():
        text = getattr(args, key, None)
        if text is not None:
            cfg.set(key, text, flag)
    return cfg.validate()


def _out_dir(args):
    """The run's output directory, made if missing, and whether this run made it."""
    base = Path(args.out_dir) if args.out_dir else Path("runs") / args.command
    made = not base.exists()
    base.mkdir(parents=True, exist_ok=True)
    return base, made


def _echo_config(cfg: RunConfig, out: Path):
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    text = f"# written: {stamp}\n" + cfg.to_document()
    (out / "resolved_config.txt").write_text(text)


def _emit_results(rows, out: Path, name: str):
    """Deviation results: NDJSON records plus a flat CSV summary."""
    write_ndjson(out / f"{name}.ndjson", rows)
    write_csv(out / f"{name}.csv", rows)


def _setup(cfg: RunConfig):
    """The run's lattice, initial field and solver config."""
    lat = cfg.build_lattice()
    return lat, cfg.build_initial(lat), cfg.build_solver_config(lat)


def _wiener_for(cfg: RunConfig, solver_cfg):
    if solver_cfg.noise is None:
        return None
    return trajectory_wiener(solver_cfg.noise.rank, solver_cfg.dt, solver_cfg.steps, cfg.seed, 0)


def _level(cfg: RunConfig) -> float:
    """The observable's level; 0.3 when ``experiment.level`` is unset."""
    return 0.3 if cfg.level is None else cfg.level


def _control_from_config(cfg: RunConfig, scfg):
    """Control source precedence: control file, inline constant."""
    if cfg.control_path:
        try:
            return load_control(cfg.control_path, dt=cfg.dt)
        except OSError as exc:
            raise ConfigError(f"cannot read control.path: {exc}") from exc
    if cfg.control_constant is not None:
        vals = np.broadcast_to(
            np.asarray(cfg.control_constant, float), (scfg.steps, len(cfg.control_constant))
        ).copy()
        return Control(cfg.dt, vals)
    return None


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------


def _cmd_verify_identities(cfg: RunConfig, args, out: Path) -> int:
    lat = cfg.build_lattice()
    alpha = cfg.alpha if cfg.alpha > 0 else 0.3
    rows = [{"check": name, "value": resid, "bound": IDENTITY_BOUND, "ok": resid <= IDENTITY_BOUND}
            for name, resid in identity_report(lat, cfg.trials, cfg.seed, alpha).items()]
    rep = verify_operator_bounds(lat, alpha, trials=cfg.trials, seed=cfg.seed)
    for check, value, bound, ok in rep.checks():
        rows.append({"check": f"{check}(alpha={alpha:g})", "value": value, "bound": bound, "ok": ok})
    rows += [{"check": f"estimate_constant[{name}]", "value": c, "bound": math.inf, "ok": True}
             for name, c in calibrate_estimates(lat, trials=min(cfg.trials, 300),
                                                seed=cfg.seed).items()]
    write_outputs(rows, out / f"identities.{args.format}", args.format,
                  columns=["check", "value", "bound", "ok"], units="value: dimensionless residual/ratio")
    for r in rows:
        print(f"{'PASS' if r['ok'] else 'FAIL'} {r['check']}: {r['value']:.3e}")
    return 0 if all(r["ok"] for r in rows) else 2


def _cmd_simulate_nse(cfg: RunConfig, args, out: Path) -> int:
    # solve_nse reads no noise, so the run builds none
    _, xi, scfg = _setup(dataclasses.replace(cfg, noise_variant=None))
    traj = solve_nse(xi, scfg)
    save_trajectory(traj, out / f"trajectory.{args.format}", args.format)
    rep = energy_report(traj, scfg)
    write_csv(out / "energy.csv", [rep.__dict__], units="norms squared, viscous time units")
    save_field(xi, out / "initial_field.tsv")
    print(f"final |u| = {traj.norm_h[-1]:.6e} at t = {traj.times[-1]:g}")
    return 0


def _cmd_simulate_lans(cfg: RunConfig, args, out: Path) -> int:
    _, xi, scfg = _setup(cfg)
    wiener = _wiener_for(cfg, scfg)
    traj = solve_lans(xi, scfg, wiener)
    save_trajectory(traj, out / f"trajectory.{args.format}", args.format)
    print(f"final |u_alpha| = {traj.norm_h[-1]:.6e} (alpha={cfg.alpha:g})")
    return 0


def _cmd_simulate_unified(cfg: RunConfig, args, out: Path) -> int:
    _, xi, scfg = _setup(cfg)
    wiener = _wiener_for(cfg, scfg)
    nse = dense_nse(xi, scfg) if cfg.delta == 1 else None
    h = _control_from_config(cfg, scfg)
    traj = solve_unified(cfg.delta, xi, scfg, h=h, wiener=wiener, nse=nse)
    save_trajectory(traj, out / f"trajectory.{args.format}", args.format)
    print(f"delta={cfg.delta}: final |y| = {traj.norm_h[-1]:.6e}")
    return 0


def _cmd_skeleton(cfg: RunConfig, args, out: Path) -> int:
    _, xi, scfg = _setup(cfg)
    rank = scfg.require_noise().rank  # the zero control takes the noise's rank
    h = _control_from_config(cfg, scfg)
    if h is None:
        h = zero_control(rank, cfg.dt, scfg.steps)
    nse = dense_nse(xi, scfg) if cfg.delta == 1 else None
    traj = solve_skeleton(cfg.delta, xi, scfg, h, nse=nse)
    save_trajectory(traj, out / f"trajectory.{args.format}", args.format)
    write_csv(out / "control_summary.csv",
              [{"cost": control_cost(h), "steps": h.steps, "rank": h.rank}],
              units="cost: control energy")
    print(f"skeleton delta={cfg.delta}: final |y| = {traj.norm_h[-1]:.6e}, "
          f"control cost = {control_cost(h):.6e}")
    return 0


def _cmd_rate(cfg: RunConfig, args, out: Path) -> int:
    lat, xi, scfg = _setup(cfg)
    level = _level(cfg)
    problem = dev.RateProblem(
        cfg.delta, dev.TerminalObservable(cfg.observable_field(lat), level),
        beta_schedule=cfg.beta_schedule, tolerance=cfg.tolerance,
        max_iterations=cfg.max_iterations,
    )
    result = dev.rate_function(problem, scfg, xi)
    save_control(result.control, out / "optimal_control.csv")
    row = {
        "delta": cfg.delta, "level": level, "cost": result.cost,
        "residual": result.residual, "converged": result.converged,
        "kkt_residual": result.kkt_residual,
        "bound": result.details.get("bound", ""),
    }
    row["master_seed"] = cfg.seed
    _emit_results([row], out, "rate")
    print(f"rate(delta={cfg.delta}, level={level:g}) = {result.cost:.8g} "
          f"(residual {result.residual:.3e}, converged={result.converged})")
    return 0


def _build_event(cfg: RunConfig, lat):
    if cfg.threshold is not None:
        return dev.SupNormEvent(cfg.threshold)
    return dev.TerminalObservableEvent(cfg.observable_field(lat), _level(cfg))


def _cmd_mc_tails(cfg: RunConfig, args, out: Path) -> int:
    lat, xi, scfg = _setup(cfg)
    event = _build_event(cfg, lat)
    nse = dense_nse(xi, scfg) if cfg.delta == 1 else None  # the same for every alpha
    rows = []
    for alpha in cfg.alphas:
        est = dev.mc_tail(
            cfg.delta, alpha, event, cfg.samples, scfg, xi,
            master_seed=cfg.seed, workers=args.workers, nse=nse,
        )
        rows.append(dataclasses.asdict(est))
        rate = math.nan if est.rate_estimate is None else est.rate_estimate
        print(f"alpha={alpha:g}: p_hat={est.p_hat:.3e} rate={rate:.6g}")
    _emit_results(rows, out, "tails")
    return 0


def _cmd_converge(cfg: RunConfig, args, out: Path) -> int:
    _, xi, scfg = _setup(cfg)
    rows = dev.convergence_study(cfg.alphas, cfg.samples, scfg, xi, master_seed=cfg.seed)
    for r in rows:
        r["master_seed"] = cfg.seed
    _emit_results(rows, out, "converge")
    for r in rows:
        print(f"alpha={r['alpha']:g}: estimate={r['estimate']:.6e}")
    return 0


def _cmd_weak_probe(cfg: RunConfig, args, out: Path) -> int:
    _, xi, scfg = _setup(cfg)
    rows = dev.weak_continuity_probe(
        cfg.delta, cfg.indices, scfg, xi, amplitude=cfg.amplitude,
        basis_count=cfg.basis_count,
    )
    _emit_results(rows, out, "weak_probe")
    for r in rows:
        print(f"oscillation={r['oscillation']}: e={r['e']:.6e} d1={r['d1']:.6e}")
    return 0


def _cmd_mdp_check(cfg: RunConfig, args, out: Path) -> int:
    _, xi, scfg = _setup(cfg)
    wiener = _wiener_for(cfg, scfg)
    nse = dense_nse(xi, scfg)  # the limit flow: the same for every alpha
    rows = []
    for alpha in cfg.alphas:
        # the smoothed and the delta=1 run march together; only the norms
        # of the rescaled fluctuation and of its gap to the delta=1 state
        # are kept, step by step
        norms, gaps = dev.mdp_rescale(xi, dataclasses.replace(scfg, alpha=alpha), wiener, nse)
        gap = float(np.max(gaps))
        rows.append({
            "alpha": alpha,
            "max_gap": gap,
            "speed_mdp": ScalingLaw(cfg.kappa, 1).speed(alpha),
            "speed_ldp": ScalingLaw(cfg.kappa, 0).speed(alpha),
            "sup_norm_rescaled": float(np.max(norms)),
        })
        print(f"alpha={alpha:g}: max |rescaled - unified| = {gap:.3e}")
    for r in rows:
        r["master_seed"] = cfg.seed
    _emit_results(rows, out, "mdp_check")
    return 0


_DRIVERS = {
    "verify-identities": _cmd_verify_identities,
    "simulate-nse": _cmd_simulate_nse,
    "simulate-lans": _cmd_simulate_lans,
    "simulate-unified": _cmd_simulate_unified,
    "skeleton": _cmd_skeleton,
    "rate": _cmd_rate,
    "mc-tails": _cmd_mc_tails,
    "converge": _cmd_converge,
    "weak-probe": _cmd_weak_probe,
    "mdp-check": _cmd_mdp_check,
}
SUBCOMMANDS = tuple(_DRIVERS)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out, made = _out_dir(args)
    _echo_config(cfg, out)
    try:
        # march's rule turns a non-finite state into a numeric abort, so
        # numpy's warnings on the way to it would only repeat that one line
        with np.errstate(over="ignore", invalid="ignore"):
            return _DRIVERS[args.command](cfg, args, out)
    except BlowupError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        if exc.record is not None:
            save_trajectory(exc.record, out / "last_good.csv")
        return 2
    except ValueError as exc:
        # a refused setting leaves no run behind, as a parser refusal does
        print(f"config error: {exc}", file=sys.stderr)
        (out / "resolved_config.txt").unlink()
        if made and not any(out.iterdir()):
            out.rmdir()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
