"""Config validation, writers, the CLI subcommands and their exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lans2d
from lans2d import (
    Control,
    dense_nse,
    identity_report,
    make_lattice,
    random_field,
    solve_nse,
    taylor_green,
)
from lans2d import cli
from lans2d.cli import FLAGS, SUBCOMMANDS, main
from lans2d.config import _KEYS, ConfigError, RunConfig, parse_config_text, preset
from lans2d.runio import (
    load_control,
    load_field,
    read_csv,
    read_ndjson,
    save_control,
    save_field,
    save_trajectory,
    write_csv,
    write_ndjson,
)


PRESETS = ("taylor-green", "single-shear", "ou-toy", "unified-default")
# a value for every optional key (default None) of RunConfig, under the noise
# variant that reads the probe modes and offsets
EVERY_OPTIONAL_KEY = {
    "noise.variant": "projection-multiplicative", "noise.phases": "0.5, 0, 1, 2",
    "noise.probe_modes": "1 0, 0 1, 1 1, 1 -1", "noise.offsets": "0.25, 0, 0, 0",
    "control.path": "runs/d#1/h.csv", "control.constant": "0.4, 0, 0, 0",
    "experiment.threshold": "2.5", "experiment.level": "0.4",
    "experiment.observable_mode": "0 1",
}


class TestConfigParsing:
    @pytest.mark.parametrize("name, settings", [
        *(pytest.param(name, {}, id=name) for name in PRESETS),
        pytest.param("unified-default", EVERY_OPTIONAL_KEY, id="every-optional-key"),
    ])
    def test_round_trip(self, name, settings):
        cfg = preset(name)
        for key, text in settings.items():
            cfg.set(key, text, "here")
        if settings:
            assert None not in vars(cfg).values()
        doc = cfg.to_document()
        back = parse_config_text(doc)
        assert back == cfg
        assert back.to_document() == doc

    def test_unknown_section_line_number(self):
        with pytest.raises(ConfigError, match=":3: unknown section"):
            parse_config_text("[lattice]\nn = 16\n[banana]\n")

    def test_unknown_key_line_number(self):
        with pytest.raises(ConfigError, match=":2: unknown key 'm'"):
            parse_config_text("[lattice]\nm = 16\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=":2: bad value"):
            parse_config_text("[lattice]\nn = sixteen\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("n = 16\n")

    def test_presets_build(self):
        for name in PRESETS:
            cfg = preset(name)
            lat = cfg.build_lattice()
            xi = cfg.build_initial(lat)
            xi.validate()
            cfg.build_solver_config(lat)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("warp-drive")

    @pytest.mark.parametrize("key, text, attr, value", [
        ("experiment.level", "", "level", None),
        ("experiment.level", " None ", "level", None),
        ("control.path", "none", "control_path", None),
        ("noise.variant", "none", "noise_variant", None),
        ("lattice.n", " 16 ", "n", 16),
        ("experiment.alphas", "0.1, 0.05", "alphas", (0.1, 0.05)),
    ])
    def test_set_parses_and_unsets(self, key, text, attr, value):
        cfg = RunConfig(level=0.3, control_path="h.csv")
        cfg.set(key, text, "here")
        assert getattr(cfg, attr) == value

    @pytest.mark.parametrize("key, text, message", [
        ("time.dt", "none", "here: time.dt needs a value"),
        ("initial.mode", "", "here: initial.mode needs a value"),
        ("lattice.n", "16.5", "here: bad value for 'lattice.n'"),
        ("lattice.m", "16", "here: unknown key 'm' in \\[lattice\\]"),
        ("banana.n", "16", "here: unknown key 'n' in \\[banana\\]"),
        ("control.path", "d #1/h.csv", "here: control.path cannot hold '#'"),
        ("control.path", "#1/h.csv", "here: control.path cannot hold '#'"),
    ])
    def test_set_refuses_naming_the_source(self, key, text, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig().set(key, text, "here")

    def test_validation_catches_bad_delta(self):
        cfg = preset("taylor-green")
        cfg.delta = 2
        with pytest.raises(ConfigError):
            cfg.validate()


class TestWriters:
    def test_csv_round_trip(self, tmp_path):
        rows = [{"a": 1.0 / 3.0, "b": -2.5e-17, "c": 7}, {"a": 1.0, "b": 0.0, "c": -1}]
        p = write_csv(tmp_path / "x.csv", rows, units="a,b: dimensionless")
        back = read_csv(p)
        assert back[0]["a"] == rows[0]["a"]  # 17 significant digits round-trip
        assert back[1]["c"] == -1

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "empty.csv", [], columns=["x", "y"])
        text = p.read_text().splitlines()
        assert text[-1] == "x,y"
        assert read_csv(p) == []

    def test_ndjson_lines_parse_independently(self, tmp_path):
        rows = [{"alpha": 0.1, "v": [1, 2]}, {"alpha": 0.2, "v": [3]}]
        p = write_ndjson(tmp_path / "x.ndjson", rows)
        for line in p.read_text().splitlines():
            json.loads(line)
        assert read_ndjson(p) == rows

    def test_a_missing_number_is_null_in_ndjson_and_nan_in_csv(self, tmp_path):
        rows = [{"rate_estimate": None, "hits": 0}]
        assert (write_ndjson(tmp_path / "x.ndjson", rows).read_text()
                == '{"rate_estimate": null, "hits": 0}\n')
        assert read_ndjson(tmp_path / "x.ndjson") == rows
        assert math.isnan(read_csv(write_csv(tmp_path / "x.csv", rows))[0]["rate_estimate"])

    def test_field_table_round_trip(self, tmp_path, lat16, rng):
        u = random_field(lat16, rng)
        p = save_field(u, tmp_path / "field.tsv")
        v = load_field(p)
        assert np.abs(v.coeffs - u.coeffs).max() == 0.0
        with pytest.raises(ValueError, match="n=16"):
            load_field(p, make_lattice(32))

    def test_field_table_lists_the_whole_band(self, tmp_path, lat16, rng):
        # every band wavevector once, k2 < 0 rows the conjugates of their mirrors
        u = random_field(lat16, rng)
        rows = save_field(u, tmp_path / "field.tsv").read_text().splitlines()[2:]
        table = {(int(r.split()[0]), int(r.split()[1])): [float(t) for t in r.split()[2:]]
                 for r in rows}
        assert len(rows) == len(table) == 11 * 11
        for (k1, k2), (a, b, c, d) in table.items():
            assert max(abs(k1), abs(k2)) <= 5
            assert [a, -b, c, -d] == table[(-k1, -k2)]

    @pytest.mark.parametrize("row, message", [
        ("6 0 1 0 0 0", r"k=\(6, 0\) lies outside the dealiased band"),
        ("-1 -9 0 0 0 0", r"k=\(-1, -9\) lies outside the dealiased band"),
        ("-1 -2 1.5 0 0 0", r"k=\(-1, -2\) is not the conjugate of its mirror k=\(1, 2\)"),
    ])
    def test_field_table_refuses_what_the_band_cannot_hold(self, tmp_path, lat16, rng, row,
                                                           message):
        # the row replaces the table's row of its wavevector, or is appended
        p = save_field(random_field(lat16, rng), tmp_path / "field.tsv")
        rows = [r for r in p.read_text().splitlines() if r.split()[:2] != row.split()[:2]]
        p.write_text("\n".join(rows + [row]) + "\n")
        with pytest.raises(ValueError, match=message):
            load_field(p)

    def test_control_round_trip(self, tmp_path, rng):
        h = Control(2e-3, rng.standard_normal((40, 3)))
        p = save_control(h, tmp_path / "h.csv")
        back = load_control(p)
        assert back.dt == h.dt
        assert np.array_equal(back.values, h.values)

    def test_trajectory_round_trip(self, tmp_path):
        lat = make_lattice(16)
        traj = solve_nse(taylor_green(lat), __import__("lans2d").SolverConfig(
            lattice=lat, dt=1e-2, t_final=0.1))
        p = save_trajectory(traj, tmp_path / "traj.csv")
        rows = read_csv(p)
        assert [r["time"] for r in rows] == list(traj.times)
        assert [r["norm_h"] for r in rows] == list(traj.norm_h)


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    return main(args + ["--out-dir", str(out)]), out


class TestCli:
    def test_simulate_nse_taylor_green_regression(self, tmp_path):
        code, out = run_cli(
            ["simulate-nse", "--preset", "taylor-green", "--n", "32"], tmp_path, "tg"
        )
        assert code == 0
        rows = read_csv(out / "trajectory.csv")
        amp0 = rows[0]["norm_h"]
        for r in rows:
            assert r["norm_h"] == pytest.approx(amp0 * math.exp(-2 * r["time"]), rel=0.01)

    def test_determinism_byte_identical(self, tmp_path):
        argsets = [
            ["simulate-lans", "--preset", "unified-default", "--n", "16",
             "--dt", "0.002", "--t-final", "0.1", "--seed", "77"],
            ["mc-tails", "--preset", "ou-toy", "--alphas", "0.2",
             "--set", "experiment.samples=200", "--seed", "3"],
        ]
        for i, args in enumerate(argsets):
            c1, o1 = run_cli(list(args), tmp_path, f"a{i}")
            c2, o2 = run_cli(list(args), tmp_path, f"b{i}")
            assert c1 == 0 and c2 == 0
            data1 = sorted(p.name for p in o1.iterdir() if p.name != "resolved_config.txt")
            for name in data1:
                assert (o1 / name).read_bytes() == (o2 / name).read_bytes(), name

    def test_verify_identities(self, tmp_path):
        code, out = run_cli(
            ["verify-identities", "--n", "16", "--set", "experiment.trials=20",
             "--alpha", "0.3"], tmp_path, "ids"
        )
        assert code == 0
        rows = read_csv(out / "identities.csv")
        assert all(r["ok"] == 1.0 for r in rows if not r["check"].startswith("estimate"))

    def test_identity_row_names_the_runs_alpha(self, tmp_path):
        code, out = run_cli(["verify-identities", "--n", "8", "--alpha", "0.05",
                             "--set", "experiment.trials=5"], tmp_path, "ids")
        assert code == 0
        values = {r["check"]: r["value"] for r in read_csv(out / "identities.csv")}
        name = "cancel_btilde_alpha(alpha=0.05)"
        report = identity_report(make_lattice(8), 5, RunConfig().seed, alpha=0.05)
        assert values[name] == report[name]

    def test_mdp_check_memory_stays_bounded(self, tmp_path):
        # the limit flow's record, its fields and drifts (two records); the
        # pair march keeps only its current state and per-step norms (traced
        # peak 2.83 records, where three runs' records kept 5.06)
        args = ["mdp-check", "--preset", "unified-default", "--n", "16", "--alphas", "0.1",
                "--t-final", "0.2"]
        assert run_cli(args, tmp_path, "warm")[0] == 0
        tracemalloc.start()
        try:
            assert run_cli(args, tmp_path, "traced")[0] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = (round(0.2 / preset("unified-default").dt) + 1) * np.zeros(
            make_lattice(16).shape, complex).nbytes
        assert peak <= 3.2 * record

    def test_simulate_nse_builds_no_noise(self, tmp_path):
        # unified-default's noise mode (2, -1) lies outside n = 4's band; the
        # limit flow reads no noise, so the run goes as it does without one
        args = ["simulate-nse", "--preset", "unified-default", "--n", "4"]
        code, out = run_cli(args, tmp_path, "default")
        assert code == 0
        code, bare = run_cli(args + ["--set", "noise.variant=none"], tmp_path, "none")
        assert code == 0
        assert (out / "trajectory.csv").read_bytes() == (bare / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("command, extra, data", [
        ("mdp-check", [], "mdp_check.csv"),
        ("mc-tails", ["--delta", "1", "--set", "experiment.samples=40",
                      "--set", "experiment.level=0.05", "--workers", "1"], "tails.csv"),
    ])
    def test_one_limit_flow_serves_every_alpha(self, tmp_path, monkeypatch, command, extra,
                                               data):
        calls = []

        def counted(xi, cfg):
            calls.append(cfg.alpha)
            return dense_nse(xi, cfg)

        # cli's reference, and mc_tail's own when it is given none
        monkeypatch.setattr(cli, "dense_nse", counted)
        monkeypatch.setattr(lans2d.deviations, "dense_nse", counted)
        args = [command, "--preset", "unified-default", "--n", "8", "--dt", "0.005",
                "--t-final", "0.05", *extra]
        code, out = run_cli(args + ["--alphas", "0.2,0.1"], tmp_path, "both")
        assert code == 0 and len(calls) == 1
        # each alpha's rows as a run that builds its reference at that alpha writes them
        rows = []
        for alpha in ("0.2", "0.1"):
            code, one = run_cli(args + ["--alpha", alpha, "--alphas", alpha], tmp_path, alpha)
            assert code == 0
            rows += (one / data).read_text().splitlines()[1:]
        assert (out / data).read_text().splitlines()[1:] == rows

    def test_bad_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[lattice]\nn = 7\n")  # odd lattice rejected downstream
        code = main(["simulate-nse", "--config", str(bad), "--out-dir", str(tmp_path / "x")])
        assert code == 1

    def test_zero_workers_exits_1(self, tmp_path):
        code = main(["mc-tails", "--preset", "ou-toy", "--alphas", "0.2", "--workers", "0",
                     "--set", "experiment.samples=20", "--out-dir", str(tmp_path / "w")])
        assert code == 1

    def test_unknown_key_exits_1(self, tmp_path):
        bad = tmp_path / "bad2.cfg"
        bad.write_text("[lattice]\nnn = 8\n")
        code = main(["simulate-nse", "--config", str(bad), "--out-dir", str(tmp_path / "y")])
        assert code == 1

    def test_blowup_exits_2_with_last_good(self, tmp_path):
        code, out = run_cli(
            ["simulate-nse", "--preset", "unified-default", "--n", "16",
             "--dt", "0.5", "--t-final", "5",
             "--set", "initial.amplitude=10000", "--set", "time.record_stride=1"],
            tmp_path, "blow",
        )
        assert code == 2
        assert (out / "last_good.csv").exists()

    def test_overflowing_noise_exits_2(self, tmp_path):
        # finite states whose H-norm overflows are a numeric abort, not a result
        with np.errstate(over="ignore"):
            code, out = run_cli(
                ["mc-tails", "--preset", "ou-toy", "--alphas", "0.1",
                 "--set", "noise.sigma=1e300", "--set", "experiment.samples=50"],
                tmp_path, "overflow",
            )
        assert code == 2
        assert not (out / "tails.csv").exists()

    def test_skeleton_and_rate(self, tmp_path):
        code, out = run_cli(
            ["skeleton", "--preset", "unified-default", "--n", "8",
             "--dt", "0.005", "--t-final", "0.1"], tmp_path, "skel"
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()
        code, out = run_cli(
            ["rate", "--preset", "ou-toy", "--delta", "1", "--level", "0.3",
             "--dt", "0.005", "--t-final", "0.2"], tmp_path, "rate"
        )
        assert code == 0
        row = read_csv(out / "rate.csv")[0]
        assert row["cost"] > 0 and row["converged"] == 1.0

    def test_mdp_check_and_probes(self, tmp_path):
        code, out = run_cli(
            ["mdp-check", "--preset", "unified-default", "--n", "8",
             "--dt", "0.005", "--t-final", "0.05", "--alphas", "0.2"],
            tmp_path, "mdp",
        )
        assert code == 0
        rows = read_csv(out / "mdp_check.csv")
        assert rows[0]["max_gap"] <= 1e-8
        code, out = run_cli(
            ["weak-probe", "--preset", "unified-default", "--n", "8",
             "--dt", "0.005", "--t-final", "0.2", "--indices", "2,8"],
            tmp_path, "probe",
        )
        assert code == 0
        rows = read_csv(out / "weak_probe.csv")
        assert rows[0]["e"] > rows[1]["e"]
        code, out = run_cli(
            ["converge", "--preset", "unified-default", "--n", "8",
             "--dt", "0.005", "--t-final", "0.1", "--alphas", "0.4,0.1",
             "--set", "experiment.samples=4",
             "--set", "noise.sigma=0.02, 0.02", "--set", "noise.modes=1 0, 0 1"],
            tmp_path, "conv",
        )
        assert code == 0
        rows = read_csv(out / "converge.csv")
        assert rows[0]["estimate"] > rows[1]["estimate"]

    def test_skeleton_with_control_file(self, tmp_path):
        rng = np.random.default_rng(1)
        h = Control(5e-3, rng.standard_normal((20, 4)))
        hpath = tmp_path / "h.csv"
        save_control(h, hpath)
        code, out = run_cli(
            ["skeleton", "--preset", "unified-default", "--n", "8",
             "--dt", "0.005", "--t-final", "0.1", "--control", str(hpath)],
            tmp_path, "skelctl",
        )
        assert code == 0
        summary = read_csv(out / "control_summary.csv")[0]
        assert summary["cost"] > 0

    def test_inline_constant_control(self, tmp_path):
        doc = preset("unified-default").to_document().replace(
            "constant = \n", "constant = 0.4, 0, 0, 0\n"
        )
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(doc)
        code, out = run_cli(
            ["skeleton", "--config", str(cfgfile), "--n", "8",
             "--dt", "0.005", "--t-final", "0.1"], tmp_path, "inline"
        )
        assert code == 0
        summary = read_csv(out / "control_summary.csv")[0]
        # cost of a constant control: 0.5 * T * |v|^2
        assert summary["cost"] == pytest.approx(0.5 * 0.1 * 0.4**2)

    def test_deviation_outputs_dual_format(self, tmp_path):
        code, out = run_cli(
            ["mc-tails", "--preset", "ou-toy", "--alphas", "0.2",
             "--set", "experiment.samples=100"], tmp_path, "dual"
        )
        assert code == 0
        csv_rows = read_csv(out / "tails.csv")
        nd_rows = read_ndjson(out / "tails.ndjson")
        assert len(csv_rows) == len(nd_rows) == 1
        assert csv_rows[0]["master_seed"] == nd_rows[0]["master_seed"]

    def test_resolved_config_written(self, tmp_path):
        code, out = run_cli(
            ["simulate-nse", "--preset", "taylor-green", "--n", "16"], tmp_path, "echo"
        )
        assert code == 0
        text = (out / "resolved_config.txt").read_text()
        assert text.startswith("# written: ")
        # the echo reparses to the same resolved document
        cfg = parse_config_text("\n".join(text.splitlines()[1:]))
        assert cfg.n == 16


# a value for each shortcut flag that differs from unified-default's
FLAG_VALUES = {"--seed": "77", "--n": "8", "--alpha": "0.3", "--delta": "1", "--dt": "0.002",
               "--t-final": "0.2", "--trials": "7", "--samples": "9", "--alphas": "0.3,0.2",
               "--indices": "2,4", "--level": "0.4", "--control": "h.csv"}


# five steps at n = 8, so a run that is not refused stays cheap
TINY_RUN = ["--n", "8", "--t-final", "0.05", "--set", "time.dt=0.01"]


def echo_body(out):
    """``resolved_config.txt`` without its timestamp line."""
    text = (out / "resolved_config.txt").read_text()
    assert text.startswith("# written: ")
    return text.split("\n", 1)[1]


class TestSettings:
    """Documents, ``--set`` and the shortcut flags set a run the same way."""

    @pytest.mark.parametrize("flag, command", [
        (flag, command) for flag, (_, commands) in FLAGS.items()
        for command in commands or SUBCOMMANDS])
    def test_flag_writes_the_echo_of_its_set(self, tmp_path, monkeypatch, flag, command):
        monkeypatch.setitem(cli._DRIVERS, command, lambda cfg, args, out: 0)
        key, value = FLAGS[flag][0], FLAG_VALUES[flag]
        bodies = []
        for i, args in enumerate(([flag, value], ["--set", f"{key}={value}"], [])):
            assert main([command, *args, "--out-dir", str(tmp_path / str(i))]) == 0
            bodies.append(echo_body(tmp_path / str(i)))
        assert bodies[0] == bodies[1] != bodies[2]

    @pytest.mark.parametrize("args, flag", [
        (["mc-tails", "--n", "foo"], "--n"),
        (["mc-tails", "--alphas", "0.1,x"], "--alphas"),
        (["mc-tails", "--alphas", ","], "--alphas"),
        (["mc-tails", "--alphas", "0.1,,0.2"], "--alphas"),
        (["weak-probe", "--indices", "2,x"], "--indices"),
    ])
    def test_malformed_flag_exits_1_naming_it(self, tmp_path, capsys, args, flag):
        assert main(args + ["--out-dir", str(tmp_path / "x")]) == 1
        assert f"config error: {flag}: bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["mc-tails", "--bogus"],
        ["mc-tails", "--workers", "x"],
        ["simulate-nse", "--format", "xml"],
        ["converge", "--workers", "2"],
        ["mc-tails", "--format", "csv"],
        ["rate", "--alphas", "0.1"],
        ["mdp-check", "--samples", "5"],  # mdp-check draws no samples
        [],
    ])
    def test_usage_errors_exit_1(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        assert main(args) == 1
        assert "config error: lans2d" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["mc-tails", "converge", "mdp-check"])
    @pytest.mark.parametrize("alphas", ["0", "1.5", "0.1,0"])
    def test_alphas_outside_the_unit_interval_exit_1(self, tmp_path, capsys, command, alphas):
        code, out = run_cli([command, "--preset", "unified-default", "--alphas", alphas,
                             "--n", "8", "--t-final", "0.01"], tmp_path, "alphas")
        assert code == 1 and not out.exists()
        assert "config error: every experiment.alphas entry must lie in (0, 1]" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mc-tails", "converge"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_no_samples_exits_1(self, tmp_path, capsys, command, samples):
        code, _ = run_cli([command, "--preset", "ou-toy",
                           "--set", f"experiment.samples={samples}"], tmp_path, "samples")
        assert code == 1
        assert "config error: n_samples must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    def test_no_iterations_exits_1(self, tmp_path, capsys, iterations):
        code, out = run_cli(["rate", "--preset", "ou-toy",
                             "--set", f"experiment.max_iterations={iterations}"], tmp_path, "it")
        assert code == 1 and not (out / "optimal_control.csv").exists()
        assert "config error: max_iterations must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("args, key", [
        (["mc-tails", "--preset", "ou-toy", "--set", "experiment.level=nan"], "experiment.level"),
        (["mc-tails", "--preset", "ou-toy", "--set", "experiment.threshold=nan"],
         "experiment.threshold"),
        (["rate", "--preset", "ou-toy", "--delta", "0", "--set", "experiment.tolerance=nan"],
         "experiment.tolerance"),
        (["rate", "--delta", "1", "--set", "experiment.level=inf"], "experiment.level"),
        (["mc-tails", "--preset", "ou-toy", "--set", "noise.sigma=inf"], "noise.sigma"),
        (["mc-tails", "--set", "noise.sigma=0.25, -inf, 0.2, 0.2"], "noise.sigma"),
        (["simulate-nse", "--set", "initial.amplitude=nan"], "initial.amplitude"),
        (["simulate-nse", "--set", "model.viscosity=nan"], "model.viscosity"),
        (["simulate-nse", "--dt", "nan"], "time.dt"),
        (["converge", "--alphas", "0.1,1e999"], "experiment.alphas"),
    ])
    def test_a_float_that_is_not_finite_exits_1_naming_its_key(self, tmp_path, capsys, args,
                                                              key):
        code, out = run_cli(args[:1] + TINY_RUN + args[1:], tmp_path, "nonfinite")
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.count("config error:") == 1 and "Traceback" not in err
        assert f"bad value for {key!r}: not a finite number" in err

    @pytest.mark.parametrize("args, message", [
        (["rate", "--preset", "ou-toy", "--delta", "0", "--set", "experiment.beta_schedule=-1"],
         "beta_schedule must hold positive finite weights"),
        (["rate", "--preset", "ou-toy", "--delta", "0", "--set", "experiment.beta_schedule=0, 10"],
         "beta_schedule must hold positive finite weights"),
        (["weak-probe", "--indices", "0"], "oscillation indices must be at least 1"),
        (["weak-probe", "--indices", "2,-3"], "oscillation indices must be at least 1"),
        (["weak-probe", "--set", "experiment.basis_count=0"], "basis_count must be at least 1"),
    ])
    def test_a_setting_the_solver_refuses_exits_1(self, tmp_path, capsys, args, message):
        code, out = run_cli(args[:1] + TINY_RUN + args[1:], tmp_path, "refused")
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.count("config error:") == 1 and "Traceback" not in err
        assert f"config error: {message}" in err

    def test_a_refusal_keeps_a_directory_it_did_not_make(self, tmp_path):
        out = tmp_path / "kept"
        out.mkdir()
        code, _ = run_cli(["weak-probe"] + TINY_RUN + ["--indices", "0"], tmp_path, "kept")
        assert code == 1 and out.is_dir() and not any(out.iterdir())

    @pytest.mark.parametrize("key", ["initial.mode", "experiment.observable_mode"])
    def test_a_mode_key_takes_one_wavevector(self, tmp_path, capsys, key):
        code, out = run_cli(["rate", "--preset", "ou-toy", "--delta", "1",
                             "--set", f"{key}=1 0, 0 1"], tmp_path, "modes")
        assert code == 1 and not out.exists()
        assert f"config error: {key} takes one wavevector, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["time.dt=none", "initial.mode=none", "lattice.n="])
    def test_set_none_on_a_required_key_exits_1(self, tmp_path, override):
        code, out = run_cli(["simulate-nse", "--preset", "ou-toy", "--set", override],
                            tmp_path, "none")
        assert code == 1 and not out.exists()

    def test_document_dt_none_exits_1(self, tmp_path, capsys):
        doc = re.sub(r"^dt = .*$", "dt = none", preset("ou-toy").to_document(), flags=re.M)
        (tmp_path / "run.cfg").write_text(doc)
        code, _ = run_cli(["simulate-nse", "--config", str(tmp_path / "run.cfg")], tmp_path, "d")
        assert code == 1
        assert "run.cfg:5: time.dt needs a value" in capsys.readouterr().err

    def test_empty_set_unsets_the_level_as_a_document_does(self, tmp_path):
        doc = re.sub(r"^level = .*$", "level = ", preset("ou-toy").to_document(), flags=re.M)
        (tmp_path / "run.cfg").write_text(doc)
        code, by_doc = run_cli(["simulate-nse", "--config", str(tmp_path / "run.cfg")],
                               tmp_path, "doc")
        assert code == 0
        code, by_set = run_cli(["simulate-nse", "--preset", "ou-toy",
                                "--set", "experiment.level="], tmp_path, "set")
        assert code == 0
        assert echo_body(by_set) == echo_body(by_doc)
        assert parse_config_text(echo_body(by_set)).level is None

    @pytest.mark.parametrize("fmt, where", [
        pytest.param("csv", ".", id="csv"), pytest.param("ndjson", ".", id="ndjson"),
        pytest.param("csv", "d#1", id="hash-in-dir"),
    ])
    def test_control_file_reruns_from_its_echo(self, tmp_path, fmt, where):
        hpath = tmp_path / where / "h.csv"
        hpath.parent.mkdir(exist_ok=True)
        save_control(Control(5e-3, np.random.default_rng(2).standard_normal((20, 4))), hpath)
        code, first = run_cli(
            ["skeleton", "--preset", "unified-default", "--n", "8", "--dt", "0.005",
             "--t-final", "0.1", "--format", fmt, "--control", str(hpath)], tmp_path, "first")
        assert code == 0
        code, again = run_cli(["skeleton", "--config", str(first / "resolved_config.txt"),
                               "--format", fmt], tmp_path, "again")
        assert code == 0
        names = sorted(p.name for p in first.iterdir() if p.name != "resolved_config.txt")
        assert names == sorted(p.name for p in again.iterdir() if p.name != "resolved_config.txt")
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes(), name
        assert read_csv(again / "control_summary.csv")[0]["cost"] > 0

    def test_missing_control_file_exits_1(self, tmp_path, capsys):
        code, _ = run_cli(["skeleton", "--preset", "ou-toy", "--control",
                           str(tmp_path / "missing.csv")], tmp_path, "m")
        assert code == 1
        assert "config error: cannot read control.path" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["skeleton", "simulate-unified"])
    def test_a_control_file_from_another_dt_exits_1(self, tmp_path, capsys, command):
        # the control runs on the grid of its file's dt=, so a run at another
        # dt is refused; it used to take the run's dt, and half the energy
        hpath = save_control(Control(0.01, np.tile([2.0, 2.0, 0.0, 0.0], (10, 1))),
                             tmp_path / "h.csv")
        code, out = run_cli([command, "--preset", "unified-default", "--n", "8", "--dt", "0.005",
                             "--t-final", "0.05", "--set", f"control.path={hpath}"], tmp_path,
                            "grid")
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.count("config error:") == 1 and "Traceback" not in err
        assert "config error: control grid does not match the config" in err

    def test_readme_config_block_and_flag_table_match_the_code(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"^```ini\n(.*?)^```", readme, re.M | re.S).group(1)
        parse_config_text(block, "README.md")
        rows = re.findall(r"^\| `(--[\w-]+)` \| `([\w.]+)` \| (.+?) \|$", readme, re.M)
        table = [(flag, (key, None if commands == "all" else tuple(commands.split(", "))))
                 for flag, key, commands in rows]
        assert table == list(FLAGS.items())

    @pytest.mark.parametrize("args", [
        ["--preset", "taylor-green", "--n", "8", "--t-final", "0.01", "--dt", "0.005"],
        ["--preset", "unified-default", "--set", "noise.variant=none", *TINY_RUN],
    ])
    def test_skeleton_without_noise_exits_1(self, tmp_path, capsys, args):
        code, out = run_cli(["skeleton", *args], tmp_path, "no-noise")
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.count("config error:") == 1 and "Traceback" not in err
        assert "config error: this run needs a noise operator" in err

    @pytest.mark.parametrize("args", [["--t-final", "1e308"], ["--dt", "5e-324"]])
    def test_an_overflowing_step_count_exits_1(self, tmp_path, capsys, args):
        code, out = run_cli(["simulate-nse", "--preset", "ou-toy", *args], tmp_path, "overflow")
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.count("config error:") == 1 and "Traceback" not in err
        assert "is not a finite step count" in err

    @pytest.mark.parametrize("args", [["mc-tails", "--n", "foo"], ["mc-tails", "--bogus"]])
    def test_console_script_exits_1_without_a_traceback(self, tmp_path, args):
        src = os.path.dirname(os.path.dirname(lans2d.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "lans2d.cli", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert "config error:" in done.stderr and "Traceback" not in done.stderr


# a five-step run at n = 8 with at most 10 samples or trials, set by --set so
# that the drawn --set after it overrides any of its keys
EDGE_BASE = ["--preset", "unified-default", "--set", "lattice.n=8", "--set", "time.dt=0.01",
             "--set", "time.t_final=0.05", "--set", "experiment.samples=10",
             "--set", "experiment.trials=5"]
EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "", "none")
# one past each declared range, where 0 or -1 is not already past it
PAST_RANGE = {
    "lattice.n": "2", "model.alpha": "1.5", "model.delta": "2", "model.kappa": "0.5",
    "experiment.alphas": "1.5", "noise.offsets": "1.5", "noise.modes": "99 0",
    "noise.probe_modes": "99 0", "initial.mode": "99 0", "experiment.observable_mode": "99 0",
    "experiment.beta_schedule": "10, 1",
}


def run_edge_setting(command, delta, key, value):
    """Run ``command`` in process with one drawn setting on top of the tiny
    run; returns the exit code, stderr, the warnings it raised (which a
    console run prints to stderr), the echoed document (or None) and the
    non-finite cells of its data files (``non_finite_cells``)."""
    args = [command, *EDGE_BASE, "--set", f"model.delta={delta}", "--set", f"{key}={value}"]
    if command == "mc-tails":
        args += ["--workers", "1"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args + ["--out-dir", str(out)])
        echo = out / "resolved_config.txt"
        return (code, err.getvalue(), [str(w.message) for w in caught],
                echo.read_text() if echo.exists() else None, list(non_finite_cells(out)))


def non_finite_cells(out):
    """Every non-finite number in the data files of run directory ``out``,
    as ``(file, column, value)``; a missing number, written ``nan`` (in
    NDJSON ``null``), counts as nan."""
    for path in sorted(out.glob("*.csv")) + sorted(out.glob("*.ndjson")):
        for row in read_csv(path) if path.suffix == ".csv" else read_ndjson(path):
            for column, value in row.items():
                value = math.nan if value is None else value
                if isinstance(value, float) and not math.isfinite(value):
                    yield path.name, column, value


def documented_non_finite(file, column, value):
    """Whether a run that exits 0 may write this non-finite cell: a missing
    number (a rate estimate with no hits, a KKT residual the solve does not
    form), an infeasible rate's cost or an estimate row's bound."""
    if math.isnan(value):
        return column in ("rate_estimate", "kkt_residual")
    stem = file.partition(".")[0]
    return value == math.inf and (stem, column) in (("rate", "cost"), ("identities", "bound"))


def edge_values(key):
    return EDGE_VALUES + ((PAST_RANGE[key],) if key in PAST_RANGE else ())


EDGE_SETTINGS = st.sampled_from(sorted(_KEYS)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(edge_values(key))))


class TestEdgeSettings:
    """No setting, however far out of range, ends a run in a traceback: in
    process, an exception out of ``cli.main`` is what a console run prints.
    A run that exits 0 writes no non-finite number but the documented ones
    (``documented_non_finite``).  No run raises a warning, so a numeric abort
    writes its one line alone.  Over all 5 660 draws, run one by one,
    those are the only ones written: a missing rate estimate (126 runs) or
    KKT residual (60), an infeasible rate's cost (58) and the estimate
    rows' bound in ``identities.csv`` (172)."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(command=st.sampled_from(SUBCOMMANDS), delta=st.sampled_from((0, 1)),
           setting=EDGE_SETTINGS)
    @example(command="skeleton", delta=0, setting=("noise.variant", "none"))
    @example(command="simulate-nse", delta=0, setting=("time.t_final", "1e308"))
    @example(command="rate", delta=1, setting=("experiment.level", "1e308"))
    @example(command="simulate-nse", delta=0, setting=("initial.amplitude", "1e308"))
    def test_every_exit_is_documented(self, command, delta, setting):
        code, err, caught, echo, cells = run_edge_setting(command, delta, *setting)
        assert "Traceback" not in err
        assert caught == []
        lines = err.splitlines()
        if code == 1:
            assert sum(line.startswith("config error:") for line in lines) == 1, err
            assert echo is None
        elif code == 2:
            assert len(lines) == 1 and lines[0].startswith("numeric abort:"), err
        else:
            assert code == 0, err
            body = echo.split("\n", 1)[1]
            assert parse_config_text(body).to_document() == body
            assert [c for c in cells if not documented_non_finite(*c)] == [], cells


SCIPY_GUARD = """
import sys, tempfile
import numpy as np
from lans2d import (SolverConfig, SupNormEvent, additive_noise, dense_nse, make_lattice,
                    mc_tail, random_field, solve_unified)
from lans2d.cli import main
lat = make_lattice(8)
noise = additive_noise(lat, [0.1], [(1, 0)])
cfg = SolverConfig(lattice=lat, dt=5e-3, t_final=0.05, alpha=0.2, noise=noise, store_fields=True)
xi = random_field(lat, np.random.default_rng(0))
mc_tail(0, 0.2, SupNormEvent(1.0), 16, cfg, xi, master_seed=1)
solve_unified(1, xi, cfg, nse=dense_nse(xi, cfg))
with tempfile.TemporaryDirectory() as out:
    code = main(["mdp-check", "--preset", "unified-default", "--n", "8", "--dt", "0.005",
                 "--t-final", "0.05", "--alphas", "0.2", "--out-dir", out])
assert code == 0, code
print("loaded:", [m for m in ("scipy.fft", "scipy.special") if m in sys.modules])
"""


class TestImports:
    def test_solvers_and_cli_do_not_load_scipy_fft(self):
        # scipy.fft pulls in scipy.special (about +25 MB of resident memory);
        # only the L-BFGS rate path may import scipy
        src = os.path.dirname(os.path.dirname(lans2d.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", SCIPY_GUARD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "loaded: []"
