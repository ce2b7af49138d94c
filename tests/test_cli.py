"""Config validation, writers, the CLI subcommands and their exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lans2d
from lans2d import (
    Control,
    make_lattice,
    random_field,
    solve_nse,
    taylor_green,
)
from lans2d.cli import main
from lans2d.config import ConfigError, parse_config_text, preset
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


class TestConfigParsing:
    def test_round_trip(self):
        cfg = preset("taylor-green")
        doc = cfg.to_document()
        back = parse_config_text(doc)
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
        for name in ("taylor-green", "single-shear", "ou-toy", "unified-default"):
            cfg = preset(name)
            lat = cfg.build_lattice()
            xi = cfg.build_initial(lat)
            xi.validate()
            cfg.build_solver_config(lat)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("warp-drive")

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
