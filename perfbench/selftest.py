"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They take about a minute: the traced-run test starts every workload twice.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Layers each workload must exercise (nonzero) and must not (zero).
EXERCISED = {
    "mc-ou": (["spectral.bilinear_btilde.calls", "noise.sample.draws", "noise.apply.calls",
               "deviations.mc.chunks"],
              ["spectral.bilinear_b.calls", "dynamics.solve.calls", "deviations.rate.fevals",
               "runio.write.calls", "cli.setup.self_s"]),
    "mc-fluct": (["spectral.bilinear_btilde.calls", "spectral.bilinear_b.calls",
                  "noise.sample.draws", "deviations.mc.chunks"],
                 ["dynamics.solve.calls", "deviations.rate.fevals", "runio.write.calls"]),
    "mdp-n32": (["dynamics.solve.calls", "dynamics.snapshot_mb_computed", "spectral.norms.calls",
                 "runio.write.calls", "runio.write.bytes", "cli.setup.self_s",
                 "deviations.probe.self_s"],
                ["deviations.mc.chunks", "deviations.rate.fevals", "spectral.adjoint_b_first.calls"]),
    "rate-n16": (["spectral.adjoint_b_first.calls", "deviations.rate.fevals",
                  "deviations.rate.nit", "deviations.rate.cg_iterations",
                  "deviations.optimizer.self_s"],
                 ["noise.sample.draws", "deviations.mc.chunks", "runio.write.calls"]),
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_follows_the_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(spec)) <= 64 * 1024


def test_self_times_partition_the_op():
    class Layer:
        def outer(self):
            time.sleep(0.01)
            self.inner()
            self.outer_again()
            return 1

        def outer_again(self):  # same layer as outer: folded into its span
            time.sleep(0.005)

        def inner(self):
            time.sleep(0.02)

    tracer = Tracer()
    tracer.patch(Layer, "outer", "a")
    tracer.patch(Layer, "outer_again", "a")
    tracer.patch(Layer, "inner", "b", lambda counts, *rest: counts.update(hit=1))
    try:
        result, wall, stats = tracer.run_op(0, Layer().outer)
        assert Layer().outer() == 1  # outside an op the wrappers only pass through
    finally:
        tracer.unpatch()
    assert result == 1
    assert stats["calls"] == {"a": 1, "b": 1, ROOT_SPAN: 1}
    assert stats["counts"] == {"hit": 1}
    assert sum(stats["self_s"].values()) == pytest.approx(wall, rel=1e-9)
    assert stats["self_s"]["b"] >= 0.02 and stats["self_s"]["a"] >= 0.015
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def traced_record(workload, label):
    out = os.path.join(SCRATCH, f"{workload}-{label}")
    shutil.rmtree(out, ignore_errors=True)
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "2", "--trace", "1",
                     "--results-dir", out)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    (name,) = os.listdir(out)
    with open(os.path.join(out, name)) as fh:
        return last, json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    spec = load_spec()
    (last_a, rec_a), (last_b, rec_b) = traced_record(workload, "a"), traced_record(workload, "b")
    assert last_a["correct"] and last_a["failed"] == 0
    assert set(last_a["metrics"]) == {m["name"] for m in spec["per_layer"]}
    # same seed, same op index: the same calls and computed work
    ops_a = {o["op"]: o for o in rec_a["trace_ops"]}
    common = [o for o in rec_b["trace_ops"] if o["op"] in ops_a]
    assert common
    for o in common:
        assert o["calls"] == ops_a[o["op"]]["calls"]
        assert o["counts"] == ops_a[o["op"]]["counts"]
    metrics = {k: v["value"] for k, v in last_a["metrics"].items()}
    nonzero, zero = EXERCISED[workload]
    assert all(metrics[k] > 0 for k in nonzero), {k: metrics[k] for k in nonzero}
    assert all(metrics[k] == 0 for k in zero), {k: metrics[k] for k in zero}
    # layer self times account for the op: only the op's own glue is left
    assert 0 <= metrics["trace.unattributed_s"] <= 0.01 * metrics["trace.op_s_mean"]


def test_refuses_to_run_without_the_program():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench("--workload", "mc-ou", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_marks_each_workload_and_metric(capsys):
    def record(workload, op_s, rss):
        return {"workload": workload, "trace": 0,
                "metrics": {"op_s_p50": {"value": op_s, "unit": "s"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}},
                "extra": {}}

    sides = {
        "a": [record("mc-ou", 1.0 + d, 50.0) for d in (0.0, 0.01, 0.02)]
        + [record("rate-n16", t, 80.0) for t in (1.0, 2.0, 3.0)],
        "b": [record("mc-ou", 2.0 + d, 50.0) for d in (0.0, 0.01, 0.02)]
        + [record("rate-n16", t, 80.0) for t in (1.0, 2.0, 3.0)],
    }
    for side, records in sides.items():
        path = os.path.join(SCRATCH, f"compare-{side}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        for i, rec in enumerate(records):
            with open(os.path.join(path, f"{i}.json"), "w") as fh:
                json.dump(rec, fh)
    run.compare(os.path.join(SCRATCH, "compare-a"), os.path.join(SCRATCH, "compare-b"),
                load_spec())
    rows = {tuple(line.split()[:2]): line for line in capsys.readouterr().out.splitlines()}
    assert rows[("mc-ou", "op_s_p50")].endswith("worse")
    assert rows[("mc-ou", "peak_rss_mb")].endswith("within bound")
    assert rows[("rate-n16", "op_s_p50")].endswith("unresolved")
