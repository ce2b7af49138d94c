"""The benchmark record: per-layer figures over the first traced ops, and the
record of a change that claims no gain."""

import argparse
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
import bench_record  # noqa: E402
from bench_record import first_ops  # noqa: E402


def test_first_ops_counts_and_self_times(tmp_path):
    # op 7: root [0, 10] with a child "a" [1, 5] that has a child "b" [2, 3];
    # op 8: root [10, 14] with one "b" [11, 12]; op 9 lies beyond count=2
    path = tmp_path / "spans.npz"
    np.savez(path, layers=np.array(["op", "a", "b"]),
             op=np.array([7, 7, 7, 8, 8, 9], np.int32),
             parent=np.array([-1, 0, 1, -1, 3, -1], np.int32),
             layer=np.array([0, 1, 2, 0, 2, 0], np.int32),
             start=np.array([0.0, 1.0, 2.0, 10.0, 11.0, 20.0]),
             end=np.array([10.0, 5.0, 3.0, 14.0, 12.0, 90.0]))
    got = first_ops(str(path), count=2)
    assert got["ops"] == [7, 8]
    assert got["layers"] == {
        "op": {"calls": 1.0, "self_s": pytest.approx((6.0 + 3.0) / 2)},
        "a": {"calls": 0.5, "self_s": pytest.approx(3.0 / 2)},
        "b": {"calls": 1.0, "self_s": pytest.approx((1.0 + 1.0) / 2)},
    }


def fake_run(workload, seed, op_s, attempted=10, failed=0):
    metrics = {name: {"value": value, "unit": "x"}
               for name, value in (("op_s_p50", op_s), ("setup_s", 0.5), ("peak_rss_mb", 40.0))}
    return {"workload": workload, "seed": seed, "trace": 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "env": {"nproc": 2}}


def test_record_without_a_claim_summarizes_every_workload_and_traces_nothing(
        tmp_path, monkeypatch):
    runs = tmp_path / "runs"
    order = []
    for workload, seeds in (("w1", (1, 2, 3)), ("w2", (4, 5))):
        for i, seed in enumerate(seeds):
            order.append({"workload": workload, "seed": seed,
                          "first": "parent" if i % 2 == 0 else "change"})
            for side, op_s, failed in (("parent", 1.0 + seed, 0), ("change", 2.0 * seed, seed == 5)):
                os.makedirs(runs / side, exist_ok=True)
                (runs / side / f"{workload}-{seed}.json").write_text(
                    json.dumps(fake_run(workload, seed, op_s, failed=int(failed))))
    (runs / "pairs.jsonl").write_text("".join(json.dumps(p) + "\n" for p in order))
    monkeypatch.setattr(bench_record, "run_bench", lambda *a: pytest.fail("ran a benchmark"))
    out = tmp_path / "BENCH.json"
    bench_record.record(argparse.Namespace(parent="p", change="c", runs=str(runs), claim=None,
                                           traced_seed=None, out=str(out)))
    got = json.loads(out.read_text())
    assert got["claim"] is None and got["per_layer_first_traced_ops"] == {}
    assert "traced_command" not in got["settings"]
    assert sorted(got["workloads"]) == ["w1", "w2"]
    w1, w2 = got["workloads"]["w1"], got["workloads"]["w2"]
    assert w1["seeds"] == [1, 2, 3]
    assert w1["parent"]["op_s_p50"]["median"] == 3.0
    assert w1["change"]["op_s_p50"]["median"] == 4.0
    assert w1["change"]["setup_s"]["median"] == 0.5
    assert w1["parent"]["fail_frac"] == w1["change"]["fail_frac"] == 0.0
    assert w2["change"]["fail_frac"] == 1 / 20
    assert got["env"] == {"nproc": 2}
