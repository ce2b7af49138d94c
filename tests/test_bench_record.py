"""The benchmark record: per-layer figures over the first traced ops, the
record of a change that claims no gain, the verdict of each gated metric
against its bound, and whether a claim is met."""

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
import bench_record  # noqa: E402
from bench_record import first_ops, verdict  # noqa: E402

GATED = [{"name": "op_s_p50", "better": "lower", "bound": 0.25},
         {"name": "setup_s", "better": "lower", "bound": 0.25},
         {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]


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


def benchmark_tree(tmp_path):
    """A parent checkout holding only its ``BENCHMARK.json``."""
    tree = tmp_path / "parent"
    tree.mkdir()
    (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": GATED}))
    return str(tree)


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
    bench_record.record(argparse.Namespace(parent=benchmark_tree(tmp_path), change="c",
                                           runs=str(runs), claim=None, traced_seed=None,
                                           out=str(out)))
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
    # the worker's environment and the BLAS build, whose kernels round the
    # transforms' GEMMs
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert got["env"] == {"nproc": 2, "blas": {
        "name": blas["name"], "version": blas["version"],
        "openblas configuration": blas.get("openblas configuration")}}
    assert got["env"]["blas"]["name"] and got["env"]["blas"]["version"]
    # 3.0 -> 4.0 s, but the parent itself reads 2.0-4.0 s
    assert w1["verdicts"]["op_s_p50"]["verdict"] == "unresolved"
    assert w1["verdicts"]["setup_s"] == {"relative_change": 0.0, "bound": 0.25,
                                         "parent_relative_spread": 0.0, "verdict": "within"}
    assert w2["verdicts"]["fail_frac"] == "regressed" and w1["verdicts"]["fail_frac"] == "within"


LOWER = {"better": "lower", "bound": 0.25}


@pytest.mark.parametrize("parent, change, metric, want", [
    # a tight parent: the median change against the bound
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], LOWER, "within"),
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], LOWER, "regressed"),
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], {"better": "higher", "bound": 0.25},
     "within"),
    ([1.0, 1.01, 0.99, 1.0], [0.7, 0.71, 0.69, 0.7], {"better": "higher", "bound": 0.25},
     "regressed"),
    # the parent spreads wider than the bound: unresolved either way ...
    ([0.6, 0.8, 1.0, 1.2, 1.4], [0.7, 0.9, 1.0, 1.1, 1.3], LOWER, "unresolved"),
    ([0.6, 0.8, 1.0, 1.2, 1.4], [1.0, 1.2, 1.4, 1.6, 1.8], LOWER, "unresolved"),
    # ... unless every run of the change reads better than every parent run
    ([0.6, 0.8, 1.0, 1.2, 1.4], [0.3, 0.4, 0.5, 0.55, 0.59], LOWER, "within"),
])
def test_verdict_against_the_bound(parent, change, metric, want):
    got = verdict(parent, change, metric)
    assert got["verdict"] == want
    assert got["bound"] == metric["bound"]
    median = sorted(parent)[len(parent) // 2]
    assert got["relative_change"] == pytest.approx(
        (sorted(change)[len(change) // 2] - median) / median, abs=1e-5)


@pytest.mark.parametrize("change_s, failed, met", [
    ([0.5] * 9 + [2.0], 0, True),  # 9 of 10 pairs won, gap 0.5 s > spread
    ([0.5] * 8 + [2.0] * 2, 0, False),  # 8 of 10 pairs
    ([0.99] * 10, 0, False),  # 10 of 10, but the 0.01 s gap is within the spread
    ([0.5] * 10, 1, False),  # more of the change's ops fail
])
def test_claim_met(tmp_path, monkeypatch, change_s, failed, met):
    runs = tmp_path / "runs"
    parent_s = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]
    order = [{"workload": "w", "seed": seed, "first": "parent" if seed % 2 else "change"}
             for seed in range(10)]
    for side, times, fail in (("parent", parent_s, 0), ("change", change_s, failed)):
        os.makedirs(runs / side)
        for seed, op_s in enumerate(times):
            (runs / side / f"w-{seed}.json").write_text(
                json.dumps(fake_run("w", seed, op_s, failed=fail)))
    (runs / "pairs.jsonl").write_text("".join(json.dumps(p) + "\n" for p in order))
    monkeypatch.setattr(bench_record, "run_bench", lambda *a: None)
    monkeypatch.setattr(bench_record, "first_ops", lambda path: {"ops": [], "layers": {}})
    out = tmp_path / "BENCH.json"
    bench_record.record(argparse.Namespace(parent=benchmark_tree(tmp_path), change="c",
                                           runs=str(runs), claim="w", traced_seed=3,
                                           out=str(out)))
    claim = json.loads(out.read_text())["claim"]
    assert claim["change_wins"] == sum(c < p for c, p in zip(change_s, parent_s))
    assert claim["claim_met"] is met


def test_outputs_names_each_differing_value_and_exits_1(monkeypatch, capsys):
    calls = []

    def fake(tree, workload, seed):
        calls.append((tree, workload, seed))
        moved = tree == "change" and workload == "mdp-n32" and seed == 2
        return {"a.csv": "f00d" if moved else "beef", "b.csv": "cafe"}

    monkeypatch.setattr(bench_record, "run_outputs", fake)
    with pytest.raises(SystemExit) as exc:
        bench_record.outputs(argparse.Namespace(parent="parent", change="change", seeds="1-2"))
    assert exc.value.code == 1
    assert capsys.readouterr().out.splitlines() == [
        "mc-ou: seeds 1-2 identical", "mc-fluct: seeds 1-2 identical",
        "mdp-n32: seeds 1-2 differ", "  seed 2 a.csv: beef != f00d",
        "rate-n16: seeds 1-2 identical"]
    assert sorted(calls) == sorted((tree, workload, seed) for tree in ("parent", "change")
                                   for workload in bench_record.WORKLOADS for seed in (1, 2))


def test_outputs_gives_numbers_their_largest_relative_difference(monkeypatch, capsys):
    def fake(tree, workload, seed):
        if workload != "rate-n16":
            return {"hits": 3}
        moved = tree == "change" and seed == 1
        return {"costs": [[1.0, 5.0 if moved else 4.0], [math.inf, 2.0]],
                "residuals": [[0.5, 0.25], [1e-3, 1e-7 if moved else 2e-7]],
                "cg_iterations": [10, 10 + moved]}

    monkeypatch.setattr(bench_record, "run_outputs", fake)
    with pytest.raises(SystemExit) as exc:
        bench_record.outputs(argparse.Namespace(parent="parent", change="change", seeds="1-2"))
    assert exc.value.code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:] == [
        "rate-n16: seeds 1-2 differ", "  seed 1 cg_iterations: largest relative difference 0.0909",
        "  seed 1 costs: largest relative difference 0.2",
        "  seed 1 residuals: largest relative difference 0.5"]


@pytest.mark.parametrize("parent, change, want", [
    (3, 4, "largest relative difference 0.25"),
    ([1.0, math.inf], [1.0, 2.0], "largest relative difference inf"),
    ([1.0, 2.0], [1.0], "[1.0, 2.0] != [1.0]"),
    (None, 2.0, "None != 2.0"),
    # numpy reads a None inside a list as NaN, which read as "inf"
    ([12, None], [12, 20], "[12, None] != [12, 20]"),
    ([[1.0, 2.0]], [[1.0, None]], "[[1.0, 2.0]] != [[1.0, None]]"),
    ("beef", "f00d", "beef != f00d"),
])
def test_difference(parent, change, want):
    assert bench_record.difference(parent, change) == want


def test_outputs_passes_when_every_value_is_equal(monkeypatch, capsys):
    monkeypatch.setattr(bench_record, "run_outputs", lambda tree, workload, seed: {"hits": 3})
    bench_record.outputs(argparse.Namespace(parent="p", change="c", seeds="5"))
    assert capsys.readouterr().out.count("identical") == len(bench_record.WORKLOADS)


@pytest.mark.parametrize("workload, keys", [
    ("mc-ou", ["hits"]), ("mc-fluct", ["hits"]),
    ("mdp-n32", ["mdp_check.csv", *(f"mdp_check.csv {column}" for column in sorted(
        ("alpha", "max_gap", "speed_mdp", "speed_ldp", "sup_norm_rescaled", "master_seed"))),
        "mdp_check.ndjson"]),
    ("rate-n16", ["cg_iterations", "controls", "costs", "rank", "residuals", "schedule"])])
def test_run_outputs_reads_what_op_0_computed(workload, keys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    got = bench_record.run_outputs(root, workload, 1)
    assert sorted(got) == keys
    if workload == "mdp-n32":
        # each column of the one row under its own key, max_gap within 1e-8
        assert got["mdp_check.csv alpha"] == [0.1]
        assert 0 <= got["mdp_check.csv max_gap"][0] <= 1e-8
    if workload == "rate-n16":
        assert np.shape(got["costs"]) == np.shape(got["residuals"]) == (6, 2)
        assert all(isinstance(i, int) and i > 0 for i in got["cg_iterations"])
        # each field solve's response matrix: 5 steps of 4 noise directions,
        # full column rank, and the solve keeps no more directions than that
        assert got["rank"] == [20] * 6
        assert all(i <= r for i, r in zip(got["cg_iterations"], got["rank"]))
        assert np.shape(got["controls"]) == (6, 2)
        assert all(len(digest) == 64 for pair in got["controls"] for digest in pair)
        # each penalty solve's weights, with the cost and residual it reached at each
        schedule = np.asarray(got["schedule"])
        assert schedule.shape == (6, 5, 3)
        assert schedule[:, :, 0].tolist() == [[1e1, 1e2, 1e3, 1e4, 1e5]] * 6
        assert np.all(schedule[:, -1, 2] == np.asarray(got["residuals"])[:, 0])


def test_cli_reads_the_repository_identical_to_itself(capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench_record.cli(argparse.Namespace(parent=root, change=root))
    assert capsys.readouterr().out.splitlines() == ["cli: 120 runs, 0 differ"]


def test_file_digest_reads_the_echo_without_its_timestamp(tmp_path):
    echo = tmp_path / "resolved_config.txt"
    digests = []
    for stamp, body in (("2026-01-01T00:00:00", "[time]\ndt = 0.01\n"),
                        ("2026-01-02T08:30:00", "[time]\ndt = 0.01\n"),
                        ("2026-01-01T00:00:00", "[time]\ndt = 0.01\nstore_fields = false\n")):
        echo.write_text(f"# written: {stamp}\n" + body)
        digests.append(bench_record.file_digest(str(echo)))
    # a run's timestamp is no difference; a changed setting line is
    assert digests[0] == digests[1] != digests[2]
    # every other file counts every byte
    data = tmp_path / "rate.csv"
    data.write_text("# written: 2026-01-01T00:00:00\ncost\n1\n")
    assert bench_record.file_digest(str(data)) == hashlib.sha256(data.read_bytes()).hexdigest()


def test_cli_names_each_differing_run_and_exits_1(monkeypatch, capsys):
    parent = {"rate --delta 0": {"exit": 0, "files": {"rate.csv": "beef", "rate.ndjson": "cafe",
                                                      "resolved_config.txt": "0ddba11"}},
              "skeleton --delta 0": {"exit": 0, "files": {"trajectory.csv": "d00d"}},
              "mc-tails --delta 1": {"exit": 0, "files": {}}}
    change = {"rate --delta 0": {"exit": 0, "files": {"rate.csv": "f00d", "rate.ndjson": "cafe",
                                                      "resolved_config.txt": "ba5eba11"}},
              "skeleton --delta 0": {"exit": 1, "files": {}},
              "mc-tails --delta 1": {"exit": 0, "files": {}},
              "weak-probe --delta 0": {"exit": 0, "files": {"weak_probe.csv": "abba"}}}
    monkeypatch.setattr(bench_record, "run_cli_matrix",
                        lambda tree: {"parent": parent, "change": change}[tree])
    with pytest.raises(SystemExit) as exc:
        bench_record.cli(argparse.Namespace(parent="parent", change="change"))
    assert exc.value.code == 1
    assert capsys.readouterr().out.splitlines() == [
        "cli: 4 runs, 3 differ", "  rate --delta 0: rate.csv, resolved_config.txt",
        "  skeleton --delta 0: exit 0 != 1, trajectory.csv",
        "  weak-probe --delta 0: exit None != 0, weak_probe.csv"]
