"""Benchmark a change against its parent commit and write the record.

    python3 tools/bench_record.py pairs PARENT CHANGE RUNS --workload W --seeds 211-220
    python3 tools/bench_record.py record PARENT CHANGE RUNS [--claim W --traced-seed S] --out FILE
    python3 tools/bench_record.py outputs PARENT CHANGE --seeds 211-212
    python3 tools/bench_record.py cli PARENT CHANGE

PARENT and CHANGE are checkouts of the two commits; each side runs its own
``perfbench/run.py`` with the benchmark's run length.  ``pairs`` runs one
pair per seed, alternating which side goes first, and keeps the full result
records under ``RUNS/parent`` and ``RUNS/change`` (``RUNS/pairs.jsonl`` holds
the order).  ``record`` writes, per workload, each side's medians and
quartiles of the gated metrics and ``fail_frac``, and each gated metric's
verdict against its bound in ``BENCHMARK.json``: the relative median change,
``unresolved`` where the parent's own quartile spread exceeds the bound
(unless every run of the change reads better than every run of the parent),
else ``regressed`` or ``within``.  With ``--claim`` it also writes the
claimed workload's pairs and ``claim_met``: the change wins at least nine in
ten pairs, its median beats the parent's by more than the parent's quartile
spread, and no larger share of its ops fails.  It then runs that workload
once traced on each side and writes the per-layer calls and self times
averaged over the first traced ops, read from the span file; without
``--claim``, ``claim`` is null and nothing is traced.  The benchmark's own
traced report averages over however many ops fit in the run, so its counts
move with the speed when ops differ in work.  The record's ``env`` is the
first run's, with the BLAS build numpy links (``blas``: name, version and
OpenBLAS configuration), whose kernels set the rounding of the transforms.

``outputs`` runs op 0 of every workload once per seed on each side, each in
a fresh process with its own ``perfbench/workloads.py``, and compares what
the ops computed: the Monte Carlo hits, the sha256 of mdp-n32's data files
and each numeric column of its ``mdp_check.csv`` under its own key, such as
``mdp_check.csv max_gap`` (so that differing files come with how far each
column's numbers moved, against that column alone), and rate-n16's costs,
residuals, each field solve's directions kept (its ``details["iterations"]``,
under the benchmark's older name ``cg_iterations``) and the rank of its
response matrix (None on a tree that does not report it), each penalty solve's
``[beta, cost, residual]`` at every weight of its schedule and the sha256 of
each solve's control values.  It prints one line per workload, then each
differing value (numbers by their largest relative difference, a value
holding a None by both values), and exits 1 if any of them differs between
the sides.

``cli`` runs a matrix of small CLI runs on each side, all in one fresh process
per side: every subcommand at every preset, at delta 0 and 1 and, where the
subcommand takes ``--format``, in each format (120 runs), at n = 8 over 10
steps with few samples and trials (``CLI_RUN``).  It compares each run's exit
code and the sha256 of each file the run wrote, ``resolved_config.txt``
without its timestamp line, which differs from run to run (``file_digest``);
it prints each differing run and exits 1 if any run differs.
"""

import argparse
import glob
import hashlib
import inspect
import json
import os
import subprocess
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from run import WORKLOADS, load_spec, quantiles  # noqa: E402

SIDES = ("parent", "change")
FIRST_OPS = 5
# run from the root of a checkout: op 0 of one workload, what it computed
# printed as one JSON object; importing the benchmark's worker first pins
# every thread pool to one thread before numpy loads, as the benchmark runs
OUTPUTS_SCRIPT = """
import hashlib, json, os, sys, tempfile
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
import worker
import numpy as np
from lans2d.runio import read_csv
from workloads import WORKLOADS
name, seed = sys.argv[1], int(sys.argv[2])
with tempfile.TemporaryDirectory() as work:
    wl = WORKLOADS[name](seed, work)
    args = wl.inputs(0)
    result = wl.op(*args)
    if name == "mdp-n32":
        got = {}
        for file in wl.data_files:
            with open(os.path.join(args[0], file), "rb") as fh:
                got[file] = hashlib.sha256(fh.read()).hexdigest()
        rows = read_csv(os.path.join(args[0], "mdp_check.csv"))
        for column in rows[0]:
            if all(isinstance(row[column], float) for row in rows):
                got["mdp_check.csv " + column] = [row[column] for row in rows]
    elif name == "rate-n16":
        got = {"costs": [[r.cost for r in pair] for pair in result],
               "residuals": [[r.residual for r in pair] for pair in result],
               "cg_iterations": [pair[1].details["iterations"] for pair in result],
               "rank": [pair[1].details.get("rank") for pair in result],
               "schedule": [[[w["beta"], w["cost"], w["residual"]]
                             for w in pair[0].details["schedule"]] for pair in result],
               "controls": [[hashlib.sha256(np.ascontiguousarray(r.control.values).tobytes())
                             .hexdigest() for r in pair] for pair in result]}
    else:
        got = {"hits": result.hits}
print(json.dumps(got))
"""


def file_digest(path):
    """The sha256 of a run's file; of ``resolved_config.txt`` without the
    ``# written:`` timestamp line, so that only a changed echo differs."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "resolved_config.txt":
        data = b"".join(line for line in data.splitlines(True)
                        if not line.startswith(b"# written:"))
    return hashlib.sha256(data).hexdigest()


# the presets of the CLI matrix, and the settings every run adds to its
# subcommand and preset
CLI_PRESETS = ["taylor-green", "single-shear", "ou-toy", "unified-default"]
CLI_RUN = ["--n", "8", "--dt", "0.005", "--t-final", "0.05", "--set", "experiment.samples=20",
           "--set", "experiment.trials=5"]
# run from the root of a checkout: the CLI matrix, each run's exit code and
# the digests of its files printed as one JSON object keyed by run
CLI_SCRIPT = """
import contextlib, hashlib, io, json, os, sys, tempfile
""" + inspect.getsource(file_digest) + """
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
import worker
from lans2d.cli import FORMATTED, SUBCOMMANDS, main
presets, common = json.loads(sys.argv[1])
got = {}
with tempfile.TemporaryDirectory() as work:
    for command in SUBCOMMANDS:
        for name in presets:
            for delta in (0, 1):
                for fmt in ("csv", "ndjson") if command in FORMATTED else (None,):
                    flags = [command, "--preset", name, "--delta", str(delta)]
                    flags += ["--format", fmt] if fmt else []
                    args = flags + common + (["--workers", "1"] if command == "mc-tails" else [])
                    out = os.path.join(work, str(len(got)))
                    with contextlib.redirect_stdout(io.StringIO()), \\
                            contextlib.redirect_stderr(io.StringIO()):
                        code = main(args + ["--out-dir", out])
                    files = {file: file_digest(os.path.join(out, file))
                             for file in (sorted(os.listdir(out)) if os.path.isdir(out) else ())}
                    got[" ".join(flags)] = {"exit": code, "files": files}
print(json.dumps(got))
"""


def run_bench(tree, results, workload, seed, trace):
    """Run the benchmark of ``tree`` once; its full record goes to ``results``."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--results-dir", os.path.abspath(results)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def pairs(args):
    for i, seed in enumerate(seed_range(args.seeds)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            line = run_bench(getattr(args, side), os.path.join(args.runs, side), args.workload,
                             seed, 0)
            print(args.workload, seed, side, json.dumps(line["metrics"]), flush=True)
        with open(os.path.join(args.runs, "pairs.jsonl"), "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, "first": order[0]}) + "\n")


def run_outputs(tree, workload, seed):
    """What op 0 of ``workload`` computes on ``tree``, from a fresh process."""
    proc = subprocess.run([sys.executable, "-c", OUTPUTS_SCRIPT, workload, str(seed)],
                          cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def holds_none(value):
    """Whether ``value`` is None or a list or tuple holding a None at any depth."""
    return value is None or isinstance(value, (list, tuple)) and any(map(holds_none, value))


def difference(parent, change):
    """How two unequal values differ: the largest relative difference of two
    numbers or equally shaped arrays of numbers, else both values (also where
    either holds a None, which numpy would read as NaN)."""
    try:
        a, b = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    except (TypeError, ValueError):
        a = b = None
    if a is None or holds_none(parent) or holds_none(change) or a.shape != b.shape:
        return f"{parent} != {change}"
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(a == b, 0.0, np.abs(a - b) / np.maximum(np.abs(a), np.abs(b)))
    return f"largest relative difference {np.max(np.nan_to_num(rel, nan=np.inf)):.3g}"


def outputs(args):
    """Compare every workload's outputs on both sides; exit 1 on a difference."""
    seeds, differ = seed_range(args.seeds), False
    for workload in WORKLOADS:
        diffs = []
        for seed in seeds:
            got = {side: run_outputs(getattr(args, side), workload, seed) for side in SIDES}
            diffs += [f"seed {seed} {key}: {difference(got['parent'].get(key), got['change'].get(key))}"
                      for key in sorted(got["parent"].keys() | got["change"].keys())
                      if got["parent"].get(key) != got["change"].get(key)]
        print(f"{workload}: seeds {args.seeds} {'differ' if diffs else 'identical'}",
              *diffs, sep="\n  ", flush=True)
        differ = differ or bool(diffs)
    if differ:
        raise SystemExit(1)


def run_cli_matrix(tree):
    """Each CLI run of ``CLI_SCRIPT`` on ``tree``: its exit code and its
    files' digests, from one fresh process."""
    proc = subprocess.run([sys.executable, "-c", CLI_SCRIPT, json.dumps([CLI_PRESETS, CLI_RUN])],
                          cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: the CLI matrix exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli(args):
    """Compare every CLI run's exit code and files on both sides; exit 1 on
    a difference."""
    got = {side: run_cli_matrix(getattr(args, side)) for side in SIDES}
    runs = sorted(got["parent"].keys() | got["change"].keys())
    differ = [run for run in runs if got["parent"].get(run) != got["change"].get(run)]
    print(f"cli: {len(runs)} runs, {len(differ)} differ")
    for run in differ:
        parent, change = (got[side].get(run) or {"exit": None, "files": {}} for side in SIDES)
        notes = [f"exit {parent['exit']} != {change['exit']}"] if parent["exit"] != change["exit"] else []
        notes += [file for file in sorted(parent["files"].keys() | change["files"].keys())
                  if parent["files"].get(file) != change["files"].get(file)]
        print(f"  {run}: {', '.join(notes)}")
    if differ:
        raise SystemExit(1)


def first_ops(spans_path, count=FIRST_OPS):
    """Per-layer calls and self times per op, averaged over the first ops."""
    spans = np.load(spans_path)
    layers, op, parent, layer = spans["layers"], spans["op"], spans["parent"], spans["layer"]
    duration = spans["end"] - spans["start"]
    child = np.zeros_like(duration)
    np.add.at(child, parent[parent >= 0], duration[parent >= 0])
    self_s = duration - child
    ops = np.unique(op)[:count]
    chosen = np.isin(op, ops)
    return {"ops": ops.tolist(), "layers": {
        str(name): {"calls": float(np.sum(chosen & (layer == i))) / len(ops),
                    "self_s": round(float(np.sum(self_s[chosen & (layer == i)])) / len(ops), 5)}
        for i, name in enumerate(layers) if np.any(chosen & (layer == i))}}


def blas_build():
    """The BLAS build numpy links, as ``np.show_config`` reports it: the
    rounding of the transforms' GEMMs depends on its kernels."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def summary(values):
    q1, median, q3 = quantiles(values)
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def verdict(parent, change, metric):
    """A gated metric's relative median change against its bound, from each
    side's run values; ``metric`` is its entry in ``BENCHMARK.json``."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # positive: worse
    (q1, median, q3), bound = quantiles(parent), metric["bound"]
    change_median = quantiles(change)[1]
    relative = (change_median - median) / median
    spread = (q3 - q1) / median
    if max(sign * v for v in change) < min(sign * v for v in parent):
        status = "within"  # every run of the change reads better
    elif spread > bound:
        status = "unresolved"
    else:
        status = "regressed" if sign * relative > bound else "within"
    return {"relative_change": round(relative, 5), "bound": bound,
            "parent_relative_spread": round(spread, 5), "verdict": status}


def record(args):
    results = {side: [] for side in SIDES}
    for side in SIDES:
        for path in sorted(glob.glob(os.path.join(args.runs, side, "*.json"))):
            with open(path) as fh:
                results[side].append(json.load(fh))
    with open(os.path.join(args.runs, "pairs.jsonl")) as fh:
        order = [json.loads(line) for line in fh]
    gated = {m["name"]: m for m in load_spec(args.parent)["end_to_end"]}
    out = {"settings": {"command": "python3 perfbench/run.py --workload W --seed S --trace 0",
                        "pairs_alternate_first_side": True},
           "workloads": {}, "claim": None, "per_layer_first_traced_ops": {}, "env": None}
    for workload in sorted({p["workload"] for p in order}):
        seeds = [p["seed"] for p in order if p["workload"] == workload]
        entry = {"seeds": seeds}
        by_seed, values = {}, {}
        for side in SIDES:
            runs = [r for r in results[side] if r["workload"] == workload and r["trace"] == 0
                    and r["seed"] in seeds]
            by_seed[side] = {r["seed"]: r["metrics"]["op_s_p50"]["value"] for r in runs}
            values[side] = {name: [r["metrics"][name]["value"] for r in runs]
                            for name in runs[0]["metrics"]}
            entry[side] = {name: summary(v) for name, v in values[side].items()}
            entry[side]["fail_frac"] = (sum(r["failed"] for r in runs)
                                        / sum(r["attempted"] for r in runs))
            out["env"] = dict(runs[0]["env"], blas=blas_build())
        entry["verdicts"] = {name: verdict(values["parent"][name], values["change"][name], metric)
                             for name, metric in gated.items()}
        entry["verdicts"]["fail_frac"] = (
            "within" if entry["change"]["fail_frac"] <= entry["parent"]["fail_frac"]
            else "regressed")
        out["workloads"][workload] = entry
        if workload == args.claim:
            rows = [{"seed": p["seed"], "first": p["first"],
                     **{side: round(by_seed[side][p["seed"]], 5) for side in SIDES}}
                    for p in order if p["workload"] == workload]
            parent, change = entry["parent"], entry["change"]
            claim = out["claim"] = {
                "workload": workload, "metric": "op_s_p50", "pairs": rows,
                "change_wins": sum(r["change"] < r["parent"] for r in rows),
                "median_gap": round(parent["op_s_p50"]["median"]
                                    - change["op_s_p50"]["median"], 5),
                "parent_quartile_spread": round(parent["op_s_p50"]["q3"]
                                                - parent["op_s_p50"]["q1"], 5)}
            claim["claim_met"] = (10 * claim["change_wins"] >= 9 * len(rows)
                                  and claim["median_gap"] > claim["parent_quartile_spread"]
                                  and change["fail_frac"] <= parent["fail_frac"])
    if args.claim is not None:
        claim, seed = args.claim, args.traced_seed
        out["settings"]["traced_command"] = (f"python3 perfbench/run.py --workload {claim} "
                                             f"--seed {seed} --trace 1")
        for side in SIDES:
            tree = getattr(args, side)
            run_bench(tree, os.path.join(args.runs, side + "-traced"), claim, seed, 1)
            spans = os.path.join(tree, ".perfbench", "spans", f"{claim}-seed{seed}.npz")
            out["per_layer_first_traced_ops"][side] = first_ops(spans)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("pairs", "record", "outputs", "cli"):
        p = sub.add_parser(name)
        for side in SIDES + (("runs",) if name in ("pairs", "record") else ()):
            p.add_argument(side)
    sub.choices["pairs"].add_argument("--workload", required=True)
    for name in ("pairs", "outputs"):
        sub.choices[name].add_argument("--seeds", required=True, help="first-last, e.g. 211-220")
    sub.choices["record"].add_argument("--claim", help="the claimed workload, if any")
    sub.choices["record"].add_argument("--traced-seed", type=int)
    sub.choices["record"].add_argument("--out", required=True)
    args = ap.parse_args()
    if args.command == "record" and (args.claim is None) != (args.traced_seed is None):
        ap.error("--claim and --traced-seed go together")
    if args.command in ("outputs", "cli"):
        return {"outputs": outputs, "cli": cli}[args.command](args)
    os.makedirs(args.runs, exist_ok=True)
    (pairs if args.command == "pairs" else record)(args)


if __name__ == "__main__":
    main()
