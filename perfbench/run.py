"""Benchmark for lans2d: four workloads, correctness-gated, with a traced mode.

Run from the root of a checkout (the code under test is ``./src/lans2d``)::

    python3 perfbench/run.py --workload mc-ou --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --compare .perfbench/results-a .perfbench/results-b

A run starts every workload process fresh.  With ``--trace 0`` it reports the
end-to-end metrics named in ``BENCHMARK.json``: set-up time is the median of
several fresh set-ups (two extra processes plus the measuring one).  With
``--trace 1`` it reports the per-layer metrics from a traced second half of
the run.  Human-readable lines come first; the last line of standard output
is one JSON object.  Each run also stores a full record under
``.perfbench/results/`` for ``--compare``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc-ou", "mc-fluct", "mdp-n32", "rate-n16")
SETUP_PROBES = 2        # extra fresh processes that only set up, for setup_s
TIME_LIMIT_S = 170.0    # the whole command ends within this


class BenchError(RuntimeError):
    """The benchmark cannot run here or a workload process failed."""


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def spawn(root, role, workload, seed, seconds, trace, deadline):
    """Start one worker process, wait for it and return its JSON result."""
    work = os.path.join(root, ".perfbench", "work", f"{workload}-{role}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(root, ".perfbench", "spans", f"{workload}-seed{seed}.npz")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--role", role, "--workdir", work, "--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {role} process")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], cwd=root,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {role} process exceeded the time limit") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {role} process exited {proc.returncode}")
    return json.loads(lines[-1])


def quantiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(main, setups, setup_walls):
    """Every end-to-end figure of one workload run; the gated ones are those
    in BENCHMARK.json, the rest are printed and stored.  Times are seconds at
    the reference speed (see worker.py); the raw wall times come along."""
    if not main["times"]:
        raise BenchError("no op passed its correctness check")
    op_s = statistics.median(main["times"])
    out = {
        "op_s_p50": (op_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "op_wall_s_p50": (statistics.median(main["walls"]), "s"),
        "setup_wall_s": (statistics.median(setup_walls), "s"),
        "host_speed": (main["host_speed"], "ratio"),
    }
    work = main["work"]
    if work["trajectories"]:
        out["traj_per_s"] = (work["trajectories"] / op_s, "1/s")
    if work["field_steps"]:
        out["field_steps_per_s"] = (work["field_steps"] / op_s, "1/s")
    tail = main.get("tail")
    if tail and tail["hits"]:
        p_hat = tail["hits"] / tail["n"]
        rel = (tail["high"] - tail["low"]) / 2 / p_hat
        out["mc_s_to_10pct"] = (op_s * (rel / 0.1) ** 2, "s")
    return out


def run_workload(root, spec, workload, seed, seconds, trace, deadline):
    attempted, errors, setups, setup_walls = 0, [], [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = spawn(root, "setup", workload, seed, 0.0, 0, deadline)
            setups.append(probe["setup_s"])
            setup_walls.append(probe["setup_wall_s"])
            attempted += probe["attempted"]
            errors += probe["errors"]
    main = spawn(root, "run", workload, seed, seconds, trace, deadline)
    setups.append(main["setup_s"])
    setup_walls.append(main["setup_wall_s"])
    attempted += main["attempted"]
    errors += main["errors"]
    failed = len(errors)

    if trace:
        if "per_layer" not in main:
            raise BenchError(f"{workload}: no op passed in both halves of the traced run")
        layer = main["per_layer"]
        metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        extra = {}
    else:
        figures = end_to_end(main, setups, setup_walls)
        gated = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: {"value": figures[name][0], "unit": figures[name][1]}
                   for name in gated}
        extra = {name: {"value": v, "unit": u} for name, (v, u) in figures.items()
                 if name not in gated}
        extra["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "extra": extra, "setup_samples": setups,
        "op_walls": main["walls"], "op_times": main["times"], "errors": errors, "env": main["env"],
        "trace_ops": main.get("trace_ops"), "spans": main.get("spans"),
    }


def report(record):
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}): "
          f"{record['attempted']} ops attempted, {record['failed']} failed")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in {**record["metrics"], **record["extra"]}.items():
        print(f"  {name:<40s} {m['value']:.6g} {m['unit']}")
    for err in record["errors"]:
        print("  FAILED " + err.strip().replace("\n", "\n    "), file=sys.stderr)


def save(root, results_dir, record):
    out = os.path.join(root, results_dir)
    os.makedirs(out, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{time.time_ns()}.json"
    with open(os.path.join(out, name), "w") as fh:
        json.dump(record, fh, indent=1)


# ---------------------------------------------------------------------------
# Compare mode (advisory)
# ---------------------------------------------------------------------------


def load_records(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
             if os.path.isdir(path) else [path])
    records = []
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            records.append(rec)
    return records


def compare(path_a, path_b, spec):
    """Print each workload's metrics from two sets of runs side by side."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    # the ungated figures are compared with the bound of the time they follow
    op_bound, setup_bound = bounds["op_s_p50"][0], bounds["setup_s"][0]
    bounds.update({
        "traj_per_s": (op_bound, "higher"), "field_steps_per_s": (op_bound, "higher"),
        "mc_s_to_10pct": (op_bound, "lower"), "op_wall_s_p50": (op_bound, "lower"),
        "setup_wall_s": (setup_bound, "lower"), "fail_frac": (0.0, "lower"),
    })

    def by_workload(records):
        out = {}
        for rec in records:
            for name, m in {**rec["metrics"], **rec["extra"]}.items():
                out.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
        return out

    a, b = by_workload(load_records(path_a)), by_workload(load_records(path_b))
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<10s} {'metric':<18s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict")
    for workload in sorted(set(a) & set(b)):
        for name in sorted(set(a[workload]) & set(b[workload]) & set(bounds)):
            va, vb = a[workload][name], b[workload][name]
            (qa1, ma, qa3), (qb1, mb, qb3) = quantiles(va), quantiles(vb)
            bound, better = bounds[name]
            sign = 1.0 if better == "higher" else -1.0
            if ma:
                change = (mb - ma) / abs(ma)
                spread = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb) if mb else math.inf)
            else:
                change, spread = (0.0 if mb == 0 else math.inf), 0.0
            all_better = (min(vb) > max(va)) if better == "higher" else (max(vb) < min(va))
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif sign * change < -bound:
                verdict = "worse"
            elif sign * change > bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:<10s} {name:<18s} "
                  f"{f'{ma:.4g} [{qa1:.4g}, {qa3:.4g}]':>30s} "
                  f"{f'{mb:.4g} [{qb1:.4g}, {qb3:.4g}]':>30s} {change:>+8.1%}  {verdict}")
    print("(advisory: n runs per side = "
          + ", ".join(f"{w}: {len(next(iter(a[w].values())))}/{len(next(iter(b[w].values())))}"
                      for w in sorted(set(a) & set(b))) + ")")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", default=os.path.join(".perfbench", "results"))
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="result files or directories of two sets of runs")
    args = ap.parse_args()
    root = os.getcwd()
    try:
        spec = load_spec(root)
        if args.compare:
            compare(args.compare[0], args.compare[1], spec)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if not os.path.isfile(os.path.join(root, "src", "lans2d", "__init__.py")):
            raise BenchError(f"{root} holds no src/lans2d to benchmark")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for name in names:
            record = run_workload(root, spec, name, args.seed, seconds, args.trace,
                                  time.monotonic() + TIME_LIMIT_S)
            save(root, args.results_dir, record)
            report(record)
            records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
