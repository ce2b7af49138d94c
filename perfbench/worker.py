"""One workload in one fresh process; started by ``run.py``, not by hand.

Role ``setup`` builds the workload, runs the untimed warm-up op and reports
the set-up time.  Role ``run`` does the same and then runs ops back to back
(a closed loop, one op at a time) for the measuring time; with tracing on,
the first half runs untraced and the second half traced.  The last line of
standard output is one JSON object with the raw measurements.
"""

import argparse
import os
import sys

# Pin every thread pool before numpy is imported, so runs are single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

# The host's speed swings by up to 2x for seconds at a time, with no other
# process in the machine and no stolen time: the same op takes 1.1 s or 2.0 s.
# So every op is timed against a fixed reference kernel run just before and
# just after it, and reported in seconds at the reference speed, i.e. its
# wall time scaled by REFERENCE_S / (reference kernel's time around the op).
REFERENCE_S = 0.009  # the kernel's time at the fast speed of a 2-vCPU Xeon VM
_RNG = np.random.default_rng(0)
_BATCH = _RNG.standard_normal((32, 2, 16, 16)) + 0j
_SINGLE = _RNG.standard_normal((2, 32, 32)) + 0j


def _reference_kernel():
    """Fixed numpy work in the workloads' mix: batched FFTs, many unbatched
    small FFTs and elementwise calls, and an interpreter loop.  Independent of
    lans2d."""
    a = _BATCH
    for _ in range(6):
        a = np.fft.ifft2(np.fft.fft2(a, axes=(-2, -1)), axes=(-2, -1)) * 1.0001
    b = _SINGLE
    for _ in range(60):
        b = np.fft.ifft2(np.fft.fft2(b, axes=(-2, -1)), axes=(-2, -1)) * 1.0001
        b = b + 1e-3 * b[0] * b[1] - float(np.sum(b.real**2)) * 1e-9
    total = 0
    for i in range(10000):
        total += i
    return total


def reference_time():
    """Mean of three reference-kernel runs: the host's current speed."""
    start = time.perf_counter()
    for _ in range(3):
        _reference_kernel()
    return (time.perf_counter() - start) / 3


# Traced ops get their own index range, so two traced runs with one seed see
# the same inputs whatever their untraced halves did.
TRACED_FIRST_OP = 1_000_000


def environment():
    import scipy

    import lans2d

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lans2d": lans2d.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "fft": "numpy.fft (pocketfft, one thread per call)",
    }


def run_ops(wl, seconds, first, tracer=None):
    """Run ops ``first, first+1, ...`` until ``seconds`` have passed.

    ``walls`` are wall times; ``times`` the same at the reference speed.
    """
    walls, times, refs, stats, errors = [], [], [], [], []
    attempted, last = 0, None
    deadline = time.perf_counter() + seconds
    ref_before = reference_time()
    i = first
    while True:
        attempted += 1
        try:
            args = wl.inputs(i)
            if tracer is None:
                start = time.perf_counter()
                result = wl.op(*args)
                wall = time.perf_counter() - start
            else:
                result, wall, op_stats = tracer.run_op(i, wl.op, *args)
            error = wl.check(result, args)
        except Exception:  # an op that raises is a failed op; keep measuring
            error = traceback.format_exc(limit=3)
        ref_after = reference_time()
        ref = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        if error is None:
            walls.append(wall)
            times.append(wall * REFERENCE_S / ref)
            refs.append(ref)
            last = result
            if tracer is not None:
                stats.append({"op": i, "scale": REFERENCE_S / ref, **op_stats})
        else:
            errors.append(f"op {i}: {error}")
        i += 1
        if time.perf_counter() >= deadline:
            return {"walls": walls, "times": times, "refs": refs, "stats": stats,
                    "errors": errors, "attempted": attempted, "last": last}


def layer_metrics(stats, untraced_times, traced_times):
    """Per-op means of per-layer self times (at the reference speed, like the
    op times), calls and counters."""
    from tracing import ROOT

    n = len(stats)
    out = {}
    for key in ("self_s", "calls"):
        for layer in {name for s in stats for name in s[key]}:
            if layer != ROOT:
                scaled = (s[key].get(layer, 0) * (s["scale"] if key == "self_s" else 1)
                          for s in stats)
                out[f"{layer}.{key}"] = sum(scaled) / n
    counts = {}
    for s in stats:
        for name, value in s["counts"].items():
            counts[name] = counts.get(name, 0.0) + value / n
    out["spectral.transform.gflop_computed"] = counts.get("transform.flop", 0.0) / 1e9
    out["spectral.transform.mb_computed"] = counts.get("transform.bytes", 0.0) / 1e6
    out["noise.sample.draws"] = counts.get("sample.draws", 0.0)
    out["dynamics.snapshot_mb_computed"] = counts.get("snapshot.bytes", 0.0) / 1e6
    out["deviations.mc.chunks"] = counts.get("mc.chunks", 0.0)
    samples = counts.get("mc.samples", 0.0)
    out["deviations.mc.hit_frac"] = counts.get("mc.hits", 0.0) / samples if samples else 0.0
    for name in ("fevals", "nit", "cg_iterations"):
        out[f"deviations.rate.{name}"] = counts.get(f"rate.{name}", 0.0)
    out["runio.write.bytes"] = counts.get("write.bytes", 0.0)

    layer_sum = sum(v for k, v in out.items() if k.endswith(".self_s"))
    wall_mean = statistics.fmean(traced_times)
    traced = statistics.median(traced_times)
    untraced = statistics.median(untraced_times)
    out.update({
        "trace.ops": n,
        "trace.op_s_p50": traced,
        "trace.untraced_op_s_p50": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.op_s_mean": wall_mean,
        "trace.layer_self_sum_s": layer_sum,
        "trace.unattributed_s": wall_mean - layer_sum,
    })
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--workdir", required=True, help="scratch directory for op outputs")
    ap.add_argument("--spans", help="where the traced run writes its spans (.npz)")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    warm = run_ops(wl, 0.0, -1)
    setup_wall = time.monotonic() - args.spawned_at
    result = {"setup_wall_s": setup_wall, "attempted": 1, "errors": warm["errors"],
              "setup_s": setup_wall * REFERENCE_S / reference_time()}
    if args.role == "run":
        result["env"] = environment()
        result["work"] = wl.work
        half = args.seconds / 2 if args.trace else args.seconds
        plain = run_ops(wl, half, 0)
        result["attempted"] += plain["attempted"]
        result["errors"] += plain["errors"]
        result["walls"] = plain["walls"]
        result["times"] = plain["times"]
        if plain["refs"]:
            result["host_speed"] = REFERENCE_S / statistics.median(plain["refs"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        est = plain["last"]
        if wl.work["trajectories"] and est is not None:
            result["tail"] = {"hits": est.hits, "n": est.n_samples,
                              "low": est.wilson_low, "high": est.wilson_high}
        if args.trace:
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
            traced = run_ops(wl, half, TRACED_FIRST_OP, tracer)
            tracer.unpatch()
            result["attempted"] += traced["attempted"]
            result["errors"] += traced["errors"]
            result["trace_ops"] = [{"op": s["op"], "calls": s["calls"], "counts": s["counts"]}
                                   for s in traced["stats"]]
            if plain["times"] and traced["times"]:
                result["per_layer"] = layer_metrics(traced["stats"], plain["times"],
                                                    traced["times"])
            result["spans"] = {"path": args.spans, "count": tracer.dump(args.spans)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
