"""Layer tracing for the benchmark: spans around calls into lans2d's modules.

The tracer wraps public functions at their class or module attribute, from
the benchmark's side only; nothing under ``src/`` knows about it.  Each
wrapped call records a span (layer, start, end, parent) tagged with the id of
the op it belongs to.  A call into a layer from inside the same layer (for
example ``dense_nse`` calling ``solve_nse``) is folded into the outer span, so
``calls`` counts entries into a layer.  Self time is a span's duration minus
the time covered by its child spans; summed per layer it partitions the op's
wall time, the rest being the op's own root span.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array
from collections import defaultdict

ROOT = "op"


class Tracer:
    """Span recorder with per-op, per-layer self times and counters."""

    def __init__(self):
        self._stack = []            # frames: [span_id, layer, start, child_s]
        self._patches = []          # (owner, attribute, original)
        self.layers = [ROOT]
        self._layer_index = {ROOT: 0}
        # spans, kept in memory as parallel arrays and written out at exit
        self._op = array("i")
        self._parent = array("i")
        self._layer = array("i")
        self._start = array("d")
        self._end = array("d")
        self.op_id = -1
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    # -- spans -------------------------------------------------------------

    def _open(self, layer):
        self._stack.append([len(self._start), layer, time.perf_counter(), 0.0])
        # reserve the span id now so children can name their parent
        self._op.append(self.op_id)
        self._parent.append(self._stack[-2][0] if len(self._stack) > 1 else -1)
        self._layer.append(self._layer_index[layer])
        self._start.append(0.0)
        self._end.append(0.0)

    def _close(self):
        end = time.perf_counter()
        span_id, layer, start, child_s = self._stack.pop()
        dur = end - start
        self._start[span_id] = start
        self._end[span_id] = end
        self.self_s[layer] += dur - child_s
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][3] += dur

    def run_op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as op ``op_id`` under a root span; return
        ``(result, wall_s, stats)`` where ``stats`` holds this op's per-layer
        self times, calls and counters."""
        self.op_id = op_id
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self._open(ROOT)
        try:
            result = fn(*args)
        finally:
            span_id = self._stack[-1][0]
            self._close()
        wall = self._end[span_id] - self._start[span_id]
        stats = {"self_s": dict(self.self_s), "calls": dict(self.calls),
                 "counts": dict(self.counts)}
        return result, wall, stats

    # -- wrapping ------------------------------------------------------------

    def wrapper(self, fn, layer, count=None, count_nested=False):
        """Wrap ``fn`` as a call into ``layer``.

        ``count(counts, args, kwargs, result)`` adds to the op's counters; it
        runs when the call opens a span, or on every call if ``count_nested``.
        """
        if layer not in self._layer_index:
            self._layer_index[layer] = len(self.layers)
            self.layers.append(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack or stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                if count is not None and stack and count_nested:
                    count(tracer.counts, args, kwargs, result)
                return result
            tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, name, layer, count=None, count_nested=False):
        """Replace ``owner.name`` by its traced wrapper (a class or module)."""
        original = owner.__dict__[name]
        setattr(owner, name, self.wrapper(original, layer, count, count_nested))
        self._patches.append((owner, name, original))

    def patch_function(self, module, name, layer, count=None, count_nested=False):
        """Wrap a module-level function at every lans2d module that binds it
        (``from .noise import trajectory_wiener`` makes a second binding)."""
        original = getattr(module, name)
        traced = self.wrapper(original, layer, count, count_nested)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "lans2d" and getattr(mod, name, None) is original:
                setattr(mod, name, traced)
                self._patches.append((mod, name, original))

    def unpatch(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path):
        """Write every recorded span to ``path`` (numpy ``.npz``)."""
        import numpy as np

        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            layers=np.array(self.layers),
            op=np.frombuffer(self._op, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            layer=np.frombuffer(self._layer, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )
        return len(self._start)


# ---------------------------------------------------------------------------
# What is traced in lans2d, layer by layer
# ---------------------------------------------------------------------------


def _transform_work(counts, args, kwargs, result):
    """Computed work of a batched 2D complex FFT: 5 N log2 N flops per
    transform of N = n*n points, bytes read plus bytes written."""
    coeffs = args[1]
    points = coeffs.shape[-2] * coeffs.shape[-1]
    counts["transform.flop"] += 5.0 * points * math.log2(points) * (coeffs.size // points)
    counts["transform.bytes"] += coeffs.nbytes + result.nbytes


def _written_bytes(counts, args, kwargs, result):
    counts["write.bytes"] += os.path.getsize(result)


def _tail_outcome(counts, args, kwargs, result):
    counts["mc.samples"] += result.n_samples
    counts["mc.hits"] += result.hits


def _counter(key, value):
    def count(counts, args, kwargs, result):
        counts[key] += value(args, kwargs, result)
    return count


def install(tracer):
    """Wrap the public entry points of each lans2d module under its layer."""
    import scipy.optimize

    from lans2d import cli, config, deviations, dynamics, noise, runio, spectral

    lat = spectral.TorusLattice
    for name in ("to_physical", "to_spectral"):
        tracer.patch(lat, name, "spectral.transform", _transform_work)
    for name, layer in (
        ("bilinear_b", "spectral.bilinear_b"),
        ("adjoint_b_second", "spectral.bilinear_b"),
        ("bilinear_btilde", "spectral.bilinear_btilde"),
        ("btilde_alpha", "spectral.bilinear_btilde"),
        ("adjoint_b_first", "spectral.adjoint_b_first"),
        ("leray", "spectral.leray"),
        ("smooth", "spectral.diagonal"),
        ("unsmooth", "spectral.diagonal"),
        ("stokes", "spectral.diagonal"),
        ("inner_h", "spectral.norms"),
        ("norm_h", "spectral.norms"),
        ("norm_v", "spectral.norms"),
        ("norm_a", "spectral.norms"),
        ("norm_alpha", "spectral.norms"),
    ):
        tracer.patch(lat, name, layer)

    draws = _counter("sample.draws", lambda a, k, r: getattr(r, "increments", r).size)
    tracer.patch_function(deviations, "_chunk_increments", "noise.sample", draws, True)
    tracer.patch_function(noise, "sample_wiener", "noise.sample", draws, True)
    tracer.patch_function(noise, "trajectory_wiener", "noise.sample")
    tracer.patch(noise.NoiseOperator, "apply", "noise.apply")
    tracer.patch(noise.NoiseOperator, "apply_smoothed", "noise.apply")

    tracer.patch(dynamics.UnifiedStepper, "step", "dynamics.step")
    tracer.patch(dynamics.SkeletonStepper, "step", "dynamics.step")
    snapshots = _counter(
        "snapshot.bytes", lambda a, k, r: sum(f.nbytes for f in r.fields or ()))
    for name in ("solve_nse", "dense_nse", "solve_lans", "solve_unified", "solve_skeleton"):
        tracer.patch_function(dynamics, name, "dynamics.solve", snapshots)
    # the solvers pass their per-step closures to _drive; trace those as steps
    drive = dynamics._drive

    def traced_drive(cfg, y0, step_fn, alpha_for_norms):
        return drive(cfg, y0, tracer.wrapper(step_fn, "dynamics.step"), alpha_for_norms)

    dynamics._drive = traced_drive
    tracer._patches.append((dynamics, "_drive", drive))

    tracer.patch_function(deviations, "mc_tail", "deviations.mc", _tail_outcome)
    tracer.patch_function(deviations, "_mc_chunk", "deviations.mc",
                          _counter("mc.chunks", lambda a, k, r: 1), True)
    tracer.patch_function(
        deviations, "rate_function", "deviations.rate",
        _counter("rate.cg_iterations", lambda a, k, r: r.details.get("iterations", 0)))
    tracer.patch_function(deviations, "skeleton_gradient", "deviations.rate",
                          _counter("rate.fevals", lambda a, k, r: 1), True)
    tracer.patch(scipy.optimize, "minimize", "deviations.optimizer",
                 _counter("rate.nit", lambda a, k, r: r.nit))
    for name in ("mdp_rescale", "convergence_study", "weak_continuity_probe"):
        tracer.patch_function(deviations, name, "deviations.probe")

    for name in ("write_csv", "write_ndjson", "save_field"):
        tracer.patch_function(runio, name, "runio.write", _written_bytes, True)
    for name in ("save_trajectory", "save_control", "write_outputs"):
        tracer.patch_function(runio, name, "runio.write")

    tracer.patch_function(cli, "main", "cli.setup")
    tracer.patch_function(cli, "_resolve_config", "cli.setup")
    for name in ("preset", "load_config", "parse_config_text"):
        tracer.patch_function(config, name, "cli.setup")
