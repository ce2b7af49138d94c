"""The benchmark's tracer wraps lans2d names it looks up by string; a rename in
lans2d must fail here, not in a benchmark run."""

import importlib.util
from pathlib import Path


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_traced_name_and_unpatch_restores_it():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, name) is not original for owner, name, original in patched)
    finally:
        tracer.unpatch()
    assert all(getattr(owner, name) is original for owner, name, original in patched)
