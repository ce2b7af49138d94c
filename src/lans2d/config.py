"""Run configuration: schema-validated key-value documents and presets.

A run document is plain text with ``[section]`` headers and ``key = value``
lines.  Every setting, whether from a document line, a ``--set`` override or a
command-line shortcut flag, goes through ``RunConfig.set``: unknown keys and
bad values are refused with where the text came from (``file:line``, the
``--set`` pair or the flag).  An empty or ``none`` value unsets the optional
keys (default ``None``, echoed empty; ``noise.variant = none`` means no noise)
and is refused for every other key.  Every run directory receives the fully
resolved document back, so a run is reproducible from its own output.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .dynamics import SolverConfig
from .noise import NoiseOperator, additive_noise, projection_multiplicative_noise
from .spectral import (
    SpectralField,
    TorusLattice,
    eigenmode_field,
    make_lattice,
    random_field,
    single_shear,
    taylor_green,
    zero_field,
)

INITIAL_STREAM = 2**32 + 1  # sub-stream tag outside the trajectory-index range


class ConfigError(ValueError):
    """Malformed or out-of-schema run document."""


def _parse_bool(s):
    v = s.lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_floats(s):
    return tuple(float(tok) for tok in s.split(","))


def _parse_ints(s):
    return tuple(int(tok) for tok in s.split(","))


def _parse_modes(s):
    out = []
    for tok in s.split(","):
        parts = tok.split()
        if len(parts) != 2:
            raise ValueError(f"wavevector must be 'k1 k2', got {tok.strip()!r}")
        out.append((int(parts[0]), int(parts[1])))
    return tuple(out)


# section -> key -> (attribute, parser)
SCHEMA = {
    "lattice": {"n": ("n", int)},
    "time": {
        "dt": ("dt", float),
        "t_final": ("t_final", float),
        "record_stride": ("record_stride", int),
        "store_fields": ("store_fields", _parse_bool),
    },
    "model": {
        "alpha": ("alpha", float),
        "delta": ("delta", int),
        "kappa": ("kappa", float),
        "viscosity": ("viscosity", float),
    },
    "noise": {
        "variant": ("noise_variant", str),
        "sigma": ("noise_sigma", _parse_floats),
        "modes": ("noise_modes", _parse_modes),
        "phases": ("noise_phases", _parse_floats),
        "probe_modes": ("noise_probe_modes", _parse_modes),
        "offsets": ("noise_offsets", _parse_floats),
    },
    "initial": {
        "preset": ("initial_preset", str),
        "amplitude": ("initial_amplitude", float),
        "mode": ("initial_mode", _parse_modes),
        "decay": ("initial_decay", float),
    },
    "control": {
        "path": ("control_path", str),
        "constant": ("control_constant", _parse_floats),
    },
    "experiment": {
        "threshold": ("threshold", float),
        "level": ("level", float),
        "observable_mode": ("observable_mode", _parse_modes),
        "samples": ("samples", int),
        "alphas": ("alphas", _parse_floats),
        "indices": ("indices", _parse_ints),
        "basis_count": ("basis_count", int),
        "beta_schedule": ("beta_schedule", _parse_floats),
        "tolerance": ("tolerance", float),
        "max_iterations": ("max_iterations", int),
        "amplitude": ("amplitude", float),
        "trials": ("trials", int),
    },
    "run": {"seed": ("seed", int)},
}

NOISE_VARIANTS = (None, "additive", "projection-multiplicative")
INITIAL_PRESETS = ("taylor-green", "single-shear", "random", "zero", "eigenmode")


@dataclass
class RunConfig:
    """Fully typed run document with defaults at the desk scale."""

    n: int = 32
    dt: float = 1e-3
    t_final: float = 1.0
    record_stride: int = 1
    store_fields: bool = False
    alpha: float = 0.1
    delta: int = 0
    kappa: float = 0.25
    viscosity: float = 1.0
    noise_variant: str | None = "additive"
    noise_sigma: tuple = (0.25, 0.25, 0.2, 0.2)
    noise_modes: tuple = ((1, 0), (0, 1), (1, 1), (2, -1))
    noise_phases: tuple | None = None
    noise_probe_modes: tuple | None = None
    noise_offsets: tuple | None = None
    initial_preset: str = "random"
    initial_amplitude: float = 1.0
    initial_mode: tuple = ((0, 1),)
    initial_decay: float = 2.0
    control_path: str | None = None
    control_constant: tuple | None = None
    seed: int = 12345
    # experiment block
    threshold: float | None = None
    level: float | None = None
    observable_mode: tuple | None = None
    samples: int = 1000
    alphas: tuple = (0.4, 0.2, 0.1, 0.05)
    indices: tuple = (2, 4, 8, 16, 32)
    basis_count: int = 128
    beta_schedule: tuple = (1e1, 1e2, 1e3, 1e4)
    tolerance: float = 1e-3
    max_iterations: int = 500
    amplitude: float = 1.0
    trials: int = 100

    def set(self, key: str, text: str, source: str) -> None:
        """Set schema key ``section.key`` from its text; ``source`` (where the
        text came from) heads every error."""
        section, _, name = key.partition(".")
        if name not in SCHEMA.get(section, ()):
            raise ConfigError(f"{source}: unknown key {name!r} in [{section}]")
        attr, parse = SCHEMA[section][name]
        text = text.strip()
        if text.lower() in ("", "none"):
            if attr not in _UNSETTABLE:
                raise ConfigError(f"{source}: {key} needs a value")
            setattr(self, attr, None)
            return
        try:
            setattr(self, attr, parse(text))
        except ValueError as exc:
            raise ConfigError(f"{source}: bad value for {key!r}: {exc}") from exc

    def validate(self):
        if self.noise_variant not in NOISE_VARIANTS:
            raise ConfigError(f"unknown noise variant {self.noise_variant!r}")
        if self.initial_preset not in INITIAL_PRESETS:
            raise ConfigError(f"unknown initial preset {self.initial_preset!r}")
        if self.delta not in (0, 1):
            raise ConfigError("model.delta must be 0 or 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("model.alpha must lie in [0, 1]")
        if not 0.0 < self.kappa < 0.5:
            raise ConfigError("model.kappa must lie in (0, 1/2)")
        return self

    # -- materialization ---------------------------------------------------

    def build_lattice(self) -> TorusLattice:
        return make_lattice(self.n)

    def build_noise(self, lattice: TorusLattice) -> NoiseOperator | None:
        if self.noise_variant is None:
            return None
        if self.noise_variant == "additive":
            return additive_noise(lattice, self.noise_sigma, self.noise_modes, self.noise_phases)
        probes = self.noise_probe_modes or self.noise_modes
        offsets = self.noise_offsets or tuple(0.0 for _ in self.noise_sigma)
        return projection_multiplicative_noise(
            lattice, self.noise_sigma, self.noise_modes, probes, offsets
        )

    def build_solver_config(self, lattice=None, noise=None, **overrides) -> SolverConfig:
        lattice = self.build_lattice() if lattice is None else lattice
        if noise is None:
            noise = self.build_noise(lattice)
        kw = dict(
            lattice=lattice,
            dt=self.dt,
            t_final=self.t_final,
            alpha=self.alpha,
            kappa=self.kappa,
            noise=noise,
            viscosity=self.viscosity,
            record_stride=self.record_stride,
            store_fields=self.store_fields,
        )
        kw.update(overrides)
        return SolverConfig(**kw)

    def build_initial(self, lattice: TorusLattice) -> SpectralField:
        if self.initial_preset == "taylor-green":
            return taylor_green(lattice, self.initial_amplitude)
        if self.initial_preset == "single-shear":
            return single_shear(lattice, self.initial_mode[0], self.initial_amplitude)
        if self.initial_preset == "eigenmode":
            return eigenmode_field(lattice, self.initial_mode[0], amplitude=self.initial_amplitude)
        if self.initial_preset == "zero":
            return zero_field(lattice)
        rng = np.random.default_rng((self.seed, INITIAL_STREAM))
        return random_field(lattice, rng, decay=self.initial_decay, norm=self.initial_amplitude)

    def observable_field(self, lattice: TorusLattice) -> SpectralField:
        mode = self.observable_mode or ((1, 0),)
        return eigenmode_field(lattice, mode[0])

    # -- round trip ----------------------------------------------------------

    def to_document(self) -> str:
        """Resolved document echoing every schema key (reparseable)."""
        values = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        lines = []
        for section, keys in SCHEMA.items():
            lines.append(f"[{section}]")
            for key, (attr, _) in keys.items():
                v = values[attr]
                if v is None:
                    v = "none" if attr == "noise_variant" else ""
                lines.append(f"{key} = {_render(v)}")
            lines.append("")
        return "\n".join(lines)


# the keys that an empty or ``none`` value unsets: the optional ones, and the
# noise variant, whose ``none`` is the run without noise
_UNSETTABLE = {f.name for f in dc_fields(RunConfig) if f.default is None} | {"noise_variant"}


def _render(v):
    if isinstance(v, tuple):
        if v and isinstance(v[0], tuple):
            return ", ".join(f"{a} {b}" for a, b in v)
        return ", ".join(_render(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse and schema-validate a run document; errors carry line numbers."""
    cfg = RunConfig()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        cfg.set(f"{section}.{key.strip()}", value, f"{source}:{lineno}")
    return cfg.validate()


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


# ---------------------------------------------------------------------------
# Named presets (one-liner acceptance runs)
# ---------------------------------------------------------------------------


def preset(name: str) -> RunConfig:
    """Shipped presets: taylor-green, single-shear, ou-toy, unified-default."""
    if name == "taylor-green":
        cfg = RunConfig(
            n=32, dt=1e-3, t_final=0.5, alpha=0.1, noise_variant=None,
            initial_preset="taylor-green", record_stride=10,
        )
    elif name == "single-shear":
        cfg = RunConfig(
            n=32, dt=1e-3, t_final=0.5, alpha=0.1, noise_variant=None,
            initial_preset="single-shear", initial_mode=((0, 1),), record_stride=10,
        )
    elif name == "ou-toy":
        cfg = RunConfig(
            n=4, dt=0.01, t_final=1.0, alpha=0.025, delta=0,
            noise_variant="additive", noise_sigma=(1.0,), noise_modes=((1, 0),),
            initial_preset="zero", observable_mode=((1, 0),), level=0.32,
            alphas=(0.1, 0.05, 0.025), samples=100000, record_stride=10,
        )
    elif name == "unified-default":
        cfg = RunConfig()  # desk scale: n=32, dt=1e-3, T=1, rank-4 additive noise
    else:
        raise ConfigError(f"unknown preset {name!r}")
    return cfg.validate()
