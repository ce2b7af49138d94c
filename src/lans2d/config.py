"""Run configuration: key-value documents and presets.

A run document is plain text with ``[section]`` headers and ``key = value``
lines; a ``#`` at the start of a line or after whitespace opens a comment.
Each setting is declared once, as a ``RunConfig`` field that names its
section and its parser; its key is the field name without the ``section_``
prefix (``noise_sigma`` is ``[noise] sigma``).  Every setting, whether from a
document line, a ``--set`` override or a command-line shortcut flag, goes
through ``RunConfig.set``: unknown keys and bad values, a float that is nan
or infinite among them, are refused with where the text came from
(``file:line``, the ``--set`` pair or the flag).  An empty or ``none`` value
unsets the optional keys (default ``None``, echoed empty; ``noise.variant =
none`` means no noise) and is refused for every other key, and so is a value
that no echo could give back: one holding a ``#`` at its start or after
whitespace.  Every run directory receives the fully resolved document back,
so a run is reproducible from its own output.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields as dc_fields
from itertools import groupby
from pathlib import Path

import numpy as np

from .deviations import RateProblem
from .dynamics import ScalingLaw, SolverConfig
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
    """Malformed run document or setting."""


def _parse_float(s):
    """A finite float: no setting holds nan or an infinity."""
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {s.strip()!r}")
    return v


def _parse_floats(s):
    return tuple(_parse_float(tok) for tok in s.split(","))


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


def _setting(section, parse, default):
    """A ``RunConfig`` field whose document key is ``[section]`` and the field
    name without its ``section_`` prefix; ``parse`` turns the key's text into
    its value."""
    return field(default=default, metadata={"section": section, "parse": parse})


NOISE_VARIANTS = (None, "additive", "projection-multiplicative")
INITIAL_PRESETS = ("taylor-green", "single-shear", "random", "zero", "eigenmode")


@dataclass
class RunConfig:
    """Fully typed run document with defaults at the desk scale."""

    n: int = _setting("lattice", int, 32)
    dt: float = _setting("time", _parse_float, 1e-3)
    t_final: float = _setting("time", _parse_float, 1.0)
    record_stride: int = _setting("time", int, 1)
    alpha: float = _setting("model", _parse_float, 0.1)
    delta: int = _setting("model", int, 0)
    kappa: float = _setting("model", _parse_float, ScalingLaw.kappa)
    viscosity: float = _setting("model", _parse_float, 1.0)
    noise_variant: str | None = _setting("noise", str, "additive")
    noise_sigma: tuple = _setting("noise", _parse_floats, (0.25, 0.25, 0.2, 0.2))
    noise_modes: tuple = _setting("noise", _parse_modes, ((1, 0), (0, 1), (1, 1), (2, -1)))
    noise_phases: tuple | None = _setting("noise", _parse_floats, None)
    noise_probe_modes: tuple | None = _setting("noise", _parse_modes, None)
    noise_offsets: tuple | None = _setting("noise", _parse_floats, None)
    initial_preset: str = _setting("initial", str, "random")
    initial_amplitude: float = _setting("initial", _parse_float, 1.0)
    initial_mode: tuple = _setting("initial", _parse_modes, ((0, 1),))
    initial_decay: float = _setting("initial", _parse_float, 2.0)
    control_path: str | None = _setting("control", str, None)
    control_constant: tuple | None = _setting("control", _parse_floats, None)
    threshold: float | None = _setting("experiment", _parse_float, None)
    level: float | None = _setting("experiment", _parse_float, None)
    observable_mode: tuple | None = _setting("experiment", _parse_modes, None)
    samples: int = _setting("experiment", int, 1000)
    alphas: tuple = _setting("experiment", _parse_floats, (0.4, 0.2, 0.1, 0.05))
    indices: tuple = _setting("experiment", _parse_ints, (2, 4, 8, 16, 32))
    basis_count: int = _setting("experiment", int, 128)
    beta_schedule: tuple = _setting("experiment", _parse_floats, RateProblem.beta_schedule)
    tolerance: float = _setting("experiment", _parse_float, RateProblem.tolerance)
    max_iterations: int = _setting("experiment", int, RateProblem.max_iterations)
    amplitude: float = _setting("experiment", _parse_float, 1.0)
    trials: int = _setting("experiment", int, 100)
    seed: int = _setting("run", int, 12345)

    def set(self, key: str, text: str, source: str) -> None:
        """Set document key ``section.key`` from its text; ``source`` (where
        the text came from) heads every error."""
        f = _KEYS.get(key)
        if f is None:
            section, _, name = key.partition(".")
            raise ConfigError(f"{source}: unknown key {name!r} in [{section}]")
        text = text.strip()
        if _COMMENT.search(text):
            raise ConfigError(f"{source}: {key} cannot hold '#' at its start or after "
                              "whitespace: the echo would read a comment there")
        if text.lower() in ("", "none"):
            # only the optional keys, and the noise variant (none: no noise), unset
            if f.default is not None and f.name != "noise_variant":
                raise ConfigError(f"{source}: {key} needs a value")
            setattr(self, f.name, None)
            return
        try:
            setattr(self, f.name, f.metadata["parse"](text))
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
        if not all(0.0 < a <= 1.0 for a in self.alphas):
            raise ConfigError("every experiment.alphas entry must lie in (0, 1]")
        # the initial field and the observable each take one wavevector
        for key, modes in (("initial.mode", self.initial_mode),
                           ("experiment.observable_mode", self.observable_mode)):
            if modes is not None and len(modes) != 1:
                raise ConfigError(f"{key} takes one wavevector, got {len(modes)}")
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

    def build_solver_config(self, lattice: TorusLattice) -> SolverConfig:
        return SolverConfig(
            lattice=lattice,
            dt=self.dt,
            t_final=self.t_final,
            alpha=self.alpha,
            kappa=self.kappa,
            noise=self.build_noise(lattice),
            viscosity=self.viscosity,
            record_stride=self.record_stride,
        )

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
        """Resolved document echoing every key (reparseable)."""
        lines = []
        for section, keys in groupby(_KEYS.items(), lambda item: item[1].metadata["section"]):
            lines.append(f"[{section}]")
            for key, f in keys:
                v = getattr(self, f.name)
                if v is None:
                    v = "none" if f.name == "noise_variant" else ""
                lines.append(f"{key.partition('.')[2]} = {_render(v)}")
            lines.append("")
        return "\n".join(lines)


# document key "section.key" -> its field, in the document's order
_KEYS = {f"{f.metadata['section']}.{f.name.removeprefix(f.metadata['section'] + '_')}": f
         for f in dc_fields(RunConfig)}
_SECTIONS = {f.metadata["section"] for f in _KEYS.values()}
# a '#' at the start of a line or after whitespace opens a comment
_COMMENT = re.compile(r"(?:^|\s)#")


def _render(v):
    if isinstance(v, tuple):
        if v and isinstance(v[0], tuple):
            return ", ".join(f"{a} {b}" for a, b in v)
        return ", ".join(_render(x) for x in v)
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate a run document; errors carry line numbers."""
    cfg = RunConfig()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
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
