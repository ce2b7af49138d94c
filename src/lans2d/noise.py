"""Finite-rank noise coefficients, Wiener sampling and deterministic controls.

The noise coefficient maps a velocity field to a finite-rank operator from the
noise space K = R^J into H.  Two concrete families are shipped:

* ``additive``:  G(u) h = sum_j sigma_j h_j phi_j
* ``projection-multiplicative``:  G(u) h = sum_j sigma_j ((u, psi_j)_H + c_j) h_j phi_j

with fixed unit-H-norm divergence-free output directions ``phi_j`` (and unit
probes ``psi_j``).  Both are Lipschitz and of linear growth in the
Hilbert-Schmidt norms of HS(K, H) and HS(K, V) with the constructive constant
``C = sum_j sigma_j * max(1, ||phi_j||_V)``; offsets are restricted to
``|c_j| <= 1`` so the same constant also bounds the growth.

An eigenmode direction touches at most 2 stored band entries (the
unified-default's rank-4 noise touches 7 of 132 at n = 16), so the operator
keeps, from construction, the indices of the entries where any output is
nonzero, its support, and the outputs' values there, shape ``(J, s)``.
``apply`` zero-fills the result and writes
``einsum("...k,ks->...s", w, values)`` onto the support; ``apply_smoothed``
multiplies those ``s`` sums by the smoother's reciprocal table on the
support.  Both equal the dense ``einsum`` over every entry and the division
of the whole field as floats: einsum sums the same products in the same
order, which a BLAS product does not (its order follows the shape and the
thread count).  Both also take the step's ``scale`` and multiply the
support values by it last, so a stepper adds the scaled term to its state
in one pass where it scaled the whole term first.

Trajectory ``i`` of a Monte Carlo run draws its increments from the stream
``default_rng((master_seed, i))`` (``trajectory_wiener``).  A batch seeds its
streams in bulk: ``_stream_seeds`` computes the PCG64 seeds that
``SeedSequence((master_seed, i))`` gives, for a whole index range, in numpy
uint32 arithmetic, and ``_SeedWords`` hands each one to its ``PCG64``, so a
batch row holds the stream's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import TorusLattice, eigenmode_field

ADDITIVE = "additive"
MULTIPLICATIVE = "projection-multiplicative"


def _frozen(a, dtype) -> np.ndarray:
    """A read-only copy of ``a`` as ``dtype``."""
    a = np.array(a, dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class NoiseOperator:
    """Finite-rank noise coefficient G: ``rank`` output fields of ``lattice.shape``."""

    lattice: TorusLattice
    variant: str
    sigma: np.ndarray            # (J,), positive amplitudes
    outputs: np.ndarray          # (J, *lattice.shape) unit-H-norm divergence-free fields
    probes: np.ndarray | None = None   # (J, *lattice.shape), multiplicative only
    offsets: np.ndarray | None = None  # (J,), multiplicative only, |c_j| <= 1

    def __post_init__(self):
        if self.variant not in (ADDITIVE, MULTIPLICATIVE):
            raise ValueError(f"unknown noise variant {self.variant!r}")
        sigma = _frozen(self.sigma, float)
        if sigma.ndim != 1 or sigma.size == 0 or np.any(sigma <= 0):
            raise ValueError("sigma must be a nonempty vector of positive amplitudes")
        object.__setattr__(self, "sigma", sigma)
        J = sigma.size
        shape = (J,) + self.lattice.shape
        outputs = _frozen(self.outputs, np.complex128)
        if outputs.shape != shape:
            raise ValueError(f"outputs must have shape {shape} (J fields)")
        object.__setattr__(self, "outputs", outputs)
        hnorm = self.lattice.norm_h(outputs)
        if np.abs(hnorm - 1.0).max() > 1e-8:
            raise ValueError("output directions must have unit H-norm")
        div = self.lattice.k1 * outputs[:, 0] + self.lattice.k2 * outputs[:, 1]
        if np.abs(div).max() > 1e-10:
            raise ValueError("output directions must be divergence-free")
        if self.variant == MULTIPLICATIVE:
            if self.probes is None or self.offsets is None:
                raise ValueError("multiplicative noise needs probes and offsets")
            probes = _frozen(self.probes, np.complex128)
            if probes.shape != shape:
                raise ValueError(f"probes must have shape {shape} (J fields)")
            offsets = _frozen(self.offsets, float)
            if offsets.shape != (J,):
                raise ValueError("offsets must have shape (J,)")
            if np.any(np.abs(offsets) > 1.0):
                raise ValueError("offsets must satisfy |c_j| <= 1")
            object.__setattr__(self, "probes", probes)
            object.__setattr__(self, "offsets", offsets)
        # (component, row, column) of each entry where some output is nonzero
        support = np.nonzero(np.any(outputs != 0, axis=0))
        values = outputs[(slice(None),) + support]
        for arr in support + (values,):
            arr.setflags(write=False)
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_values", values)

    @property
    def rank(self) -> int:
        return int(self.sigma.size)

    def coefficients(self, u: np.ndarray | None) -> np.ndarray:
        """Per-direction scalar weights sigma_j * ((u, psi_j) + c_j), with the
        batch axes of ``u``; additive noise gives sigma itself (read-only),
        which broadcasts against any batch."""
        if self.variant == ADDITIVE:
            return self.sigma
        if u is None:
            raise ValueError("multiplicative noise needs the current field")
        proj = self.lattice.inner_h(u[..., None, :, :, :], self.probes)
        return self.sigma * (proj + self.offsets)

    def apply(self, u: np.ndarray | None, coords: np.ndarray, scale=1.0, out=None) -> np.ndarray:
        """``scale G(u) . coords`` as a raw coefficient array (batch axes
        allowed), written into ``out`` if given.

        ``scale`` (a step's ``dt`` or noise scale) multiplies the support
        values before they are scattered: a float, or per-row factors of
        shape ``batch + (1,)``.  Each value is then the float that scaling
        the unscaled term gives, and off the support the term is ``+0``, so a
        caller adds it in one pass."""
        return self._scatter(u, coords, scale, out)

    def apply_smoothed(self, u, coords, alpha: float, scale=1.0, out=None) -> np.ndarray:
        """``scale (I + alpha^2 A)^{-1} G(u) . coords``, smoothed and then
        scaled on the support only (``scale`` as in ``apply``)."""
        return self._scatter(u, coords, scale, out, self.lattice.smoothing_tables(alpha)[0])

    def _scatter(self, u, coords, scale, out, smoother=None):
        coords = np.asarray(coords, float)
        if coords.shape[-1] != self.rank:
            raise ValueError(f"expected {self.rank} noise coordinates, got {coords.shape[-1]}")
        values = np.einsum("...k,ks->...s", self.coefficients(u) * coords, self._values)
        if smoother is not None:
            np.multiply(values, smoother[self._support[1:]], out=values)
        values = np.multiply(values, scale)
        lead = values.shape[:-1]
        if u is not None and u.shape[:-3] != lead:  # additive: u's batch
            lead = np.broadcast_shapes(lead, u.shape[:-3])
        shape = lead + self.lattice.shape
        if out is None:
            out = np.zeros(shape, np.complex128)
        elif out.shape != shape:  # the scatter would broadcast into it
            raise ValueError(f"out has shape {out.shape}, the noise term {shape}")
        else:
            out.fill(0)
        out[(Ellipsis,) + self._support] = values
        return out

    def hs_norms(self, u: np.ndarray | None) -> tuple[float, float]:
        """Hilbert-Schmidt norms of G(u) into H and into V (exact, finite rank)."""
        w = self.coefficients(u)
        h2 = self.lattice.norm_h(self.outputs) ** 2
        v2 = self.lattice.norm_v(self.outputs) ** 2
        return (
            float(np.sqrt(np.sum(w**2 * h2, axis=-1))),
            float(np.sqrt(np.sum(w**2 * v2, axis=-1))),
        )

    def lipschitz_constant(self) -> float:
        """Constructive Lipschitz/growth constant sum_j sigma_j max(1, ||phi_j||_V)."""
        vnorm = self.lattice.norm_v(self.outputs)
        return float(np.sum(self.sigma * np.maximum(1.0, vnorm)))


def additive_noise(
    lattice: TorusLattice,
    sigma: Sequence[float],
    modes: Sequence[tuple[int, int]],
    phases: Sequence[float] | None = None,
) -> NoiseOperator:
    """Additive noise pushing rank-j amplitudes onto fixed eigenmode directions."""
    sigma = np.asarray(sigma, float)
    if len(modes) != sigma.size:
        raise ValueError("one wavevector per noise rank is required")
    phases = [0.0] * sigma.size if phases is None else list(phases)
    outputs = np.stack(
        [eigenmode_field(lattice, k, phase=ph).coeffs for k, ph in zip(modes, phases)]
    )
    return NoiseOperator(lattice, ADDITIVE, sigma, outputs)


def projection_multiplicative_noise(
    lattice: TorusLattice,
    sigma: Sequence[float],
    modes: Sequence[tuple[int, int]],
    probe_modes: Sequence[tuple[int, int]],
    offsets: Sequence[float],
) -> NoiseOperator:
    sigma = np.asarray(sigma, float)
    if not (len(modes) == len(probe_modes) == sigma.size == len(tuple(offsets))):
        raise ValueError("sigma, modes, probe_modes and offsets must share length")
    outputs = np.stack([eigenmode_field(lattice, k).coeffs for k in modes])
    probes = np.stack([eigenmode_field(lattice, k).coeffs for k in probe_modes])
    return NoiseOperator(
        lattice, MULTIPLICATIVE, sigma, outputs, probes, np.asarray(offsets, float)
    )


# ---------------------------------------------------------------------------
# Wiener paths and controls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WienerPath:
    """Truncated cylindrical Wiener increments: (steps, J) of N(0, dt) draws."""

    dt: float
    increments: np.ndarray
    seed: object = None

    @property
    def steps(self) -> int:
        return self.increments.shape[0]

    @property
    def rank(self) -> int:
        return self.increments.shape[1]


def sample_wiener(J: int, dt: float, steps: int, seed) -> WienerPath:
    """Reproducible increments; ``seed`` may be an int or a sequence of ints."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal((steps, J)) * np.sqrt(dt)
    return WienerPath(dt, inc, seed)


def trajectory_wiener(J: int, dt: float, steps: int, master_seed: int, index: int) -> WienerPath:
    """Independent per-trajectory stream derived from (master seed, index)."""
    return sample_wiener(J, dt, steps, (int(master_seed), int(index)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words; its hash constants do not depend on the entropy
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """``n >= 0`` as SeedSequence reads an int: little-endian 32-bit words."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """SeedSequence's hash constant before and after each of its updates."""
    while True:
        after = init * mult & _MASK32
        yield init, after
        init = after


def _hashmix(value, constants):
    before, after = next(constants)
    value = (value ^ before) * after
    return value ^ (value >> 16)


def _mix(x, y):
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> 16)


def _stream_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The PCG64 seeds of streams ``start..stop-1``, shape ``(stop - start, 4)``.

    Row ``i - start`` is ``np.random.SeedSequence((master_seed, i))
    .generate_state(4, np.uint64)``, the seed ``trajectory_wiener`` gives its
    generator, computed by SeedSequence's hash in uint32 arithmetic over the
    whole index range at once.  The range is split where an index's high words
    change (at multiples of 2**32), so that only the lowest index word varies
    within a part.
    """
    entropy_head = _uint32_words(int(master_seed))
    start, stop = int(start), int(stop)
    seeds = np.empty((max(stop - start, 0), 2 * _POOL), np.uint32)
    lo = start
    while lo < stop:
        hi = min(stop, ((lo >> 32) + 1) << 32)
        words = np.array(entropy_head + _uint32_words(lo), np.uint32)
        entropy = np.repeat(words[:, None], hi - lo, axis=1)
        entropy[len(entropy_head)] += np.arange(hi - lo, dtype=np.uint32)  # the low index word
        seeds[lo - start:hi - start] = _generate_state(_mix_entropy(entropy)).T
        lo = hi
    # SeedSequence pairs its words little-endian into each uint64
    return seeds.astype("<u4").view("<u8").astype(np.uint64)


def _mix_entropy(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's pool from ``entropy``, one word per row of columns."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(entropy.shape[1], np.uint32)
    pool = [_hashmix(entropy[i] if i < len(entropy) else zero, constants)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    return pool


def _generate_state(pool: list[np.ndarray]) -> np.ndarray:
    """``generate_state`` of 8 uint32 words (4 uint64) from the pool's words."""
    constants = _hash_constants(_INIT_B, _MULT_B)
    return np.stack([_hashmix(pool[i % _POOL], constants) for i in range(2 * _POOL)])


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands a bit generator precomputed uint64 words."""

    def __init__(self, words: np.ndarray):
        self.words = np.ascontiguousarray(words, np.uint64)  # PCG64 reads its buffer

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.words.size or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {self.words.size} uint64 words")
        return self.words


@dataclass(frozen=True)
class Control:
    """Piecewise-constant deterministic control on the solver time grid."""

    dt: float
    values: np.ndarray  # (steps, J)

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def rank(self) -> int:
        return self.values.shape[-1]

    def same_grid(self, other: "Control") -> None:
        if self.values.shape != other.values.shape or self.dt != other.dt:
            raise ValueError("controls are defined on different grids")

    def __add__(self, other):
        self.same_grid(other)
        return Control(self.dt, self.values + other.values)

    def __mul__(self, scalar):
        return Control(self.dt, self.values * float(scalar))

    __rmul__ = __mul__


def zero_control(J: int, dt: float, steps: int) -> Control:
    return Control(dt, np.zeros((steps, J)))


def control_cost(h: Control) -> float:
    """Energy ``0.5 * integral ||h||_K^2 dt`` of a piecewise-constant control."""
    return 0.5 * h.dt * float(np.sum(h.values**2))


def sine_control(J: int, dt: float, steps: int, oscillation: int, direction=None,
                 amplitude: float = 1.0) -> Control:
    """``h(t) = amplitude * sin(2 pi q t / T) * direction`` on the grid of ``T = steps * dt``."""
    T = dt * steps
    direction = np.eye(J)[0] if direction is None else np.asarray(direction, float)
    t = np.arange(steps) * dt
    vals = amplitude * np.sin(2.0 * np.pi * oscillation * t / T)[:, None] * direction[None, :]
    return Control(dt, vals)


def weak_distance(h: Control, g: Control, basis_count: int = 128) -> float:
    """Truncated weak-topology metric between two controls.

    Uses the first ``basis_count`` elements of the orthonormal tensor basis
    ``sqrt(2/T) sin(pi q t / T) x e_j`` of L2(0, T; K), enumerated
    time-frequency-major, with weights ``2^-m``; the time integrals of the
    piecewise-constant controls against each basis element are exact.
    """
    h.same_grid(g)
    diff = h.values - g.values
    T = h.dt * h.steps
    tl = np.arange(h.steps) * h.dt
    tr = tl + h.dt
    total = 0.0
    m = 0
    q = 1
    while m < basis_count:
        cell = np.sqrt(2.0 / T) * (T / (np.pi * q)) * (
            np.cos(np.pi * q * tl / T) - np.cos(np.pi * q * tr / T)
        )
        for j in range(h.rank):
            m += 1
            if m > basis_count:
                break
            total += 0.5**m * abs(float(np.sum(diff[:, j] * cell)))
        q += 1
    return total
