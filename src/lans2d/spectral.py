"""Fourier-space machinery for divergence-free velocity fields on the 2D torus.

Fields live on ``[0, 2*pi]**2``.  The physical field is
``u(x) = sum_k uhat(k) e^{i k.x}``, so the L2 pairing carries the
``(2*pi)**2`` area factor and Parseval is exact.

Every field is real, ``uhat(-k) = conj uhat(k)``, and supported on the
dealiased band ``max(|k1|, |k2|) <= K = (n - 1) // 3`` (Orszag's two-thirds
rule): the product of two band fields has no alias inside the band.  A field
is stored as its band half ``uhat[c, i1, i2]``, shape ``(2, 2K+1, K+1)``:
component ``c``, rows ``k1 = 0..K, -K..-1`` (numpy FFT order, so mode ``k``
sits at row ``k1 % (2K+1)``) and columns ``k2 = 0..K``.  The ``k2 = 0``
column holds both signs of ``k1`` as conjugate pairs; the pairings count the
other columns twice, for their implied mirrors.  Everything diagonal in
Fourier space (Stokes powers, the Helmholtz smoother, the Leray projector)
is applied exactly.  The smoother ``(I + a^2 A)^{-1}`` and its inverse
multiply by complex tables made on the first use of each ``a`` and kept on
the lattice (``smoothing_tables``), the smoother by the reciprocal
``1 / (1 + a^2 lambda)``.  That is the division by ``1 + a^2 lambda`` to the
last bit: numpy divides a complex number by a real ``d`` as
``((re + 0 im) (1/d), (im - 0 re) (1/d))`` and multiplies it by ``r + 0i``
as ``(re r - 0 im, 0 re + im r)``, so with ``r = 1/d`` the two agree as
floats (a zero part may come out with the other sign).  Quadratic terms are
formed pseudo-spectrally by one kernel from a list of one or two terms, each
a value field paired with a second field: one real inverse transform of the
scalar planes the terms need, stacked, their products summed on the
``n x n`` grid, one real forward transform and the projection.  ``B~`` and the linearized drift
``B(u, v) + B(v, u)`` are formed in rotational form (Foias, Holm & Titi,
Physica D 152, 2001): ``B~(u, v) = P(q (-u_2, u_1))`` with
``q = d_1 v_2 - d_2 v_1`` the curl of ``v``, because the advective form
``u . grad v + sum_j v_j grad u_j`` differs from it by ``grad(u . v)``, which
``P`` removes.  So ``B~`` brings 3 planes per field to the grid, ``u_1``,
``u_2`` and ``q``, where the advective form takes 12, and the linearized drift
6.  ``B`` and ``adjoint_b_first`` have no such form and take 6 each: the value
field and the two gradients it is contracted with.  All operations accept
leading batch axes, i.e. shape ``(..., 2, 2K+1, K+1)``, and broadcast them.

The transforms go one axis at a time, each as GEMMs against DFT tables of
the band made with the lattice (``_dft_tables``) where the lattice is small
(``_DFT_WORK``: n <= 72), and through pocketfft (``numpy.fft``) otherwise.
The complex axis ``k1 <-> x1`` is a band-pruned DFT (Markel, IEEE Trans.
Audio Electroacoust. 19, 1971): one GEMM takes every ``(plane, k2)`` row of
a call between the band's ``2K + 1`` wavenumbers and the ``n`` points, with
no zero padding; pocketfft transforms a band copy padded to ``n`` rows.  The
real axis ``k2 <-> x2`` carries only the band's ``K + 1`` columns of the
``n // 2 + 1`` that ``irfft`` and ``rfft`` transform, one GEMM per plane.
A plane's GEMM has the same shape whatever the batch, and OpenBLAS runs a
GEMM that small on one thread; the complex axis's GEMM grows with the
batch, and OpenBLAS splits a large one between threads, but it sums each
entry over the same short axis in the same order whatever the rows (the
tests check 1-1 000 fields at n = 8-72, on one and two threads).  So a
field's rounding depends neither on its batch, its place in it nor the
thread count; from n = 116 on, two threads split the real axis's GEMM and
round it otherwise.  Against a direct DFT in long double the tables err by
at most 8.3e-16 of the largest value, pocketfft by 5.7e-16.  Through a
kernel's scratch on one BLAS thread, 3 planes to the grid and 2 back took
6.9 and 10.2 us by the tables where pocketfft's complex axis took 9.5 and
11.0 at n = 16, and 110 and 127 against 141 and 134 us for 64 fields.  From
n = 40-56 on the complex axis's GEMM is the slower (at n = 64, 49 and 41
against 40 and 33 us), but no workload runs there.

On the two-thirds band that product is the exact Galerkin convolution
(Orszag, J. Atmos. Sci. 28, 1971), so each quadratic form is a fixed bilinear
map of the ``m`` real coordinates of its operands: the re/im parts of the
stored entries but the ``k2 = 0`` column's ``k1 < 0`` rows and the mean's
imaginary part (m = 18 at n = 4 and 6, 50 at n = 8).  The four forms take
the kernel at every n; one map is kept as a tensor.  The LANS-alpha drift
``J_a B~(u, (I + a^2 A) u)`` (``btilde_alpha``), which every Monte Carlo
step takes, is a quadratic form of ``u`` alone.  Where ``B~``'s dense
tensor, ``m*m x 4(2K+1)(K+1)`` floats, fits ``_TENSOR_BYTES`` (n = 4 and 6),
the lattice builds it on first use by one batched kernel call on every pair
of basis fields and keeps the rows of the 84 of 324 pairs that contribute,
dropping rows that hold only the transforms' rounding.  The drift contracts
with a tensor of its own per ``a``, kept with ``a``'s smoothing tables:
``B~``'s rows, each pair's second coordinate scaled by ``1 + a^2 lambda``
and each output coordinate by ``1 / (1 + a^2 lambda)``, with the rows of
``(a, b)`` and ``(b, a)`` summed into one; one scratch serves every ``a``.
That leaves 60 unordered pairs, both gathers read ``u``, and neither a
transform nor a smoothing pass: 0.24 ms for 1 000 fields at n = 4 and 6
(2-vCPU Xeon VM, one BLAS thread, best of three runs).  The bound sits at
the measured crossover (same machine, a 1 000-field ``B~`` in rotational
form): at n = 4 (62 KB per tensor) 0.32 ms by its tensor against 1.33 ms by
the kernel, at n = 6 0.54 against 2.27 ms, at n = 8 (1.2 MB) 12.8 against
3.8 ms.  The contraction runs as GEMMs of a fixed ``_BLOCK`` rows, so a
field's rounding depends neither on its batch nor on its place in it; at
n = 4 and 6 it does not depend on the BLAS thread count either, which larger
GEMMs' does.  The contraction and the kernel agree to rounding (4e-16
relative).

The quadratic kernel allocates only the array it returns: its stack, grid
samples and transform intermediates live in a scratch kept on the lattice,
one per plane count (3 for ``B~``, 6 for ``B``, ``adjoint_b_first`` and
``linearized_b``), and the drift contraction's coordinates and products in
one of its own; each is made for the first batch shape and replaced when the
shape changes.  The kernel's scratch also holds every view a call goes through,
made with it: each term's planes of the stack and of the grid samples, the
stack transposed, the 2D views of the complex axis's GEMMs, the half spectra
and their float views, and the views that assemble the band coefficients
from the forward transform (and pocketfft's padded band copies).  So a
kernel call is a fixed, short run of numpy calls.
It hands the scratch to ``to_physical``, ``to_spectral`` and ``leray``,
which allocate their arrays only for other callers, and it broadcasts its
operands' shapes only when they differ.  numpy buffers a ufunc operand that
it broadcasts or that is not one contiguous run, so for one field the
kernel multiplies by whole ``i k`` tables and forms the grid products plane
by plane, and for a batch the scratch holds the Leray tables at the batch's
shape, up to ``_LERAY_BLOCK`` fields.  A lattice is not to be
shared between threads that use it at the same time; pickling it sends only
``n``, neither the scratch nor the drift's tensors.

The reports at the end take the worst ratio of each check over random field
triples ``u, v, w``, from one table per triple: each identity's residual and
its scale (``identity_report``), and each estimate's ``(lhs, rhs)`` from the
two pairings ``|<B(u,v),w>|``, ``|<B~(u,v),w>|`` and the H, V and A norms of
the triple (``calibrate_estimates``), each product and norm computed once.
``IDENTITY_BOUND`` and ``OPERATOR_BOUNDS`` hold the bounds that
``verify-identities`` checks, with their rounding slack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# The drift btilde_alpha contracts with a Galerkin tensor when B~'s dense
# tensor has at most this many bytes (n = 4 and 6: 62 KB), and goes through
# the kernel otherwise (n = 8: 1.2 MB); the module docstring has the crossover.
_TENSOR_BYTES = 1 << 18
# Rows per GEMM of a tensor contraction.  BLAS picks its summation order by
# the shape (and takes gemv for one row), so a fixed block keeps each row's
# rounding independent of the batch and of the row's place in it.
_BLOCK = 32
# A tensor row whose entries are all at most this fraction of the tensor's
# largest is rounding where the exact Galerkin product is zero.
_ROUNDING = 1e-12
# Scalar planes a term of each pairing stacks for the transforms.
_PLANES = {"curl": 3, "d": 6, "grad": 6}
# Smoothing scales whose tables and drift tensors a lattice keeps; a sweep
# past them starts over.
_SMOOTHERS = 8
# Both axes of the transforms run as GEMMs against DFT tables of the band
# where the real axis's GEMM, one per plane, has at most this many
# multiply-adds (n * n * 2(K + 1); n <= 72), and through pocketfft otherwise.
# OpenBLAS gives a GEMM this small one thread, so its rounding does not depend
# on the thread count; the module docstring has the crossover, which for the
# complex axis lies lower (n = 40-56), where no workload runs.
_DFT_WORK = 1 << 18
# Fields per block of a batched kernel call's Leray projection: a kernel
# scratch holds the projector's tables for one block, not for its batch.
_LERAY_BLOCK = 64


class LatticeMismatchError(ValueError):
    """Raised when two fields do not share a lattice."""


@dataclass(frozen=True)
class TorusLattice:
    """Wavevector lattice for ``n`` modes per dimension on the 2D torus.

    Parameters
    ----------
    n : int
        Grid points per dimension; must be even and at least 4.

    Attributes
    ----------
    shape : tuple
        Coefficient shape of one field, the band half ``(2, 2K+1, K+1)``.
    k1, k2 : ndarray of int, shape (2K+1, K+1)
        Integer wavevector components of the stored modes.
    eigenvalue : ndarray, shape (2K+1, K+1)
        Stokes eigenvalues ``|k|**2 = k1**2 + k2**2``.
    active : ndarray of bool, shape (2K+1, K+1)
        Retained modes: every stored mode but ``k = 0`` (zero mean).
    """

    n: int
    shape: tuple = field(init=False, repr=False, compare=False)
    k1: np.ndarray = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvalue: np.ndarray = field(init=False, repr=False, compare=False)
    active: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 4:
            raise ValueError(f"lattice size must be even and >= 4, got {self.n}")
        edge = (self.n - 1) // 3
        rows = 2 * edge + 1
        k1, k2 = np.meshgrid(np.fft.fftfreq(rows, d=1.0 / rows).astype(np.int64),
                             np.arange(edge + 1), indexing="ij")
        lam = (k1**2 + k2**2).astype(np.float64)
        nonzero = lam > 0
        lam_safe = np.where(nonzero, lam, 1.0)
        # pairings: (2 pi)^2 per mode, twice on k2 > 0 for the implied k2 < 0
        w_h = np.where(k2 > 0, 2.0, 1.0) * TWO_PI**2
        # Leray projector I - k k^T / |k|^2, zero on the mean mode; its tables
        # are complex like the fields, so that applying it casts nothing
        k = np.stack([k1, k2])
        proj = np.where(nonzero, np.eye(2)[:, :, None, None] - k[:, None] * k / lam_safe, 0.0)
        ik = np.zeros(k.shape, np.complex128)
        ik.imag = k
        for name, arr in (
            ("k1", k1),
            ("k2", k2),
            ("eigenvalue", lam),
            ("active", nonzero),
            ("_lam_safe", lam_safe),
            ("_p_diag", proj[[0, 1], [0, 1]].astype(np.complex128)),  # p11, p22
            ("_p_cross", proj[[0, 1], [1, 0]].astype(np.complex128)),  # p12, p21
            ("_ik", ik),  # i k1, i k2
            # i k_j for both components of a vector, and i k2, i k1, as whole
            # tables: numpy buffers a ufunc operand that it broadcasts or that
            # is not one contiguous run, and an unbatched kernel call
            # multiplies whole fields by these without either
            ("_ik_1", ik[[0, 0]]),
            ("_ik_2", ik[[1, 1]]),
            ("_ik_reversed", ik[::-1].copy()),
            ("_w_h", w_h),
            ("_w_v", w_h * lam),
            ("_w_a", w_h * lam**2),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # the real coordinates of a field, indices into its float view: the
        # re/im parts of every stored entry but the k2 = 0 column's k1 < 0 rows
        # (conjugates) and the mean mode's imaginary part
        keep = np.ones((2, rows, edge + 1, 2), bool)
        keep[:, edge + 1 :, 0] = False
        keep[:, 0, 0, 1] = False
        coords = np.flatnonzero(keep)
        small = coords.size**2 * keep.size * 8 <= _TENSOR_BYTES
        object.__setattr__(self, "shape", (2, rows, edge + 1))
        object.__setattr__(self, "_edge", edge)
        object.__setattr__(self, "_coords", coords)
        dft = self.n * self.n * 2 * (edge + 1) <= _DFT_WORK
        object.__setattr__(self, "_dft", _dft_tables(self.n, edge) if dft else None)
        object.__setattr__(self, "_galerkin", small)  # btilde_alpha contracts
        # plane count -> _KernelScratch, ("drift",) -> _ContractionScratch
        object.__setattr__(self, "_scratch", {})
        # alpha -> [smoothing_tables(alpha), its drift tensor or None]
        object.__setattr__(self, "_smoothers", {})

    def __reduce__(self):
        # rebuilt from n: neither the tables, the drift's tensors nor the scratch are pickled
        return (TorusLattice, (self.n,))

    # -- transforms ---------------------------------------------------------

    def to_physical(self, coeffs: np.ndarray, scratch=None) -> np.ndarray:
        """Collocation samples of a real field's coefficients, shape ``(..., n, n)``.

        ``scratch``, a kernel scratch whose stack ``coeffs`` is, holds the
        samples and the transform's intermediates; without it they are
        allocated.
        """
        if scratch is None:
            s = _Inverse.allocate(self.n, self._edge, coeffs, self._dft is not None)
        else:
            s = scratch.inverse
            if coeffs is not s.coeffs:
                raise ValueError("a kernel scratch transforms only its own stack")
        # numpy transforms short strided rows slowly: transform k1 along a
        # contiguous last axis, then k2 -> x2 transposed back
        if self._dft is None:  # pocketfft, on a band copy padded to n rows
            np.copyto(s.band_low, s.rows_low)
            s.band_padding.fill(0)
            np.copyto(s.band_high, s.rows_high)
            np.fft.ifft(s.band, axis=-1, norm="forward", out=s.band)
            np.copyto(s.half, s.band_columns)
            # irfft pads the K + 1 columns to n // 2 + 1 itself
            return np.fft.irfft(s.half, n=self.n, axis=-1, norm="forward", out=s.phys)
        np.copyto(s.rows, s.coeffs_rows)
        np.matmul(s.rows_flat, self._dft[2], out=s.band_flat)  # one GEMM over every row
        np.copyto(s.half, s.band_columns)
        return np.matmul(s.half_floats, self._dft[0], out=s.phys)  # one GEMM per plane

    def to_spectral(self, phys: np.ndarray, scratch=None) -> np.ndarray:
        """Band coefficients of real grid samples, shape ``(..., 2K+1, K+1)``.

        The ``k2 = 0`` column's rows ``k1 < 0`` are the conjugates of its rows
        ``k1 > 0``, so the result is a real field's by construction.
        ``scratch``, a kernel scratch for ``phys``' batch, holds the result and
        the transform's intermediates; without it they are allocated.
        """
        if scratch is None:
            # numpy hands matmul to BLAS only for contiguous planes; its own loop rounds otherwise
            phys = np.ascontiguousarray(phys, np.float64)
            s = _Forward.allocate(self.n, self._edge, phys, self._dft is not None)
        else:
            s = scratch.forward
        if self._dft is None:
            np.fft.rfft(phys, axis=-1, norm="forward", out=s.half)
            np.copyto(s.band, s.half_columns)
            np.fft.fft(s.band, axis=-1, norm="forward", out=s.band)
        else:
            np.matmul(phys, self._dft[1], out=s.half_floats)  # one GEMM per plane
            np.copyto(s.band, s.half_columns)
            np.matmul(s.band_flat, self._dft[3], out=s.rows_flat)  # one GEMM over every row
        np.copyto(s.out_low, s.rows_low)
        np.copyto(s.out_high, s.rows_high)
        np.conjugate(s.mirrored, out=s.out_mirrors)  # u(-k) = conj u(k)
        return s.out

    def grid(self):
        """Physical collocation points (X, Y), each shape (n, n)."""
        x = TWO_PI * np.arange(self.n) / self.n
        return np.meshgrid(x, x, indexing="ij")

    # -- diagonal operators --------------------------------------------------

    def leray(self, coeffs: np.ndarray, scratch=None) -> np.ndarray:
        """Helmholtz-Leray projection ``I - k k^T / |k|^2``; zeroes the mean mode.

        ``scratch``, a kernel scratch for ``coeffs``' batch, holds the
        off-diagonal products and the projector's tables at that batch's
        shape, or at ``_LERAY_BLOCK`` fields for a larger batch, which is then
        projected block by block; without it the products are allocated and
        the tables broadcast.
        """
        # numpy buffers each operand of a ufunc that it broadcasts or that is
        # not one contiguous run: here the tables, unless the scratch has them
        # at the shape of what they multiply
        if scratch is None:
            return _project(coeffs, np.empty(coeffs.shape, np.complex128),
                            self._p_diag, self._p_cross)
        work, p_diag, p_cross = scratch.work, scratch.p_diag, scratch.p_cross
        if p_diag.shape == work.shape:
            return _project(coeffs, work, p_diag, p_cross)
        fields, work = (a.reshape((-1,) + self.shape) for a in (coeffs, work))
        out = np.empty(fields.shape, np.complex128)
        for at in range(0, len(fields), len(p_diag)):
            block = slice(at, at + len(p_diag))
            rows = len(out[block])
            _project(fields[block], work[block], p_diag[:rows], p_cross[:rows], out[block])
        return out.reshape(coeffs.shape)

    def stokes(self, coeffs: np.ndarray, power: float) -> np.ndarray:
        """Apply ``A**power`` (diagonal: ``|k|**(2*power)``); mean mode stays 0."""
        if power == 0:
            return coeffs.copy()
        mult = np.where(self.active, self._lam_safe**power, 0.0)
        return coeffs * mult

    def _smoothing(self, alpha):
        """``alpha``'s entry ``[smoothing_tables(alpha), drift tensor]`` (the
        tensor ``None`` until :meth:`_drift_tensor` makes it)."""
        entry = self._smoothers.get(alpha)
        if entry is None:
            if len(self._smoothers) >= _SMOOTHERS:
                self._smoothers.clear()
            factor = 1.0 + alpha * alpha * self.eigenvalue
            tables = (1.0 / factor).astype(np.complex128), factor.astype(np.complex128)
            for table in tables:
                table.setflags(write=False)
            entry = self._smoothers[alpha] = [tables, None]
        return entry

    def smoothing_tables(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """``(1 / (1 + alpha^2 lambda), 1 + alpha^2 lambda)``, read-only complex
        tables of shape ``(2K+1, K+1)``, made on the first use of ``alpha``."""
        return self._smoothing(alpha)[0]

    def smooth(self, coeffs: np.ndarray, alpha: float, out=None) -> np.ndarray:
        """Helmholtz smoother ``(I + alpha^2 A)^{-1}``, exact per mode."""
        return np.multiply(coeffs, self.smoothing_tables(alpha)[0], out=out)

    def unsmooth(self, coeffs: np.ndarray, alpha: float, out=None) -> np.ndarray:
        """Inverse smoother ``I + alpha^2 A``."""
        return np.multiply(coeffs, self.smoothing_tables(alpha)[1], out=out)

    # -- pairings ------------------------------------------------------------

    def inner_h(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """L2 inner product over the torus; reduces the trailing field axes."""
        return np.sum(self._w_h * (a * np.conj(b)).real, axis=(-3, -2, -1))

    def _weighted_norm(self, a, weight):
        return np.sqrt(np.sum(weight * (a.real**2 + a.imag**2), axis=(-3, -2, -1)))

    def norm_h(self, a: np.ndarray) -> np.ndarray:
        return self._weighted_norm(a, self._w_h)

    def norm_h_ceiling(self, peak: float) -> float:
        """An upper bound on ``norm_h`` of every field whose float view has no
        entry above ``peak`` in magnitude: an entry's modulus is at most
        ``sqrt(2) peak`` and each of the 2 components weights it by ``_w_h``,
        so ``|a|_H <= 2 peak sqrt(sum _w_h)``."""
        return 2.0 * peak * math.sqrt(float(np.sum(self._w_h)))

    def norm_v(self, a: np.ndarray) -> np.ndarray:
        return self._weighted_norm(a, self._w_v)

    def norm_a(self, a: np.ndarray) -> np.ndarray:
        """``|A u|`` (H-norm of the Stokes image)."""
        return self._weighted_norm(a, self._w_a)

    def norm_alpha(self, a: np.ndarray, alpha: float) -> np.ndarray:
        # |u|^2 + alpha^2 |A u|^2
        return self._weighted_norm(a, self._w_h + alpha * alpha * self._w_a)

    def norm_table(self, alpha: float) -> np.ndarray:
        """The weights of ``norm_h``, ``norm_v``, ``norm_a`` and ``norm_alpha``
        at ``alpha``, stacked for :meth:`stacked_norms`: shape ``(4, 2, 2K+1, K+1)``."""
        weights = (self._w_h, self._w_v, self._w_a, self._w_h + alpha * alpha * self._w_a)
        return np.stack([np.broadcast_to(w, self.shape) for w in weights])

    def stacked_norms(self, a: np.ndarray, table: np.ndarray) -> np.ndarray:
        """The norm of each weight in ``table`` (rows of :meth:`norm_table`)
        from one reduction, shape ``(len(table),) + a.shape[:-3]``; each equals
        its own norm method's value bit for bit."""
        lead = (1,) * (a.ndim - 3)  # a batch broadcasts against each row
        return self._weighted_norm(a, table.reshape(table.shape[:1] + lead + table.shape[1:]))

    # -- quadratic terms ------------------------------------------------------

    def _quadratic(self, terms):
        """``P sum_t F_t`` over a short list of terms ``(x, pairing, f)``, the
        one kernel of every quadratic form at every n.

        Each term pairs one value field ``x`` with field ``f``.  For ``"d"``
        (advection, ``x . grad f``) and ``"grad"`` (the transpose,
        ``(grad f)^T x``) it is ``sum_j x_j g_j`` with the vector field ``g_j``
        ``d_j f`` or ``grad f_j``; for ``"curl"`` it is ``q (-x_2, x_1)``,
        ``-x`` cross the curl ``q = d_1 f_2 - d_2 f_1`` of ``f``.  Every term
        writes the scalar planes it needs on the band into one stack: a
        ``"curl"`` term 3 (``(-x_2, x_1)`` and ``q``), a ``"d"`` or ``"grad"``
        term 6 (``x``, ``g_1`` and ``g_2``).  One inverse transform brings the
        stack to the grid, where each term's products of scalars with vectors
        are formed in place of the vectors and the products are summed; one
        forward transform (which keeps only the band) brings the sum back, and
        it is projected.  Everything but the projected result lives in the
        lattice's scratch, written through views it made once.
        """
        shapes = [a.shape for x, _, f in terms for a in (x, f)]
        shape = shapes[0]
        if shapes.count(shape) < len(shapes):
            shape = np.broadcast_shapes(*shapes)
        pairings = tuple([pairing for _, pairing, _ in terms])
        planes = sum([_PLANES[pairing] for pairing in pairings])
        s = self._scratch.get(planes)
        if s is None or s.batch != shape[:-3]:
            s = self._scratch[planes] = _KernelScratch(self, shape[:-3], planes)
        fills, products, (w, *addends) = s.layout(pairings)
        for (x, pairing, f), views in zip(terms, fills):
            if pairing == "curl":
                rotated, reversed_, first, second, q = views
                np.multiply(f, self._ik_reversed, out=rotated)  # d_2 f_1, d_1 f_2
                np.subtract(second, first, out=q)  # q = d_1 f_2 - d_2 f_1
                np.copyto(reversed_, x)  # x_2, x_1
                np.negative(first, out=first)  # -x_2, x_1
                continue
            value, g_1, g_2 = views
            np.copyto(value, x)
            if pairing == "d":  # g_j = d_j f
                np.multiply(f, self._ik_1, out=g_1)
                np.multiply(f, self._ik_2, out=g_2)
            else:  # g_j = grad f_j
                np.multiply(f[..., :1, :, :], self._ik, out=g_1)
                np.multiply(f[..., 1:, :, :], self._ik, out=g_2)
        self.to_physical(s.stack, s)
        for scalar, vector in products:
            np.multiply(scalar, vector, out=vector)
        for vector in addends:  # the sum accumulates in place of the first product
            np.add(w, vector, out=w)
        return self.leray(self.to_spectral(w, s), s)

    @functools.cached_property
    def _btilde_tensor(self):
        """``B~``'s Galerkin tensor ``(x_at, f_at, rows)``, which only
        :meth:`_drift_tensor` reads.  Row ``p`` of ``rows`` is ``B~(e_a, e_b)``
        of basis fields ``e_a`` and ``e_b`` viewed as floats, for the pairs
        ``p = (a, b)`` whose row holds more than rounding; ``x_at``, ``f_at``
        index coordinates ``a``, ``b`` in a field's float view.  Built on first
        use by one batched kernel call on every basis pair."""
        m, K = len(self._coords), self._edge
        e = np.zeros((m, 4 * math.prod(self.shape[1:])))
        e[np.arange(m), self._coords] = 1.0
        e = e.view(np.complex128).reshape((m,) + self.shape)
        e[..., K + 1 :, 0] = np.conj(e[..., K:0:-1, 0])  # real fields
        # a fresh lattice, so that the basis pairs' scratch goes with it
        dense = TorusLattice(self.n)._quadratic([(e[:, None], "curl", e[None, :])])
        dense = dense.view(np.float64).reshape(m * m, -1)
        # rows the exact product makes zero carry the transforms' rounding
        size = np.abs(dense).max(axis=1)
        live = np.flatnonzero(size > _ROUNDING * size.max())
        a, b = np.divmod(live, m)
        return self._coords[a], self._coords[b], dense[live]

    def _drift_tensor(self, alpha):
        """The Galerkin tensor of the drift ``J_a B~(u, (I + a^2 A) u)``, a
        quadratic form of ``u`` alone, kept in ``alpha``'s smoothing entry.
        From ``B~``'s tensor: each pair's ``f`` coordinate scaled by
        ``1 + a^2 lambda`` and each output coordinate by ``1 / (1 + a^2 lambda)``
        (both from :meth:`smoothing_tables`), the rows of pairs ``(a, b)`` and
        ``(b, a)`` summed into one row of ``a <= b``, and rows that hold only
        rounding dropped by the rule of :attr:`_btilde_tensor`."""
        entry = self._smoothing(alpha)
        if entry[1] is None:
            x_at, f_at, rows = self._btilde_tensor
            smooth, unsmooth = (np.broadcast_to(t.real[..., None], self.shape + (2,)).ravel()
                                for t in entry[0])
            scaled = rows * unsmooth[f_at, None] * smooth
            pairs, row_of = np.unique(np.minimum(x_at, f_at) * smooth.size
                                      + np.maximum(x_at, f_at), return_inverse=True)
            fused = np.zeros((pairs.size, smooth.size))
            np.add.at(fused, row_of, scaled)
            size = np.abs(fused).max(axis=1)
            live = np.flatnonzero(size > _ROUNDING * size.max())
            low, high = np.divmod(pairs[live], smooth.size)
            entry[1] = (low, high, fused[live])
        return entry[1]

    def _contract(self, u, tensor):
        """The quadratic form of ``u`` whose Galerkin tensor is ``tensor``
        (``(x_at, f_at, rows)``, as :meth:`_drift_tensor` makes it): the
        products of its coordinate pairs times the tensor's rows, as GEMMs of
        ``_BLOCK`` rows each (the last one padded with zeros)."""
        x_at, f_at, tensor = tensor
        lead = u.shape[:-3]
        rows = math.prod(lead)
        s = self._scratch.get(("drift",))
        if s is None or s.rows != rows or s.x.shape[1] != len(x_at):
            s = self._scratch[("drift",)] = _ContractionScratch(rows, len(x_at))
        np.multiply(_gather(u, x_at, s.x), _gather(u, f_at, s.f),
                    out=s.products[:rows].reshape(lead + (-1,)))
        out = np.matmul(s.products.reshape(-1, _BLOCK, len(x_at)), tensor)
        return out.reshape(-1, tensor.shape[1])[:rows].view(np.complex128).reshape(lead + self.shape)

    def bilinear_b(self, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
        """Pseudo-spectral ``B(u, v) = P(u . grad v)``, dealiased then projected."""
        return self._quadratic([(cu, "d", cv)])

    def bilinear_btilde(self, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
        """``Btilde(u, v) = P(u . grad v + sum_j v_j grad u_j)``, formed in
        rotational form as ``P(q (-u_2, u_1))``, ``q`` the curl of ``v``: the
        two differ by ``grad(u . v)``, which ``P`` removes."""
        return self._quadratic([(cu, "curl", cv)])

    def btilde_alpha(self, cu: np.ndarray, alpha: float, work=None) -> np.ndarray:
        """The LANS-alpha drift ``J_a Btilde(u, (I + a^2 A) u)`` of ``u``.  On a
        lattice whose ``B~`` tensor fits ``_TENSOR_BYTES`` (n = 4 and 6) it is
        one contraction with ``alpha``'s drift tensor (:meth:`_drift_tensor`),
        whose two gathers read ``u``.  Otherwise ``(I + a^2 A) u`` is formed in
        ``work`` (``u``'s shape, complex; allocated if not given), ``Btilde``
        by the kernel and the smoother in place on it."""
        if self._galerkin:
            return self._contract(cu, self._drift_tensor(alpha))
        b = self.bilinear_btilde(cu, self.unsmooth(cu, alpha, out=work))
        return self.smooth(b, alpha, out=b)

    def linearized_b(self, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
        """``B(u, v) + B(v, u)``, the derivative of ``B(u, u)`` in the direction
        ``v``, as one stacked call in rotational form: it is
        ``P(grad(u . v) - u x curl v - v x curl u)``, and ``P`` removes the
        gradient."""
        return self._quadratic([(cu, "curl", cv), (cv, "curl", cu)])

    # -- adjoints of the linearized quadratic terms (H pairing) ---------------

    def adjoint_b_first(self, ca: np.ndarray, cp: np.ndarray) -> np.ndarray:
        """Adjoint of ``v -> B(v, a)``: returns ``P((grad a)^T p)`` dealiased."""
        return self._quadratic([(cp, "grad", ca)])

    def adjoint_b_second(self, ca: np.ndarray, cp: np.ndarray) -> np.ndarray:
        """Adjoint of ``v -> B(a, v)``: returns ``-B(a, p)`` (a divergence-free)."""
        return -self.bilinear_b(ca, cp)

    # -- the flat wavevector table ---------------------------------------------

    def band_rows(self, coeffs: np.ndarray):
        """Every band wavevector ``k`` (rows, 2) of one field and its ``values``
        (rows, 2): row ``(k1 % m) * m + k2 % m`` lists ``k``, ``m = 2K+1``; a
        ``k2 < 0`` row holds the conjugate of its mirror (exact zeros as +0)."""
        K = self._edge
        mirrors = np.conj(coeffs[:, -self.k1[:, 0] % (2 * K + 1), K:0:-1]) + 0.0
        k = np.stack(np.broadcast_arrays(self.k1[:, :1], np.r_[0 : K + 1, -K:0]), axis=-1)
        return k.reshape(-1, 2), np.concatenate([coeffs, mirrors], axis=-1).reshape(2, -1).T.copy()

    def from_band_rows(self, k, values) -> np.ndarray:
        """The coefficients that rows ``k``, ``values`` list as :meth:`band_rows`
        does (modes without a row are 0).  Raises ``ValueError`` naming the
        first row outside the band or ``k2 < 0`` row that is not the conjugate
        of its mirror."""
        K, m = self._edge, 2 * self._edge + 1
        k, values = np.asarray(k, np.int64).reshape(-1, 2), np.asarray(values).reshape(-1, 2)
        for k1, k2 in k[np.abs(k).max(axis=1) > K][:1].tolist():
            raise ValueError(f"k=({k1}, {k2}) lies outside the dealiased band "
                             f"max(|k1|, |k2|) <= {K} of n={self.n}")
        coeffs = np.zeros(self.shape, np.complex128)
        upper = k[:, 1] >= 0
        coeffs[:, k[upper, 0] % m, k[upper, 1]] = values[upper].T
        listed = self.band_rows(coeffs)[1][k[:, 0] % m * m + k[:, 1] % m]
        for k1, k2 in k[~upper & (values != listed).any(axis=1)][:1].tolist():
            raise ValueError(f"k=({k1}, {k2}) is not the conjugate of its "
                             f"mirror k=({-k1}, {-k2})")
        return coeffs


def _dft_tables(n, K):
    """The transforms' DFT tables as read-only GEMM operands: the real axis,
    one plane's rows at a time, then the complex axis, every row of a call at
    once.  The ``(2(K + 1), n)`` table takes the float view of a half
    spectrum whose ``K + 1`` columns run from ``k2 = K`` down to 0 to the
    samples (``irfft``: a ``k2 > 0`` column counts twice, for its mirror, and
    the mean column's imaginary part not at all); a field's spectrum falls
    off with ``|k|``, and BLAS sums in the table's row order, so the small
    terms come first.  The ``(n, 2(K + 1))`` table takes samples to the
    band's columns ``k2 = 0..K`` (``rfft``, divided by ``n``).  The complex
    ``(2K + 1, n)`` table takes rows of the band's ``k1`` in storage order to
    ``x1`` (``ifft`` of the band, unpadded), and the ``(n, 2K + 1)`` table
    takes ``x1`` back to them (``fft`` kept to the band, divided by ``n``).
    Each twiddle is the cosine or sine of ``2 pi ((k x) mod n) / n``, rounded
    once from long double, and exactly 0 or +-1 at the quarter turns."""
    def twiddles(k):
        turns = k[:, None] * np.arange(n) % n
        angle = turns.astype(np.longdouble) * (2 * np.pi / np.longdouble(n))
        cos, sin = np.cos(angle).astype(np.float64), np.sin(angle).astype(np.float64)
        quarter = 4 * turns % n == 0
        cos[quarter], sin[quarter] = (np.array(v)[4 * turns[quarter] // n]
                                      for v in ((1.0, 0.0, -1.0, 0.0), (0.0, 1.0, 0.0, -1.0)))
        return cos, sin

    cos, sin = twiddles(np.arange(K + 1))
    inverse = np.stack([cos, -sin], axis=1) * np.where(np.arange(K + 1) > 0, 2.0, 1.0)[:, None, None]
    forward = np.stack([cos, -sin], axis=1).transpose(2, 0, 1) / n
    cos, sin = twiddles(np.r_[0 : K + 1, -K:0])
    # 1j * sin has the real part +-0, so the sum is exact; the forward table's
    # parts are divided by n as floats (numpy's complex division by n
    # multiplies by 1 / n, rounding twice)
    k1_inverse, k1_forward = cos + 1j * sin, np.empty((n, 2 * K + 1), np.complex128)
    k1_forward.real, k1_forward.imag = cos.T / n, -sin.T / n
    tables = (inverse[::-1].reshape(2 * (K + 1), n), forward.reshape(n, 2 * (K + 1)).copy(),
              k1_inverse, k1_forward)
    for table in tables:
        table.setflags(write=False)
    return tables


def _project(coeffs, work, p_diag, p_cross, out=None):
    """The Leray projection of ``coeffs`` by the tables ``p_diag`` and
    ``p_cross``, its off-diagonal products written into ``work``."""
    np.copyto(work, coeffs[..., ::-1, :, :])
    np.multiply(p_cross, work, out=work)  # p12 u2, p12 u1
    out = np.multiply(p_diag, coeffs, out=out)  # p11 u1, p22 u2
    return np.add(out, work, out=out)


class _Inverse:
    """The arrays :meth:`TorusLattice.to_physical` writes for planes
    ``coeffs`` (``(..., 2K + 1, K + 1)``) and the views it copies through.
    By the DFT tables: ``coeffs`` transposed, ``k2`` from ``K`` down to 0,
    and its copy ``rows`` (``(..., K + 1, 2K + 1)``), whose rows go to the
    band ``band`` (``(..., K + 1, n)``) by one GEMM, through both as 2D
    arrays.  By pocketfft: the ``k1 >= 0`` and ``k1 < 0`` rows of ``coeffs``,
    transposed, and where they go in ``band``, whose other rows are its
    padding.  Then the band transposed, which is the half spectrum ``half``
    (``(..., n, K + 1)``, the band's columns only) and its float view; and
    the samples ``phys``.  Without a kernel scratch, ``allocate`` makes each
    array on its own."""

    def __init__(self, n, K, coeffs, rows, band, half, phys, dft):
        transposed = coeffs.swapaxes(-1, -2)
        self.coeffs, self.rows, self.band, self.half, self.phys = coeffs, rows, band, half, phys
        if dft:
            self.coeffs_rows = transposed[..., ::-1, :]
            self.rows_flat, self.band_flat = rows.reshape(-1, 2 * K + 1), band.reshape(-1, n)
        else:
            self.rows_low, self.rows_high = transposed[..., : K + 1], transposed[..., K + 1 :]
            self.band_low, self.band_high = band[..., : K + 1], band[..., n - K :]
            self.band_padding = band[..., K + 1 : n - K]
        self.band_columns = band.swapaxes(-1, -2)
        self.half_floats = half.view(np.float64)

    @classmethod
    def allocate(cls, n, K, coeffs, dft):
        lead, c16 = coeffs.shape[:-2], np.complex128
        rows = np.empty(lead + (K + 1, 2 * K + 1), c16) if dft else None
        return cls(n, K, coeffs, rows, np.empty(lead + (K + 1, n), c16),
                   np.empty(lead + (n, K + 1), c16), np.empty(lead + (n, n)), dft)


class _Forward:
    """The arrays :meth:`TorusLattice.to_spectral` writes, the half spectrum
    ``half`` of the samples (``(..., n, K + 1)`` by the DFT tables,
    ``(..., n, n // 2 + 1)`` by ``rfft``) with its float view, its low columns
    ``band`` (``(..., K + 1, n)``), the band's rows ``rows``
    (``(..., K + 1, 2K + 1)``, which the DFT tables' GEMM writes from
    ``band``, both as 2D arrays; pocketfft transforms ``band`` in place) and
    the coefficients ``out`` (``(..., 2K + 1, K + 1)``), and the views it
    copies through: the low columns of ``half``, transposed, and the
    transform's ``k1 >= 0`` rows, its ``k1 < 0`` rows but the ``k2 = 0``
    column's, and that column's ``k1 > 0`` entries mirrored, each with where
    it goes in ``out``.  ``allocate`` makes each array on its own."""

    def __init__(self, n, K, half, band, rows, out, dft):
        self.half, self.band, self.out = half, band, out
        self.half_floats = half.view(np.float64)
        self.half_columns = half[..., : K + 1].swapaxes(-1, -2)
        if dft:
            self.band_flat, self.rows_flat = band.reshape(-1, n), rows.reshape(-1, 2 * K + 1)
        # rows k1 (in storage order, or in FFT order for n), columns k2 = 0..K
        k1_rows = (rows if dft else band).swapaxes(-1, -2)
        self.rows_low, self.out_low = k1_rows[..., : K + 1, :], out[..., : K + 1, :]
        self.rows_high, self.out_high = k1_rows[..., -K:, 1:], out[..., K + 1 :, 1:]
        self.mirrored, self.out_mirrors = k1_rows[..., K:0:-1, 0], out[..., K + 1 :, 0]

    @staticmethod
    def columns(n, K, dft):
        """The half spectrum's columns: the band's by the DFT tables, all by ``rfft``."""
        return K + 1 if dft else n // 2 + 1

    @classmethod
    def allocate(cls, n, K, phys, dft):
        lead, c16 = phys.shape[:-2], np.complex128
        rows = np.empty(lead + (K + 1, 2 * K + 1), c16) if dft else None
        return cls(n, K, np.empty(lead + (n, cls.columns(n, K, dft)), c16),
                   np.empty(lead + (K + 1, n), c16), rows,
                   np.empty(lead + (2 * K + 1, K + 1), c16), dft)


class _KernelScratch:
    """Work arrays of ``_quadratic`` for one batch shape and plane count, and
    the views a call writes and reads them through, all made once.

    The arrays are views into two arenas.  Each arena holds runs of arrays:
    the arrays of a run are alive together and lie end to end, the runs of an
    arena are alive one after another and all start at its beginning.  Arena
    one holds the stack (``planes * prod(batch)`` planes ``(2K + 1, K + 1)``:
    each vector or scalar a term writes is one block of whole fields) and the
    inverse transform's band, then the grid samples, then the band of the
    product's forward transform, then the Leray product.  Arena two holds the
    inverse transform's rows along ``k1`` (the stack transposed, which the
    DFT tables read), then its half spectrum, then the product's half
    spectrum, then the product's rows along ``k1`` and its band coefficients.
    The half spectra have the band's ``K + 1`` columns (``n // 2 + 1`` for
    the product's where ``rfft`` makes it), and every entry a call reads it
    wrote first: only the padding of pocketfft's band copy is zeroed, through
    its view, by each call.  ``inverse`` and ``forward`` hold the two
    transforms' arrays and views, ``layout`` the terms' views.  For a batch,
    ``p_diag`` and ``p_cross`` are the Leray tables at the product's shape,
    or at ``_LERAY_BLOCK`` fields for a larger batch, outside the arenas, so
    that ``leray`` broadcasts no operand; for one field they are the
    lattice's own.
    """

    def __init__(self, lattice, batch, planes):
        self.batch, self._layouts = batch, {}
        n, K, dft = lattice.n, lattice._edge, lattice._dft is not None
        lead, prod, c16 = (planes * math.prod(batch),), batch + (2,), np.complex128
        rows, columns = 2 * K + 1, _Forward.columns(n, K, dft)
        arrays = {}
        for runs in (
            [[("stack", lead + (rows, K + 1), c16), ("band", lead + (K + 1, n), c16)],
             [("phys", lead + (n, n), np.float64)],
             [("product_band", prod + (K + 1, n), c16)],
             [("work", prod + (rows, K + 1), c16)]],
            [[("rows", lead + (K + 1, rows), c16)],
             [("half", lead + (n, K + 1), c16)],
             [("product_half", prod + (n, columns), c16)],
             [("product_rows", prod + (K + 1, rows), c16),
              ("spectrum", prod + (rows, K + 1), c16)]],
        ):
            sizes = [[math.prod(shape) * np.dtype(dtype).itemsize for _, shape, dtype in run]
                     for run in runs]
            arena = np.empty(max(map(sum, sizes)), np.uint8)
            for run, run_sizes in zip(runs, sizes):
                start = 0
                for (name, shape, dtype), size in zip(run, run_sizes):
                    arrays[name] = arena[start : start + size].view(dtype).reshape(shape)
                    start += size
        self.stack, self.phys, self.work = arrays["stack"], arrays["phys"], arrays["work"]
        self.inverse = _Inverse(n, K, self.stack, arrays["rows"], arrays["band"], arrays["half"],
                                self.phys, dft)
        self.forward = _Forward(n, K, arrays["product_half"], arrays["product_band"],
                                arrays["product_rows"], arrays["spectrum"], dft)
        tables = batch if math.prod(batch) <= _LERAY_BLOCK else (_LERAY_BLOCK,)
        self.p_diag, self.p_cross = (np.broadcast_to(table, tables + table.shape).copy()
                                     if batch else table
                                     for table in (lattice._p_diag, lattice._p_cross))

    def layout(self, pairings):
        """Views for the terms ``pairings``, made on first use: per term, the
        stack views it writes (``"curl"``: ``(-x_2, x_1)``, the same reversed,
        its two planes and ``q``; else ``x``, ``g_1`` and ``g_2``); the
        ``(scalar, vector)`` views of the grid samples whose products are
        formed in place of the vectors, plane by plane for one field, where
        that makes every operand one contiguous run; and the product vectors
        whose sum is the form, the first of which holds the sum."""
        views = self._layouts.get(pairings)
        if views is None:
            fields = math.prod(self.batch)

            def block(a, at, planes):  # planes at..at+planes-1 of every field
                return a[at * fields : (at + planes) * fields].reshape(
                    self.batch + (planes,) + a.shape[1:])

            fills, products, at = [], [], 0
            for pairing in pairings:
                if pairing == "curl":
                    rotated = block(self.stack, at, 2)
                    fills.append((rotated, rotated[..., ::-1, :, :], rotated[..., :1, :, :],
                                  rotated[..., 1:, :, :], block(self.stack, at + 2, 1)))
                    products.append((block(self.phys, at + 2, 1), block(self.phys, at, 2)))
                else:
                    fills.append(tuple(block(self.stack, at + 2 * i, 2) for i in range(3)))
                    x = block(self.phys, at, 2)
                    products += [(x[..., j : j + 1, :, :], block(self.phys, at + 2 + 2 * j, 2))
                                 for j in (0, 1)]
                at += _PLANES[pairing]
            vectors = [vector for _, vector in products]
            if fields == 1:
                products = [(scalar, vector[..., c : c + 1, :, :])
                            for scalar, vector in products for c in (0, 1)]
            views = self._layouts[pairings] = (fills, products, vectors)
        return views


def _gather(a, index, buf):
    """Entries ``index`` of the float views of fields ``a``, written into ``buf``."""
    a = np.asarray(a, np.complex128)
    lead = a.shape[:-3]
    flat = a.reshape(lead + (-1,)).view(np.float64)
    # the indices are in range; a mode other than "raise" writes out unbuffered,
    # and "clip" bounds them more cheaply than "wrap"
    return np.take(flat, index, axis=-1, out=buf[: math.prod(lead)].reshape(lead + (-1,)),
                   mode="clip")


class _ContractionScratch:
    """Work arrays of ``_contract`` for one row count: the gathered
    coordinates of both operands and their products, padded with zero rows
    to whole GEMM blocks."""

    def __init__(self, rows, pairs):
        self.rows = rows
        self.x, self.f = np.empty((rows, pairs)), np.empty((rows, pairs))
        self.products = np.zeros((-(-rows // _BLOCK) * _BLOCK, pairs))


def make_lattice(n: int) -> TorusLattice:
    """Build the wavevector lattice for ``n`` modes per dimension (even, >= 4)."""
    return TorusLattice(n)


@dataclass(frozen=True)
class SpectralField:
    """A real, zero-mean, divergence-free velocity field in truncated Fourier form.

    ``coeffs`` has the lattice's shape ``(2, 2K+1, K+1)``, so its support is
    the dealiased band by construction.  The other invariants (a Hermitian
    ``k2 = 0`` column, incompressibility, zero mean) are checked by
    :meth:`validate` and preserved by every operation in this module.
    """

    lattice: TorusLattice
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.lattice.shape:
            raise ValueError(f"coefficients must have the shape {self.lattice.shape}, got {c.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def validate(self, tol: float = 1e-12) -> None:
        lat, c = self.lattice, self.coeffs
        scale = max(float(np.abs(c).max()), 1e-300)
        column = c[:, :, 0]  # k2 = 0: u(-k) = conj u(k)
        if np.abs(column - np.conj(column[:, -lat.k1[:, 0] % c.shape[1]])).max() > tol * scale:
            raise ValueError("field is not real-valued: its k2 = 0 column is not Hermitian")
        div = np.abs(lat.k1 * c[0] + lat.k2 * c[1]).max()
        if div > tol * scale * lat.n:
            raise ValueError(f"field is not divergence-free (residual {div:.3e})")
        if np.abs(c[:, 0, 0]).max() > tol * scale:
            raise ValueError("field has a nonzero mean mode")

    def same_lattice(self, other: "SpectralField") -> None:
        if self.lattice.n != other.lattice.n:
            raise LatticeMismatchError(
                f"lattice mismatch: n={self.lattice.n} vs n={other.lattice.n}"
            )

    def __add__(self, other):
        self.same_lattice(other)
        return SpectralField(self.lattice, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self.same_lattice(other)
        return SpectralField(self.lattice, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.lattice, self.coeffs * float(scalar))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Canonical fields
# ---------------------------------------------------------------------------


def zero_field(lattice: TorusLattice) -> SpectralField:
    return SpectralField(lattice, np.zeros(lattice.shape, np.complex128))


def taylor_green(lattice: TorusLattice, amplitude: float = 1.0) -> SpectralField:
    """``(sin x cos y, -cos x sin y)``: Stokes eigenfield with eigenvalue 2."""
    X, Y = lattice.grid()
    phys = amplitude * np.stack([np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)])
    return SpectralField(lattice, lattice.leray(lattice.to_spectral(phys)))


def single_shear(lattice: TorusLattice, k: tuple[int, int] = (0, 1), amplitude: float = 1.0) -> SpectralField:
    """Unidirectional shear: one +-k mode pair, velocity perpendicular to k."""
    return eigenmode_field(lattice, k, amplitude=amplitude)


def eigenmode_field(
    lattice: TorusLattice, k: tuple[int, int], phase: float = 0.0, amplitude: float = 1.0
) -> SpectralField:
    """Unit-H-norm real divergence-free mode supported on the +-k pair.

    The velocity direction is ``k_perp / |k|``; ``phase`` rotates between the
    cosine (0) and sine (-pi/2) profiles.
    """
    k1, k2 = int(k[0]), int(k[1])
    if (k1, k2) == (0, 0):
        raise ValueError("mode (0, 0) is excluded (zero-mean constraint)")
    kperp = np.array([-k2, k1], float) / np.hypot(k1, k2)
    amp = amplitude * np.exp(1j * phase) / (TWO_PI * np.sqrt(2.0))
    rows = lattice.from_band_rows([(k1, k2), (-k1, -k2)], [amp * kperp, np.conj(amp) * kperp])
    return SpectralField(lattice, rows)


def random_field(
    lattice: TorusLattice,
    rng: np.random.Generator,
    decay: float = 2.0,
    norm: float | None = 1.0,
) -> SpectralField:
    """Random valid field: i.i.d. complex Gaussians shaped by ``|k|**-decay``.

    The default decay keeps ``|A u|`` finite at desk resolution.  ``norm``
    rescales to the requested H-norm (None leaves the raw scale).
    """
    n = lattice.n
    c = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    # the draws at the stored modes k and at their mirrors -k, shaped by
    # |k|^-decay and made Hermitian, divergence-free and zero-mean
    at_k, at_minus_k = (lattice.stokes(c[:, k1 % n, k2 % n], -decay / 2.0)
                        for k1, k2 in ((lattice.k1, lattice.k2), (-lattice.k1, -lattice.k2)))
    f = SpectralField(lattice, lattice.leray(0.5 * (at_k + np.conj(at_minus_k))))
    if norm is not None:
        h = float(lattice.norm_h(f.coeffs))
        if h > 0:
            f = f * (norm / h)
    return f


# ---------------------------------------------------------------------------
# Operator-bound and identity reports
# ---------------------------------------------------------------------------

# Each check of ``identity_report`` passes when its worst residual is at most this.
IDENTITY_BOUND = 1e-10
# check -> (``OperatorBoundsReport`` field, its bound, the rounding slack the
# computed value may exceed the bound by)
OPERATOR_BOUNDS = {
    "smoother_damping": ("max_smoother_damping", 1.0, 0.0),
    "halfpower_damping": ("max_halfpower_damping", 0.5, 1e-15),
    "smoothing_gap": ("smoothing_gap_max_ratio", 1.0, 1e-12),
}


@dataclass
class OperatorBoundsReport:
    alpha: float
    max_smoother_damping: float      # max over retained k of a^2 l / (1 + a^2 l), bound 1
    max_halfpower_damping: float     # max over retained k of a sqrt(l) / (1 + a^2 l), bound 0.5
    smoothing_gap_max_ratio: float   # max |<phi - J_a phi, w>| / ((a/2)|phi||A^1/2 w|)
    trials: int
    ok: bool

    def checks(self):
        """``(check, value, bound, within bound)`` for each of ``OPERATOR_BOUNDS``."""
        for check, (name, bound, slack) in OPERATOR_BOUNDS.items():
            value = getattr(self, name)
            yield check, value, bound, value <= bound + slack


def verify_operator_bounds(
    lattice: TorusLattice, alpha: float, trials: int = 100, seed: int = 0
) -> OperatorBoundsReport:
    """Check the smoother damping factors and the O(alpha) smoothing-gap bound.

    Reports the lattice maxima of ``a^2 l/(1+a^2 l)`` (must be <= 1) and
    ``a sqrt(l)/(1+a^2 l)`` (must be <= 1/2), and the worst ratio of
    ``|<phi - J_a phi, w>|`` against ``(a/2) |phi| |A^(1/2) w|`` over random
    field pairs (must be <= 1); ``OPERATOR_BOUNDS`` holds the bounds.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    lam = lattice.eigenvalue[lattice.active]
    d1 = float(np.max(alpha**2 * lam / (1.0 + alpha**2 * lam)))
    d2 = float(np.max(alpha * np.sqrt(lam) / (1.0 + alpha**2 * lam)))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        phi = random_field(lattice, rng, norm=None)
        w = random_field(lattice, rng, norm=None)
        gap = phi.coeffs - lattice.smooth(phi.coeffs, alpha)
        lhs = abs(float(lattice.inner_h(gap, w.coeffs)))
        rhs = 0.5 * alpha * float(lattice.norm_h(phi.coeffs)) * float(lattice.norm_v(w.coeffs))
        worst = max(worst, lhs / rhs)
    report = OperatorBoundsReport(alpha, d1, d2, worst, trials, ok=False)
    report.ok = all(within for *_, within in report.checks())
    return report


def _worst_ratios(table, lattice, trials, seed, norm):
    """Each check's largest ``|value| / scale`` over random triples ``u, v, w``,
    where ``table(lattice, u, v, w)`` maps the check to its ``(value, scale)``."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = {}
    for _ in range(trials):
        u, v, w = (random_field(lattice, rng, norm=norm).coeffs for _ in range(3))
        for name, (value, scale) in table(lattice, u, v, w).items():
            worst[name] = max(worst.get(name, 0.0), abs(float(value)) / scale)
    return worst


def _identity_residuals(lat, u, v, w, alpha):
    """Each identity's residual at one triple and the scale it is measured by;
    ``alpha`` is the smoothing scale of ``cancel_btilde_alpha``.  ``B~`` is
    formed in rotational form and ``B`` in advective form, so the checks that
    hold both compare two routes."""
    scale = float(lat.norm_h(u) * lat.norm_h(v) * lat.norm_h(w))
    buv, buw, bwv = lat.bilinear_b(u, v), lat.bilinear_b(u, w), lat.bilinear_b(w, v)
    btuv = lat.bilinear_btilde(u, v)
    p = lat.inner_h
    return {
        "skew_symmetry": (p(buv, w) + p(buw, v), scale),  # (B(u,v),w) = -(B(u,w),v)
        "cancel_b": (p(buv, v), scale),  # (B(u,v),v) = 0
        "cancel_btilde": (p(btuv, u), scale),  # (Btilde(u,v),u) = 0
        # (Btilde(u,v),w) = (B(u,v),w) - (B(w,v),u)
        "btilde_decomposition": (p(btuv, w) - p(buv, w) + p(bwv, u), scale),
        # Btilde(u,u) = B(u,u)
        "btilde_diag_equals_b": (lat.norm_h(lat.bilinear_btilde(u, u) - lat.bilinear_b(u, u)),
                                 float(lat.norm_h(u) ** 2)),
        # (J_a Btilde(u,v), u + a^2 A u) = 0
        f"cancel_btilde_alpha(alpha={alpha:g})": (
            p(lat.smooth(btuv, alpha), lat.unsmooth(u, alpha)), scale),
    }


def identity_report(
    lattice: TorusLattice, trials: int = 100, seed: int = 0, alpha: float = 0.3
) -> dict[str, float]:
    """Worst relative residual of each bilinear identity over random triples.

    Residuals are normalized by the product of the field H-norms (pairing
    identities) or by ``|u|^2`` (the ``Btilde(u,u) = B(u,u)`` identity).  The
    one alpha-dependent identity is checked at ``alpha``, which its key names.
    """
    table = functools.partial(_identity_residuals, alpha=alpha)
    return _worst_ratios(table, lattice, trials, seed, norm=1.0)


def _estimate_pairs(lat, u, v, w):
    """Each estimate's ``(lhs, rhs)`` at one triple, from its two pairings."""
    b = abs(float(lat.inner_h(lat.bilinear_b(u, v), w)))
    bt = abs(float(lat.inner_h(lat.bilinear_btilde(u, v), w)))
    (hu, vu, au), (hv, vv, av), (hw, vw, aw) = (
        (float(lat.norm_h(f)), float(lat.norm_v(f)), float(lat.norm_a(f))) for f in (u, v, w))
    return {
        # |<X(u,v),w>| <= c |u|^1/2 ||u||^1/2 ||v|| ||w||, X in {B, Btilde}
        "v_dual_bound": (max(b, bt), np.sqrt(hu * vu) * vv * vw),
        # |(X(u,v),w)| <= c ||u||^1/2 |Au|^1/2 ||v|| |w|
        "agmon_first_slot": (max(b, bt), np.sqrt(vu * au) * vv * hw),
        # |(B(u,v),w)| <= c ||u|| ||v||^1/2 |Av|^1/2 |w|
        "agmon_second_slot": (b, vu * np.sqrt(vv * av) * hw),
        # |(B(u,v),w)| <= c |u|^1/2 ||u||^1/2 ||v||^1/2 |Av|^1/2 |w|
        "interpolated_second_slot": (b, np.sqrt(hu * vu) * np.sqrt(vv * av) * hw),
        # |<Btilde(u,v),w>| <= c ||u|| |v| |Aw|
        "rough_middle_slot": (bt, vu * hv * aw),
        # |<Btilde(u,v),w>| <= c |Au| |v| ||w||
        "rough_middle_slot_sym": (bt, au * hv * vw),
        # <Btilde(u,v),w> <= c [|u|^1/2 ||u||^1/2 ||w||^1/2 |Aw|^1/2 + |Aw| ||u||] |v|
        "extended_pairing": (bt, (np.sqrt(hu * vu) * np.sqrt(vw * aw) + aw * vu) * hv),
    }


def calibrate_estimates(lattice: TorusLattice, trials: int = 1000, seed: int = 0) -> dict[str, float]:
    """Empirical constant per estimate: max lhs/rhs over random triples.

    The sharp constants are not pinned anywhere usable, so they are measured.
    """
    return _worst_ratios(_estimate_pairs, lattice, trials, seed, norm=None)
