"""Operator algebra: lattice bookkeeping, projections, bilinear identities."""

import math
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lans2d
from lans2d import (
    NoiseOperator,
    SolverConfig,
    SpectralField,
    additive_noise,
    calibrate_estimates,
    eigenmode_field,
    make_lattice,
    projection_multiplicative_noise,
    random_field,
    single_shear,
    taylor_green,
    verify_operator_bounds,
    zero_field,
)
from lans2d.dynamics import SkeletonStepper, UnifiedStepper
from lans2d import spectral
from lans2d.spectral import LatticeMismatchError, TorusLattice, identity_report

# smoothing scales of the drift tensor's tests
ALPHAS = [0.025, 0.1, 0.3, 1.0]


class TestLattice:
    def test_small_eigenvalues(self):
        lat = make_lattice(4)
        i = lambda k: (k[0] % 4, k[1] % 4)
        assert lat.eigenvalue[i((1, 0))] == 1.0
        assert lat.eigenvalue[i((1, 1))] == 2.0

    def test_zero_mode_excluded(self):
        lat = make_lattice(4)
        assert not lat.active[0, 0]
        assert lat.eigenvalue[lat.active].min() >= 1.0

    def test_two_thirds_rule_n6(self):
        # keep 3 max(|k1|, |k2|) < n: at n=6 mode 2 would alias (2 + 2 = 4 = -2)
        lat = make_lattice(6)
        assert lat.shape == (2, 3, 2)
        assert sorted(set(lat.k1.ravel())) == [-1, 0, 1]
        assert sorted(set(lat.k2.ravel())) == [0, 1]
        with pytest.raises(ValueError, match="dealiased band"):
            eigenmode_field(lat, (2, 0))

    @pytest.mark.parametrize("n", [4, 16, 32])
    def test_storage_is_the_band_half(self, n):
        # rows k1 = 0..K, -K..-1 (mode k at row k1 % (2K+1)), columns k2 = 0..K
        lat = make_lattice(n)
        K = (n - 1) // 3
        assert lat.shape == (2, 2 * K + 1, K + 1)
        assert list(lat.k1[:, 0]) == list(range(K + 1)) + list(range(-K, 0))
        assert list(lat.k2[0]) == list(range(K + 1))
        assert not lat.active[0, 0] and lat.active.sum() == lat.k1.size - 1

    @pytest.mark.parametrize("bad", [5, 2, 0, -4])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            make_lattice(bad)


class TestLeray:
    def test_annihilates_gradients(self, lat16):
        # f(k) = k * c is a pure gradient mode by mode
        c = np.zeros(lat16.shape, complex)
        rngl = np.random.default_rng(3)
        scal = rngl.standard_normal(c.shape[1:]) + 1j * rngl.standard_normal(c.shape[1:])
        c[0] = lat16.k1 * scal
        c[1] = lat16.k2 * scal
        out = lat16.leray(c)
        assert np.abs(out).max() < 1e-14 * np.abs(c).max()

    def test_idempotent_and_identity_on_h(self, lat16, rng):
        u = random_field(lat16, rng).coeffs
        once = lat16.leray(u)
        twice = lat16.leray(once)
        assert np.abs(once - u).max() < 1e-14
        assert np.abs(twice - once).max() < 1e-15

    def test_hand_example(self):
        lat = make_lattice(16)
        c = np.zeros(lat.shape, complex)
        c[0, 1, 1] = 1.0
        out = lat.leray(c)
        assert out[0, 1, 1] == pytest.approx(0.5)
        assert out[1, 1, 1] == pytest.approx(-0.5)


class TestDiagonalOperators:
    def test_stokes_identity_and_composition(self, lat16, rng):
        u = random_field(lat16, rng).coeffs
        assert np.abs(lat16.stokes(u, 0.0) - u).max() == 0.0
        ab = lat16.stokes(lat16.stokes(u, 0.7), 0.3)
        direct = lat16.stokes(u, 1.0)
        assert np.abs(ab - direct).max() < 1e-12 * np.abs(direct).max()

    def test_stokes_single_modes(self, lat16):
        m10 = eigenmode_field(lat16, (1, 0)).coeffs
        assert lat16.norm_h(lat16.stokes(m10, 1.0)) == pytest.approx(lat16.norm_h(m10))
        m11 = eigenmode_field(lat16, (1, 1)).coeffs
        assert lat16.norm_h(lat16.stokes(m11, 0.5)) == pytest.approx(
            np.sqrt(2) * lat16.norm_h(m11))

    def test_smoother(self, lat16, rng):
        u = random_field(lat16, rng).coeffs
        assert np.abs(lat16.smooth(u, 0.0) - u).max() == 0.0
        m10 = eigenmode_field(lat16, (1, 0)).coeffs
        assert lat16.norm_h(lat16.smooth(m10, 1.0)) == pytest.approx(0.5 * lat16.norm_h(m10))
        rt = lat16.unsmooth(lat16.smooth(u, 0.37), 0.37)
        assert np.abs(rt - u).max() < 1e-14 * np.abs(u).max()

    @pytest.mark.parametrize("n", [4, 16, 32])
    @pytest.mark.parametrize("batch", [(), (3, 2)])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
    def test_smoother_tables_divide_to_the_last_bit(self, n, batch, alpha, rng):
        # multiplying by the cached reciprocal equals the division by
        # 1 + a^2 lambda, compared as floats; with and without out=
        lat = make_lattice(n)
        u = np.stack([random_field(lat, rng).coeffs for _ in range(math.prod(batch))])
        u = u.reshape(batch + lat.shape)
        factor = 1.0 + alpha * alpha * lat.eigenvalue
        for got, want in ((lat.smooth(u, alpha), np.divide(u, factor)),
                          (lat.unsmooth(u, alpha), np.multiply(u, factor))):
            assert np.array_equal(got.view(np.float64), want.view(np.float64))
        out = np.empty_like(u)
        assert lat.smooth(u, alpha, out=out) is out
        assert np.array_equal(out.view(np.float64), np.divide(u, factor).view(np.float64))
        # one table per alpha, made once and read-only
        inverse, table = lat.smoothing_tables(alpha)
        assert lat.smoothing_tables(alpha)[0] is inverse
        assert not inverse.flags.writeable and not table.flags.writeable


class TestNorms:
    def test_zero_field(self, lat16):
        z = zero_field(lat16).coeffs
        assert lat16.norm_h(z) == 0.0 and lat16.norm_v(z) == 0.0
        assert lat16.norm_alpha(z, 0.3) == 0.0

    def test_single_mode_alpha_norm(self, lat16):
        u = eigenmode_field(lat16, (1, 0)).coeffs  # unit H norm, eigenvalue 1
        assert lat16.norm_h(u) == pytest.approx(1.0)
        assert lat16.norm_alpha(u, 0.5) == pytest.approx(np.sqrt(1.25))

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("batch", [None, 8])
    def test_stacked_norms_are_the_norm_methods_bit_for_bit(self, n, batch):
        lat = make_lattice(n)
        rng = np.random.default_rng(n)
        u = np.stack([random_field(lat, rng, norm=None).coeffs for _ in range(batch or 1)])
        if batch is None:
            u = u[0]
        table = lat.norm_table(0.05)
        each = [lat.norm_h(u), lat.norm_v(u), lat.norm_a(u), lat.norm_alpha(u, 0.05)]
        assert lat.stacked_norms(u, table).tobytes() == np.stack(each).tobytes()
        assert lat.stacked_norms(u, table[1:]).tobytes() == np.stack(each[1:]).tobytes()

    def test_poincare(self, lat32, rng):
        for _ in range(100):
            u = random_field(lat32, rng, norm=None).coeffs
            assert lat32.norm_h(u) <= lat32.norm_v(u) * (1 + 1e-12)

    def test_parseval(self, lat32, rng):
        u = random_field(lat32, rng).coeffs
        phys = lat32.to_physical(u)
        phys_sq = float(np.sum(phys**2)) * (2 * np.pi / lat32.n) ** 2
        assert phys_sq == pytest.approx(float(lat32.norm_h(u)) ** 2, rel=1e-12)

    def test_lattice_mismatch(self, lat16, lat32, rng):
        with pytest.raises(LatticeMismatchError):
            random_field(lat16, rng) + random_field(lat32, rng)


class TestBilinear:
    def test_shear_self_advection_vanishes(self, lat32):
        u = single_shear(lat32).coeffs  # (sin y, 0) direction, unit norm
        assert lat32.norm_h(lat32.bilinear_b(u, u)) <= 1e-12
        assert lat32.norm_h(lat32.bilinear_btilde(u, u)) <= 1e-12

    def test_taylor_green_nonlinearity_is_gradient(self, lat32):
        u = taylor_green(lat32).coeffs
        assert lat32.norm_h(lat32.bilinear_b(u, u)) <= 1e-12

    def test_skew_symmetry(self, lat32, rng):
        for _ in range(20):
            u, v, w = (random_field(lat32, rng).coeffs for _ in range(3))
            lhs = float(lat32.inner_h(lat32.bilinear_b(u, v), w))
            rhs = -float(lat32.inner_h(lat32.bilinear_b(u, w), v))
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))

    def test_btilde_cancellation(self, lat32, rng):
        for _ in range(20):
            u, v = (random_field(lat32, rng).coeffs for _ in range(2))
            assert abs(lat32.inner_h(lat32.bilinear_btilde(u, v), u)) <= 1e-10

    def test_btilde_diagonal_equals_b(self, lat32, rng):
        u = random_field(lat32, rng).coeffs
        gap = lat32.bilinear_btilde(u, u) - lat32.bilinear_b(u, u)
        assert lat32.norm_h(gap) <= 1e-10

    def test_btilde_decomposition(self, lat32, rng):
        for _ in range(20):
            u, v, w = (random_field(lat32, rng).coeffs for _ in range(3))
            lhs = float(lat32.inner_h(lat32.bilinear_btilde(u, v), w))
            rhs = float(lat32.inner_h(lat32.bilinear_b(u, v), w)
                        - lat32.inner_h(lat32.bilinear_b(w, v), u))
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))

    def test_btilde_alpha_weighted_cancellation(self, lat32, rng):
        alpha = 0.45
        for _ in range(10):
            u, v = (random_field(lat32, rng).coeffs for _ in range(2))
            smoothed = lat32.smooth(lat32.bilinear_btilde(u, v), alpha)
            weighted = lat32.unsmooth(u, alpha)
            assert abs(lat32.inner_h(smoothed, weighted)) <= 1e-10

    def test_output_is_valid_field(self, lat16, rng):
        u, v = (random_field(lat16, rng).coeffs for _ in range(2))
        SpectralField(lat16, lat16.bilinear_b(u, v)).validate()
        SpectralField(lat16, lat16.bilinear_btilde(u, v)).validate()
        SpectralField(lat16, lat16.smooth(lat16.bilinear_btilde(u, v), 0.8)).validate()
        SpectralField(lat16, lat16.btilde_alpha(u, 0.8)).validate()


def band_quadratic(lat, a, b, advect, transpose):
    """Exact alias-free reference for the quadratic terms, by direct sums.

    ``P(a . grad b)`` and/or ``P((grad a)^T b)`` as the convolution
    ``sum_{p+q=k}`` over band modes ``|p|, |q|, |k| <= K`` (max norm, with
    ``3K < n``), projected by ``I - k k^T / |k|^2``.
    """
    K = (lat.n - 1) // 3
    m = 2 * K + 1
    band = np.arange(-K, K + 1)
    q1, q2 = np.meshgrid(band, band, indexing="ij")

    def on_band(f):  # (..., 2, 2K+1, 2K+1), mode p at index p + K
        upper = f[..., :, band[:, None] % m, np.arange(K + 1)]  # p2 >= 0
        lower = np.conj(f[..., :, -band[:, None] % m, np.arange(K, 0, -1)])  # p2 < 0
        return np.concatenate([lower, upper], axis=-1)

    ga, gb = on_band(a), on_band(b)
    big = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-2] + (4 * K + 1, 4 * K + 1), complex)
    for p1 in band:
        for p2 in band:
            ap = ga[..., :, p1 + K, p2 + K][..., :, None, None]  # a(p)
            term = 0.0
            if advect:  # sum_i a_i(p) (i q_i) b(q)
                term = term + (ap[..., 0, :, :] * 1j * q1 + ap[..., 1, :, :] * 1j * q2)[..., None, :, :] * gb
            if transpose:  # component c: (i p_c) sum_j a_j(p) b_j(q)
                dot = ap[..., 0, :, :] * gb[..., 0, :, :] + ap[..., 1, :, :] * gb[..., 1, :, :]
                term = term + dot[..., None, :, :] * (1j * np.array([p1, p2]))[:, None, None]
            big[..., :, p1 + K : p1 + 3 * K + 1, p2 + K : p2 + 3 * K + 1] += term
    w = big[..., :, K : 3 * K + 1, K : 3 * K + 1]  # k = p + q back on the band
    lam = (q1**2 + q2**2).astype(float)
    kdot = (q1 * w[..., 0, :, :] + q2 * w[..., 1, :, :]) / np.where(lam > 0, lam, 1.0)
    w = np.stack([w[..., 0, :, :] - q1 * kdot, w[..., 1, :, :] - q2 * kdot], axis=-3)
    w[..., :, K, K] = 0.0
    out = np.zeros(w.shape[:-2] + (m, K + 1), complex)
    out[..., :, band % m, :] = w[..., :, :, K:]  # k2 = 0..K
    return out


class TestExactQuadratic:
    FORMS = {  # name -> reference from the band convolution
        "bilinear_b": lambda lat, x, y: band_quadratic(lat, x, y, True, False),
        "bilinear_btilde": lambda lat, x, y: band_quadratic(lat, x, y, True, True),
        "adjoint_b_first": lambda lat, x, y: band_quadratic(lat, x, y, False, True),
        "linearized_b": lambda lat, x, y: (band_quadratic(lat, x, y, True, False)
                                           + band_quadratic(lat, y, x, True, False)),
    }

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    @pytest.mark.parametrize("name", sorted(FORMS))
    def test_matches_band_convolution(self, n, name):
        lat = make_lattice(n)
        rng = np.random.default_rng(100 + n)
        a, b = (random_field(lat, rng).coeffs for _ in range(2))
        batch = np.stack([random_field(lat, rng).coeffs for _ in range(3)])
        for x, y in ((a, b), (batch, b), (a, batch), (batch, batch[::-1])):
            got = getattr(lat, name)(x, y)
            want = self.FORMS[name](lat, x, y)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def _fields(lat, rng, batch):
    if batch is None:
        return random_field(lat, rng).coeffs
    return np.stack([random_field(lat, rng).coeffs for _ in range(batch)])


class TestIdentityProperties:
    """The bilinear identities of ``identity_report`` at every even n, batched."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 32).map(lambda h: 2 * h),
        shapes=st.sampled_from([(None, None, None), (4, 4, 4), (None, 3, 3), (3, None, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_identities(self, n, shapes, seed):
        lat = make_lattice(n)
        rng = np.random.default_rng(seed)
        u, v, w = (_fields(lat, rng, batch) for batch in shapes)
        ip, nh = lat.inner_h, lat.norm_h
        scale = nh(u) * nh(v) * nh(w)
        buv, bwv = lat.bilinear_b(u, v), lat.bilinear_b(w, v)
        btuv = lat.bilinear_btilde(u, v)
        alpha = 0.3
        residuals = {
            "skew_symmetry": ip(buv, w) + ip(lat.bilinear_b(u, w), v),
            "cancel_b": ip(buv, v) * nh(w),
            "cancel_btilde": ip(btuv, u) * nh(w),
            "btilde_decomposition": ip(btuv, w) - ip(buv, w) + ip(bwv, u),
            "cancel_btilde_alpha": ip(lat.smooth(btuv, alpha), lat.unsmooth(u, alpha)) * nh(w),
            "adjoint_b_first": ip(lat.bilinear_b(v, u), w) - ip(v, lat.adjoint_b_first(u, w)),
            "adjoint_b_second": ip(bwv, u) - ip(v, lat.adjoint_b_second(w, u)),
        }
        for name, r in residuals.items():
            assert np.all(np.abs(r) <= 1e-13 * scale), name
        diag = lat.bilinear_btilde(u, u) - lat.bilinear_b(u, u)
        assert np.all(nh(diag) <= 1e-13 * nh(u) ** 2)

    # every n takes the kernel, with a scratch per plane count.  A thousand
    # fields give the transforms' real-axis GEMMs 48 000 rows at n=16; one
    # GEMM over all of them would round some rows other than a field's own
    # call does
    @pytest.mark.parametrize("n, fields", [(4, 100), (16, 100), (16, 1000), (32, 1000)],
                             ids=["4", "16", "16-1000", "32-1000"])
    def test_batch_splits_are_bit_identical(self, n, fields):
        lat = make_lattice(n)
        rng = np.random.default_rng(7)
        u, v = _fields(lat, rng, fields), _fields(lat, rng, fields)
        for name in FORMS:
            form = getattr(lat, name)
            whole = form(u, v)
            split = np.concatenate([form(u[:37], v[:37]), form(u[37:], v[37:])])
            single = np.stack([form(u[i], v[i]) for i in range(fields)])
            assert whole.tobytes() == split.tobytes() == single.tobytes(), name
        whole = lat.bilinear_btilde(u, v)
        # the kernel's scratch is reused across calls: shapes and terms
        # interleaved on one lattice give what a fresh lattice gives, and no
        # later call touches an array returned earlier
        shapes = [(u[0], v[0]), (u, v), (u[:37], v[:37]), (u[1], v[1]),
                  (u[2], v[:37]), (u[:37], v[3]), (u[:6].reshape((2, 3) + lat.shape), v[4])]
        returned = [(whole, whole.copy())]
        for x, y in shapes:
            for name in ("bilinear_b", "bilinear_btilde", "adjoint_b_first", "linearized_b"):
                got = getattr(lat, name)(x, y)
                assert np.array_equal(got, getattr(make_lattice(n), name)(x, y)), name
                returned.append((got, got.copy()))
        assert all(np.array_equal(got, kept) for got, kept in returned)
        assert sorted(lat._scratch) == [3, 6]  # at most one of each

    # the complex axis's GEMM runs over every row of a call, so its shape
    # grows with the batch; a field's bytes must not.  At n = 72 the batch
    # stops at 64 fields, whose GEMMs OpenBLAS already splits over two
    # threads: 1 000 fields there would take a 0.7 GB scratch
    @pytest.mark.parametrize("n, batches", [
        (8, (2, 3, 7, 64, 1000)), (16, (2, 3, 7, 64, 1000)), (32, (2, 3, 7, 64, 1000)),
        (72, (2, 3, 7, 64))])
    def test_a_field_alone_is_its_row_of_every_batch(self, n, batches):
        lat = make_lattice(n)
        rng = np.random.default_rng(n + 1)
        u, v = _fields(lat, rng, max(batches)), _fields(lat, rng, max(batches))
        for name in FORMS:
            form = getattr(lat, name)
            alone = np.stack([form(u[i], v[i]) for i in range(max(batches))])
            for batch in batches:
                assert form(u[:batch], v[:batch]).tobytes() == alone[:batch].tobytes(), (
                    name, batch)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 32).map(lambda h: 2 * h),
        shapes=st.sampled_from([(None, None), (3, 3), (None, 3), (3, None)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linearized_b_equals_its_two_call_expansion(self, n, shapes, seed):
        # one stacked kernel call against the two calls it replaces, relative
        # to the size of its operands
        lat = make_lattice(n)
        rng = np.random.default_rng(seed)
        u, v = (_fields(lat, rng, batch) for batch in shapes)
        nh, nv = lat.norm_h, lat.norm_v
        stacked = lat.linearized_b(u, v)
        expansion = lat.bilinear_b(u, v) + lat.bilinear_b(v, u)
        assert stacked.shape == expansion.shape
        assert np.all(nh(stacked - expansion) <= 1e-13 * (nh(u) * nv(v) + nv(u) * nh(v)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 32).map(lambda h: 2 * h),
        shapes=st.sampled_from([(None, None), (3, 3), (None, 3), (3, None)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rotational_btilde_equals_its_advective_form(self, n, shapes, seed):
        # Btilde(u, v) = P(q (-u_2, u_1)) against B(u, v) + P((grad u)^T v),
        # the two advective terms it replaces, relative to its operands' size
        lat = make_lattice(n)
        rng = np.random.default_rng(seed)
        u, v = (_fields(lat, rng, batch) for batch in shapes)
        nh, nv = lat.norm_h, lat.norm_v
        rotational = lat.bilinear_btilde(u, v)
        advective = lat.bilinear_b(u, v) + lat.adjoint_b_first(u, v)
        assert rotational.shape == advective.shape
        assert np.all(nh(rotational - advective) <= 1e-13 * (nh(u) * nv(v) + nv(u) * nh(v)))

    @pytest.mark.parametrize("batch", [None, 5])
    def test_planes_transformed_per_field(self, batch, monkeypatch):
        # the rotational form brings u_1, u_2 and curl v to the grid: 3 planes
        # per field for Btilde where its advective form takes 12
        lat = make_lattice(16)
        rng = np.random.default_rng(12)
        u, v = _fields(lat, rng, batch), _fields(lat, rng, batch)
        planes = []
        for name in ("to_physical", "to_spectral"):
            def counting(self, a, *args, transform=getattr(TorusLattice, name), **kwargs):
                planes.append(a.size // ((batch or 1) * a.shape[-2] * a.shape[-1]))
                return transform(self, a, *args, **kwargs)

            monkeypatch.setattr(TorusLattice, name, counting)
        per_form = {}
        for name in ("bilinear_btilde", "linearized_b", "bilinear_b", "adjoint_b_first"):
            planes.clear()
            getattr(lat, name)(u, v)
            per_form[name] = list(planes)
        assert per_form == {"bilinear_btilde": [3, 2], "linearized_b": [6, 2],
                            "bilinear_b": [6, 2], "adjoint_b_first": [6, 2]}


def _twiddles(k, x, n, sign):
    """``exp(sign 2 pi i (k x mod n) / n)`` in long double, shape ``(len(k), len(x))``."""
    turns = np.multiply.outer(k, x) % n
    return np.exp(sign * 2j * np.pi * turns.astype(np.longdouble) / np.longdouble(n))


class TestTransformOracle:
    """The transforms against a direct DFT in long double, on both sides of
    ``_DFT_WORK``: up to n = 72 both axes run as GEMMs against DFT tables,
    from n = 74 on through pocketfft.  Relative to the largest exact value,
    the worst errors over these draws were 2.2e-16-6.2e-16 (``to_physical``)
    and 2.0e-16-8.3e-16 (``to_spectral``, the largest at n = 64) by the
    tables, and at most 5.7e-16 and 4.6e-16 by pocketfft."""

    BOUND = 1e-15

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 16, 32, 64, 72, 74, 128])
    def test_transforms_match_a_long_double_dft(self, n):
        lat = make_lattice(n)
        assert (lat._dft is None) == (n >= 74)
        x = np.arange(n)
        k1, k2 = lat.k1[:, 0], np.arange(lat.shape[2])
        weight = np.where(k2 > 0, 2.0, 1.0)  # a k2 > 0 column and its mirror
        rng = np.random.default_rng(n)
        for _ in range(5):
            c = _fields(lat, rng, 3)
            exact = (_twiddles(x, k1, n, 1) @ (c.astype(np.clongdouble) * weight)
                     @ _twiddles(k2, x, n, 1)).real
            got = lat.to_physical(c)
            assert np.abs(got - exact).max() <= self.BOUND * np.abs(exact).max()
            samples = rng.standard_normal((3, n, n))
            exact = (_twiddles(k1, x, n, -1) @ samples.astype(np.longdouble)
                     @ _twiddles(x, k2, n, -1)) / np.longdouble(n * n)
            got = lat.to_spectral(samples)
            assert np.abs(got - exact).max() <= self.BOUND * np.abs(exact).max()

    @pytest.mark.parametrize("n", [8, 12, 16, 32])
    def test_dft_tables_are_exact_at_the_quarter_turns(self, n):
        # where (k2 x2) mod n is a multiple of n / 4 the twiddles are 0 and
        # +-1, not cos(pi / 2) = 6e-17; the inverse table's rows run k2 = K..0,
        # cosine then minus sine, a k2 > 0 pair twice, and the forward table
        # holds the same twiddles divided by n
        inverse, forward = make_lattice(n)._dft[:2]
        K = (n - 1) // 3
        turns = np.arange(K + 1)[:, None] * np.arange(n) % n
        quarter = 4 * turns % n == 0
        twice = np.where(np.arange(K + 1) > 0, 2.0, 1.0)[:, None]
        cos, minus_sin = (inverse[i::2][::-1] / twice for i in (0, 1))
        quadrant = 4 * turns[quarter] // n
        assert np.array_equal(cos[quarter], np.array([1.0, 0.0, -1.0, 0.0])[quadrant])
        assert np.array_equal(minus_sin[quarter], np.array([0.0, -1.0, 0.0, 1.0])[quadrant])
        assert np.array_equal(forward[:, 0::2].T, cos / n)
        assert np.array_equal(forward[:, 1::2].T, minus_sin / n)
        assert not inverse.flags.writeable and not forward.flags.writeable

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 32])
    def test_k1_tables_are_exact_at_the_quarter_turns(self, n):
        # the complex axis's tables run over the band's k1 in storage order:
        # where (k1 x1) mod n is a multiple of n / 4 the inverse twiddle is 1,
        # i, -1 or -i exactly, and the forward table holds the conjugate
        # twiddles divided by n.  At n = 4 every turn is a quarter turn
        lat = make_lattice(n)
        inverse, forward = lat._dft[2:]
        turns = np.multiply.outer(lat.k1[:, 0], np.arange(n)) % n
        quarter = 4 * turns % n == 0
        assert quarter.all() == (n == 4)
        assert np.array_equal(inverse[quarter], np.array([1, 1j, -1, -1j])[4 * turns[quarter] // n])
        assert np.array_equal(forward.T.real, inverse.real / n)
        assert np.array_equal(forward.T.imag, -inverse.imag / n)
        if n == 4:
            assert set(inverse.view(np.float64).ravel()) == {-1.0, 0.0, 1.0}
        assert not inverse.flags.writeable and not forward.flags.writeable


def shift_cells(lat, a, s):
    """``a`` translated by ``s`` whole grid cells: ``u(x - 2 pi s / n)``, whose
    coefficients are ``a`` times ``exp(-i k . s 2 pi / n)``."""
    return a * np.exp(-2j * np.pi * (lat.k1 * s[0] + lat.k2 * s[1]) / lat.n)


def reflect_x1(lat, a):
    """``a`` reflected by ``x1 -> -x1``: ``(-u_1, u_2)(-x1, x2)``.  Row ``k1``
    takes row ``-k1``, which stays inside the stored band half."""
    out = a[..., -lat.k1[:, 0] % lat.shape[1], :].copy()
    out[..., 0, :, :] *= -1
    return out


def _turn(lat, a, m):
    """Fields ``a`` under the orthogonal map ``x -> m x`` of the torus,
    ``m u(m^-1 x)``, whose coefficients are ``m u(m^-1 k)`` at ``k``: each
    field's rows of ``band_rows`` moved to ``m k`` with values ``m u(k)``.
    ``m``'s entries are 0 and +-1, so every value moves exactly."""
    m = np.array(m)
    fields = [lat.from_band_rows(k @ m.T, values @ m.T)
              for k, values in map(lat.band_rows, a.reshape((-1,) + lat.shape))]
    return np.stack(fields).reshape(a.shape)


def reflect_x2(lat, a):
    """``a`` reflected by ``x2 -> -x2``: ``(u_1, -u_2)(x1, -x2)``.  A ``k2 > 0``
    mode goes to ``k2 < 0``, so the band half takes its mirror's conjugate."""
    return _turn(lat, a, [[1, 0], [0, -1]])


def rotate_quarter(lat, a):
    """``a`` turned a quarter turn, ``x -> (-x2, x1)``: ``(-u_2, u_1)(x2, -x1)``.
    It swaps ``k1`` and ``k2``, so half the band half comes from mirrors."""
    return _turn(lat, a, [[0, -1], [1, 0]])


def _symmetries(lat, shift):
    """The grid's exact symmetries a test moves fields by."""
    return {"shift": lambda a: shift_cells(lat, a, shift),
            "x1 reflection": lambda a: reflect_x1(lat, a),
            "x2 reflection": lambda a: reflect_x2(lat, a),
            "quarter turn": lambda a: rotate_quarter(lat, a)}


class TestSymmetries:
    """The quadratic terms and the drift commute with whole-cell shifts, the
    reflections ``x1 -> -x1`` and ``x2 -> -x2`` and the quarter turn, which
    act on the grid exactly; the drift on both of its routes (its tensor at
    n = 4, 6, the kernel above), batched and unbatched.  Observed: at most
    7.4e-17 of the operands' scale.  The quarter turn catches what the
    others cannot, such as a real-axis transform that weights the ``k2 > 0``
    columns wrongly."""

    @pytest.mark.parametrize("n", [4, 6, 8, 16, 32])
    @pytest.mark.parametrize("batch", [None, 3])
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), shift=st.sampled_from([(1, 0), (3, 5), (1, 3)]))
    def test_quadratic_terms_commute(self, n, batch, seed, shift):
        lat = make_lattice(n)
        assert lat._galerkin == (n <= 6)  # the drift's route
        rng = np.random.default_rng(seed)
        u, v = _fields(lat, rng, batch), _fields(lat, rng, batch)
        nh, nv = lat.norm_h, lat.norm_v
        scale = nh(u) * nv(v) + nv(u) * nh(v)
        forms = {name: (getattr(lat, name), (u, v), scale) for name in FORMS}
        forms["btilde_alpha"] = (lambda x: lat.btilde_alpha(x, 0.3), (u,), nh(u) * nv(u))
        for symmetry_name, symmetry in _symmetries(lat, shift).items():
            for name, (form, operands, size) in forms.items():
                moved = form(*map(symmetry, operands)) - symmetry(form(*operands))
                assert np.all(nh(moved) <= 1e-14 * size), (symmetry_name, name)

    # a single step of each stepper: (stepper, delta, batch of y, batch of h)
    STEPS = {
        "unified delta=0": (UnifiedStepper, 0, 3, None),
        "unified delta=1": (UnifiedStepper, 1, 3, None),
        "unified rows (0, 1)": (UnifiedStepper, (0, 1), 2, None),
        "skeleton delta=0, one control": (SkeletonStepper, 0, None, None),
        "skeleton delta=0, a batch": (SkeletonStepper, 0, 3, 3),
        "skeleton delta=1, one control": (SkeletonStepper, 1, None, None),
        "skeleton delta=1, a batch": (SkeletonStepper, 1, 3, 3),
    }

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("variant", ["additive", "projection-multiplicative"])
    @pytest.mark.parametrize("kind", sorted(STEPS))
    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), shift=st.sampled_from([(1, 0), (3, 5), (1, 3)]))
    def test_steps_commute_with_shifts(self, n, variant, kind, seed, shift):
        # the state, the reference state and the noise's outputs and probes
        # moved alike by each symmetry; the increments and controls stay.
        # Relative to the states' scale |y|_H + |u_n|_H; observed: at most
        # 2.6e-16
        stepper, delta, batch, h_batch = self.STEPS[kind]
        lat = make_lattice(n)
        rng = np.random.default_rng(seed)
        if variant == "additive":
            noise = additive_noise(lat, [0.8, 0.5], [(1, 0), (1, 1)], phases=[0.3, -1.1])
        else:
            noise = projection_multiplicative_noise(lat, [0.6, 0.4], [(1, 0), (1, 1)],
                                                    [(0, 1), (1, -1)], [0.5, -0.3])

        y, u = _fields(lat, rng, batch), _fields(lat, rng, None)
        if delta == (0, 1):  # mdp_rescale's reference rows
            u = np.stack([np.zeros_like(u), u])
        elif delta == 0:
            u = None
        h = rng.standard_normal((h_batch,) * (h_batch is not None) + (noise.rank,))
        kwargs = {"h_n": h}
        if stepper is UnifiedStepper:
            # one increment for both rows, as mdp_rescale takes it
            kwargs["dw"] = rng.standard_normal((batch,) * (delta != (0, 1)) + (noise.rank,))

        def step(g, state, ref):
            cfg = SolverConfig(lattice=lat, dt=1e-2, t_final=1e-2, alpha=0.1, noise=g)
            return stepper(cfg, delta).step(state, u_n=ref, **kwargs)

        taken = step(noise, y, u)
        scale = lat.norm_h(y) + (0.0 if u is None else lat.norm_h(u))
        for name, symmetry in _symmetries(lat, shift).items():
            def move(a, symmetry=symmetry):
                return None if a is None else symmetry(a)

            moved_noise = NoiseOperator(lat, noise.variant, noise.sigma, move(noise.outputs),
                                        move(noise.probes), noise.offsets)
            moved = step(moved_noise, move(y), move(u))
            assert np.all(lat.norm_h(moved - move(taken)) <= 1e-14 * scale), name

    def test_symmetries_are_exact_on_the_grid(self):
        # a whole-cell shift rolls the samples, a reflection reverses its
        # axis and the quarter turn transposes them and reverses x1
        lat = make_lattice(16)
        u = random_field(lat, np.random.default_rng(5)).coeffs
        samples = lat.to_physical(u)
        shifted = lat.to_physical(shift_cells(lat, u, (3, 5)))
        assert np.abs(shifted - np.roll(samples, (3, 5), axis=(-2, -1))).max() <= 1e-14
        reflected = lat.to_physical(reflect_x1(lat, u))
        mirror = np.roll(samples[..., ::-1, :], 1, axis=-2) * np.array([-1.0, 1.0])[:, None, None]
        assert np.abs(reflected - mirror).max() <= 1e-14
        reflected = lat.to_physical(reflect_x2(lat, u))
        mirror = np.roll(samples[..., ::-1], 1, axis=-1) * np.array([1.0, -1.0])[:, None, None]
        assert np.abs(reflected - mirror).max() <= 1e-14
        # (-u_2, u_1) at (x2, -x1)
        turned = np.roll(samples.swapaxes(-1, -2)[..., ::-1, :], 1, axis=-2)
        turned = np.stack([-turned[1], turned[0]])
        assert np.abs(lat.to_physical(rotate_quarter(lat, u)) - turned).max() <= 1e-14


# prints a digest of every form and the drift, on a batch and on one field,
# at n=4 and 6 (the forms by the kernel, the drift by its tensor), at n=16, 32 and
# 72 (both by the kernel, whose real axis runs as GEMMs; 72 is the largest n
# whose tables take it) and at n=122, whose real axis runs through pocketfft:
# its tables' GEMMs are large enough for OpenBLAS to split them over two
# threads, and then round differently, so the digests differ if the tables
# serve n=122
BTILDE_DIGEST = """
import hashlib
import numpy as np
from lans2d import make_lattice, random_field
rng = np.random.default_rng(11)
digest = hashlib.sha256()
for n, fields in ((4, 1000), (6, 200), (16, 200), (32, 200), (72, 8), (122, 2)):
    lat = make_lattice(n)
    u, v = (np.stack([random_field(lat, rng).coeffs for _ in range(fields)]) for _ in range(2))
    for x, y in ((u, v), (u[0], v[0])):
        for name in ("bilinear_b", "bilinear_btilde", "adjoint_b_first", "linearized_b"):
            digest.update(getattr(lat, name)(x, y).tobytes())
        digest.update(lat.btilde_alpha(x, 0.1).tobytes())
print(digest.hexdigest())
"""


class TestGalerkinTensors:
    @pytest.mark.parametrize("n, per_call", [(4, 0), (16, 1), (32, 1)])
    def test_small_bands_make_no_transform(self, n, per_call, monkeypatch):
        # the drift contracts with its tensor at n = 4; the forms take the
        # kernel at every n
        lat = make_lattice(n)
        u = _fields(lat, np.random.default_rng(10), 20)
        lat.btilde_alpha(u, 0.1)  # builds the tensor where the lattice has one
        calls = []
        to_physical = TorusLattice.to_physical

        def counting(self, *args, **kwargs):
            calls.append(self.n)
            return to_physical(self, *args, **kwargs)

        monkeypatch.setattr(TorusLattice, "to_physical", counting)
        for _ in range(3):
            lat.btilde_alpha(u, 0.1)
        assert calls == [n] * 3 * per_call

    @pytest.mark.parametrize("n, per_call", [(16, 0), (72, 0), (74, 4)])
    def test_kernel_calls_make_no_fft_up_to_n72(self, n, per_call, monkeypatch):
        # up to n = 72 both axes of both transforms are GEMMs against the
        # lattice's DFT tables; from n = 74 on pocketfft takes each axis
        lat = make_lattice(n)
        rng = np.random.default_rng(13)
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def counting(*args, transform=getattr(np.fft, name), name=name, **kwargs):
                calls.append(name)
                return transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        for batch in (None, 3):
            u, v = _fields(lat, rng, batch), _fields(lat, rng, batch)
            for name in FORMS:
                getattr(lat, name)(u, v)
        assert len(calls) == 2 * len(FORMS) * per_call

    def test_n6_keeps_the_rows_of_n4(self):
        # the same band (K = 1) and basis of H (8 degrees of freedom): B~'s
        # rows that hold only the transforms' rounding go, and 40 of the 64
        # pairs are left
        assert [make_lattice(n)._btilde_tensor[2].shape[0] for n in (4, 6)] == [40, 40]

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_drift_tensor_keeps_a_row_per_unordered_pair(self, n, alpha):
        # the 40 ordered pairs of the ("curl",) tensor merge into 16 pairs a <= b
        x_at, f_at, rows = make_lattice(n)._drift_tensor(alpha)
        assert rows.shape[0] == len(x_at) == len(f_at) == 16
        assert np.all(x_at <= f_at) and np.unique(x_at * rows.size + f_at).size == 16

    def test_rotational_btilde_tensor_is_the_advective_one(self):
        # at n = 4 B~'s tensor, built in rotational form, is the two-term
        # advective form's, built here by the kernel on the same basis pairs
        # of H and pruned by the same rule, bit for bit (an exact zero may
        # carry either sign, so zeros are taken as +0)
        lat = make_lattice(4)
        at, e = lat._h_basis()
        m = len(at)
        x, f = e[:, None], e[None, :]
        dense = make_lattice(4)._quadratic([(x, "d", f), (f, "grad", x)])
        dense = dense.view(np.float64).reshape(m * m, -1)
        size = np.abs(dense).max(axis=1)
        live = np.flatnonzero(size > spectral._ROUNDING * size.max())
        a, b = np.divmod(live, m)
        advective = at[a], at[b], dense[live]
        for got, want in zip(lat._btilde_tensor, advective):
            assert (got + 0).tobytes() == (want + 0).tobytes()

    def test_results_do_not_depend_on_the_blas_thread_count(self):
        src = os.path.dirname(os.path.dirname(lans2d.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run([sys.executable, "-c", BTILDE_DIGEST], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.split()[-1])
        assert digests[0] == digests[1]


class TestDriftTensor:
    """``btilde_alpha`` on the lattices with a drift tensor: one contraction
    with the drift tensor of ``alpha``, against the kernel."""

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("batch", [None, 7])
    def test_drift_is_the_smoothed_btilde_by_transforms(self, n, alpha, batch):
        lat = make_lattice(n)
        u = _fields(lat, np.random.default_rng(ALPHAS.index(alpha) * 10 + n), batch)
        btilde = lat.bilinear_btilde(u, lat.unsmooth(u, alpha))
        want = lat.smooth(btilde, alpha)
        got = lat.btilde_alpha(u, alpha)
        assert got.shape == want.shape == u.shape
        size = np.abs(want).max(axis=(-3, -2, -1))
        assert np.all(np.abs(got - want).max(axis=(-3, -2, -1)) <= 1e-14 * size)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_a_rows_drift_does_not_depend_on_its_batch(self, n, alpha):
        lat = make_lattice(n)
        u = _fields(lat, np.random.default_rng(3), 1000)
        whole = lat.btilde_alpha(u, alpha)
        part = lat.btilde_alpha(u[:33], alpha)
        for row in (0, 999):
            alone = lat.btilde_alpha(u[row], alpha)
            assert alone.tobytes() == whole[row].tobytes()
        assert part.tobytes() == whole[:33].tobytes()

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_single_shear_modes_have_exactly_zero_drift(self, n, alpha):
        # a shear mode's own products fall outside the band or are gradients,
        # so its pairs hold no row and its drift is 0.0, not rounding
        lat = make_lattice(n)
        shears = np.stack([eigenmode_field(lat, k, phase, amplitude).coeffs
                           for k in ((1, 0), (0, 1), (1, 1), (1, -1))
                           for phase, amplitude in ((0.0, 1.0), (0.7, 3.0), (-np.pi / 2, 0.1))])
        assert np.all(lat.btilde_alpha(shears, alpha) == 0.0)
        assert np.all(lat.btilde_alpha(shears[5], alpha) == 0.0)

    def test_a_sweep_over_alpha_keeps_bounded_tensors_and_one_scratch(self):
        lat = make_lattice(4)
        u = _fields(lat, np.random.default_rng(4), 40)
        for alpha in np.linspace(0.05, 1.0, 20):
            lat.btilde_alpha(u, float(alpha))
            lat.btilde_alpha(u[:3], float(alpha))
            drifts = [entry[1] for entry in lat._smoothers.values() if entry[1] is not None]
            assert 1 <= len(drifts) <= len(lat._smoothers) <= spectral._SMOOTHERS
            assert list(lat._scratch) == [("drift",)]
        # the last alpha's tensor is the one a fresh lattice builds
        fresh = make_lattice(4)._drift_tensor(float(alpha))
        for got, want in zip(lat._drift_tensor(float(alpha)), fresh):
            assert got.tobytes() == want.tobytes()


FORMS = ("bilinear_b", "bilinear_btilde", "adjoint_b_first", "linearized_b")


class TestScratch:
    def test_batched_btilde_allocates_little_beyond_its_result(self):
        # every form, one field and a batch: the stack, grid samples and
        # transform intermediates come from the lattice's scratch, made by the
        # warm-up call; numpy reports its arrays (and the buffers of its
        # ufuncs) to tracemalloc, so the traced peak is what a call allocates
        lat = make_lattice(16)
        rng = np.random.default_rng(8)
        for batch in (None, 64, 150):
            u, v = _fields(lat, rng, batch), _fields(lat, rng, batch)
            for name in FORMS:
                form = getattr(lat, name)
                form(u, v)
                tracemalloc.start()
                try:
                    result = form(u, v)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 2.5 * result.nbytes, (name, batch)
            if batch is None:
                continue
            # the projection of a batch multiplies by Leray tables the scratch
            # holds at the batch's shape, or at one block of fields for a
            # batch of more, so numpy buffers no operand of it
            s = lat._scratch[6]
            assert s.p_diag.shape == s.p_cross.shape == (min(batch, 64),) + lat.shape
            spectrum = s.forward.out
            tracemalloc.start()
            try:
                result = lat.leray(spectrum, s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.05 * result.nbytes, batch
            assert result.tobytes() == lat.leray(spectrum).tobytes()

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_interleaved_forms_and_batches_match_a_fresh_lattice(self, n):
        # the three 6-plane forms share one scratch and B~ has its own; each
        # call must write every plane and padding entry it reads, whatever
        # form or batch shape used the scratch last
        lat = make_lattice(n)
        rng = np.random.default_rng(n)
        batches = [None, 5, None]
        operands = [(_fields(lat, rng, b), _fields(lat, rng, b)) for b in batches]
        for u, v in operands:
            for name in FORMS + FORMS[::-1]:
                got = getattr(lat, name)(u, v)
                want = getattr(make_lattice(n), name)(u, v)
                assert got.tobytes() == want.tobytes(), name
        assert sorted(lat._scratch) == [3, 6]

    def test_pickle_sends_only_n(self):
        lat = make_lattice(32)
        rng = np.random.default_rng(9)
        u, v = _fields(lat, rng, 20), _fields(lat, rng, 20)
        before = lat.bilinear_btilde(u, v)  # fills the scratch
        data = pickle.dumps(lat)
        assert len(data) < 1024
        copy = pickle.loads(data)
        assert copy == lat and copy is not lat
        assert np.array_equal(copy.bilinear_btilde(u, v), before)


class TestAdjoints:
    def test_adjoint_b_first(self, lat16, rng):
        a, v, p = (random_field(lat16, rng).coeffs for _ in range(3))
        lhs = float(lat16.inner_h(lat16.bilinear_b(v, a), p))
        adj = lat16.adjoint_b_first(a, p)
        assert lhs == pytest.approx(float(lat16.inner_h(v, adj)), rel=1e-10, abs=1e-12)

    def test_adjoint_b_second(self, lat16, rng):
        a, v, p = (random_field(lat16, rng).coeffs for _ in range(3))
        lhs = float(lat16.inner_h(lat16.bilinear_b(a, v), p))
        adj = lat16.adjoint_b_second(a, p)
        assert lhs == pytest.approx(float(lat16.inner_h(v, adj)), rel=1e-10, abs=1e-12)


class TestOperatorBounds:
    def test_damping_formula_attains_half(self):
        # the scalar factor x / (1 + x^2) peaks at x = 1
        assert 1.0 * 1.0 / (1.0 + 1.0) == 0.5
        lat = make_lattice(8)
        rep = verify_operator_bounds(lat, 1.0, trials=10, seed=1)
        assert rep.max_halfpower_damping == pytest.approx(0.5)

    def test_bounds_hold(self, lat32):
        for alpha in (0.05, 0.3, 0.9):
            rep = verify_operator_bounds(lat32, alpha, trials=100, seed=2)
            assert rep.max_smoother_damping <= 1.0
            assert rep.max_halfpower_damping <= 0.5 + 1e-15
            assert rep.smoothing_gap_max_ratio <= 1.0 + 1e-12
            assert rep.ok

    def test_rejects_bad_alpha(self, lat16):
        with pytest.raises(ValueError):
            verify_operator_bounds(lat16, 0.0)


class TestFieldInvariants:
    def test_random_field_is_valid(self, lat32, rng):
        for _ in range(5):
            random_field(lat32, rng).validate()

    def test_validate_catches_divergence(self, lat16):
        c = np.zeros(lat16.shape, complex)
        c[0, 1, 0] = 1.0
        c[0, -1, 0] = 1.0  # Hermitian partner, but k.u != 0
        with pytest.raises(ValueError, match="divergence"):
            SpectralField(lat16, c).validate()

    def test_validate_catches_mean(self, lat16):
        c = np.zeros(lat16.shape, complex)
        c[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="mean"):
            SpectralField(lat16, c).validate()

    @pytest.mark.parametrize("partner", [0.5 + 0.5j, 1.0 - 1e-9j, 0.0])
    def test_validate_catches_an_unpaired_k2_zero_column(self, lat16, partner):
        # only the k2 = 0 column stores both u(k) and u(-k); they must be
        # conjugate for the field to be real
        c = np.zeros(lat16.shape, complex)
        c[1, 2, 0] = 1.0 + 1j  # k = (2, 0), divergence-free
        c[1, -2, 0] = 1.0 - 1j
        SpectralField(lat16, c).validate()
        c[1, -2, 0] = partner
        with pytest.raises(ValueError, match="real-valued"):
            SpectralField(lat16, c).validate()

    def test_fields_must_have_the_lattice_shape(self, lat16):
        with pytest.raises(ValueError, match="shape"):
            SpectralField(lat16, np.zeros((2, 16, 16), complex))

    def test_identity_report_clean(self, lat16):
        worst = identity_report(lat16, trials=25, seed=5)
        assert max(worst.values()) <= 1e-10


class TestEstimateShapes:
    def test_calibrated_constants_transfer(self, lat16, lat32):
        # constants calibrated at n=16 must hold at n=32 with factor 2
        consts = calibrate_estimates(lat16, trials=1000, seed=11)
        for name, c in calibrate_estimates(lat32, 200, seed=12).items():
            assert c <= 2.0 * consts[name], name

    def test_two_kernel_products_per_triple(self, lat16, monkeypatch):
        # B(u, v) and Btilde(u, v), one term each, feed every estimate's left side
        calls = []
        quadratic = TorusLattice._quadratic

        def counted(self, terms):
            calls.append(len(terms))
            return quadratic(self, terms)

        monkeypatch.setattr(TorusLattice, "_quadratic", counted)
        consts = calibrate_estimates(lat16, trials=5, seed=3)
        assert calls == [1, 1] * 5
        assert len(consts) == 7

    def test_no_trials_is_refused(self, lat16):
        with pytest.raises(ValueError, match="trials"):
            calibrate_estimates(lat16, trials=0)
        with pytest.raises(ValueError, match="trials"):
            identity_report(lat16, trials=0)
