"""Operator algebra: lattice bookkeeping, projections, bilinear identities."""

import numpy as np
import pytest

from lans2d import (
    SpectralField,
    calibrate_estimates,
    eigenmode_field,
    make_lattice,
    random_field,
    single_shear,
    taylor_green,
    verify_operator_bounds,
    zero_field,
)
from lans2d.spectral import ESTIMATE_FORMS, LatticeMismatchError, identity_report


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
        lat = make_lattice(6)
        assert lat.dealias_mask[2 % 6, 0]
        assert not lat.dealias_mask[3 % 6, 0]

    @pytest.mark.parametrize("bad", [5, 2, 0, -4])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            make_lattice(bad)


class TestLeray:
    def test_annihilates_gradients(self, lat16):
        # f(k) = k * c is a pure gradient mode by mode
        c = np.zeros((2, 16, 16), complex)
        rngl = np.random.default_rng(3)
        scal = rngl.standard_normal((16, 16)) + 1j * rngl.standard_normal((16, 16))
        c[0] = lat16.k1 * scal
        c[1] = lat16.k2 * scal
        out = lat16.leray(c * lat16.dealias_mask)
        assert np.abs(out).max() < 1e-14 * np.abs(c).max()

    def test_idempotent_and_identity_on_h(self, lat16, rng):
        u = random_field(lat16, rng).coeffs
        once = lat16.leray(u)
        twice = lat16.leray(once)
        assert np.abs(once - u).max() < 1e-14
        assert np.abs(twice - once).max() < 1e-15

    def test_hand_example(self):
        lat = make_lattice(16)
        c = np.zeros((2, 16, 16), complex)
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


class TestNorms:
    def test_zero_field(self, lat16):
        z = zero_field(lat16).coeffs
        assert lat16.norm_h(z) == 0.0 and lat16.norm_v(z) == 0.0
        assert lat16.norm_alpha(z, 0.3) == 0.0

    def test_single_mode_alpha_norm(self, lat16):
        u = eigenmode_field(lat16, (1, 0)).coeffs  # unit H norm, eigenvalue 1
        assert lat16.norm_h(u) == pytest.approx(1.0)
        assert lat16.norm_alpha(u, 0.5) == pytest.approx(np.sqrt(1.25))

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
            smoothed = lat32.btilde_alpha(u, v, alpha)
            weighted = lat32.unsmooth(u, alpha)
            assert abs(lat32.inner_h(smoothed, weighted)) <= 1e-10

    def test_output_is_valid_field(self, lat16, rng):
        u, v = (random_field(lat16, rng).coeffs for _ in range(2))
        SpectralField(lat16, lat16.bilinear_b(u, v)).validate()
        SpectralField(lat16, lat16.bilinear_btilde(u, v)).validate()
        SpectralField(lat16, lat16.btilde_alpha(u, v, 0.8)).validate()


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
        c = np.zeros((2, 16, 16), complex)
        c[0, 1, 0] = 1.0
        c[0, 15, 0] = 1.0  # Hermitian partner, but k.u != 0
        with pytest.raises(ValueError, match="divergence"):
            SpectralField(lat16, c).validate()

    def test_validate_catches_mean(self, lat16):
        c = np.zeros((2, 16, 16), complex)
        c[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="mean"):
            SpectralField(lat16, c).validate()

    def test_identity_report_clean(self, lat16):
        worst = identity_report(lat16, trials=25, seed=5)
        assert max(worst.values()) <= 1e-10


class TestEstimateShapes:
    def test_calibrated_constants_transfer(self, lat16, lat32):
        # constants calibrated at n=16 must hold at n=32 with factor 2
        consts = calibrate_estimates(lat16, trials=1000, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(200):
            u = random_field(lat32, rng, norm=None)
            v = random_field(lat32, rng, norm=None)
            w = random_field(lat32, rng, norm=None)
            for name, fn in ESTIMATE_FORMS.items():
                lhs, rhs = fn(lat32, u.coeffs, v.coeffs, w.coeffs)
                assert lhs <= 2.0 * consts[name] * rhs, name
