"""Noise coefficients, Wiener sampling, controls and the weak metric."""

import numpy as np
import pytest

from lans2d import (
    Control,
    NoiseOperator,
    SpectralField,
    additive_noise,
    control_cost,
    eigenmode_field,
    make_lattice,
    projection_multiplicative_noise,
    random_field,
    sample_wiener,
    sine_control,
    trajectory_wiener,
    weak_distance,
    zero_control,
    zero_field,
)
from lans2d import deviations
from lans2d.noise import ADDITIVE, MULTIPLICATIVE, _stream_seeds


@pytest.fixture
def g_add(lat16):
    return additive_noise(lat16, [2.0, 0.7], [(1, 0), (0, 1)])


@pytest.fixture
def g_mult(lat16):
    return projection_multiplicative_noise(
        lat16, [1.5, 0.5], [(1, 0), (0, 1)], [(1, 1), (2, 0)], [0.0, 0.25]
    )


class TestApply:
    def test_additive_unit_coordinate(self, lat16, g_add):
        out = g_add.apply(None, [1.0, 0.0])
        phi1 = eigenmode_field(lat16, (1, 0)).coeffs
        assert lat16.norm_h(out - 2.0 * phi1) < 1e-14

    def test_multiplicative_zero_state(self, lat16, g_mult, rng):
        gm0 = projection_multiplicative_noise(
            lat16, [1.5, 0.5], [(1, 0), (0, 1)], [(1, 1), (2, 0)], [0.0, 0.0]
        )
        out = gm0.apply(zero_field(lat16).coeffs, rng.standard_normal(2))
        assert lat16.norm_h(out) == 0.0

    def test_multiplicative_unit_probe(self, lat16):
        gm = projection_multiplicative_noise(
            lat16, [1.5], [(1, 0)], [(1, 1)], [0.0]
        )
        psi = eigenmode_field(lat16, (1, 1)).coeffs
        out = gm.apply(psi, [1.0])
        phi = eigenmode_field(lat16, (1, 0)).coeffs
        assert lat16.norm_h(out - 1.5 * phi) < 1e-13

    def test_rank_mismatch(self, lat16, g_add):
        with pytest.raises(ValueError, match="coordinates"):
            g_add.apply(None, [1.0, 0.0, 0.0])

    def test_out_of_another_shape(self, lat16, g_add):
        # one field's term is not spread over a batch of outputs
        with pytest.raises(ValueError, match="out has shape"):
            g_add.apply_smoothed(None, [1.0, 0.0], 0.1, out=np.empty((3,) + lat16.shape, complex))

    def test_output_valid(self, lat16, g_mult, rng):
        u = random_field(lat16, rng).coeffs
        SpectralField(lat16, g_mult.apply(u, rng.standard_normal(2))).validate()

    def test_smoothed_variants(self, lat16, g_add, rng):
        u = random_field(lat16, rng).coeffs
        coords = rng.standard_normal(2)
        plain = g_add.apply(u, coords)
        assert lat16.norm_h(g_add.apply_smoothed(u, coords, 0.0) - plain) == 0.0
        single = additive_noise(lat16, [0.9], [(1, 0)])
        out = single.apply_smoothed(u, [1.0], 1.0)
        phi = eigenmode_field(lat16, (1, 0)).coeffs
        assert lat16.norm_h(out - 0.45 * phi) < 1e-14  # eigenvalue 1: factor 1/2

    def test_linearity_in_coordinates(self, lat16, g_mult, rng):
        u = random_field(lat16, rng).coeffs
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        lhs = g_mult.apply_smoothed(u, a + b, 0.3)
        rhs = g_mult.apply_smoothed(u, a, 0.3) + g_mult.apply_smoothed(u, b, 0.3)
        assert lat16.norm_h(lhs - rhs) < 1e-12


def _unit_random(lat, rng):
    f = random_field(lat, rng).coeffs
    return f / lat.norm_h(f)


def _same(a, b):
    return np.array_equal(a.view(np.float64), b.view(np.float64))


class TestSupport:
    """``apply`` and ``apply_smoothed`` write the einsum over the outputs'
    support; compared as floats with the dense einsum over every entry and
    the division of the whole field."""

    CASES = {
        "additive": lambda lat, rng: additive_noise(lat, [2.0, 0.7], [(1, 0), (0, 1)]),
        "multiplicative": lambda lat, rng: projection_multiplicative_noise(
            lat, [1.5, 0.5], [(1, 0), (0, 1)], [(1, 1), (1, -1)], [0.3, -0.25]),
        "one mode, two phases": lambda lat, rng: additive_noise(
            lat, [0.9, 1.1], [(1, 1), (1, 1)], phases=[0.0, -np.pi / 2]),
        "dense random outputs": lambda lat, rng: NoiseOperator(
            lat, ADDITIVE, [0.4, 1.3, 0.8], np.stack([_unit_random(lat, rng) for _ in range(3)])),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("n", [4, 16, 32])
    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_equals_the_dense_einsum(self, case, n, batch, rng):
        lat = make_lattice(n)
        noise = self.CASES[case](lat, rng)
        u = np.stack([random_field(lat, rng).coeffs for _ in range(5)])[:5 if batch else 1]
        u = u.reshape(batch + lat.shape)
        coords = rng.standard_normal(batch + (noise.rank,))
        dense = np.einsum("...k,kcij->...cij", noise.coefficients(u) * coords, noise.outputs)
        assert _same(noise.apply(u, coords), dense)
        for alpha in (0.0, 0.1, 1.0):
            want = np.divide(dense, 1.0 + alpha * alpha * lat.eigenvalue)
            assert _same(noise.apply_smoothed(u, coords, alpha), want)
            out = np.full(dense.shape, 3.0 - 2.0j)  # stale entries off the support
            assert noise.apply_smoothed(u, coords, alpha, out=out) is out
            assert _same(out, want)
        out = np.full(dense.shape, 3.0 - 2.0j)
        assert noise.apply(u, coords, out=out) is out and _same(out, dense)

    def test_support_of_eigenmode_directions(self, lat16):
        # two entries per direction: (1, 0) sits in the k2 = 0 column at
        # k and -k in its second component only, (1, 1) at k in both
        noise = additive_noise(lat16, [1.0, 1.0], [(1, 0), (1, 1)])
        assert noise._values.shape == (2, 2 + 2)

    def test_arrays_are_read_only_copies(self, lat16):
        outputs = np.stack([eigenmode_field(lat16, (1, 0)).coeffs])
        probes = np.stack([eigenmode_field(lat16, (1, 1)).coeffs])
        noise = NoiseOperator(lat16, MULTIPLICATIVE, np.array([1.0]), outputs, probes,
                              np.array([0.5]))
        for name in ("sigma", "outputs", "probes", "offsets"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(noise, name)[...] = 0.0
        outputs[...] = 0.0  # the caller's array is not the operator's
        assert lat16.norm_h(noise.apply(noise.probes[0], [1.0])) == pytest.approx(1.5)


class TestHilbertSchmidt:
    def test_rank_one_additive(self, lat16):
        g = additive_noise(lat16, [2.0], [(1, 0)])
        h, v = g.hs_norms(None)
        assert h == pytest.approx(2.0)
        assert v == pytest.approx(2.0)  # eigenvalue 1 mode: ||phi||_V = |phi|

    def test_multiplicative_zero(self, lat16):
        gm0 = projection_multiplicative_noise(
            lat16, [1.0], [(1, 0)], [(1, 1)], [0.0]
        )
        assert gm0.hs_norms(zero_field(lat16).coeffs) == (0.0, 0.0)

    def test_lipschitz_certificate(self, lat16, g_mult, rng):
        C = g_mult.lipschitz_constant()
        for _ in range(100):
            u = random_field(lat16, rng, norm=None).coeffs
            v = random_field(lat16, rng, norm=None).coeffs
            hu, vu = g_mult.hs_norms(u)
            hv, vv = g_mult.hs_norms(v)
            gap = lat16.norm_h(u - v)
            assert abs(hu - hv) <= C * gap * (1 + 1e-12)
            assert abs(vu - vv) <= C * gap * (1 + 1e-12)

    def test_growth_certificate(self, lat16, g_mult, rng):
        C = g_mult.lipschitz_constant()
        for _ in range(50):
            u = random_field(lat16, rng, norm=None).coeffs
            h, v = g_mult.hs_norms(u)
            assert h <= C * (1.0 + lat16.norm_h(u)) * (1 + 1e-12)
            assert v <= C * (1.0 + lat16.norm_h(u)) * (1 + 1e-12)

    def test_offsets_bounded(self, lat16):
        with pytest.raises(ValueError, match="c_j"):
            projection_multiplicative_noise(
                lat16, [1.0], [(1, 0)], [(1, 1)], [1.5]
            )


class TestWiener:
    def test_reproducible(self):
        a = sample_wiener(3, 1e-3, 100, 42)
        b = sample_wiener(3, 1e-3, 100, 42)
        assert np.array_equal(a.increments, b.increments)

    def test_trajectory_streams_differ(self):
        a = trajectory_wiener(2, 1e-3, 50, 7, 0)
        b = trajectory_wiener(2, 1e-3, 50, 7, 1)
        assert not np.allclose(a.increments, b.increments)

    def test_moments(self):
        n = 100_000
        dt = 1e-3
        w = sample_wiener(2, dt, n, 2024)
        z = w.increments / np.sqrt(dt)
        assert abs(z.var()) == pytest.approx(1.0, rel=0.03)
        assert np.abs(z.mean(axis=0)).max() <= 4.0 / np.sqrt(n)
        corr = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        assert abs(corr) <= 0.05

    def test_chunk_rows_are_the_trajectory_streams(self):
        # README's stream contract: trajectory i of a batch draws the stream
        # (master_seed, i), whatever chunk it lands in
        rows = deviations._chunk_increments(3, 2e-3, 40, 11, 5, 9)
        for i in range(5, 9):
            want = trajectory_wiener(3, 2e-3, 40, 11, i).increments
            assert rows[i - 5].tobytes() == want.tobytes()

    # an entropy word is added at 2**32 and 2**64 of the seed and at 2**32 of
    # the index, so the bulk seeding must split its range where SeedSequence does
    @pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 10**30])
    @pytest.mark.parametrize("start, stop", [(0, 6), (2**32 - 3, 2**32 + 3)])
    def test_bulk_seeds_are_seed_sequences(self, master_seed, start, stop):
        words = _stream_seeds(master_seed, start, stop)
        rows = deviations._chunk_increments(1, 1e-2, 3, master_seed, start, stop)
        assert words.shape == (stop - start, 4) and words.dtype == np.uint64
        for i in range(start, stop):
            seq = np.random.SeedSequence((master_seed, i))
            assert words[i - start].tobytes() == seq.generate_state(4, np.uint64).tobytes()
            want = trajectory_wiener(1, 1e-2, 3, master_seed, i).increments
            assert rows[i - start].tobytes() == want.tobytes()

    def test_bulk_seeds_reject_a_negative_seed(self):
        with pytest.raises(ValueError):
            np.random.default_rng((-1, 0))
        with pytest.raises(ValueError):
            _stream_seeds(-1, 0, 3)
        with pytest.raises(ValueError):
            deviations._chunk_increments(1, 1e-2, 3, -1, 0, 3)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            sample_wiener(1, 0.0, 10, 0)


class TestControl:
    def test_cost_examples(self):
        assert control_cost(zero_control(3, 1e-2, 100)) == 0.0
        steady = Control(1e-3, np.ones((1000, 1)))
        assert control_cost(steady) == pytest.approx(0.5)

    def test_cost_quadratic_scaling(self, rng):
        h = Control(1e-2, rng.standard_normal((50, 2)))
        assert control_cost(2.0 * h) == pytest.approx(4.0 * control_cost(h))

    def test_cost_of_a_batch_is_one_energy_per_control(self):
        # one control, one float energy; a batch of controls has no cost here
        cost = control_cost(Control(0.01, np.ones((5, 2))))
        assert type(cost) is float and cost == 0.05

    def test_grid_mismatch(self, rng):
        h = Control(1e-2, rng.standard_normal((50, 2)))
        g = Control(1e-2, rng.standard_normal((49, 2)))
        with pytest.raises(ValueError):
            weak_distance(h, g)


class TestWeakDistance:
    def test_zero_and_symmetry(self, rng):
        h = Control(1e-2, rng.standard_normal((100, 2)))
        g = Control(1e-2, rng.standard_normal((100, 2)))
        assert weak_distance(h, h) == 0.0
        assert weak_distance(h, g) == pytest.approx(weak_distance(g, h))

    def test_oscillatory_null_sequence(self):
        steps = 1000
        zero = zero_control(1, 1e-3, steps)
        dists = []
        for n in (2, 4, 8, 16, 32):
            h = sine_control(1, 1e-3, steps, n)
            dists.append(weak_distance(h, zero, basis_count=128))
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < dists[0] / 100
