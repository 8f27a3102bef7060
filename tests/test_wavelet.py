import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetraffic import wavelet as wv
from wavetraffic.errors import DimensionError, ParameterError


def equivalent_filters(filt, level: int):
    """Composed level-j MODWT filters (wavelet_j, scaling_j) for j=1..J.

    Built by upsampling-and-convolving the base DWT filters and dividing
    by 2^{j/2}; the direct circular convolution with these taps must
    agree with the pyramid output.
    """
    g, h = wv.get_filter(filt)
    pairs = []
    g_cascade = np.array([1.0])
    for j in range(1, level + 1):

        def _upsample(taps, factor):
            out = np.zeros((len(taps) - 1) * factor + 1)
            out[::factor] = taps
            return out

        factor = 2 ** (j - 1)
        h_j = np.convolve(g_cascade, _upsample(h, factor)) / 2 ** (j / 2.0)
        g_j = np.convolve(g_cascade, _upsample(g, factor)) / 2 ** (j / 2.0)
        pairs.append((h_j, g_j))
        g_cascade = np.convolve(g_cascade, _upsample(g, factor))
    return pairs


def brute_modwt(u, filt, level):
    """Direct circular convolution with the composed level-j filters.

    Independent of the pyramid implementation: the equivalent filters
    are built by explicit upsample-and-convolve and applied by the
    (t - l) mod M indexing rule.
    """
    u = np.asarray(u, dtype=np.float64)
    m = len(u)
    pairs = equivalent_filters(filt, level)
    coeffs = []
    for h_j, _ in pairs:
        coeffs.append(np.array([
            sum(h_j[l] * u[(t - l) % m] for l in range(len(h_j))) for t in range(m)
        ]))
    g_j = pairs[-1][1]
    smooth = np.array([
        sum(g_j[l] * u[(t - l) % m] for l in range(len(g_j))) for t in range(m)
    ])
    return coeffs, smooth


class TestFilters:
    @pytest.mark.parametrize("name", ["haar", "d4"])
    def test_invariants(self, name):
        g, h = wv.get_filter(name)
        assert abs(h.sum()) < 1e-12
        assert abs((g ** 2).sum() - 1.0) < 1e-12
        assert abs((h ** 2).sum() - 1.0) < 1e-12
        assert len(g) == len(h)

    @pytest.mark.parametrize("name", ["haar", "d4"])
    def test_wavelet_is_quadrature_mirror_of_scaling(self, name):
        # h_l = (-1)^l g_{L-1-l}, and the two filters are orthogonal
        g, h = wv.get_filter(name)
        np.testing.assert_array_equal(h, (-1.0) ** np.arange(len(g)) * g[::-1])
        assert abs(g @ h) < 1e-12

    @pytest.mark.parametrize("name", ["haar", "d4"])
    def test_filter_width_is_the_composed_filter_length(self, name):
        for level in range(1, 5):
            h_j, g_j = equivalent_filters(name, level)[-1]
            assert wv.filter_width(name, level) == len(h_j) == len(g_j)

    def test_lookup_returns_taps(self):
        g, h = wv.get_filter("haar")
        np.testing.assert_allclose(g, [2 ** -0.5, 2 ** -0.5], rtol=0, atol=1e-15)
        np.testing.assert_allclose(h, [2 ** -0.5, -(2 ** -0.5)], rtol=0, atol=1e-15)
        g4, h4 = wv.get_filter("D4")
        assert len(g4) == len(h4) == 4
        s3 = np.sqrt(3.0)
        np.testing.assert_allclose(
            g4, np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * np.sqrt(2.0)), atol=1e-15)

    def test_returned_taps_are_copies(self):
        before = wv.mra_matrices("haar", 1, 4)
        for taps in wv.get_filter("haar"):
            taps *= 2.0
        for a, b in zip(before, wv.mra_matrices("haar", 1, 4)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ["sym8", "", None])
    def test_lookup_rejects_unknown_name(self, name):
        with pytest.raises(ParameterError, match=r"unknown wavelet filter .*\['d4', 'haar'\]"):
            wv.get_filter(name)


class TestModwt:
    def test_constant_series(self):
        coeffs, smooth = wv.modwt([3.0, 3.0, 3.0, 3.0], "haar", 1)
        np.testing.assert_allclose(coeffs[0], np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(smooth, np.full(4, 3.0), atol=1e-12)

    def test_haar_level_one_hand_values(self):
        coeffs, smooth = wv.modwt([1.0, 2.0, 3.0, 4.0], "haar", 1)
        np.testing.assert_allclose(coeffs[0], [-1.5, 0.5, 0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(smooth, [2.5, 1.5, 2.5, 3.5], atol=1e-12)

    @pytest.mark.parametrize("filt", ["haar", "d4"])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_pyramid_matches_brute_force(self, filt, level):
        u = np.random.default_rng(3).normal(size=45)
        coeffs, smooth = wv.modwt(u, filt, level)
        b_coeffs, b_smooth = brute_modwt(u, filt, level)
        for a, b in zip(coeffs, b_coeffs):
            np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(smooth, b_smooth, atol=1e-12)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=37)
        for k in (1, 5, 17, 36):
            base_c, base_s = wv.modwt(u, "d4", 2)
            shifted_c, shifted_s = wv.modwt(np.roll(u, k), "d4", 2)
            for a, b in zip(base_c, shifted_c):
                np.testing.assert_allclose(np.roll(a, k), b, atol=1e-12)
            np.testing.assert_allclose(np.roll(base_s, k), shifted_s, atol=1e-12)

    def test_validation(self):
        with pytest.raises(DimensionError):
            wv.modwt([], "haar", 1)
        with pytest.raises(ParameterError):
            wv.modwt([1.0, 2.0], "haar", 0)
        with pytest.raises(DimensionError):
            wv.modwt([1.0, 2.0], "d4", 1)  # shorter than the base filter

    def test_short_series_warns(self):
        with pytest.warns(UserWarning, match="wrap-around"):
            wv.modwt(np.arange(8.0), "d4", 3)


class TestMra:
    @given(
        st.integers(8, 64),
        st.sampled_from(["haar", "d4"]),
        st.integers(1, 3),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_perfect_reconstruction(self, length, filt, level, seed):
        u = np.random.default_rng(seed).normal(size=length)
        with np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rec = wv.imodwt(wv.mra(u, filt, level))
        assert np.max(np.abs(rec - u)) < 1e-10

    def test_constant_input(self):
        *details, smooth = wv.mra(np.full(16, 7.5), "haar", 2)
        for d in details:
            np.testing.assert_allclose(d, np.zeros(16), atol=1e-12)
        np.testing.assert_allclose(smooth, np.full(16, 7.5), atol=1e-10)

    def test_alternation_energy_in_first_detail(self):
        u = np.tile([1.0, -1.0], 32)
        energies = [float((c ** 2).sum()) for c in wv.mra(u, "haar", 2)]
        assert energies[0] >= 0.99 * (u ** 2).sum()

    def test_linearity(self):
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=(2, 40))
        a, b = 2.5, -1.25
        left = wv.mra(a * u + b * v, "d4", 2)
        right = [a * cu + b * cv for cu, cv in zip(wv.mra(u, "d4", 2), wv.mra(v, "d4", 2))]
        for lc, rc in zip(left, right):
            np.testing.assert_allclose(lc, rc, atol=1e-10)

    def test_scaling_components_scales_output(self):
        u = np.random.default_rng(6).normal(size=20)
        comps = wv.mra(u, "haar", 2)
        scaled = [2.0 * c for c in comps]
        np.testing.assert_allclose(wv.imodwt(scaled), 2.0 * wv.imodwt(comps), atol=1e-12)

    def test_imodwt_zero_details(self):
        s = np.random.default_rng(7).normal(size=12)
        np.testing.assert_array_equal(wv.imodwt([np.zeros(12), np.zeros(12), s]), s)

    def test_imodwt_length_mismatch(self):
        with pytest.raises(DimensionError):
            wv.imodwt([np.zeros(10), np.zeros(12)])


class TestMraBatch:
    def test_shape_preservation(self):
        x = np.random.default_rng(8).normal(size=(5, 2, 32))
        comps = wv.mra(x, "haar", 2)
        assert len(comps) == 3
        assert all(c.shape == x.shape for c in comps)

    def test_matches_per_series(self):
        x = np.random.default_rng(9).normal(size=(3, 2, 24))
        comps = wv.mra(x, "d4", 2)
        single = wv.mra(x[1, 0], "d4", 2)
        for batched, alone in zip(comps, single):
            np.testing.assert_allclose(batched[1, 0], alone, atol=1e-12)

    def test_components_sum_to_input(self):
        x = np.random.default_rng(10).normal(size=(4, 1, 48))
        total = sum(wv.mra(x, "haar", 3))
        np.testing.assert_allclose(total, x, atol=1e-10)


class TestMraMatrices:
    def test_linear_operator_agrees_with_mra(self):
        u = np.random.default_rng(11).normal(size=12)
        ops = wv.mra_matrices("haar", 2, 12)
        direct = wv.mra(u, "haar", 2)
        for op, comp in zip(ops, direct):
            np.testing.assert_allclose(op @ u, comp, atol=1e-12)

    def test_operators_sum_to_identity(self):
        total = sum(wv.mra_matrices("d4", 2, 16))
        np.testing.assert_allclose(total, np.eye(16), atol=1e-10)
