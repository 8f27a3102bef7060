import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetraffic import graph as G
from wavetraffic.errors import DimensionError, ParameterError


def brute_wasserstein(u, v):
    """Exhaustive CDF-difference evaluation of the transport cost."""
    u = np.asarray(u, float) / np.sum(u)
    v = np.asarray(v, float) / np.sum(v)
    total = 0.0
    for t in range(len(u) - 1):
        total += abs(u[: t + 1].sum() - v[: t + 1].sum())
    return total / (len(u) - 1)


def loop_sparsify_mask(a, p_sp):
    """Per-row reference for ``sparsify``: self, then the N_r - 1 largest
    other entries by a stable sort, so ties go to the lower index."""
    n = a.shape[0]
    n_keep = max(1, math.ceil(n * p_sp))
    mask = np.zeros((n, n))
    for i in range(n):
        mask[i, i] = 1.0
        others = np.delete(np.arange(n), i)
        order = others[np.argsort(-a[i, others], kind="stable")]
        mask[i, order[: n_keep - 1]] = 1.0
    return mask


class TestStadDistance:
    def test_identical_series(self):
        u = np.array([1.0, 2.0, 3.0])
        assert G.stad_distance(u, u) == 0.0

    def test_opposite_point_masses(self):
        # all mass at opposite ends: maximal distance
        assert G.stad_distance([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]) == pytest.approx(1.0)

    def test_hand_value(self):
        # u CDF = (.5, 1), v CDF = (.25, 1) => |diff| sum = .25, /1
        assert G.stad_distance([1.0, 1.0], [1.0, 3.0]) == pytest.approx(0.25)

    def test_scale_invariance(self):
        u = np.array([1.0, 4.0, 2.0, 3.0])
        v = np.array([2.0, 1.0, 1.0, 5.0])
        assert G.stad_distance(u, v) == pytest.approx(G.stad_distance(7.0 * u, 0.3 * v))

    def test_all_zero_rules(self):
        z = np.zeros(4)
        assert G.stad_distance(z, z) == 0.0
        assert G.stad_distance(z, np.ones(4)) == 1.0
        assert G.stad_distance(np.ones(4), z) == 1.0

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=2, max_size=12),
        st.lists(st.floats(0.0, 100.0), min_size=2, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_properties_against_brute_force(self, u, v):
        v = (v * ((len(u) // len(v)) + 1))[: len(u)]
        u, v = np.array(u), np.array(v)
        d = G.stad_distance(u, v)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(G.stad_distance(v, u))
        if u.sum() > 0 and v.sum() > 0:
            assert d == pytest.approx(brute_wasserstein(u, v), abs=1e-12)

    def test_validation(self):
        with pytest.raises(DimensionError):
            G.stad_distance([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            G.stad_distance([1.0], [1.0])


class TestBuildStad:
    def test_structure(self):
        x = np.abs(np.random.default_rng(0).normal(5, 1, size=(5, 40)))
        stad = G.build_stad(x)
        np.testing.assert_allclose(np.diag(stad.adjacency), 1.0)
        np.testing.assert_allclose(stad.adjacency, stad.adjacency.T)
        assert np.all((stad.adjacency >= 0.0) & (stad.adjacency <= 1.0))

    def test_matches_pairwise_calls(self):
        x = np.abs(np.random.default_rng(1).normal(5, 1, size=(4, 30)))
        stad = G.build_stad(x)
        for i in range(4):
            for j in range(4):
                expected = 0.0 if i == j else G.stad_distance(x[i], x[j])
                assert 1.0 - stad.adjacency[i, j] == pytest.approx(expected)

    def test_rejects_single_row(self):
        with pytest.raises(DimensionError):
            G.build_stad(np.ones((1, 10)))


class TestSparsify:
    def _stad(self, a):
        a = np.asarray(a, float)
        return G.StadMatrix(adjacency=a)

    def test_keep_count(self):
        x = np.abs(np.random.default_rng(2).normal(5, 1, size=(10, 50)))
        strg = G.sparsify(G.build_stad(x), p_sp=0.25)
        # ceil(10 * 0.25) = 3 kept per row
        np.testing.assert_array_equal(strg.mask.sum(axis=1), np.full(10, 3.0))

    def test_minimum_one_neighbor(self):
        x = np.abs(np.random.default_rng(3).normal(5, 1, size=(8, 50)))
        strg = G.sparsify(G.build_stad(x), p_sp=0.01)
        np.testing.assert_array_equal(strg.mask.sum(axis=1), np.ones(8))
        np.testing.assert_array_equal(strg.mask, np.eye(8))

    def test_self_always_kept(self):
        x = np.abs(np.random.default_rng(4).normal(5, 1, size=(6, 50)))
        strg = G.sparsify(G.build_stad(x), p_sp=0.5)
        np.testing.assert_array_equal(np.diag(strg.mask), np.ones(6))

    def test_picks_largest_entries(self):
        a = np.array([
            [1.0, 0.9, 0.1, 0.5],
            [0.9, 1.0, 0.8, 0.2],
            [0.1, 0.8, 1.0, 0.3],
            [0.5, 0.2, 0.3, 1.0],
        ])
        strg = G.sparsify(self._stad(a), p_sp=0.5)  # keep 2 per row
        expected = np.array([
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [1, 0, 0, 1],
        ], dtype=float)
        np.testing.assert_array_equal(strg.mask, expected)

    def test_tie_breaks_to_lower_index(self):
        a = np.full((4, 4), 0.6)
        np.fill_diagonal(a, 1.0)
        strg = G.sparsify(self._stad(a), p_sp=0.5)
        # row 0 keeps col 1 (lowest non-self); row 3 keeps col 0
        assert strg.mask[0, 1] == 1.0 and strg.mask[0, 2] == 0.0
        assert strg.mask[3, 0] == 1.0 and strg.mask[3, 1] == 0.0

    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(10)
        for trial in range(400):
            n = int(rng.integers(2, 14))
            kind = trial % 4
            if kind == 0:  # distinct values, any diagonal
                a = rng.uniform(size=(n, n))
            elif kind == 1:  # heavily tied, diagonal included
                a = rng.integers(0, 3, size=(n, n)) / 2.0
            elif kind == 2:  # constant off the diagonal
                a = np.full((n, n), rng.uniform())
                np.fill_diagonal(a, 1.0)
            else:
                a = G.build_stad(np.abs(rng.normal(5, 1, size=(n, 30)))).adjacency
            p_sp = float(rng.choice([0.01, 0.1, 0.25, 0.5, 0.75, 1.0, rng.uniform(0.01, 1.0)]))
            np.testing.assert_array_equal(G.sparsify(self._stad(a), p_sp).mask,
                                          loop_sparsify_mask(a, p_sp))

    def test_p_sp_validation(self):
        stad = self._stad(np.eye(3))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                G.sparsify(stad, p_sp=bad)


class TestBuildStag:
    def test_symmetrization_by_max(self):
        a = np.array([
            [1.0, 0.9, 0.2],
            [0.9, 1.0, 0.7],
            [0.2, 0.7, 1.0],
        ])
        mask = np.array([
            [1, 1, 0],
            [0, 1, 1],
            [0, 1, 1],
        ], dtype=float)
        stag = G.build_stag(G.StadMatrix(a), G.StrgMask(mask))
        np.testing.assert_allclose(stag, stag.T)
        # edge (0,1) survives because row 0 kept it even though row 1 did not
        assert stag[0, 1] == pytest.approx(0.9)
        assert stag[1, 0] == pytest.approx(0.9)
        assert stag[0, 2] == 0.0


class TestScaledLaplacian:
    def test_spectrum_bound_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 17))
            a = rng.uniform(0, 1, size=(n, n))
            a = np.maximum(a, a.T)
            np.fill_diagonal(a, 0.0)
            lap = G.scaled_laplacian(a)
            eigs = np.linalg.eigvalsh(lap.matrix)
            assert eigs.min() >= -1.0 - 1e-6
            assert eigs.max() <= 1.0 + 1e-6

    def test_largest_scaled_eigenvalue_is_one(self):
        # the scale is 2 / lambda_max of D - A, so the top of the spectrum maps to 1
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, size=(8, 8))
        a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0.0)
        lap = G.scaled_laplacian(a)
        assert np.linalg.eigvalsh(lap.matrix).max() == pytest.approx(1.0, rel=1e-6)

    def test_edgeless_fallback(self):
        # D - A = 0, so lambda_max falls back to 2 and the scaled matrix is -I
        lap = G.scaled_laplacian(np.zeros((4, 4)))
        np.testing.assert_array_equal(lap.matrix, -np.eye(4))

    def test_asymmetry_rejected(self):
        a = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(DimensionError):
            G.scaled_laplacian(a)

    def test_tiny_asymmetry_rejected(self):
        # every producer of an adjacency writes it exactly symmetric
        a = np.array([[0.0, 1.0], [1.0 + 5e-10, 0.0]])
        with pytest.raises(DimensionError, match="input asymmetric by 5e-10"):
            G.scaled_laplacian(a)

    def test_negative_entries_rejected(self):
        with pytest.raises(ParameterError):
            G.scaled_laplacian(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN passes the symmetry and sign checks and used to reach eigvalsh
        a = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ParameterError, match="adjacency has 2 non-finite entries"):
            G.scaled_laplacian(a)


class TestChebyshevBasis:
    def test_first_two_terms(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        lap = G.scaled_laplacian(a)
        basis = G.chebyshev_basis(lap, 3)
        assert basis.shape == (3, 2, 2)
        np.testing.assert_array_equal(basis[0], np.eye(2))
        np.testing.assert_array_equal(basis[1], lap.matrix)

    def test_recurrence_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 17))
            a = rng.uniform(0, 1, size=(n, n))
            a = np.maximum(a, a.T)
            np.fill_diagonal(a, 0.0)
            lap = G.scaled_laplacian(a)
            basis = G.chebyshev_basis(lap, 5)
            lt = lap.matrix
            for k in range(2, 5):
                residual = basis[k] - (2.0 * lt @ basis[k - 1] - basis[k - 2])
                assert np.max(np.abs(residual)) < 1e-10

    def test_eigendecomposition_oracle(self):
        # T_k(Lt) must share eigenvectors with Lt and apply the scalar
        # Chebyshev polynomial to each eigenvalue
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(6, 6))
        a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0.0)
        lap = G.scaled_laplacian(a)
        basis = G.chebyshev_basis(lap, 4)
        vals, vecs = np.linalg.eigh(lap.matrix)
        scalars = [np.ones_like(vals), vals.copy()]
        for _ in range(2, 4):
            scalars.append(2.0 * vals * scalars[-1] - scalars[-2])
        for mat, diag in zip(basis, scalars, strict=True):
            expected = vecs @ np.diag(diag) @ vecs.T
            np.testing.assert_allclose(mat, expected, atol=1e-8)

    def test_order_validation(self):
        lap = G.scaled_laplacian(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            G.chebyshev_basis(lap, 0)


class TestBundle:
    def test_end_to_end_consistency(self):
        x = np.abs(np.random.default_rng(9).normal(5, 1, size=(6, 80)))
        bundle = G.build_graph_bundle(x, p_sp=0.5)
        np.testing.assert_allclose(bundle.a_stag, bundle.a_stag.T)
        np.testing.assert_allclose(
            bundle.a_stag,
            G.build_stag(bundle.stad, bundle.strg),
        )
        np.testing.assert_array_equal(bundle.laplacian.matrix,
                                      G.scaled_laplacian(bundle.a_stag).matrix)
