import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bidfm.errors import ConvergenceError, DimensionError
from bidfm.linalg import (
    _lloyd,
    kmeans,
    row_normalize,
    spectral_deviation,
    truncated_svd,
)

from oracles import exhaustive_kmeans_objective, jacobi_svd


class TestTruncatedSvd:
    def test_identity(self):
        f = truncated_svd(np.eye(3), k=2)
        assert np.allclose(f.singular_values, [1.0, 1.0])
        assert np.allclose(f.left.T @ f.left, np.eye(2), atol=1e-12)
        assert np.allclose(f.right.T @ f.right, np.eye(2), atol=1e-12)

    def test_rank_one(self):
        u = np.array([2.0, 0.0, 0.0])
        v = np.array([0.0, 3.0, 0.0, 0.0])
        f = truncated_svd(np.outer(u, v), k=1)
        assert np.allclose(f.singular_values, [6.0])

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 4))
        f = truncated_svd(a, k=3)
        _, s_ref, _ = jacobi_svd(a)
        assert np.abs(f.singular_values - s_ref[:3]).max() < 1e-8
        # best rank-3 approximations agree
        u, s, v = jacobi_svd(a)
        ref = (u[:, :3] * s[:3]) @ v[:, :3].T
        assert np.abs(f.reconstruct() - ref).max() < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_agreement_random_sizes(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 51, size=2)
        k = int(rng.integers(1, min(n, m) + 1))
        a = rng.standard_normal((n, m))
        f = truncated_svd(a, k=k)
        _, s_ref, _ = jacobi_svd(a)
        assert np.abs(f.singular_values - s_ref[:k]).max() < 1e-8

    def test_sign_canonicalization(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 5))
        f = truncated_svd(a, k=4)
        peaks = np.abs(f.left).argmax(axis=0)
        assert np.all(f.left[peaks, np.arange(4)] > 0)
        # reconstruction is unaffected by the sign convention
        assert np.allclose(
            f.reconstruct(), truncated_svd(a, k=4).reconstruct(), atol=1e-12
        )

    def test_k_out_of_range(self):
        with pytest.raises(DimensionError):
            truncated_svd(np.eye(3), k=4)
        with pytest.raises(DimensionError):
            truncated_svd(np.eye(3), k=0)

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionError):
            truncated_svd(np.array([[1.0, np.nan]]), k=1)

    def test_iterative_path_failure_is_convergence_error(self, monkeypatch):
        # 700 x 800 takes the Lanczos path; any ARPACK error it raises is
        # reported as a ConvergenceError
        def failing_svds(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(scipy.sparse.linalg, "svds", failing_svds)
        a = np.random.default_rng(0).uniform(size=(700, 800))
        with pytest.raises(ConvergenceError):
            truncated_svd(a, k=2)

    @pytest.mark.parametrize("shape", [(50, 60), (700, 800)], ids=["dense", "lanczos"])
    @pytest.mark.parametrize("factor", [1e300, 1e-200])
    def test_extreme_scales_match_unscaled(self, shape, factor):
        # near the float limits the products would overflow or underflow
        u = np.random.default_rng(0).uniform(size=shape)
        expected = truncated_svd(u, k=2).singular_values * factor
        got = truncated_svd(u * factor, k=2).singular_values
        assert got == pytest.approx(expected, rel=1e-12)

    def test_no_negative_zero_singular_values(self):
        from bidfm.detect import dscore

        a = np.zeros((700, 800))
        a[:, 0] = 1.0  # rank one: the second singular value is zero
        assert not np.signbit(dscore(a, 2, 3).singular_values).any()
        assert not np.signbit(truncated_svd(a, k=2).singular_values).any()

    def test_iterative_path_matches_dense(self):
        rng = np.random.default_rng(3)
        low = rng.standard_normal((700, 4)) @ rng.standard_normal((4, 650))
        noise = 0.01 * rng.standard_normal((700, 650))
        a = low + noise
        f = truncated_svd(a, k=3)  # 700 x 650 takes the Lanczos path
        s_ref = np.linalg.svd(a, compute_uv=False)[:3]
        assert np.abs(f.singular_values - s_ref).max() < 1e-8


class TestRowNormalize:
    def test_three_four_five(self):
        out = row_normalize(np.array([[3.0, 4.0]]))
        assert np.allclose(out.matrix, [[0.6, 0.8]])
        assert out.degenerate_rows == ()

    def test_zero_row_reported(self):
        out = row_normalize(np.array([[0.0, 0.0]]), eps=1e-12)
        assert np.array_equal(out.matrix, [[0.0, 0.0]])
        assert out.degenerate_rows == (1,)

    def test_random_rows_unit_norm(self):
        rng = np.random.default_rng(5)
        out = row_normalize(rng.standard_normal((5, 3)))
        assert np.abs(np.linalg.norm(out.matrix, axis=1) - 1.0).max() < 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_on_normalizable_rows(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 3))
        once = row_normalize(a).matrix
        twice = row_normalize(once).matrix
        assert np.abs(once - twice).max() < 1e-12


class TestKMeans:
    def test_separates_two_clouds(self):
        rng = np.random.default_rng(0)
        a = np.concatenate(
            [0.01 * rng.standard_normal((5, 2)), 10.0 + 0.01 * rng.standard_normal((5, 2))]
        )
        result = kmeans(a, 2, seed=0)
        assert len(set(result.labels[:5])) == 1
        assert len(set(result.labels[5:])) == 1
        assert result.labels[0] != result.labels[5]
        assert result.converged

    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((7, 3))
        result = kmeans(a, 1, seed=0)
        assert np.allclose(result.centroids[0], a.mean(axis=0))
        assert np.all(result.labels == 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_exhaustive_partition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((8, 2))
        result = kmeans(points, 2, seed=3, restarts=10)
        best = exhaustive_kmeans_objective(points, k=2)
        assert result.objective <= best + 1e-9
        assert result.objective >= best - 1e-9

    def test_objective_consistent_with_labels(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 3))
        result = kmeans(a, 4, seed=1)
        direct = sum(
            ((a[result.labels == c] - result.centroids[c - 1]) ** 2).sum()
            for c in range(1, 5)
        )
        assert abs(result.objective - direct) <= 1e-9 * max(direct, 1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 2))
        r1 = kmeans(a, 3, seed=11)
        r2 = kmeans(a, 3, seed=11)
        assert np.array_equal(r1.labels, r2.labels)
        assert r1.objective == r2.objective

    def test_k_exceeds_rows(self):
        with pytest.raises(DimensionError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((12, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        r1 = kmeans(a, 3, seed=9)
        r2 = kmeans(a @ q, 3, seed=9)
        assert np.array_equal(r1.labels, r2.labels)

    def test_lloyd_monotone_descent(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((40, 2))
        centers = a[:5].copy()
        *_, history = _lloyd(a, centers, max_iter=50)
        assert all(later <= earlier + 1e-12 for earlier, later in zip(history, history[1:]))

    def test_exactly_k_clusters_with_duplicates(self):
        a = np.array([[0.0, 0.0]] * 6 + [[5.0, 5.0]] * 2)
        result = kmeans(a, 3, seed=0)
        assert set(result.labels) == {1, 2, 3}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_fewer_distinct_rows_than_k_settles(self, seed):
        # two distinct rows, three clusters: the repair must not empty the
        # singleton cluster, and the iterations must not trade copies forever
        x = np.zeros((30, 1))
        x[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans(x, 3, seed=seed)
        assert result.converged and result.iterations < 10
        assert set(result.labels) == {1, 2, 3}
        assert result.objective == 0.0


class TestSpectralDeviation:
    def test_zero_for_equal(self):
        a = np.arange(6.0).reshape(2, 3)
        assert spectral_deviation(a, a) == 0.0

    def test_diagonal(self):
        a = np.diag([5.0, 2.0])
        assert abs(spectral_deviation(a, np.zeros((2, 2))) - 5.0) < 1e-12

    def test_matches_jacobi_sigma1(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((5, 7))
        _, s, _ = jacobi_svd(a - b)
        assert abs(spectral_deviation(a, b) - s[0]) < 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            spectral_deviation(np.zeros((2, 2)), np.zeros((2, 3)))
