import numpy as np
import pytest

from bidfm.errors import InfeasibleError, ValidationError
from bidfm.model import (
    P1,
    P2,
    BiDCDFMParams,
    BiDFMParams,
    Membership,
    expected_adjacency,
    sample_memberships,
    sample_theta,
)

from oracles import brute_force_expected_adjacency


def small_instance(seed=0, p=P1, rho=0.5, n_r=8, n_c=12):
    rng = np.random.default_rng(seed)
    rows = Membership(np.concatenate([[1, 2], rng.integers(1, 3, n_r - 2)]))
    cols = Membership(np.concatenate([[1, 2, 3], rng.integers(1, 4, n_c - 3)]))
    return BiDFMParams(rows, cols, p, rho)


class TestMembership:
    def test_onehot_round_trip(self):
        m = Membership([2, 1, 3, 1], n_clusters=3)
        z = m.to_onehot()
        assert z.shape == (4, 3)
        assert np.array_equal(z.sum(axis=1), np.ones(4))
        assert np.array_equal(z.argmax(axis=1) + 1, m.labels)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Membership([0, 1, 2])
        with pytest.raises(ValidationError):
            Membership([1, 4], n_clusters=3)

    @pytest.mark.parametrize("labels", [[1.5, 2.0], [1, np.nan], ["1", "2"], [1, 10**20]],
                             ids=["fraction", "nan", "strings", "beyond-int64"])
    def test_rejects_non_integer_labels(self, labels):
        with pytest.raises(ValidationError, match="labels must be integers"):
            Membership(labels)

    def test_integral_floats_accepted(self):
        assert np.array_equal(Membership([2.0, 1.0]).labels, [2, 1])

    def test_cluster_sizes(self):
        m = Membership([1, 1, 2], n_clusters=3)
        assert list(m.cluster_sizes()) == [2, 1, 0]
        assert not m.is_complete()

    def test_is_complete_needs_no_array_of_cluster_count_length(self):
        assert Membership([1, 2], n_clusters=10**30).is_complete() is False
        assert Membership([2, 1, 2]).is_complete() is True


class TestExpectedAdjacency:
    def test_single_block(self):
        params = BiDFMParams(
            Membership([1, 1]), Membership([1, 1, 1]), np.array([[1.0]]), rho=0.5
        )
        omega = expected_adjacency(params)
        assert omega.shape == (2, 3)
        assert np.all(omega == 0.5)

    def test_block_entry_from_p1(self):
        # row node in cluster 2 and column node in cluster 2: 0.5 * 0.8
        params = small_instance()
        omega = expected_adjacency(params)
        i = np.nonzero(params.row_membership.labels == 2)[0][0]
        j = np.nonzero(params.col_membership.labels == 2)[0][0]
        assert omega[i, j] == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed):
        params = small_instance(seed=seed, p=P2, n_r=15, n_c=20)
        omega = expected_adjacency(params)
        ref = brute_force_expected_adjacency(
            params.row_membership.labels, params.col_membership.labels, P2, rho=0.5
        )
        assert np.abs(omega - ref).max() < 1e-12

    def test_degree_corrected_entry(self):
        rows = Membership([2, 1])
        cols = Membership([1, 2, 3])
        params = BiDCDFMParams(rows, cols, P2, np.array([2.0, 1.0]), np.array([3.0, 1.0, 1.0]))
        omega = expected_adjacency(params)
        # theta_r = 2, theta_c = 3, block strength P(2, 1) = -0.4
        assert omega[0, 0] == pytest.approx(-2.4, abs=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_degree_corrected_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        rows = sample_memberships(12, 2, seed)
        cols = sample_memberships(18, 3, seed + 50)
        theta_r = rng.uniform(0.2, 2.0, 12)
        theta_c = rng.uniform(0.2, 2.0, 18)
        params = BiDCDFMParams(rows, cols, P1, theta_r, theta_c)
        ref = brute_force_expected_adjacency(
            rows.labels, cols.labels, P1, theta_r=theta_r, theta_c=theta_c
        )
        assert np.abs(expected_adjacency(params) - ref).max() < 1e-12

    def test_constant_theta_reduces_to_plain(self):
        params = small_instance(seed=4)
        plain = expected_adjacency(params)
        lifted = expected_adjacency(BiDCDFMParams.from_bidfm(params))
        assert np.abs(lifted - plain).max() <= 1e-14 * np.abs(plain).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_equals_min_cluster_count(self, seed):
        params = small_instance(seed=seed, n_r=20, n_c=30)
        sv = np.linalg.svd(expected_adjacency(params), compute_uv=False)
        assert sv[2] < 1e-9 * sv[0]

    def test_invalid_params_rejected(self):
        params = small_instance()
        with pytest.raises(ValidationError, match="max"):
            BiDFMParams(params.row_membership, params.col_membership, P1 * 0.5, rho=0.5)


class TestSampleMemberships:
    def test_n_equals_k_is_permutation(self):
        m = sample_memberships(4, 4, seed=1)
        assert sorted(m.labels) == [1, 2, 3, 4]

    def test_n_equals_k_past_the_redraw_cap(self):
        # a draw covers all 20 clusters with probability 20!/20^20 ~ 2e-8
        m = sample_memberships(20, 20, seed=0)
        assert sorted(m.labels) == list(range(1, 21))

    def test_uniform_concentration(self):
        m = sample_memberships(3000, 3, seed=2)
        bound = 3 * np.sqrt(3000 * (1 / 3) * (2 / 3))
        assert np.abs(m.cluster_sizes() - 1000).max() <= bound

    def test_deterministic(self):
        a = sample_memberships(100, 3, seed=9)
        b = sample_memberships(100, 3, seed=9)
        assert np.array_equal(a.labels, b.labels)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            sample_memberships(2, 3, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.0, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError):
            sample_memberships(10, 2, seed=seed)


class TestSampleTheta:
    def test_range(self):
        theta = sample_theta(1000, rho=0.5, seed=3)
        root = np.sqrt(0.5)
        assert theta.min() > root * 0.05
        assert theta.max() < root

    def test_mean(self):
        n = 100_000
        theta = sample_theta(n, rho=0.5, seed=4)
        root = np.sqrt(0.5)
        expected = root * (1 + 0.05) / 2
        se = root * (1 - 0.05) / np.sqrt(12) / np.sqrt(n)
        assert abs(theta.mean() - expected) < 3 * se

    def test_deterministic(self):
        assert np.array_equal(
            sample_theta(50, 1.0, seed=5), sample_theta(50, 1.0, seed=5)
        )

    @pytest.mark.parametrize("seed", [-1, 2.0, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError):
            sample_theta(10, 1.0, seed=seed)


def violations(cls, *args, **kwargs):
    """The violations building ``cls(*args, **kwargs)`` reports."""
    with pytest.raises(ValidationError) as info:
        cls(*args, **kwargs)
    return info.value.violations


class TestValidate:
    def test_valid_instance(self):
        # neither constructor raises on valid parameters
        assert BiDCDFMParams.from_bidfm(small_instance()).shape == (8, 12)

    def test_scaled_mixing_rejected(self):
        params = small_instance()
        found = violations(BiDFMParams, params.row_membership, params.col_membership,
                           0.5 * P1, 0.5)
        assert any("max|P|" in v for v in found)

    def test_rank_deficient_mixing_rejected(self):
        p = np.array([[1.0, 0.5, 0.25], [1.0, 0.5, 0.25]])
        params = small_instance()
        found = violations(BiDFMParams, params.row_membership, params.col_membership, p, 0.5)
        assert any("rank deficient" in v for v in found)

    def test_row_clusters_must_not_exceed_columns(self):
        rows = Membership([1, 2, 3])
        cols = Membership([1, 2, 2])
        assert any("K_r" in v for v in violations(BiDFMParams, rows, cols, P1.T, 0.5))

    def test_multiple_violations_collected(self):
        rows = Membership([1, 1, 1], n_clusters=2)  # empty cluster
        cols = Membership([1, 2, 3])
        found = violations(BiDFMParams, rows, cols, 0.5 * P1, rho=-1.0)
        assert len(found) >= 3

    def test_nonpositive_theta_rejected(self):
        params = small_instance()
        found = violations(BiDCDFMParams, params.row_membership, params.col_membership,
                           P1, np.zeros(8), np.ones(12))
        assert any("theta_row" in v for v in found)

    @pytest.mark.parametrize("cls, scale, last", [
        (BiDFMParams, (-1.0,), ["rho must be positive, got -1.0"]),
        (BiDCDFMParams, (np.ones(2), np.array([1.0, 0.0, 1.0])),
         ["theta_row must have length 3, got (2,)", "theta_col must be strictly positive"]),
    ], ids=["plain", "degree-corrected"])
    def test_violation_order(self, cls, scale, last):
        # breaks every rule group: an empty row cluster, K_r > K_c, a mixing
        # of the wrong shape, then rho or the thetas
        rows = Membership([1, 2, 3], n_clusters=4)
        cols = Membership([1, 2, 2])
        assert violations(cls, rows, cols, P1, *scale) == [
            "row membership leaves at least one cluster empty",
            "K_r=4 exceeds K_c=2; transpose the network so K_r <= K_c",
            "mixing matrix shape (2, 3) does not match cluster counts (4, 2)",
            *last,
        ]
