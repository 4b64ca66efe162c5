import numpy as np
import pytest

from bidfm.errors import DomainError, ValidationError
from bidfm.sampling import _LAWS, DistributionSpec, distribution_moments, sample_adjacency

# Monte Carlo draws per entry for the unbiasedness / variance checks: each
# entry of the small base matrix is replicated this many times in one call,
# giving R independent realizations per entry.
R = 100_000

BASE = np.array(
    [
        [0.5, 0.1, 0.9, 0.0],
        [0.3, 0.7, 0.2, 1.0],
        [0.15, 0.4, 0.8, 0.55],
    ]
)


def replicated_draws(omega, spec, seed=0, r=R):
    tiled = np.tile(omega, (r, 1))
    draws = sample_adjacency(tiled, spec, seed)
    return draws.reshape(r, *omega.shape)


class TestLawTable:
    # each law's tau and quoted gamma bound as the README's law table states
    # them, for an exact gamma of 0.3 and scales whose smallest is 0.25
    @pytest.mark.parametrize("kind, means, tau, bound", [
        ("bernoulli", BASE, 1.0, 1.0),
        ("normal", 2.0 * BASE - 1.0, np.inf, 0.3),
        ("signed", 0.9 * (2.0 * BASE - 1.0), 1.9, 4.0),
        ("poisson", 3.0 * BASE, np.inf, 0.3),
    ])
    def test_tau_and_gamma_bound(self, kind, means, tau, bound):
        law = _LAWS[kind]
        assert law.tau(means) == pytest.approx(tau)
        assert law.gamma_bound(0.3, np.array([[0.5, 0.25]])) == pytest.approx(bound)


class TestDistributionSpec:
    def test_sigma2_required_for_normal(self):
        with pytest.raises(ValidationError):
            DistributionSpec("normal")

    def test_sigma2_rejected_elsewhere(self):
        with pytest.raises(ValidationError):
            DistributionSpec("bernoulli", sigma2=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            DistributionSpec("cauchy")


class TestSampleAdjacency:
    def test_degenerate_bernoulli(self):
        omega = np.ones((4, 5))
        a = sample_adjacency(omega, DistributionSpec("bernoulli"), seed=0)
        assert np.all(a == 1.0)

    @pytest.mark.parametrize("seed", [-1, 2.0, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError):
            sample_adjacency(np.ones((4, 5)), DistributionSpec("bernoulli"), seed=seed)

    def test_bernoulli_range_enforced(self):
        with pytest.raises(DomainError, match=r"\(1, 2\)"):
            sample_adjacency(
                np.array([[0.5, 1.5]]), DistributionSpec("bernoulli"), seed=0
            )

    def test_signed_range_enforced(self):
        with pytest.raises(DomainError):
            sample_adjacency(np.array([[-1.2]]), DistributionSpec("signed"), seed=0)

    def test_poisson_rejects_negative_mean(self):
        with pytest.raises(DomainError):
            sample_adjacency(np.array([[-0.1]]), DistributionSpec("poisson"), seed=0)

    def test_signed_zero_mean(self):
        draws = replicated_draws(np.zeros((1, 1)), DistributionSpec("signed"))
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(draws.mean()) < 4 / np.sqrt(R)

    def test_normal_mean(self):
        draws = replicated_draws(
            np.full((1, 1), -2.4), DistributionSpec("normal", sigma2=1.0)
        )
        assert abs(draws.mean() + 2.4) < 4 / np.sqrt(R)

    @pytest.mark.parametrize(
        "spec, omega",
        [
            (DistributionSpec("bernoulli"), BASE),
            (DistributionSpec("normal", sigma2=1.0), 2.0 * BASE - 1.0),
            (DistributionSpec("signed"), 2.0 * BASE - 1.0),
            (DistributionSpec("poisson"), 3.0 * BASE),
        ],
        ids=["bernoulli", "normal", "signed", "poisson"],
    )
    def test_unbiased_per_entry(self, spec, omega):
        draws = replicated_draws(omega, spec, seed=42)
        means = draws.mean(axis=0)
        for i in range(omega.shape[0]):
            for j in range(omega.shape[1]):
                variance, _ = distribution_moments(spec, omega[i, j], 1.0)
                tol = 4 * np.sqrt(max(variance, 1e-12) / R) + 1e-12
                assert abs(means[i, j] - omega[i, j]) < tol

    @pytest.mark.parametrize(
        "spec, omega",
        [
            (DistributionSpec("bernoulli"), BASE),
            (DistributionSpec("normal", sigma2=1.0), 2.0 * BASE - 1.0),
            (DistributionSpec("signed"), 0.9 * (2.0 * BASE - 1.0)),
            (DistributionSpec("poisson"), 3.0 * BASE + 0.2),
        ],
        ids=["bernoulli", "normal", "signed", "poisson"],
    )
    def test_empirical_variance(self, spec, omega):
        draws = replicated_draws(omega, spec, seed=43)
        observed = draws.var(axis=0, ddof=1)
        for i in range(omega.shape[0]):
            for j in range(omega.shape[1]):
                variance, _ = distribution_moments(spec, omega[i, j], 1.0)
                if variance < 1e-9:
                    assert observed[i, j] < 1e-9
                else:
                    assert abs(observed[i, j] - variance) < 0.1 * variance

    def test_deterministic_same_seed(self):
        spec = DistributionSpec("normal", sigma2=2.0)
        omega = 2.0 * BASE - 1.0
        a = sample_adjacency(omega, spec, seed=7)
        b = sample_adjacency(omega, spec, seed=7)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        omega = np.full((50, 50), 0.5)
        spec = DistributionSpec("bernoulli")
        a = sample_adjacency(omega, spec, seed=1)
        b = sample_adjacency(omega, spec, seed=2)
        assert np.any(a != b)


class TestDistributionMoments:
    def test_bernoulli_midpoint(self):
        variance, contribution = distribution_moments(
            DistributionSpec("bernoulli"), 0.5, 1.0
        )
        assert variance == pytest.approx(0.25)
        assert contribution == pytest.approx(0.25)
        assert contribution <= 1.0

    def test_normal_scaled(self):
        variance, contribution = distribution_moments(
            DistributionSpec("normal", sigma2=1.0), -2.4, 0.5
        )
        assert variance == pytest.approx(1.0)
        assert contribution == pytest.approx(2.0)

    def test_signed_zero_mean(self):
        variance, contribution = distribution_moments(
            DistributionSpec("signed"), 0.0, 0.5
        )
        assert variance == pytest.approx(1.0)
        assert contribution == pytest.approx(2.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            distribution_moments(DistributionSpec("bernoulli"), 1.2, 1.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.array([0.5, 0.0])],
                             ids=["zero", "negative", "array-with-zero"])
    def test_nonpositive_scale_rejected(self, scale):
        with pytest.raises(DomainError, match="scale must be positive"):
            distribution_moments(DistributionSpec("bernoulli"), 0.5, scale)

    @pytest.mark.parametrize(
        "spec, omega",
        [
            (DistributionSpec("bernoulli"), BASE),
            (DistributionSpec("normal", sigma2=1.7), 2.0 * BASE - 1.0),
            (DistributionSpec("signed"), 2.0 * BASE - 1.0),
            (DistributionSpec("poisson"), 3.0 * BASE),
        ],
        ids=["bernoulli", "normal", "signed", "poisson"],
    )
    def test_array_matches_entrywise(self, spec, omega):
        scale = np.linspace(0.5, 2.0, omega.size).reshape(omega.shape)
        variance, contribution = distribution_moments(spec, omega, scale)
        assert variance.shape == contribution.shape == omega.shape
        for (i, j), w in np.ndenumerate(omega):
            assert (variance[i, j], contribution[i, j]) == distribution_moments(
                spec, w, scale[i, j]
            )
