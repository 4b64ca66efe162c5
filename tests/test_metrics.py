import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidfm.errors import DimensionError
from bidfm.metrics import (
    ari,
    combined_report,
    confusion_matrix,
    criterion_f,
    hamming_error,
    nmi,
)
from bidfm.model import Membership

from oracles import (
    brute_force_criterion,
    brute_force_hamming,
    confusion_of,
    direct_ari,
    direct_nmi,
)


@pytest.fixture(scope="module")
def permutations_of_10():
    """All 10! permutations of range(10), one per row."""
    return np.fromiter(itertools.permutations(range(10)), dtype=(np.int8, 10),
                       count=math.factorial(10))


partition_pairs = st.integers(4, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(1, 4), min_size=n, max_size=n),
        st.lists(st.integers(1, 4), min_size=n, max_size=n),
    )
)


class TestHammingError:
    def test_identical(self):
        assert hamming_error([1, 1, 2, 2], [1, 1, 2, 2]) == 0.0

    def test_pure_relabeling(self):
        assert hamming_error([2, 2, 1, 1], [1, 1, 2, 2]) == 0.0

    def test_one_of_six(self):
        # frozen from full enumeration over the 3! relabelings
        assert hamming_error([1, 1, 2, 3, 3, 3], [1, 1, 2, 2, 3, 3]) == pytest.approx(
            1 / 6
        )

    def test_node_count_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_error([1, 2], [1, 2, 1])

    def test_pads_unequal_cluster_counts(self):
        est = Membership([1, 1, 2, 2], n_clusters=4)
        truth = Membership([1, 1, 2, 2], n_clusters=2)
        assert hamming_error(est, truth) == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 15))
        truth = Membership(rng.integers(1, k + 1, n), n_clusters=k)
        est = Membership(rng.integers(1, k + 1, n), n_clusters=k)
        expected = brute_force_hamming(est.labels, truth.labels, k)
        assert hamming_error(est, truth) == pytest.approx(expected, abs=1e-15)


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([1, 2, 2, 3], [1, 2, 2, 3]) == pytest.approx(1.0)

    def test_independent_partitions(self):
        # confusion matrix [[2, 2], [2, 2]]
        truth = [1, 1, 1, 1, 2, 2, 2, 2]
        est = [1, 1, 2, 2, 1, 1, 2, 2]
        assert nmi(est, truth) == pytest.approx(0.0, abs=1e-15)

    def test_three_one_confusion(self):
        # frozen: direct evaluation of the formula on [[3, 1], [1, 3]]
        truth = [1] * 4 + [2] * 4
        est = [1, 1, 1, 2, 1, 2, 2, 2]
        assert np.array_equal(confusion_matrix(est, truth), [[3, 1], [1, 3]])
        assert nmi(est, truth) == pytest.approx(0.18872187554086714, abs=1e-12)

    def test_single_cluster_against_split(self):
        assert nmi([1, 1, 1, 1], [1, 1, 2, 2]) == pytest.approx(0.0, abs=1e-15)

    def test_both_single_cluster(self):
        assert nmi([1, 1, 1], [1, 1, 1]) == 1.0


class TestAri:
    def test_identical_partitions(self):
        assert ari([2, 1, 1, 3], [2, 1, 1, 3]) == pytest.approx(1.0)

    def test_crossed_partitions(self):
        # frozen: direct formula evaluation gives exactly -1/2 here
        assert ari([1, 2, 1, 2], [1, 1, 2, 2]) == pytest.approx(-0.5, abs=1e-15)

    def test_singletons_against_pairs(self):
        # frozen: direct formula evaluation gives exactly 0
        est = Membership([1, 2, 3, 4])
        truth = Membership([1, 1, 2, 2])
        assert ari(est, truth) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_identical(self):
        assert ari([1, 1, 1], [1, 1, 1]) == 1.0
        assert ari([1, 2, 3], [3, 1, 2]) == 1.0  # all singletons

    def test_needs_two_nodes(self):
        with pytest.raises(DimensionError):
            ari([1], [1])


class TestAgainstDirectFormulas:
    @pytest.mark.parametrize("seed", range(25))
    def test_nmi_and_ari_match_oracles(self, seed):
        rng = np.random.default_rng(100 + seed)
        k_t = int(rng.integers(2, 6))
        k_e = int(rng.integers(2, 6))
        n = int(rng.integers(max(k_t, k_e), 15))
        truth = Membership(
            np.concatenate([np.arange(1, k_t + 1), rng.integers(1, k_t + 1, n - k_t)]),
            n_clusters=k_t,
        )
        est = Membership(
            np.concatenate([np.arange(1, k_e + 1), rng.integers(1, k_e + 1, n - k_e)]),
            n_clusters=k_e,
        )
        c = confusion_of(est.labels, truth.labels, k_t, k_e)
        assert nmi(est, truth) == pytest.approx(direct_nmi(c), abs=1e-12)
        assert ari(est, truth) == pytest.approx(direct_ari(c), abs=1e-12)

    def test_cross_check_against_sklearn(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        adjusted_rand_score = sklearn_metrics.adjusted_rand_score
        normalized_mutual_info_score = sklearn_metrics.normalized_mutual_info_score

        rng = np.random.default_rng(5)
        truth = rng.integers(1, 4, 40)
        est = rng.integers(1, 4, 40)
        assert nmi(est, truth) == pytest.approx(
            normalized_mutual_info_score(truth, est), abs=1e-10
        )
        assert ari(est, truth) == pytest.approx(
            adjusted_rand_score(truth, est), abs=1e-10
        )


class TestInvarianceProperties:
    @given(partition_pairs, st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_label_permutation_invariance(self, pair, seed):
        est, truth = pair
        est = Membership(np.array(est), n_clusters=4)
        truth = Membership(np.array(truth), n_clusters=4)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(4) + 1
        shuffled = Membership(perm[est.labels - 1], n_clusters=4)
        assert hamming_error(shuffled, truth) == pytest.approx(
            hamming_error(est, truth), abs=1e-12
        )
        assert nmi(shuffled, truth) == pytest.approx(nmi(est, truth), abs=1e-12)
        assert ari(shuffled, truth) == pytest.approx(ari(est, truth), abs=1e-12)

    @given(partition_pairs)
    @settings(max_examples=60, deadline=None)
    def test_nmi_ari_symmetry(self, pair):
        a, b = (Membership(np.array(x), n_clusters=4) for x in pair)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_perfect_scores_coincide(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, 12)])
        truth = Membership(labels, n_clusters=k)
        perm = rng.permutation(k) + 1
        est = Membership(perm[labels - 1], n_clusters=k)
        assert hamming_error(est, truth) == 0.0
        assert nmi(est, truth) == 1.0
        assert ari(est, truth) == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_imperfect_scores_coincide(self, seed):
        # the reverse direction: a misassignment pulls all three metrics away
        # from their perfect values (nonempty clusters, k >= 2)
        rng = np.random.default_rng(400 + seed)
        k = int(rng.integers(2, 5))
        labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, 12)])
        truth = Membership(labels, n_clusters=k)
        est_labels = labels.copy()
        est_labels[-1] = est_labels[-1] % k + 1
        est = Membership(est_labels, n_clusters=k)
        if hamming_error(est, truth) > 0:
            assert nmi(est, truth) < 1.0
            assert ari(est, truth) < 1.0

    @pytest.mark.parametrize("top", [7, 2**62], ids=["within-node-count", "past-node-count"])
    @pytest.mark.parametrize("seed", range(10))
    def test_label_gaps_change_no_score(self, seed, top):
        # labels 1, 2, 3 renamed 1, 3, top leave empty clusters between them,
        # below and past the node count (12)
        rng = np.random.default_rng(700 + seed)
        est, truth = rng.integers(1, 4, 12), rng.integers(1, 4, 12)
        gapped = np.array([0, 1, 3, top])
        for pair in ((gapped[est], truth), (est, gapped[truth]), (gapped[est], gapped[truth])):
            assert hamming_error(*pair) == hamming_error(est, truth)
            assert nmi(*pair) == nmi(est, truth)
            assert ari(*pair) == ari(est, truth)
            assert criterion_f(*pair) == criterion_f(est, truth)

    def test_confusion_counts_only_occurring_clusters(self):
        # 20,000 nodes in clusters 1 and 20000: a 2 x 2 count, not 20000 x 20000
        labels = np.repeat([1, 20000], 10000)
        assert np.array_equal(confusion_matrix(labels, labels[::-1]), [[0, 10000], [10000, 0]])
        assert hamming_error(labels, labels[::-1]) == 0.0


class TestCombinedReport:
    def test_perfect_sides(self):
        r = combined_report([1, 2], [1, 2], [1, 2, 3], [1, 2, 3])
        assert (r.error_rate, r.nmi, r.ari) == (0.0, 1.0, 1.0)

    def test_worst_side_dominates(self):
        truth_c = [1, 1, 2, 2, 3, 3]
        est_c = [1, 1, 2, 3, 3, 3]
        r = combined_report([1, 2], [1, 2], est_c, truth_c)
        assert r.error_rate == pytest.approx(r.error_rate_c)
        assert r.error_rate == pytest.approx(1 / 6)
        assert r.nmi == min(r.nmi_r, r.nmi_c)
        assert r.ari == min(r.ari_r, r.ari_c)

    def test_side_swap_leaves_combined_unchanged(self):
        est_r, truth_r = [1, 2, 2, 1], [1, 2, 1, 1]
        est_c, truth_c = [2, 2, 1, 1], [1, 2, 1, 2]
        a = combined_report(est_r, truth_r, est_c, truth_c)
        b = combined_report(est_c, truth_c, est_r, truth_r)
        assert a.error_rate == b.error_rate
        assert a.nmi == b.nmi
        assert a.ari == b.ari

    def test_csv_row_matches_header(self):
        r = combined_report([1, 2], [1, 2], [1, 2], [1, 2])
        assert len(r.to_csv_row().split(",")) == len(r.CSV_HEADER.split(","))


class TestCriterionF:
    def test_identical(self):
        assert criterion_f([1, 1, 2, 2], [1, 1, 2, 2]) == 0.0

    def test_half(self):
        # frozen from enumeration over both relabelings: worst cluster has one
        # node of two in the symmetric difference
        assert criterion_f([1, 2, 2, 2], [1, 1, 2, 2]) == pytest.approx(0.5)

    def test_swap_relabeling(self):
        assert criterion_f([2, 2, 2, 1], [1, 1, 1, 2]) == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(200 + seed)
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 14))
        truth = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
        est = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
        expected = brute_force_criterion(est, truth, k)
        got = criterion_f(Membership(est, n_clusters=k), Membership(truth, n_clusters=k))
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_bottleneck_path_matches_enumeration(self, seed, permutations_of_10):
        from bidfm import metrics as m

        rng = np.random.default_rng(300 + seed)
        k = 10
        n = 40
        truth = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
        est = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
        costs = m._criterion_costs(Membership(est, k), Membership(truth, k))
        # the max matched cost of every one of the 10! permutations, in chunks
        best = min(
            costs[np.arange(k), chunk].max(axis=1).min()
            for chunk in np.array_split(permutations_of_10, 16)
        )
        assert m._bottleneck_assignment(costs) == pytest.approx(best, abs=1e-12)
