import inspect
import warnings

import numpy as np
import pytest

from bidfm import detect, linalg
from bidfm.detect import (
    ALGORITHMS,
    _ratio_matrix,
    bisc,
    disim,
    dscore,
    embed,
    nbisc,
    rdscore,
    run_algorithm,
    run_algorithms,
    shift_nonnegative,
)
from bidfm.errors import DimensionError, DomainError, UnsupportedError, ValidationError
from bidfm.experiments import preset, run_simulation
from bidfm.metrics import hamming_error
from bidfm.model import (
    P1,
    P2,
    BiDCDFMParams,
    BiDFMParams,
    expected_adjacency,
    sample_memberships,
    sample_theta,
)


def plain_instance(seed=0, n_r=60, n_c=90, p=P1, rho=0.5):
    rows = sample_memberships(n_r, 2, seed)
    cols = sample_memberships(n_c, 3, seed + 1000)
    return BiDFMParams(rows, cols, p, rho)


def corrected_instance(seed=0, n_r=60, n_c=90, p=P1, rho=0.5):
    rows = sample_memberships(n_r, 2, seed)
    cols = sample_memberships(n_c, 3, seed + 1000)
    theta_r = sample_theta(n_r, rho, seed + 2000)
    theta_c = sample_theta(n_c, rho, seed + 3000)
    return BiDCDFMParams(rows, cols, p, theta_r, theta_c)


def both_errors(result, params):
    return (
        hamming_error(result.row_labels, params.row_membership),
        hamming_error(result.col_labels, params.col_membership),
    )


@pytest.fixture(scope="module")
def bernoulli_dense_run():
    """Simulation at full sparsity (rho = 1), 200x300, 50 replicates, all
    five algorithms; several comparisons below share it."""
    config = preset("sim1a", replicates=50, rho_grid=(1.0,))
    report = run_simulation(config)
    return {p.algorithm: p for p in report.points}


class TestBisc:
    @pytest.mark.parametrize("seed", range(3))
    def test_population_exact_recovery(self, seed):
        params = plain_instance(seed)
        result = bisc(expected_adjacency(params), 2, 3, seed=0)
        assert both_errors(result, params) == (0.0, 0.0)

    def test_single_cluster_each_side(self):
        a = np.random.default_rng(0).uniform(size=(10, 15))
        result = bisc(a, 1, 1, seed=0)
        assert set(result.row_labels.labels) == {1}
        assert set(result.col_labels.labels) == {1}

    @pytest.mark.parametrize(
        "method", [bisc, nbisc, disim, dscore, rdscore], ids=lambda f: f.__name__
    )
    def test_transpose_consistency(self, method):
        params = plain_instance(3)
        a = expected_adjacency(params) + 0.01 * np.random.default_rng(3).standard_normal(
            params.shape
        )
        forward = method(a, 2, 3, seed=5)
        swapped = method(a.T, 3, 2, seed=5)
        assert np.array_equal(forward.row_labels.labels, swapped.col_labels.labels)
        assert np.array_equal(forward.col_labels.labels, swapped.row_labels.labels)
        assert np.array_equal(forward.singular_values, swapped.singular_values)
        # per-side diagnostics swap sides with the labels
        fd, sd = forward.diagnostics, swapped.diagnostics
        assert set(fd) == set(sd)
        for row_key, col_key in (
            ("row_objective", "col_objective"),
            ("degenerate_rows", "degenerate_cols"),
        ):
            assert fd.get(row_key) == sd.get(col_key)
            assert fd.get(col_key) == sd.get(row_key)
        if "regularizers" in fd:
            tau_r, tau_c = fd["regularizers"]
            assert tau_r != tau_c  # 60 x 90: the mean degrees differ per side
            assert sd["regularizers"] == (tau_c, tau_r)

    def test_permutation_equivariance(self):
        params = plain_instance(4)
        a = expected_adjacency(params)
        noisy = a + 0.05 * np.random.default_rng(4).standard_normal(a.shape)
        base = bisc(noisy, 2, 3, seed=1)
        err = hamming_error(base.row_labels, params.row_membership)
        # relabel the generating clusters; recovery error must not move
        relabeled = params.row_membership.labels.copy()
        relabeled = np.where(relabeled == 1, 3, relabeled) - 1
        from bidfm.model import Membership

        assert hamming_error(
            base.row_labels, Membership(relabeled, n_clusters=2)
        ) == pytest.approx(err)

    def test_dimension_guards(self):
        with pytest.raises(DimensionError):
            bisc(np.eye(4), 0, 2, seed=0)
        with pytest.raises(DimensionError):
            bisc(np.eye(4), 5, 2, seed=0)

    def test_dense_sample_accuracy(self, bernoulli_dense_run):
        assert bernoulli_dense_run["bisc"].mean_error <= 0.05


class TestNBisc:
    @pytest.mark.parametrize("seed", range(3))
    def test_population_exact_recovery_degree_corrected(self, seed):
        params = corrected_instance(seed)
        result = nbisc(expected_adjacency(params), 2, 3, seed=0)
        assert both_errors(result, params) == (0.0, 0.0)

    def test_agrees_with_bisc_on_plain_population(self):
        params = plain_instance(7)
        omega = expected_adjacency(params)
        a = bisc(omega, 2, 3, seed=0)
        b = nbisc(omega, 2, 3, seed=0)
        assert hamming_error(b.row_labels, a.row_labels) == 0.0
        assert hamming_error(b.col_labels, a.col_labels) == 0.0

    def test_scale_invariance_on_population(self):
        params = corrected_instance(8)
        omega = expected_adjacency(params)
        a = nbisc(omega, 2, 3, seed=2)
        b = nbisc(37.5 * omega, 2, 3, seed=2)
        assert np.array_equal(a.row_labels.labels, b.row_labels.labels)
        assert np.array_equal(a.col_labels.labels, b.col_labels.labels)

    def test_degenerate_rows_reported_and_labeled(self):
        params = plain_instance(9, n_r=30, n_c=40)
        omega = expected_adjacency(params)
        omega[5, :] = 0.0  # dead row node: zero embedding row
        result = nbisc(omega, 2, 3, seed=0)
        assert 6 in result.diagnostics["degenerate_rows"]
        assert len(result.row_labels) == 30  # still labeled

    def test_dominates_bisc_under_degree_correction(self):
        config = preset(
            "sim1b", replicates=50, rho_grid=(1.0,), algorithms=("bisc", "nbisc")
        )
        points = {p.algorithm: p for p in run_simulation(config).points}
        gap = points["bisc"].mean_error - points["nbisc"].mean_error
        assert gap > 0, (points["bisc"].mean_error, points["nbisc"].mean_error)


class TestDisim:
    def test_constant_matrix_single_cluster(self):
        result = disim(np.ones((4, 4)), 1, 1, seed=0)
        assert set(result.row_labels.labels) == {1}
        assert set(result.col_labels.labels) == {1}

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            disim(np.array([[1.0, -0.5], [0.2, 0.3]]), 1, 2, seed=0)

    def test_records_regularizers(self):
        a = np.random.default_rng(1).uniform(size=(12, 15))
        result = disim(embed(a, 2, 3, "laplacian", regularizer=0.5), 2, 3, seed=0)
        assert result.diagnostics["regularizers"] == (0.5, 0.5)

    def test_comparable_with_nbisc_on_dense_bernoulli(self, bernoulli_dense_run):
        gap = abs(
            bernoulli_dense_run["disim"].mean_error
            - bernoulli_dense_run["nbisc"].mean_error
        )
        assert gap <= 0.05


class TestDScore:
    def test_population_exact_recovery(self):
        params = corrected_instance(11, p=P2)
        result = dscore(expected_adjacency(params), 2, 3, seed=0)
        assert both_errors(result, params) == (0.0, 0.0)

    def test_requires_two_clusters(self):
        with pytest.raises(UnsupportedError):
            dscore(np.ones((5, 5)), 1, 3, seed=0)
        with pytest.raises(UnsupportedError):
            rdscore(np.ones((5, 5)), 1, 1, seed=0)

    def test_constant_leading_column_never_clips(self):
        u = np.column_stack([np.full(16, 0.25), np.linspace(-0.3, 0.3, 16)])
        ratios = _ratio_matrix(u)
        assert np.all(np.isfinite(ratios))
        assert np.abs(ratios).max() < np.log(16)

    def test_vanishing_leading_entry_saturates(self):
        u = np.array([[0.0, 0.5], [0.5, 0.25], [0.0, 0.0]])
        ratios = _ratio_matrix(u)
        t = np.log(3)
        assert ratios[0, 0] == pytest.approx(t)
        assert ratios[1, 0] == pytest.approx(0.5)
        assert ratios[2, 0] == 0.0

    def test_comparable_with_rdscore_on_dense_bernoulli(self, bernoulli_dense_run):
        gap = abs(
            bernoulli_dense_run["rdscore"].mean_error
            - bernoulli_dense_run["dscore"].mean_error
        )
        assert gap <= 0.05


class TestShiftNonnegative:
    def test_symmetric_range(self):
        a = np.array([[-1.0, 1.0]])
        shifted, shift = shift_nonnegative(a)
        assert shift == pytest.approx(1.02)
        assert shifted.min() == pytest.approx(0.02)

    def test_noop_when_nonnegative(self):
        a = np.array([[0.0, 2.0], [1.0, 3.0]])
        shifted, shift = shift_nonnegative(a)
        assert shift == 0.0
        assert np.array_equal(shifted, a)

    def test_constant_negative(self):
        shifted, shift = shift_nonnegative(np.full((2, 2), -3.0))
        assert shift == pytest.approx(3.01)
        assert np.all(shifted == pytest.approx(0.01))


METHODS = [bisc, nbisc, disim, dscore, rdscore]
LAPLACIAN_METHODS = (disim, rdscore)


def noisy_instance(seed=3):
    params = plain_instance(seed)
    noise = 0.01 * np.random.default_rng(seed).standard_normal(params.shape)
    return expected_adjacency(params) + noise


def same_result(x, y):
    return (np.array_equal(x.row_labels.labels, y.row_labels.labels)
            and np.array_equal(x.col_labels.labels, y.col_labels.labels)
            and np.array_equal(x.singular_values, y.singular_values)
            and x.diagnostics == y.diagnostics)


class TestEmbedding:
    @pytest.mark.parametrize("counts", [(2, 3), (3, 2)], ids=["kr<kc", "kr>kc"])
    @pytest.mark.parametrize("method", METHODS, ids=lambda f: f.__name__)
    def test_method_on_embedding_matches_method_on_matrix(self, method, counts):
        a = noisy_instance()
        operator = "laplacian" if method in LAPLACIAN_METHODS else "adjacency"
        embedding = embed(a, *counts, operator)
        assert same_result(method(embedding, *counts, seed=5), method(a, *counts, seed=5))

    def test_transposed_embedding_keeps_caller_orientation(self):
        a = noisy_instance()
        embedding = embed(a, 3, 2, "laplacian")
        assert embedding.transposed
        assert embedding.factors.left.shape == (90, 2)  # the column side
        assert embedding.regularizers == embed(a, 2, 3, "laplacian").regularizers

    def test_mismatched_embedding_rejected(self):
        a = noisy_instance()
        with pytest.raises(ValidationError):
            bisc(embed(a, 2, 3, "laplacian"), 2, 3)
        with pytest.raises(ValidationError):
            disim(embed(a, 2, 3), 2, 3)
        with pytest.raises(ValidationError):
            nbisc(embed(a, 2, 3), 3, 2)
        with pytest.raises(TypeError):
            disim(embed(a, 2, 3, "laplacian"), 2, 3, regularizer=0.5)
        with pytest.raises(ValidationError):
            embed(a, 2, 3, "cosine")

    def test_ratio_method_rejects_single_cluster_embedding(self):
        with pytest.raises(UnsupportedError):
            dscore(embed(noisy_instance(), 1, 3), 1, 3)

    def test_svd_path_recorded(self, monkeypatch):
        a = noisy_instance()
        assert embed(a, 2, 3).factors.path == "dense"
        assert bisc(a, 2, 3).diagnostics["svd_path"] == "dense"
        monkeypatch.setattr(linalg, "_DENSE_SIDE", 10)  # 60 x 90 now takes Lanczos
        assert embed(a, 2, 3).factors.path == "lanczos"
        assert bisc(a, 2, 3).diagnostics["svd_path"] == "lanczos"

    @pytest.mark.parametrize("counts", [(2, 3), (3, 2)], ids=["kr<kc", "kr>kc"])
    def test_kmeans_iterations_recorded(self, counts):
        a = noisy_instance()
        diagnostics = bisc(a, *counts, seed=4).diagnostics
        for side, fit in bisc_side_fits(a, counts, seed=4).items():
            assert diagnostics[f"{side}_iterations"] == fit.iterations >= 1

    @pytest.mark.parametrize("counts", [(2, 3), (3, 2)], ids=["kr<kc", "kr>kc"])
    def test_kmeans_convergence_recorded(self, counts):
        a = noisy_instance()
        diagnostics = bisc(a, *counts, seed=4).diagnostics
        for side, fit in bisc_side_fits(a, counts, seed=4).items():
            assert diagnostics[f"{side}_converged"] is fit.converged is True


def bisc_side_fits(a, counts, seed):
    """k-means on each side's raw singular-vector rows, as bisc runs it."""
    embedding = embed(a, *counts)
    sides = ("col", "row") if embedding.transposed else ("row", "col")
    k = dict(zip(("row", "col"), counts))
    return {side: linalg.kmeans(x, k[side], seed=seed)
            for side, x in zip(sides, (embedding.factors.left, embedding.factors.right))}


class TestRunAlgorithms:
    @pytest.mark.parametrize("counts", [(2, 3), (3, 2), (1, 3)])
    def test_matches_run_algorithm_one_at_a_time(self, counts):
        a = noisy_instance() - 0.2  # signed: the Laplacian methods get a shift
        outcomes = run_algorithms(ALGORITHMS, a, *counts, seed=2)
        assert [name for name, _ in outcomes] == list(ALGORITHMS)
        for name, outcome in outcomes:
            try:
                alone = run_algorithm(name, a, *counts, seed=2)
            except UnsupportedError as exc:
                assert isinstance(outcome, UnsupportedError) and str(outcome) == str(exc)
                continue
            assert same_result(outcome, alone)
            assert ("shift" in outcome.diagnostics) == (name in ("disim", "rdscore"))

    def test_one_svd_per_operator(self, monkeypatch):
        calls = []
        real = linalg.truncated_svd

        def counting(m, k):
            calls.append(k)
            return real(m, k)

        monkeypatch.setattr("bidfm.detect.truncated_svd", counting)
        run_algorithms(ALGORITHMS, noisy_instance(), 2, 3)
        assert len(calls) == 2

    def test_bad_counts_fail_every_method_alike(self):
        outcomes = run_algorithms(ALGORITHMS, noisy_instance(), 2, 100)
        assert all(isinstance(o, DimensionError) for _, o in outcomes)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            run_algorithms(("bisc", "magic"), noisy_instance(), 2, 3)


@pytest.mark.parametrize("counts", [(2, 3), (3, 2)], ids=["kr<kc", "kr>kc"])
def test_same_labels_on_both_sides_of_the_dense_lanczos_switch(monkeypatch, counts):
    """One 650 x 700 Poisson block-model matrix, decomposed by LAPACK and by
    Lanczos: every method gives the same labels either way."""
    rng = np.random.default_rng(7)
    rows, cols = rng.integers(0, 2, 650), rng.integers(0, 3, 700)
    a = rng.poisson(3.0 * P1[np.ix_(rows, cols)]).astype(float)
    by_path = {}
    for dense_side in (700, 600):  # the smaller side, 650, is dense, then not
        monkeypatch.setattr(linalg, "_DENSE_SIDE", dense_side)
        by_path[dense_side] = run_algorithms(ALGORITHMS, a, *counts, seed=1)
    for (name, dense), (_, lanczos) in zip(by_path[700], by_path[600]):
        assert (dense.diagnostics["svd_path"], lanczos.diagnostics["svd_path"]) == (
            "dense", "lanczos")
        assert np.array_equal(dense.row_labels.labels, lanczos.row_labels.labels), name
        assert np.array_equal(dense.col_labels.labels, lanczos.col_labels.labels), name


def test_every_method_has_one_signature():
    positional, keyword = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY
    empty = inspect.Parameter.empty
    for name in ALGORITHMS:
        parameters = inspect.signature(getattr(detect, name)).parameters.values()
        assert [(p.name, p.kind, p.default) for p in parameters] == [
            ("a", positional, empty), ("k_r", positional, empty),
            ("k_c", positional, empty), ("seed", keyword, 0)], name
    # a fourth positional argument was once a regularizer; it is not a seed now
    with pytest.raises(TypeError):
        disim(noisy_instance(), 2, 3, 0.5)


@pytest.mark.parametrize("method", [bisc, nbisc, disim], ids=lambda f: f.__name__)
def test_all_zero_matrix_converges_without_warnings(method):
    """The zero matrix's singular vector is a unit basis vector: two distinct
    rows for three column clusters."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diagnostics = method(np.zeros((40, 30)), 1, 3).diagnostics
    assert diagnostics["row_converged"] and diagnostics["col_converged"]
    assert diagnostics["col_iterations"] < 10
