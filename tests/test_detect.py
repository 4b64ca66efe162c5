import inspect
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse

from bidfm import detect, fileio, linalg
from bidfm.cli import main
from bidfm.detect import (
    ALGORITHMS,
    _ratio_matrix,
    bisc,
    disim,
    dscore,
    nbisc,
    rdscore,
    run_algorithms,
    shift_nonnegative,
)
from bidfm.errors import (BidfmError, DimensionError, DomainError, UnsupportedError,
                          ValidationError)
from bidfm.experiments import filter_zero_degree, preset, run_simulation
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
from bidfm.sampling import DistributionSpec, sample_adjacency


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

    @pytest.mark.parametrize("counts", [(2.5, 3), (2, 3.0), (True, 3), (2, "3")],
                             ids=["float-kr", "float-kc", "bool-kr", "string-kc"])
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(ValidationError):
            bisc(noisy_instance(), *counts)
        outcomes = run_algorithms(ALGORITHMS, noisy_instance(), *counts)
        assert all(isinstance(o, ValidationError) for _, o in outcomes)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError):
            bisc(noisy_instance(), 2, 3, seed=seed)

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

    def test_signed_matrix_is_shifted_on_every_route(self, tmp_path, capsys):
        a = np.array([[1.0, -0.5], [0.2, 0.3]])
        routes = [disim(a, 1, 2), dict(run_algorithms(("disim",), a, 1, 2))["disim"]]
        shift = routes[0].diagnostics["shift"]
        assert shift == shift_nonnegative(a)[1] > 0
        for result in routes[1:]:
            assert same_result(result, routes[0])
        path, prefix = tmp_path / "signed.txt", str(tmp_path / "det")
        fileio.write_matrix(path, a)
        assert main(["detect", "--input", str(path), "--alg", "disim",
                     "--kr", "1", "--kc", "2", "--output", prefix]) == 0
        assert f"applied non-negative shift {shift:.6g}" in capsys.readouterr().err
        for side, labels in (("row", routes[0].row_labels), ("col", routes[0].col_labels)):
            assert np.array_equal(fileio.read_labels(f"{prefix}_{side}_labels.txt")[1],
                                  labels.labels)

    def test_records_regularizers(self):
        a = np.random.default_rng(1).uniform(size=(12, 15))
        mean_degrees = (a.sum(axis=1).mean(), a.sum(axis=0).mean())
        for counts in ((2, 3), (3, 2)):
            assert disim(a, *counts).diagnostics["regularizers"] == mean_degrees

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

    def test_roundoff_on_zero_degree_node_counts_as_zero(self):
        # a node with no edges: LAPACK may leave roundoff where both entries
        # are exactly 0, which must not saturate at log n
        ratios = _ratio_matrix(np.array([[1e-22, 1e-19], [0.5, 0.25], [0.0, 0.0]]))
        assert ratios[0, 0] == 0.0
        assert ratios[1, 0] == pytest.approx(0.5)

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

    @pytest.mark.parametrize("a", [[[1e308, -1e308], [0.0, 1.0]],
                                   [[1.7e308, -1e307], [0.0, 1.0]]])
    def test_overflowing_shift_rejected(self, a):
        with pytest.raises(DimensionError, match="non-finite"):
            shift_nonnegative(np.array(a))
        with pytest.raises(DimensionError, match="non-finite"):
            disim(np.array(a), 1, 2)

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


def noisy_instance(seed=3):
    params = plain_instance(seed)
    noise = 0.01 * np.random.default_rng(seed).standard_normal(params.shape)
    return expected_adjacency(params) + noise


def same_result(x, y):
    return (np.array_equal(x.row_labels.labels, y.row_labels.labels)
            and np.array_equal(x.col_labels.labels, y.col_labels.labels)
            and np.array_equal(x.singular_values, y.singular_values)
            and x.diagnostics == y.diagnostics)


def shared_embedding(a, k_r, k_c, operator="adjacency"):
    """The ``(sides, singular_values, diagnostics)`` that ``run_algorithms``
    shares among the methods on ``operator``."""
    return detect._embed(linalg.as_matrix(a, sparse=True), k_r, k_c, operator)


class TestEmbedding:
    @pytest.mark.parametrize("method", METHODS, ids=lambda f: f.__name__)
    def test_method_rejects_an_embedding(self, method):
        # a method takes a matrix; an embedding is not one
        with pytest.raises(ValidationError, match="matrix must be an array of real numbers"):
            method(shared_embedding(noisy_instance(), 2, 3), 2, 3)

    def test_transposed_embedding_keeps_caller_orientation(self):
        a = noisy_instance()
        sides, values, diagnostics = shared_embedding(a, 3, 2, "laplacian")
        assert list(sides) == ["row", "col"] and sides["col"].shape == (90, 2)
        assert diagnostics["regularizers"] == shared_embedding(
            a, 2, 3, "laplacian")[2]["regularizers"]
        # k_r > k_c decomposes the transpose: the mirror call's sides, swapped
        mirror, mirror_values, _ = shared_embedding(a.T, 2, 3, "laplacian")
        assert np.array_equal(sides["row"], mirror["col"])
        assert np.array_equal(sides["col"], mirror["row"])
        assert np.array_equal(values, mirror_values)

    def test_svd_path_recorded(self, monkeypatch):
        a = noisy_instance()
        assert shared_embedding(a, 2, 3)[2]["svd_path"] == "dense"
        assert bisc(a, 2, 3).diagnostics["svd_path"] == "dense"
        monkeypatch.setattr(linalg, "_DENSE_SIDE", 10)  # 60 x 90 now takes Lanczos
        assert shared_embedding(a, 2, 3)[2]["svd_path"] == "lanczos"
        assert bisc(a, 2, 3).diagnostics["svd_path"] == "lanczos"

    @pytest.mark.parametrize("counts", [(2, 3), (3, 2)], ids=["kr<kc", "kr>kc"])
    def test_kmeans_iterations_recorded(self, counts):
        a = noisy_instance()
        diagnostics = bisc(a, *counts, seed=4).diagnostics
        for side, fit in bisc_side_fits(a, counts, seed=4).items():
            assert diagnostics[f"{side}_iterations"] == fit.iterations >= 1

    @pytest.mark.parametrize("counts", [(2, 3), (3, 2)], ids=["kr<kc", "kr>kc"])
    def test_kmeans_restart_objectives_recorded(self, counts):
        a = noisy_instance()
        diagnostics = bisc(a, *counts, seed=4).diagnostics
        for side, fit in bisc_side_fits(a, counts, seed=4).items():
            restarts = diagnostics[f"{side}_restart_objectives"]
            assert restarts == fit.restart_objectives and len(restarts) == 10
            assert diagnostics[f"{side}_objective"] == min(restarts)

    @pytest.mark.parametrize("counts", [(2, 3), (3, 2)], ids=["kr<kc", "kr>kc"])
    def test_kmeans_convergence_recorded(self, counts):
        a = noisy_instance()
        diagnostics = bisc(a, *counts, seed=4).diagnostics
        for side, fit in bisc_side_fits(a, counts, seed=4).items():
            assert diagnostics[f"{side}_converged"] is fit.converged is True


def bisc_side_fits(a, counts, seed):
    """k-means on each side's raw singular-vector rows, as bisc runs it."""
    sides, _, _ = shared_embedding(a, *counts)
    return {side: linalg.kmeans(sides[side], k, seed=seed)
            for side, k in zip(("row", "col"), counts)}


class TestRunAlgorithms:
    @pytest.mark.parametrize("counts", [(2, 3), (3, 2), (1, 3)])
    def test_matches_run_algorithm_one_at_a_time(self, counts):
        a = noisy_instance() - 0.2  # signed: the Laplacian methods get a shift
        outcomes = run_algorithms(ALGORITHMS, a, *counts, seed=2)
        assert [name for name, _ in outcomes] == list(ALGORITHMS)
        for name, outcome in outcomes:
            try:
                alone = getattr(detect, name)(a, *counts, seed=2)
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

    def test_names_read_once(self):
        a = noisy_instance()
        outcomes = run_algorithms((name for name in ["bisc", "nbisc"]), a, 2, 3)
        assert [name for name, _ in outcomes] == ["bisc", "nbisc"]
        assert same_result(outcomes[1][1], nbisc(a, 2, 3))

    # a bare string is one name, not an iterable of its letters: a one-name
    # tuple written without its comma, ``("bisc")``, is this case
    @pytest.mark.parametrize("names", [None, 3, pytest.param("bisc", id="str"),
                                       pytest.param(b"bisc", id="bytes")])
    def test_names_not_iterable_rejected(self, names):
        with pytest.raises(ValidationError, match="names must be an iterable of method names"):
            run_algorithms(names, noisy_instance(), 2, 3)


def block_matrix(k_r, k_c, seed=0, shape=(60, 90)):
    """A noisy non-negative block matrix with ``k_r`` row and ``k_c`` column
    clusters."""
    rng = np.random.default_rng([seed, k_r, k_c])
    rows, cols = np.arange(shape[0]) % k_r, np.arange(shape[1]) % k_c
    mixing = rng.uniform(0.1, 1.0, (k_r, k_c))
    return mixing[np.ix_(rows, cols)] + 0.05 * rng.random(shape)


def kmeans_per_read_out(a, k_r, k_c, name, seed):
    """One ``kmeans`` call per side on method ``name``'s read-out of ``a``,
    and the read-out's width."""
    operator, readout = detect._PIPELINES[name]
    xs, _ = detect._read_out(shared_embedding(a, k_r, k_c, operator)[0], readout)
    return {side: linalg.kmeans(xs[side], k, seed=seed)
            for side, k in (("row", k_r), ("col", k_c))}, xs["row"].shape[1]


def assert_batched_matches_alone(a, counts, seed):
    """``run_algorithms`` gives each method the result it gets alone and,
    on each side, the k-means of one ``kmeans`` call on its read-out, bit
    for bit; returns the outcomes."""
    outcomes = run_algorithms(ALGORITHMS, a, *counts, seed=seed)
    for name, outcome in outcomes:
        if isinstance(outcome, UnsupportedError):
            continue
        assert same_result(outcome, getattr(detect, name)(a, *counts, seed=seed)), name
        fits, _ = kmeans_per_read_out(a, *counts, name, seed)
        for side, fit in fits.items():
            labels = getattr(outcome, f"{side}_labels").labels
            assert np.array_equal(labels, fit.labels), (name, side)
            for key in ("objective", "restart_objectives", "iterations", "converged"):
                assert outcome.diagnostics[f"{side}_{key}"] == getattr(fit, key), (name, key)
    return outcomes


class TestOneKMeansPerSide:
    """``run_algorithms`` reads every method out, then clusters each side
    once for all of them; every method still gets its own bits."""

    @pytest.mark.parametrize("counts, width", [
        ((2, 3), 2), ((3, 4), 3), ((4, 5), 4), ((3, 2), 2), ((5, 4), 4),
    ], ids=["d2", "d3", "d4", "d2-transposed", "d4-transposed"])
    def test_every_method_matches_alone_and_one_kmeans_per_read_out(self, counts, width):
        a = block_matrix(*counts)
        assert kmeans_per_read_out(a, *counts, "bisc", 0)[1] == width
        assert kmeans_per_read_out(a, *counts, "dscore", 0)[1] == width - 1
        for seed in (0, 7):
            outcomes = assert_batched_matches_alone(a, counts, seed)
            assert all(not isinstance(outcome, Exception) for _, outcome in outcomes)

    @pytest.mark.parametrize("counts", [(1, 3), (2, 3)], ids=["ratio-fails", "all-run"])
    def test_zero_degree_rows_and_a_failing_ratio_read_out(self, counts):
        # d = 1 at counts (1, 3): the ratio methods fail and the other three
        # still cluster their one-column read-outs together
        a = block_matrix(*counts, seed=2)
        a[[0, 7, 30]] = 0.0
        outcomes = dict(assert_batched_matches_alone(a, counts, seed=1))
        for name in ("dscore", "rdscore"):
            assert isinstance(outcomes[name], UnsupportedError) == (min(counts) == 1), name
        for name in ("bisc", "nbisc", "disim"):
            assert len(set(outcomes[name].col_labels.labels)) == 3, name
        assert outcomes["nbisc"].diagnostics["degenerate_rows"] == (1, 8, 31)

    def test_one_lloyd_loop_per_side(self, monkeypatch):
        calls = []
        real = linalg._lloyd

        def counting(x, centers, max_iter):
            calls.append(len(centers))
            return real(x, centers, max_iter)

        monkeypatch.setattr(linalg, "_lloyd", counting)
        run_algorithms(ALGORITHMS, noisy_instance(), 2, 3)
        assert calls == [50, 50]  # five methods' 10 restarts, row side then column side
        calls.clear()
        run_algorithms(("bisc", "dscore", "bisc"), noisy_instance(), 2, 3)
        assert calls == [20, 20]  # a repeated name is clustered once
        calls.clear()
        bisc(noisy_instance(), 2, 3)
        assert calls == [10, 10]  # a method alone: its own 10 restarts per side

    def test_bad_seed_fails_every_clustered_method_alike(self):
        # at (1, 3) the ratio methods fail their read-out check first, the
        # others the seed; each method on a matrix raises what
        # run_algorithms returns for its one name and for all five
        a = noisy_instance()
        for counts, seed, fails in (((1, 3), -1, ALGORITHMS), ((2, 3), -1, ALGORITHMS),
                                    ((2, 100), 0, ALGORITHMS), ((1, 3), 0, ("dscore", "rdscore"))):
            outcomes = run_algorithms(ALGORITHMS, a, *counts, seed=seed)
            for name, outcome in outcomes:
                [(_, own)] = run_algorithms((name,), a, *counts, seed=seed)
                if name not in fails:
                    assert same_result(outcome, own), name
                    continue
                assert isinstance(own, BidfmError), name
                with pytest.raises(type(own)) as alone:
                    getattr(detect, name)(a, *counts, seed=seed)
                for other in (own, outcome):
                    assert type(other) is alone.type and str(other) == str(alone.value), name


def assert_same_labels_on_both_paths(monkeypatch, a, counts, names=ALGORITHMS):
    """``run_algorithms`` with the SVD forced through LAPACK, then through
    Lanczos, gives every method the same labels."""
    by_path = []
    for dense_side in (min(a.shape), min(a.shape) - 1):  # dense, then not
        monkeypatch.setattr(linalg, "_DENSE_SIDE", dense_side)
        by_path.append(run_algorithms(names, a, *counts, seed=1))
    for (name, dense), (_, lanczos) in zip(*by_path):
        assert (dense.diagnostics["svd_path"], lanczos.diagnostics["svd_path"]) == (
            "dense", "lanczos")
        assert np.array_equal(dense.row_labels.labels, lanczos.row_labels.labels), name
        assert np.array_equal(dense.col_labels.labels, lanczos.col_labels.labels), name


@pytest.mark.parametrize("counts", [(2, 3), (3, 2)], ids=["kr<kc", "kr>kc"])
def test_same_labels_on_both_sides_of_the_dense_lanczos_switch(monkeypatch, counts):
    """One 650 x 700 Poisson block-model matrix, decomposed by LAPACK and by
    Lanczos: every method gives the same labels either way."""
    rng = np.random.default_rng(7)
    rows, cols = rng.integers(0, 2, 650), rng.integers(0, 3, 700)
    a = rng.poisson(3.0 * P1[np.ix_(rows, cols)]).astype(float)
    assert_same_labels_on_both_paths(monkeypatch, a, counts)


@pytest.mark.parametrize("counts", [(2, 3), (3, 2)], ids=["kr<kc", "kr>kc"])
def test_same_labels_on_both_paths_at_sweep_small_size(monkeypatch, counts):
    """A 100 x 150 signed block-model matrix (the sim3a size, which now
    takes Lanczos by default)."""
    omega = expected_adjacency(plain_instance(3, n_r=100, n_c=150, p=P2, rho=0.6))
    a = sample_adjacency(omega, DistributionSpec("signed"), seed=3)
    assert_same_labels_on_both_paths(monkeypatch, a, counts)


def test_ratio_methods_agree_across_paths_with_zero_degree_columns(monkeypatch):
    """LAPACK leaves roundoff in the singular-vector rows of columns with no
    edges, where Lanczos gives exact zeros; the ratio read-out treats both
    as zeros."""
    rng = np.random.default_rng(0)
    rows, cols = rng.integers(0, 2, 100), rng.integers(0, 3, 150)
    a = rng.poisson(0.5 * P1[np.ix_(rows, cols)]).astype(float)
    a[:, rng.choice(150, 3, replace=False)] = 0.0
    assert_same_labels_on_both_paths(monkeypatch, a, (2, 3), names=("dscore", "rdscore"))


def test_labels_do_not_depend_on_the_blas_thread_count():
    """One 600 x 900 block-model matrix on the Lanczos path, detected by all
    five methods in a process with 1 and one with 2 OpenBLAS threads: the
    singular values can differ in their last bits, the labels do not."""
    script = (
        "import json, numpy as np\n"
        "from bidfm.detect import ALGORITHMS, run_algorithms\n"
        "from bidfm.model import P1\n"
        "rng = np.random.default_rng(11)\n"
        "rows, cols = rng.integers(0, 2, 600), rng.integers(0, 3, 900)\n"
        "a = rng.poisson(0.8 * P1[np.ix_(rows, cols)]).astype(float)\n"
        "print(json.dumps({name: [r.diagnostics['svd_path'], r.row_labels.labels.tolist(),\n"
        "                         r.col_labels.labels.tolist()]\n"
        "                  for name, r in run_algorithms(ALGORITHMS, a, 2, 3, seed=1)}))\n"
    )
    runs = []
    for threads in ("1", "2"):
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        runs.append(json.loads(result.stdout))
    assert list(runs[0]) == list(ALGORITHMS)
    assert {path for path, _, _ in runs[0].values()} == {"lanczos"}
    assert runs[0] == runs[1]


def assert_same_labels_on_every_operand(monkeypatch, a, counts):
    """``run_algorithms`` with Lanczos multiplying by the dense array, by a
    CSR copy of it, and on a CSR input gives every method the same labels."""
    runs = []
    # the dense array, a CSR copy of it, and a CSR input, which takes the
    # CSR operand whatever its share of nonzeros
    for share, operand in ((0.0, a), (1.0, a), (0.0, scipy.sparse.csr_array(a))):
        monkeypatch.setattr(linalg, "_SPARSE_SHARE", share)
        runs.append(run_algorithms(ALGORITHMS, operand, *counts, seed=1))
    for (name, array), (_, copy), (_, given) in zip(*runs):
        assert [r.diagnostics["svd_path"] for r in (array, copy, given)] == [
            "lanczos", "sparse", "sparse"], name
        for other in (copy, given):
            assert np.array_equal(array.row_labels.labels, other.row_labels.labels), name
            assert np.array_equal(array.col_labels.labels, other.col_labels.labels), name


def edge_network_matrix(seed, n=3000):
    """A directed degree-corrected Poisson network of ``n`` nodes and three
    sending and receiving clusters, about 1% nonzero, as the benchmark's
    edge-network workload builds it, with its zero-degree nodes dropped."""
    rng = np.random.default_rng([seed, 3])
    mixing = np.array([[1.0, 0.15, 0.1], [0.2, 0.9, 0.15], [0.1, 0.25, 0.8]])
    rows = rng.permutation(np.arange(n) % 3)
    cols = rows.copy()
    moved = rng.random(n) < 0.2
    cols[moved] = rng.integers(0, 3, int(moved.sum()))
    theta_out, theta_in = 0.25 * rng.uniform(0.2, 1.0, (2, n))
    omega = theta_out[:, None] * mixing[np.ix_(rows, cols)] * theta_in[None, :]
    np.fill_diagonal(omega, 0.0)
    return filter_zero_degree(rng.poisson(omega).astype(float), "both-or").matrix


def test_same_labels_on_every_operand_of_an_edge_network(monkeypatch):
    a = edge_network_matrix(seed=1)
    assert np.count_nonzero(a) < 0.02 * a.size
    assert_same_labels_on_every_operand(monkeypatch, a, (3, 3))


def test_same_labels_on_every_operand_of_a_sweep_replicate(monkeypatch):
    """A sim1b replicate at 600 x 900 (rho = 0.6, about 8% nonzero, the
    second point of a sweep over (0.4, 0.6, 0.8)) with no zero-degree node."""
    config = preset("sim1b", rho_grid=(0.4, 0.6, 0.8), replicates=1, base_seed=1)
    value, point, _, _ = config._points[1]
    assert (value, point["n_r"], point["n_c"]) == (0.6, 600, 900)
    params = fileio.params_from_config(point)
    spec = fileio.distribution_from_config(point["distribution"])
    a = sample_adjacency(expected_adjacency(params), spec, seed=1)
    assert (np.abs(a).sum(axis=0) > 0).all() and (np.abs(a).sum(axis=1) > 0).all()
    assert_same_labels_on_every_operand(monkeypatch, a, (2, 3))


class TestSparseInput:
    def poisson(self, shape=(60, 90), seed=0):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(0, 2, shape[0]), rng.integers(0, 3, shape[1])
        a = rng.poisson(0.3 * P1[np.ix_(rows, cols)]).astype(float)
        a[:, 5] = 0.0  # a zero-degree column
        return a

    @pytest.mark.parametrize("transposed", [False, True])
    def test_laplacian_matches_dense_entry_for_entry(self, transposed):
        a = self.poisson()  # integer weights: both sum the degrees exactly
        m = scipy.sparse.csr_array(a)
        if transposed:
            a, m = a.T, m.T  # a CSC operand
        dense, taus = detect._laplacian(a)
        sparse, sparse_taus = detect._laplacian(m)
        assert scipy.sparse.issparse(sparse) and sparse_taus == taus
        assert np.array_equal(sparse.toarray(), dense)

    def test_methods_run_on_sparse_input(self):
        a = self.poisson()
        for name, result in run_algorithms(ALGORITHMS, scipy.sparse.csr_matrix(a), 2, 3):
            alone = getattr(detect, name)(a, 2, 3)
            assert result.diagnostics["svd_path"] == alone.diagnostics["svd_path"] == "dense"
            assert same_result(result, alone), name

    def test_embed_takes_the_csr_operand(self):
        a = self.poisson((300, 400))
        sides, _, diagnostics = shared_embedding(scipy.sparse.csr_array(a), 3, 2, "laplacian")
        assert sides["col"].shape == (400, 2) and diagnostics["svd_path"] == "sparse"
        assert diagnostics["regularizers"] == shared_embedding(
            a, 3, 2, "laplacian")[2]["regularizers"]

    def test_shift_leaves_a_non_negative_sparse_matrix_alone(self):
        m = scipy.sparse.csr_array(self.poisson())
        shifted, shift = shift_nonnegative(m)
        assert scipy.sparse.issparse(shifted) and shift == 0.0
        assert np.array_equal(shifted.toarray(), m.toarray())

    def test_signed_sparse_matrix_is_not_shifted(self):
        a = self.poisson() - 2.0 * np.eye(60, 90)
        with pytest.raises(DomainError, match="signed sparse matrix"):
            shift_nonnegative(scipy.sparse.csr_array(a))
        outcomes = dict(run_algorithms(ALGORITHMS, scipy.sparse.csr_array(a), 2, 3))
        for name in ("disim", "rdscore"):
            assert isinstance(outcomes[name], DomainError), name
        for name in ("bisc", "nbisc", "dscore"):
            assert same_result(outcomes[name], getattr(detect, name)(a, 2, 3)), name


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
