"""Acceptance suite: one test per release criterion, each printing a PASS or
FAIL line (run with ``pytest -s`` to see them as they complete).

Criterion 9 needs the political-blogs network, which ships separately; point
``BIDFM_POLBLOGS`` at the GML file (or place it at ``data/polblogs.gml``) to
enable it, otherwise it is skipped.
"""
import math
import os
import time

import numpy as np
import pytest

from bidfm.detect import bisc, nbisc
from bidfm.experiments import (
    estimate_k_eigengap,
    filter_zero_degree,
    preset,
    run_simulation,
)
from bidfm.linalg import spectral_deviation, truncated_svd
from bidfm.metrics import ari, criterion_f, hamming_error, nmi
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
from bidfm.sampling import DistributionSpec, sample_adjacency
from bidfm.theory import (
    gamma_tau,
    population_geometry_check,
    population_svd_oracle,
)

from oracles import (
    brute_force_criterion,
    brute_force_hamming,
    confusion_of,
    direct_ari,
    direct_nmi,
)


def report(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def random_instance(rng, model, mixing, rho):
    n_r = int(rng.integers(30, 121))
    n_c = int(rng.integers(30, 121))
    rows = sample_memberships(n_r, 2, int(rng.integers(1 << 30)))
    cols = sample_memberships(n_c, 3, int(rng.integers(1 << 30)))
    if model == "bidfm":
        return BiDFMParams(rows, cols, mixing, rho)
    return BiDCDFMParams(
        rows,
        cols,
        mixing,
        sample_theta(n_r, rho, int(rng.integers(1 << 30))),
        sample_theta(n_c, rho, int(rng.integers(1 << 30))),
    )


def max_error(result, params):
    return max(
        hamming_error(result.row_labels, params.row_membership),
        hamming_error(result.col_labels, params.col_membership),
    )


def test_criterion_1_population_exact_recovery():
    """bisc recovers plain-model populations exactly, and nbisc recovers the
    populations of both models exactly (normalization removes the node
    scales, so its noiseless geometry covers both cases)."""
    start = time.time()
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for index in range(100):
        model = "bidfm" if index % 2 == 0 else "bidcdfm"
        mixing = P1 if index % 4 < 2 else P2
        rho = float(rng.uniform(0.2, 2.0))
        params = random_instance(rng, model, mixing, rho)
        omega = expected_adjacency(params)
        worst = max(worst, max_error(nbisc(omega, 2, 3, seed=0), params))
        if model == "bidfm":
            worst = max(worst, max_error(bisc(omega, 2, 3, seed=0), params))
    elapsed = time.time() - start
    report(
        1,
        worst == 0.0,
        f"worst population error {worst} over 100 instances ({elapsed:.1f}s)",
    )


def _point_errors(config):
    points = run_simulation(config).points
    return {p.value: p for p in points if p.algorithm == config.algorithms[0]}


def _se_diff(a, b):
    return math.sqrt(a.se_error**2 + b.se_error**2)


def test_criterion_2_bernoulli_sparsity_trend():
    """Denser Bernoulli networks are easier: error at full density is small
    and the three-point curve decreases in the sparsity scale."""
    start = time.time()
    config = preset(
        "sim1a", replicates=50, rho_grid=(0.1, 0.5, 1.0), algorithms=("bisc",)
    )
    pts = _point_errors(config)
    dense_ok = pts[1.0].mean_error <= 0.05
    first_drop = pts[0.1].mean_error - pts[0.5].mean_error
    second_drop = pts[0.5].mean_error - pts[1.0].mean_error
    monotone = first_drop >= -_se_diff(pts[0.1], pts[0.5]) and (
        second_drop >= -_se_diff(pts[0.5], pts[1.0])
    )
    strictly = pts[0.1].mean_error > pts[0.5].mean_error >= pts[1.0].mean_error
    elapsed = time.time() - start
    report(
        2,
        dense_ok and monotone and strictly,
        "errors at rho 0.1/0.5/1.0 = "
        f"{pts[0.1].mean_error:.4f}/{pts[0.5].mean_error:.4f}/"
        f"{pts[1.0].mean_error:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_3_normal_variance_trend():
    """More edge noise hurts: error at the largest normal variance exceeds
    the error at the smallest by more than one standard error."""
    start = time.time()
    config = preset(
        "sim2c", replicates=50, sigma2_grid=(0.2, 2.0), algorithms=("bisc",)
    )
    pts = _point_errors(config)
    gap = pts[2.0].mean_error - pts[0.2].mean_error
    elapsed = time.time() - start
    report(
        3,
        gap > _se_diff(pts[0.2], pts[2.0]),
        f"error rose {pts[0.2].mean_error:.4f} -> {pts[2.0].mean_error:.4f} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_4_signed_degree_corrected_ordering():
    """Signed degree-corrected networks at n=500: normalization helps
    (nbisc < bisc) and both spectral methods beat the ratio baseline."""
    start = time.time()
    config = preset(
        "sim3d",
        replicates=50,
        n_grid=(500,),
        algorithms=("bisc", "nbisc", "dscore"),
    )
    points = {p.algorithm: p for p in run_simulation(config).points}
    b, n, d = points["bisc"], points["nbisc"], points["dscore"]
    ordering = (
        n.mean_error < b.mean_error - _se_diff(n, b)
        and b.mean_error < d.mean_error - _se_diff(b, d)
        and n.mean_error < d.mean_error - _se_diff(n, d)
    )
    elapsed = time.time() - start
    report(
        4,
        ordering,
        f"errors nbisc/bisc/dscore = {n.mean_error:.4f}/{b.mean_error:.4f}/"
        f"{d.mean_error:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_5_metric_oracles():
    """All four partition metrics agree with independent brute-force
    implementations on 200 random partition pairs."""
    start = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 16))
        truth = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
        est = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
        t = Membership(truth, n_clusters=k)
        e = Membership(est, n_clusters=k)

        h = hamming_error(e, t)
        h_ref = brute_force_hamming(est, truth, k)
        assert round(h * n) == round(h_ref * n)  # integer misassignment counts
        worst = max(worst, abs(h - h_ref))

        c = confusion_of(est, truth, k, k)
        worst = max(worst, abs(nmi(e, t) - direct_nmi(c)))
        worst = max(worst, abs(ari(e, t) - direct_ari(c)))
        worst = max(worst, abs(criterion_f(e, t) - brute_force_criterion(est, truth, k)))
    elapsed = time.time() - start
    report(5, worst < 1e-12, f"worst oracle deviation {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_6_population_geometry():
    """Singular-vector geometry of 50 random populations matches the exact
    within-cluster and between-centroid statements to 1e-9."""
    start = time.time()
    rng = np.random.default_rng(99)
    square = np.array([[1.0, 0.25], [0.4, 0.9]])
    worst = 0.0
    for index in range(50):
        model = "bidfm" if index % 2 == 0 else "bidcdfm"
        if index % 4 < 2:
            params = random_instance(rng, model, P1 if index % 8 < 4 else P2, 0.7)
        else:
            n_r = int(rng.integers(30, 121))
            n_c = int(rng.integers(30, 121))
            rows = sample_memberships(n_r, 2, int(rng.integers(1 << 30)))
            cols = sample_memberships(n_c, 2, int(rng.integers(1 << 30)))
            if model == "bidfm":
                params = BiDFMParams(rows, cols, square, 0.7)
            else:
                params = BiDCDFMParams(
                    rows,
                    cols,
                    square,
                    sample_theta(n_r, 0.7, int(rng.integers(1 << 30))),
                    sample_theta(n_c, 0.7, int(rng.integers(1 << 30))),
                )
        worst = max(worst, population_geometry_check(params).max_deviation)
    elapsed = time.time() - start
    report(6, worst < 1e-9, f"worst geometry deviation {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_7_analytic_svd_oracle():
    """The closed-form construction of the population SVD matches the
    numerical truncated SVD on 25 random degree-corrected instances to
    1e-8."""
    start = time.time()
    rng = np.random.default_rng(123)
    worst = 0.0
    for index in range(25):
        params = random_instance(
            rng, "bidcdfm", P1 if index % 2 == 0 else P2, float(rng.uniform(0.3, 1.5))
        )
        analytic = population_svd_oracle(params)
        numeric = truncated_svd(expected_adjacency(params), 2)
        worst = max(
            worst,
            float(np.abs(analytic.singular_values - numeric.singular_values).max()),
        )
    elapsed = time.time() - start
    report(7, worst < 1e-8, f"worst singular value gap {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_8_spectral_deviation_scaling():
    """The normalized spectral deviation concentrates: its 99th percentile
    does not grow by more than 20% from (100, 150) to (200, 300)."""
    start = time.time()

    def percentile_99(n_r, n_c):
        rows = sample_memberships(n_r, 2, seed=601)
        cols = sample_memberships(n_c, 3, seed=602)
        params = BiDFMParams(rows, cols, P1, rho=0.5)
        omega = expected_adjacency(params)
        gamma = gamma_tau(DistributionSpec("bernoulli"), params).gamma
        scale = math.sqrt(gamma * 0.5 * max(n_r, n_c) * math.log(n_r + n_c))
        ratios = [
            spectral_deviation(
                sample_adjacency(omega, DistributionSpec("bernoulli"), 7000 + rep),
                omega,
            )
            / scale
            for rep in range(200)
        ]
        return float(np.percentile(ratios, 99))

    small = percentile_99(100, 150)
    large = percentile_99(200, 300)
    elapsed = time.time() - start
    report(
        8,
        large <= 1.2 * small,
        f"p99 ratio {small:.4f} -> {large:.4f} (growth x{large / small:.3f}, "
        f"{elapsed:.1f}s)",
    )


def _polblogs_path():
    candidate = os.environ.get("BIDFM_POLBLOGS", os.path.join("data", "polblogs.gml"))
    return candidate if os.path.exists(candidate) else None


def _load_polblogs(path):
    import networkx as nx

    graph = nx.read_gml(path, label="id")
    nodes = list(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for u, v in graph.edges():
        a[index[u], index[v]] += 1.0
    truth = np.array([int(graph.nodes[node]["value"]) + 1 for node in nodes])
    return a, truth


def test_polblogs_loader_on_synthetic_graph(tmp_path):
    """Not a criterion: keeps the optional real-data path exercised by
    loading a miniature GML file with the same attribute layout."""
    nx = pytest.importorskip("networkx")
    graph = nx.MultiDiGraph()
    for node, side in ((0, 0), (1, 0), (2, 1), (3, 1)):
        graph.add_node(node, value=side)
    graph.add_edge(0, 1)
    graph.add_edge(0, 1)  # parallel edge aggregates to weight 2
    graph.add_edge(2, 3)
    graph.add_edge(3, 0)
    path = tmp_path / "mini.gml"
    nx.write_gml(graph, path)
    a, truth = _load_polblogs(path)
    assert a.shape == (4, 4)
    assert a[0, 1] == 2.0
    assert a[2, 3] == 1.0
    assert list(truth) == [1, 1, 2, 2]


def test_criterion_9_political_blogs():
    """Optional real-data check: zero-degree bookkeeping reproduces the
    known set sizes of this network exactly and nbisc lands near its
    reference scores."""
    path = _polblogs_path()
    if path is None:
        print("ACCEPTANCE 9: SKIP - political blogs dataset not supplied")
        pytest.skip("political blogs dataset not supplied")
    a, truth = _load_polblogs(path)
    assert a.shape == (1490, 1490)
    filtered = filter_zero_degree(a, "both-or")
    sizes = (
        len(filtered.removed.rows),
        len(filtered.removed.cols),
        len(filtered.removed.both),
        len(filtered.removed.either),
    )
    counts_ok = sizes == (500, 425, 266, 659)
    keep = np.array(filtered.kept_rows) - 1
    sub_truth = Membership(truth[keep], n_clusters=2)
    result = nbisc(filtered.matrix, 2, 2, seed=0)
    err = max(
        hamming_error(result.row_labels, sub_truth),
        hamming_error(result.col_labels, sub_truth),
    )
    score = min(
        nmi(result.row_labels, sub_truth), nmi(result.col_labels, sub_truth)
    )
    suggestion = estimate_k_eigengap(filtered.matrix, m=8).k_suggestion
    ok = counts_ok and abs(err - 0.0529) <= 0.05 and abs(score - 0.7035) <= 0.10
    report(
        9,
        ok,
        f"zero-degree sizes {sizes}, error {err:.4f}, nmi {score:.4f}, "
        f"suggested k {suggestion}",
    )
