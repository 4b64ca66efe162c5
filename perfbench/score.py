"""Independent output checks, written without ``bidfm.metrics`` or scipy.

The benchmark compares what the program reports against these: a
misassignment rate found by trying every relabeling, NMI from the
contingency table, and algebraic properties of singular triplets.
"""
from __future__ import annotations

import itertools

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def contingency(est, truth):
    """Counts of nodes per (truth cluster, estimated cluster); labels 1..K."""
    est = np.asarray(est, dtype=int)
    truth = np.asarray(truth, dtype=int)
    require(est.shape == truth.shape, f"label counts differ: {est.shape} vs {truth.shape}")
    table = np.zeros((truth.max(), est.max()), dtype=np.int64)
    for t, e in zip(truth.tolist(), est.tolist()):
        table[t - 1, e - 1] += 1
    return table


def error_rate(est, truth):
    """Share of misassigned nodes under the best relabeling, found by
    enumerating every permutation of the larger label set."""
    table = contingency(est, truth)
    k = max(table.shape)
    square = np.zeros((k, k), dtype=np.int64)
    square[: table.shape[0], : table.shape[1]] = table
    n = int(square.sum())
    matched = max(
        sum(int(square[i, p]) for i, p in enumerate(perm))
        for perm in itertools.permutations(range(k))
    )
    return (n - matched) / n


def nmi(est, truth):
    """2 I(est; truth) / (H(est) + H(truth)); 1 when both entropies vanish."""
    table = contingency(est, truth).astype(float)
    n = table.sum()
    p = table / n
    rows, cols = p.sum(axis=1), p.sum(axis=0)
    nz = p > 0
    info = float((p[nz] * np.log(p[nz] / np.outer(rows, cols)[nz])).sum())
    entropy = -float(sum((q * np.log(q)).sum() for q in (rows[rows > 0], cols[cols > 0])))
    return 1.0 if entropy == 0.0 else 2.0 * info / entropy


def pair_nmi(est_r, truth_r, est_c, truth_c):
    """The smaller of the row and column NMI: the worse side decides."""
    return min(nmi(est_r, truth_r), nmi(est_c, truth_c))


def check_svd(a, k, left, values, right, rtol=1e-6):
    """Orthonormal factors, sorted non-negative values, small residuals."""
    n, p = a.shape
    require(left.shape == (n, k) and right.shape == (p, k) and values.shape == (k,),
            f"factor shapes {left.shape}, {values.shape}, {right.shape} for {a.shape}, k={k}")
    eye = np.eye(k)
    require(np.abs(left.T @ left - eye).max() < 1e-8, "left factor is not orthonormal")
    require(np.abs(right.T @ right - eye).max() < 1e-8, "right factor is not orthonormal")
    require(bool(np.all(values >= 0)), f"negative singular value in {values}")
    require(bool(np.all(np.diff(values) <= 0)), f"singular values not sorted: {values}")
    scale = max(float(values[0]), np.finfo(float).tiny)
    residual = float(np.linalg.norm(a @ right - left * values, axis=0).max())
    require(residual <= rtol * scale, f"residual {residual:.3g} exceeds {rtol} * sigma_1 = {scale:.3g}")


def check_values_against_numpy(a, values):
    """The leading singular values agree with ``numpy.linalg.svd``."""
    reference = np.linalg.svd(a, compute_uv=False)[: len(values)]
    gap = float(np.abs(reference - values).max())
    require(gap <= 1e-8 * max(float(reference[0]), 1.0),
            f"singular values differ from numpy.linalg.svd by {gap:.3g}")
