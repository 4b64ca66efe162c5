"""Community detection for weighted bipartite networks.

Every method runs one pipeline: form an operator from the matrix, take its
leading min(k_r, k_c) singular vectors, read each side's rows out, and run
k-means with ``k_r`` clusters on the left rows and ``k_c`` on the right rows.
The methods differ only in the operator and the read-out:

========  =====================  ============================================
method    operator               read-out
========  =====================  ============================================
bisc      adjacency              raw rows
nbisc     adjacency              unit-normalized rows
disim     regularized Laplacian  unit-normalized rows
dscore    adjacency              ratios of trailing columns to the leading one
rdscore   regularized Laplacian  ratios of trailing columns to the leading one
========  =====================  ============================================

``bisc`` and ``nbisc`` are the paper's methods; the other three are
reference baselines for comparison studies.  The pipeline assumes
``k_r <= k_c``; called the other way round it transposes the problem and
swaps the labels and per-side diagnostics back.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, UnsupportedError, ValidationError
from .linalg import as_matrix, kmeans, row_normalize, truncated_svd
from .model import Membership

ALGORITHMS = ("bisc", "nbisc", "disim", "dscore", "rdscore")


@dataclass(frozen=True)
class DetectionResult:
    row_labels: Membership
    col_labels: Membership
    singular_values: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _laplacian(a, regularizer):
    """Regularized bipartite Laplacian ``D_r^-1/2 A D_c^-1/2`` built from
    absolute degrees; the regularizer is added to every degree."""
    if a.min() < 0:
        raise DomainError(
            "Laplacian-based methods need a non-negative matrix; "
            "apply shift_nonnegative first"
        )
    d_r = np.abs(a).sum(axis=1)
    d_c = np.abs(a).sum(axis=0)
    if regularizer == "auto":
        tau_r, tau_c = float(d_r.mean()), float(d_c.mean())
    else:
        tau_r = tau_c = float(regularizer)
        if tau_r < 0:
            raise DomainError(f"regularizer must be non-negative, got {regularizer}")
    with np.errstate(divide="ignore"):
        inv_r = np.where(d_r + tau_r > 0, 1.0 / np.sqrt(d_r + tau_r), 0.0)
        inv_c = np.where(d_c + tau_c > 0, 1.0 / np.sqrt(d_c + tau_c), 0.0)
    return inv_r[:, None] * a * inv_c[None, :], (tau_r, tau_c)


def _ratio_matrix(u, threshold):
    """Entrywise ratios of trailing singular-vector columns to the leading
    one, clipped to ``[-T, T]``; non-finite ratios from a vanishing leading
    entry saturate at the clip bound (0 when the numerator vanishes too)."""
    t = float(np.log(u.shape[0])) if threshold == "auto" else float(threshold)
    if not t > 0:
        raise DomainError(f"ratio threshold must be positive, got {threshold}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = u[:, 1:] / u[:, :1]
    ratios = np.nan_to_num(ratios, nan=0.0, posinf=t, neginf=-t)
    return np.clip(ratios, -t, t)


def _cocluster(a, k_r, k_c, operator, readout, seed, restarts,
               regularizer="auto", threshold="auto", eps=1e-12):
    """The pipeline behind every method: ``operator`` is ``'adjacency'`` or
    ``'laplacian'``, ``readout`` is ``'raw'``, ``'normalize'`` or ``'ratio'``."""
    a = as_matrix(a)
    if k_r < 1 or k_c < 1:
        raise DimensionError("cluster counts must be positive")
    if k_r > a.shape[0] or k_c > a.shape[1]:
        raise DimensionError(
            f"cluster counts ({k_r}, {k_c}) exceed matrix shape {a.shape}"
        )
    if readout == "ratio" and min(k_r, k_c) < 2:
        raise UnsupportedError("ratio method needs min(k_r, k_c) >= 2")
    transposed = k_r > k_c
    if transposed:
        a, k_r, k_c = a.T, k_c, k_r
    if operator == "laplacian":
        a, regularizers = _laplacian(a, regularizer)
    factors = truncated_svd(a, k_r)
    sides = []  # (labels, k-means objective, rows too short to normalize)
    for x, k in ((factors.left, k_r), (factors.right, k_c)):
        degenerate = None
        if readout == "normalize":
            normalized = row_normalize(x, eps=eps)
            x, degenerate = normalized.matrix, normalized.degenerate_rows
        elif readout == "ratio":
            x = _ratio_matrix(x, threshold)
        fit = kmeans(x, k, seed=seed, restarts=restarts)
        sides.append((Membership(fit.labels, n_clusters=k), fit.objective, degenerate))
    if transposed:
        sides.reverse()
    (rows, row_obj, row_degenerate), (cols, col_obj, col_degenerate) = sides
    diagnostics = {"row_objective": row_obj, "col_objective": col_obj}
    if readout == "normalize":
        diagnostics["degenerate_rows"] = row_degenerate
        diagnostics["degenerate_cols"] = col_degenerate
    if operator == "laplacian":
        diagnostics["regularizers"] = regularizers[::-1] if transposed else regularizers
    return DetectionResult(rows, cols, factors.singular_values, diagnostics)


def bisc(a, k_r: int, k_c: int, seed: int = 0, restarts: int = 10) -> DetectionResult:
    """Bipartite spectral co-clustering on raw singular vectors.

    Runs k-means with ``k_r`` clusters on the rows of the left factor and
    ``k_c`` clusters on the rows of the right factor of the
    min(k_r, k_c)-dimensional SVD of ``a``.
    """
    return _cocluster(a, k_r, k_c, "adjacency", "raw", seed, restarts)


def nbisc(
    a,
    k_r: int,
    k_c: int,
    seed: int = 0,
    restarts: int = 10,
    eps: float = 1e-12,
) -> DetectionResult:
    """Degree-corrected variant: cluster row-normalized singular vectors.

    Rows whose embedding norm falls below ``eps`` cannot be normalized; they
    keep their raw coordinates, still receive a label, and are reported under
    ``diagnostics['degenerate_rows']`` / ``['degenerate_cols']``.
    """
    return _cocluster(a, k_r, k_c, "adjacency", "normalize", seed, restarts, eps=eps)


def disim(
    a,
    k_r: int,
    k_c: int,
    regularizer="auto",
    seed: int = 0,
    restarts: int = 10,
) -> DetectionResult:
    """Regularized-Laplacian co-clustering baseline.

    With ``regularizer='auto'`` each side's regularizer is its mean absolute
    degree; both are reported under ``diagnostics['regularizers']`` as
    ``(row, column)``.  Singular-vector rows are unit-normalized before
    k-means, and rows too short to normalize are reported as in ``nbisc``.
    """
    return _cocluster(a, k_r, k_c, "laplacian", "normalize", seed, restarts,
                      regularizer=regularizer)


def dscore(
    a,
    k_r: int,
    k_c: int,
    threshold="auto",
    seed: int = 0,
    restarts: int = 10,
) -> DetectionResult:
    """Singular-vector-ratio baseline; needs at least two singular vectors.

    Dividing the trailing columns by the leading one cancels per-node scale
    factors, so the method tolerates degree heterogeneity by construction.
    The default clip threshold is ``log(n)`` for a side with ``n`` nodes.
    """
    return _cocluster(a, k_r, k_c, "adjacency", "ratio", seed, restarts,
                      threshold=threshold)


def rdscore(
    a,
    k_r: int,
    k_c: int,
    regularizer="auto",
    threshold="auto",
    seed: int = 0,
    restarts: int = 10,
) -> DetectionResult:
    """Ratio method on the regularized Laplacian instead of the adjacency."""
    return _cocluster(a, k_r, k_c, "laplacian", "ratio", seed, restarts,
                      regularizer=regularizer, threshold=threshold)


def shift_nonnegative(a) -> tuple:
    """Add a constant making every entry positive; returns (matrix, shift).

    A matrix with no negative entry is returned untouched with shift 0.
    Otherwise the shift is ``-min + 0.01 * range`` (range replaced by 1 when
    the matrix is constant), so the smallest shifted entry stays strictly
    positive.
    """
    a = as_matrix(a)
    lo, hi = float(a.min()), float(a.max())
    if lo >= 0:
        return a, 0.0
    spread = hi - lo
    shift = -lo + 0.01 * (spread if spread > 0 else 1.0)
    return a + shift, shift


def run_algorithm(name: str, a, k_r: int, k_c: int, seed: int = 0) -> DetectionResult:
    """Run the method called ``name`` (one of ``ALGORITHMS``) with default
    settings.  The Laplacian methods first get ``shift_nonnegative``, and a
    non-zero shift is recorded under ``diagnostics['shift']``."""
    if name not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    # Looked up by name on the module at call time, so a wrapper bound over
    # a method's module attribute (an instrumenting tracer) is what runs.
    method = globals()[name]
    shift = 0.0
    if name in ("disim", "rdscore"):
        a, shift = shift_nonnegative(a)
    result = method(a, k_r, k_c, seed=seed)
    if shift:
        result.diagnostics["shift"] = shift
    return result
