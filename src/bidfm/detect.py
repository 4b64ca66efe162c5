"""Community detection for weighted bipartite networks.

Every method runs one pipeline: form an operator from the matrix, take its
leading min(k_r, k_c) singular vectors, read each side's rows out, and run
k-means with ``k_r`` clusters on the left rows and ``k_c`` on the right
rows.  The methods differ only in the operator and the read-out:

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
swaps the labels and per-side diagnostics back.  Every method is
``method(a, k_r, k_c, *, seed=0)`` with ``a`` a dense or ``scipy.sparse``
matrix; ``run_algorithms`` runs several methods on one matrix and
decomposes each operator once for all of them.  The Laplacian adds each
side's mean degree to that side's degrees, the DI-SIM default of Rohe,
Qin & Yu (2016).  It needs non-negative entries: it is formed from
``shift_nonnegative`` of the matrix, and the methods on it record a
non-zero shift as ``diagnostics['shift']``.  The read-out settings are
fixed: 10 k-means restarts per side, each capped at 300 Lloyd iterations, a
1e-12 floor on normalized row norms and on the singular-vector entries a
ratio divides, and a ratio clip at ``log(n)`` for a side with ``n`` nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy  # a sparse input has loaded scipy.sparse

from .errors import BidfmError, DomainError, UnsupportedError, ValidationError
from .linalg import (ZERO_FLOOR, SvdFactors, _count, _issparse, as_matrix, kmeans, row_normalize,
                     truncated_svd)
from .model import Membership

# (operator, read-out) of each method, as in the table above
_PIPELINES = {
    "bisc": ("adjacency", "raw"),
    "nbisc": ("adjacency", "normalize"),
    "disim": ("laplacian", "normalize"),
    "dscore": ("adjacency", "ratio"),
    "rdscore": ("laplacian", "ratio"),
}
ALGORITHMS = tuple(_PIPELINES)


@dataclass(frozen=True)
class DetectionResult:
    row_labels: Membership
    col_labels: Membership
    singular_values: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Embedding:
    """Leading ``min(k_r, k_c)`` singular triplets of one operator of a
    matrix: what every method on that operator reads out, built once per
    operator by ``run_algorithms`` and passed to each method in place of the
    matrix.

    When ``transposed`` (``k_r > k_c``) the factors decompose the operator of
    the transposed matrix, so the left factor always belongs to the side with
    fewer clusters.  ``regularizers`` are the Laplacian's ``(row, column)``
    degree regularizers and ``None`` for the adjacency; ``factors.path`` says
    which SVD path ran.  ``shift`` is what ``shift_nonnegative`` added to
    every entry before the Laplacian was formed, 0.0 when nothing was.
    """

    factors: SvdFactors
    transposed: bool
    regularizers: tuple | None
    shift: float


def _laplacian(a):
    """Regularized bipartite Laplacian ``D_r^-1/2 A D_c^-1/2``; each side's
    mean degree is added to that side's degrees.  A sparse matrix gets the
    two diagonal scalings as sparse products, rows first as in the dense
    formula, so each stored entry takes the dense value for the same
    degrees; its degrees sum its stored entries, which is exact for integer
    weights.  A regularized degree beyond the float range is a
    ``DomainError``."""
    with np.errstate(over="ignore"):
        d_r = a.sum(axis=1)
        d_c = a.sum(axis=0)
        tau_r, tau_c = float(d_r.mean()), float(d_c.mean())
        d_r, d_c = d_r + tau_r, d_c + tau_c
    if not (np.isfinite(d_r).all() and np.isfinite(d_c).all()):
        raise DomainError("the Laplacian needs regularized degrees within the float range")
    with np.errstate(divide="ignore"):
        inv_r = np.where(d_r > 0, 1.0 / np.sqrt(d_r), 0.0)
        inv_c = np.where(d_c > 0, 1.0 / np.sqrt(d_c), 0.0)
    if _issparse(a):
        scaled = scipy.sparse.diags_array(inv_r) @ a @ scipy.sparse.diags_array(inv_c)
    else:
        scaled = inv_r[:, None] * a * inv_c[None, :]
    return scaled, (tau_r, tau_c)


def _ratio_matrix(u):
    """Entrywise ratios of trailing singular-vector columns to the leading
    one, clipped to ``[-log n, log n]`` for ``n`` rows (``n >= 2`` wherever a
    ratio method runs).  Entries below ``ZERO_FLOOR`` count as exact zeros,
    so a node with no edges gets ratio 0 whatever roundoff the SVD left in
    its row; a vanishing leading entry under a non-zero numerator saturates
    at the clip bound."""
    t = float(np.log(u.shape[0]))
    u = np.where(np.abs(u) < ZERO_FLOOR, 0.0, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = u[:, 1:] / u[:, :1]
    ratios = np.nan_to_num(ratios, nan=0.0, posinf=t, neginf=-t)
    return np.clip(ratios, -t, t)


def _checked(a, k_r, k_c):
    a = as_matrix(a, sparse=True)
    _count(k_r, "k_r", a.shape[0])
    _count(k_c, "k_c", a.shape[1])
    return a


def _check_readout(readout, k_r, k_c):
    if readout == "ratio" and min(k_r, k_c) < 2:
        raise UnsupportedError("ratio method needs min(k_r, k_c) >= 2")


def _embed(a, k_r, k_c, operator):
    """Decompose ``operator`` (``'adjacency'`` or ``'laplacian'``) of a matrix
    that passed ``_checked``; the one transpose site."""
    a, shift = shift_nonnegative(a) if operator == "laplacian" else (a, 0.0)
    transposed = k_r > k_c
    if transposed:
        a = a.T
    regularizers = None
    if operator == "laplacian":
        a, regularizers = _laplacian(a)
        if transposed:
            regularizers = regularizers[::-1]
    factors = truncated_svd(a, min(k_r, k_c))
    return Embedding(factors, transposed, regularizers, shift)


def _read_out(embedding, readout, k_r, k_c, seed):
    """Read each side's singular-vector rows out (``'raw'``, ``'normalize'``
    or ``'ratio'``) and run k-means on them."""
    factors = embedding.factors
    sides = ("col", "row") if embedding.transposed else ("row", "col")
    counts = {"row": k_r, "col": k_c}
    fits, degenerate = {}, {}
    for side, x in zip(sides, (factors.left, factors.right)):
        if readout == "normalize":
            normalized = row_normalize(x)
            x, degenerate[side] = normalized.matrix, normalized.degenerate_rows
        elif readout == "ratio":
            x = _ratio_matrix(x)
        fits[side] = kmeans(x, counts[side], seed=seed)
    diagnostics = {f"{side}_{key}": getattr(fits[side], key)
                   for key in ("objective", "restart_objectives", "iterations", "converged")
                   for side in ("row", "col")}
    if degenerate:
        diagnostics["degenerate_rows"] = degenerate["row"]
        diagnostics["degenerate_cols"] = degenerate["col"]
    if embedding.regularizers is not None:
        diagnostics["regularizers"] = embedding.regularizers
    diagnostics["svd_path"] = factors.path
    if embedding.shift:
        diagnostics["shift"] = embedding.shift
    rows, cols = (Membership(fits[side].labels, n_clusters=counts[side])
                  for side in ("row", "col"))
    return DetectionResult(rows, cols, factors.singular_values, diagnostics)


def _cocluster(name, a, k_r, k_c, seed):
    """The pipeline behind every method, on a matrix or on the ``Embedding``
    that ``run_algorithms`` built for it; checks run in the same order for
    both."""
    operator, readout = _PIPELINES[name]
    given = isinstance(a, Embedding)
    if not given:
        a = _checked(a, k_r, k_c)
    _check_readout(readout, k_r, k_c)
    embedding = a if given else _embed(a, k_r, k_c, operator)
    return _read_out(embedding, readout, k_r, k_c, seed)


def bisc(a, k_r: int, k_c: int, *, seed: int = 0) -> DetectionResult:
    """Bipartite spectral co-clustering on raw singular vectors.

    Runs k-means with ``k_r`` clusters on the rows of the left factor and
    ``k_c`` clusters on the rows of the right factor of the
    min(k_r, k_c)-dimensional SVD of ``a``.  To run it next to other
    methods on one SVD, use ``run_algorithms``.
    """
    return _cocluster("bisc", a, k_r, k_c, seed)


def nbisc(a, k_r: int, k_c: int, *, seed: int = 0) -> DetectionResult:
    """Degree-corrected variant: cluster row-normalized singular vectors.

    Rows whose embedding norm falls below 1e-12 cannot be normalized; they
    keep their raw coordinates, still receive a label, and are reported under
    ``diagnostics['degenerate_rows']`` / ``['degenerate_cols']``.
    """
    return _cocluster("nbisc", a, k_r, k_c, seed)


def disim(a, k_r: int, k_c: int, *, seed: int = 0) -> DetectionResult:
    """Regularized-Laplacian co-clustering baseline.

    Each side's regularizer is its mean degree, added to every degree on
    that side, and the two are reported under
    ``diagnostics['regularizers']`` as ``(row, column)``.  A signed dense
    matrix is first shifted to non-negative entries (``shift_nonnegative``)
    and a non-zero shift is reported under ``diagnostics['shift']``.
    Singular-vector rows are unit-normalized before k-means, and rows too
    short to normalize are reported as in ``nbisc``.
    """
    return _cocluster("disim", a, k_r, k_c, seed)


def dscore(a, k_r: int, k_c: int, *, seed: int = 0) -> DetectionResult:
    """Singular-vector-ratio baseline; needs at least two singular vectors.

    Dividing the trailing columns by the leading one cancels per-node scale
    factors, so the method tolerates degree heterogeneity by construction.
    Ratios are clipped at ``log(n)`` for a side with ``n`` nodes.
    """
    return _cocluster("dscore", a, k_r, k_c, seed)


def rdscore(a, k_r: int, k_c: int, *, seed: int = 0) -> DetectionResult:
    """Ratio method on the regularized Laplacian instead of the adjacency."""
    return _cocluster("rdscore", a, k_r, k_c, seed)


def shift_nonnegative(a) -> tuple:
    """Add a constant making every entry positive; returns (matrix, shift).

    A matrix with no negative entry is returned untouched with shift 0.
    Otherwise the shift is ``-min + 0.01 * range`` (range replaced by 1 when
    the matrix is constant), so the smallest shifted entry stays strictly
    positive.  A signed ``scipy.sparse`` matrix raises ``DomainError``: the
    shift would fill every zero entry in.  A shifted entry that overflows
    raises ``DimensionError``.
    """
    a = as_matrix(a, sparse=True)
    lo, hi = float(a.min()), float(a.max())
    if lo >= 0:
        return a, 0.0
    if _issparse(a):
        raise DomainError(
            "a signed sparse matrix cannot be shifted to non-negative entries "
            "without filling in every zero entry; pass it as a dense array"
        )
    spread = hi - lo
    shift = -lo + 0.01 * (spread if spread > 0 else 1.0)
    with np.errstate(over="ignore"):  # as_matrix rejects what overflowed
        return as_matrix(a + shift), shift


def run_algorithms(names, a, k_r: int, k_c: int, seed: int = 0) -> list:
    """Run several methods on one matrix, each as it would run alone.

    Returns ``[(name, DetectionResult or BidfmError), ...]`` in the order of
    ``names``: a method that fails gives the error it would raise alone, and
    the others still run.  Each operator is decomposed at most once, so an
    embedding that fails is the failure of every method sharing it.
    """
    unknown = [name for name in names if name not in ALGORITHMS]
    if unknown:
        raise ValidationError(f"unknown algorithm {unknown[0]!r}; choose from {ALGORITHMS}")
    # every method checks the matrix and counts before anything else
    try:
        a = _checked(a, k_r, k_c)
    except BidfmError as exc:
        return [(name, exc) for name in names]
    embeddings, outcomes = {}, []
    for name in names:
        operator, readout = _PIPELINES[name]
        try:
            _check_readout(readout, k_r, k_c)
            if operator not in embeddings:
                try:
                    embeddings[operator] = _embed(a, k_r, k_c, operator)
                except BidfmError as exc:
                    embeddings[operator] = exc
            outcome = embeddings[operator]
            if isinstance(outcome, Embedding):
                # Looked up by name on the module at call time, so a wrapper
                # bound over a method's module attribute (an instrumenting
                # tracer) is what runs.
                outcome = globals()[name](outcome, k_r, k_c, seed=seed)
        except BidfmError as exc:
            outcome = exc
        outcomes.append((name, outcome))
    return outcomes
