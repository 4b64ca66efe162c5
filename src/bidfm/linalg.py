"""Dense matrix primitives: truncated SVD, row normalization and k-means.

Everything here is a pure function of its inputs; seeds are explicit, so
concurrent callers never share state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ConvergenceError, DimensionError

# Below this size (smaller side) a full LAPACK decomposition is cheaper and
# more robust than Lanczos; above it we only iterate when k is a small
# fraction of the spectrum.
_DENSE_SIDE = 600


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject NaN/Inf entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    if not np.all(np.isfinite(a)):
        raise DimensionError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdFactors:
    """Leading singular triplets: ``left @ diag(singular_values) @ right.T``.

    Columns of ``left`` and ``right`` are orthonormal; singular values are
    sorted in non-increasing order and column signs are canonicalized so the
    largest-magnitude entry of each left singular vector is positive.
    ``path`` names the code path that computed them: ``'dense'`` (LAPACK) or
    ``'lanczos'`` from ``truncated_svd``, ``None`` for factors built otherwise.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray
    path: str | None = None

    @property
    def rank(self) -> int:
        return len(self.singular_values)

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.T


def _canonicalize_signs(u, vt):
    """Flip singular-vector pairs so each left vector's peak entry is > 0."""
    peaks = np.abs(u).argmax(axis=0)
    signs = np.sign(u[peaks, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, vt * signs[:, None]


def truncated_svd(m, k: int, tol: float = 1e-10) -> SvdFactors:
    """Compute the ``k`` leading singular triplets of a dense matrix.

    Small problems go through LAPACK's full decomposition; large ones with
    few requested triplets use Lanczos iteration with a fixed start vector,
    so the result is deterministic either way.

    Both paths decompose the matrix scaled by the power of two that brings
    its largest entry into [0.5, 1), which is exact and keeps the products
    clear of overflow and underflow, and scale the singular values back;
    none comes back negative or ``-0.0``.

    Raises ``DimensionError`` when ``k`` is out of range and
    ``ConvergenceError`` if the iterative path fails: with the achieved
    residual when it exhausts its iteration cap, without one for any other
    ARPACK error.
    """
    a = as_matrix(m)
    n, p = a.shape
    if not 1 <= k <= min(n, p):
        raise DimensionError(f"k={k} out of range [1, {min(n, p)}]")
    scale = np.ldexp(1.0, -int(np.frexp(max(a.max(), -a.min()))[1]))
    a = a * scale

    # An all-zero matrix gives Lanczos a zero starting vector, which it
    # rejects; LAPACK returns its (zero) spectrum like any other.
    use_dense = (min(n, p) <= _DENSE_SIDE or k > 25 or 5 * k >= min(n, p)
                 or not a.any())
    if use_dense:
        u, s, vt = scipy.linalg.svd(a, full_matrices=False)
        u, s, vt = u[:, :k], s[:k], vt[:k, :]
    else:
        v0 = np.linspace(1.0, 2.0, min(n, p))
        v0 /= np.linalg.norm(v0)
        try:
            u, s, vt = scipy.sparse.linalg.svds(
                a, k=k, v0=v0, maxiter=1000 * k, tol=tol
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            achieved = len(exc.eigenvalues) if exc.eigenvalues is not None else 0
            raise ConvergenceError(
                f"SVD did not converge within {1000 * k} iterations "
                f"({achieved}/{k} triplets found)",
                residual=achieved,
            ) from exc
        except scipy.sparse.linalg.ArpackError as exc:
            raise ConvergenceError(f"SVD failed: {exc}") from exc
        order = np.argsort(s)[::-1]
        u, s, vt = u[:, order], s[order], vt[order, :]

    u, vt = _canonicalize_signs(u, vt)
    s = np.where(s > 0.0, s, 0.0) / scale
    return SvdFactors(left=u, singular_values=s, right=vt.T,
                      path="dense" if use_dense else "lanczos")


@dataclass(frozen=True)
class RowNormalization:
    """Row-normalized matrix plus the (1-based) indices of rows too short to
    normalize, which are passed through unchanged."""

    matrix: np.ndarray
    degenerate_rows: tuple


def row_normalize(m, eps: float = 1e-12) -> RowNormalization:
    """Scale each row to unit Euclidean norm.

    Rows with norm below ``eps`` are kept as-is and reported rather than
    perturbed: in the population model every row is nonzero, so degenerate
    rows signal noise or rank deficiency and should stay visible.
    """
    a = as_matrix(m)
    norms = np.linalg.norm(a, axis=1)
    degenerate = norms < eps
    safe = np.where(degenerate, 1.0, norms)
    out = a / safe[:, None]
    return RowNormalization(
        matrix=out, degenerate_rows=tuple(int(i) + 1 for i in np.nonzero(degenerate)[0])
    )


@dataclass(frozen=True)
class KMeansResult:
    labels: np.ndarray  # 1-based cluster indices, one per row of X
    centroids: np.ndarray  # (K, d)
    objective: float  # sum of squared distances to assigned centroids
    iterations: int
    converged: bool


def _squared_distances(x, centers):
    # (n, K) matrix of squared Euclidean distances, computed via explicit
    # differences: stable under orthogonal transformations of the data.
    diff = x[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeans_pp_init(x, k, rng):
    """Seed k centers by D^2-weighted sampling (k-means++)."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = _squared_distances(x, centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with chosen centers
            idx = rng.integers(n)
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centers[j] = x[idx]
        d2 = np.minimum(d2, _squared_distances(x, centers[j : j + 1]).ravel())
    return centers


def _one_row_per_cluster(x, labels):
    """Whether every cluster holds copies of a single row."""
    return np.array_equal(x, x[np.unique(labels, return_index=True)[1]][labels])


def _lloyd(x, centers, max_iter):
    """Lloyd iterations with lowest-index tie-breaking and farthest-point
    repair of empty clusters; records the objective after each assignment.

    With fewer distinct rows than clusters, the assignment merges copies that
    the repair split, so the two could trade points forever: the iterations
    stop at the second repair in a row that leaves one row per cluster."""
    k = centers.shape[0]
    labels = np.full(x.shape[0], -1)
    history = []
    iterations = 0
    converged = settled = False
    for iterations in range(1, max_iter + 1):
        d2 = _squared_distances(x, centers)
        new_labels = d2.argmin(axis=1)  # argmin picks the lowest index on ties
        dist_to_own = d2[np.arange(x.shape[0]), new_labels]
        sizes = np.bincount(new_labels, minlength=k)
        empties = np.nonzero(sizes == 0)[0]
        for empty in empties:
            far = int(np.where(sizes[new_labels] > 1, dist_to_own, -np.inf).argmax())
            sizes[new_labels[far]] -= 1
            sizes[empty] = 1  # a point repairs at most one empty cluster
            new_labels[far] = empty
            dist_to_own[far] = 0.0
        history.append(float(dist_to_own.sum()))
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        for j in range(k):
            centers[j] = x[labels == j].mean(axis=0)
        was_settled = settled
        settled = len(empties) > 0 and _one_row_per_cluster(x, labels)
        if settled and was_settled:
            converged = True
            break
    # final objective against the final centroids
    d2 = _squared_distances(x, centers)
    objective = float(d2[np.arange(x.shape[0]), labels].sum())
    return labels, centers, objective, iterations, converged, history


def kmeans(
    x,
    k: int,
    seed: int,
    restarts: int = 10,
    max_iter: int = 300,
) -> KMeansResult:
    """Best-of-``restarts`` seeded k-means++ followed by Lloyd iterations.

    Deterministic for fixed ``(x, k, seed, restarts, max_iter)``.  A point
    equidistant to several centroids joins the lowest-index one; an empty
    cluster is reseeded at the point farthest from its current centroid
    among the clusters with two or more members, so exactly ``k`` clusters
    always come back.
    """
    a = as_matrix(x)
    n = a.shape[0]
    if k < 1 or k > n:
        raise DimensionError(f"k={k} must be in [1, {n}] (rows of X)")

    best = None
    for r in range(restarts):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        )
        centers = _kmeans_pp_init(a, k, rng)
        labels, centers, objective, iterations, converged, _ = _lloyd(
            a, centers, max_iter
        )
        if best is None or objective < best.objective:
            best = KMeansResult(
                labels=labels + 1,
                centroids=centers,
                objective=objective,
                iterations=iterations,
                converged=converged,
            )
    return best


def spectral_deviation(a, b) -> float:
    """Largest singular value of ``a - b`` (the spectral norm of the noise)."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b, 2))
