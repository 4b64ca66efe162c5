"""Matrix primitives: truncated SVD, row normalization and k-means.

Everything here is a pure function of its inputs; seeds are explicit, so
concurrent callers never share state.
"""
from __future__ import annotations

import importlib
import inspect
import numbers
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import ConvergenceError, DimensionError, ValidationError

# Up to this smaller side a full LAPACK decomposition is cheaper than
# Lanczos.  Measured medians of 61 calls of truncated_svd(a, 2) on signed
# +/-1 block matrices at aspect 1.5 (2 cores, OpenBLAS), as Lanczos / LAPACK
# time: 1.7 at 80, 0.9-1.2 at 90 (level, 2-3 ms), 0.7-1.1 at 100, 0.5 at
# 110 and 0.08 at 600 (14 vs 170 ms).
_DENSE_SIDE = 90

# Lanczos multiplies by a CSR copy instead of the dense array when at most
# this share of the entries is nonzero.  Measured medians of truncated_svd(a,
# 3) on 0/1 block matrices, CSR build (from the mask) included, as CSR /
# dense-array time (2 cores, OpenBLAS): at 600x900 0.31 at 2%, 0.50 at 5%,
# 0.67 at 8% and 0.80 at 10%; 0.41 at 5% and 0.62 at 10% at 1000x1500; 0.18
# at 1%, 0.48 at 5% and 0.76 at 10% at 3000x3000.  At 200x300 both take 4-7
# ms and CSR takes 0.99x the dense-array time at 2%, 1.07x at 5% and 1.21x
# at 10%.  A higher share moves labels where zero-degree nodes exist, so
# the share stays until a change checks them across the new boundary.
_SPARSE_SHARE = 0.05

# Row norms and singular-vector entries below this are roundoff to the
# read-outs: too short to normalize, or an exact zero in a ratio.
ZERO_FLOOR = 1e-12

# k-means keeps the best of this many seeded restarts, each capped at this
# many Lloyd iterations.
_RESTARTS = 10
_MAX_ITER = 300


def _issparse(m):
    """Whether ``m`` is a ``scipy.sparse`` matrix.  None exists before
    ``scipy.sparse`` is imported, so the test never imports it."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(m)


# entry kinds that numpy casts to float but that are not numbers
_NOT_NUMBERS = {"U": "strings", "S": "bytes", "b": "booleans"}


def as_matrix(m, name: str = "matrix", sparse: bool = False):
    """Coerce to a 2-D float64 array and reject NaN/Inf entries.

    With ``sparse``, a ``scipy.sparse`` matrix comes back as a float64 CSR
    array (sharing the caller's values where no conversion is needed) and
    only its stored values are checked; without it, a sparse matrix raises
    ``DimensionError``.  Complex, non-numeric and ragged input raise
    ``ValidationError``, and so do strings, bytes and booleans, dense or
    sparse, in an array of their own or as entries of an object array.
    """
    is_sparse = _issparse(m)
    if is_sparse and not sparse:
        raise DimensionError(f"{name} must be a dense array, got a scipy.sparse matrix")
    try:
        if not is_sparse:
            m = np.asarray(m)
    except (TypeError, ValueError) as exc:  # ragged
        raise ValidationError(f"{name} must be an array of real numbers: {exc}") from None
    kind = m.dtype.kind
    if kind == "O":
        kind = next((np.asarray(v).dtype.kind for v in m.flat
                     if isinstance(v, (str, bytes, bool, np.bool_))), kind)
    if kind in _NOT_NUMBERS:
        raise ValidationError(f"{name} must be an array of real numbers, got {_NOT_NUMBERS[kind]}")
    if kind == "c":
        raise ValidationError(f"{name} must be real, got dtype {m.dtype}")
    try:
        a = scipy.sparse.csr_array(m, dtype=float) if is_sparse else m.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:  # not numbers
        raise ValidationError(f"{name} must be an array of real numbers: {exc}") from None
    values = a.data if is_sparse else a
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if 0 in a.shape:
        raise DimensionError(f"{name} must be non-empty")
    if not np.all(np.isfinite(values)):
        raise DimensionError(f"{name} contains non-finite entries")
    return a


def _count(value, name: str, most: int | None = None):
    """Check a count of clusters or singular triplets: ``ValidationError``
    unless ``value`` is an integer (not a bool), ``DimensionError`` unless it
    is in ``[1, most]`` (at least 1 when ``most`` is None)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 1 or (most is not None and value > most):
        span = "at least 1" if most is None else f"in [1, {most}]"
        raise DimensionError(f"{name}={value} must be {span}")


def _positive(value, strict: bool = True, finite: bool = False) -> bool:
    """Whether ``value`` is a real number, not a bool, above 0 (at least 0
    unless ``strict``) and, if ``finite``, no larger than the largest float."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (value > 0 if strict else value >= 0)
            and not (finite and value > sys.float_info.max))


@dataclass(frozen=True)
class SvdFactors:
    """Leading singular triplets: ``left @ diag(singular_values) @ right.T``.

    Columns of ``left`` and ``right`` are orthonormal; singular values are
    sorted in non-increasing order and column signs are canonicalized so the
    largest-magnitude entry of each left singular vector is positive.
    ``path`` names the code path of ``truncated_svd`` that computed them:
    ``'dense'`` (LAPACK), ``'lanczos'`` (ARPACK multiplying by the dense
    array) or ``'sparse'`` (ARPACK multiplying by a CSR operand); ``None``
    for factors built otherwise.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray
    path: str | None = None


def _canonicalize_signs(u, vt):
    """Flip singular-vector pairs so each left vector's peak entry is > 0."""
    peaks = np.abs(u).argmax(axis=0)
    signs = np.sign(u[peaks, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, vt * signs[:, None]


def _lanczos(a, k, v0, maxiter):
    """``scipy.sparse.linalg.svds(a, k, v0=v0, maxiter=maxiter, tol=1e-10)``
    step for step, but the triplets keep LAPACK's non-increasing order, and
    where ``eigsh`` takes a generator (``rng``), ARPACK restarts a Krylov
    space that runs out (as on a constant matrix) from a seeded one, not
    from fresh OS entropy.  An ``eigsh`` without ``rng`` restarts from
    ARPACK's own generator, whose state carries over from call to call.
    The products multiply ``a`` itself: ``a @ x`` and ``a.T @ y`` for a CSR
    array, and for a C-ordered array scipy's ``dgemv`` on the F-ordered view
    ``a.T``, which copies nothing and runs in ARPACK's own BLAS thread pool,
    where ``a @ x`` would run in numpy's."""
    at = a.T
    if _issparse(a):
        products = (lambda x: a @ x), (lambda y: at @ y)
    else:
        gemv = scipy.linalg.blas.dgemv
        products = (lambda x: gemv(1.0, at, x, trans=1)), (lambda y: gemv(1.0, at, y))
    # the Gram matrix is the smaller side's: ``first`` maps it onto the larger
    swap = a.shape[0] < a.shape[1]
    first, second = products[::-1] if swap else products
    gram = scipy.sparse.linalg.LinearOperator(
        (min(a.shape),) * 2, matvec=lambda x: second(first(x)), dtype=a.dtype)
    eigsh = scipy.sparse.linalg.eigsh
    takes_rng = "rng" in inspect.signature(eigsh).parameters
    vectors = eigsh(gram, k=k, tol=1e-10 ** 2, maxiter=maxiter, v0=v0,
                    **({"rng": np.random.default_rng(0)} if takes_rng else {}))[1]
    vectors = np.linalg.qr(vectors)[0]
    u, s, vh = scipy.linalg.svd(np.column_stack([first(v) for v in vectors.T]),
                                full_matrices=False, overwrite_a=True)
    return (vectors @ vh.T, s, u.T) if swap else (u, s, vh @ vectors.T)


def truncated_svd(m, k: int) -> SvdFactors:
    """Compute the ``k`` leading singular triplets of a dense or
    ``scipy.sparse`` matrix.

    Lanczos iteration (ARPACK, with a fixed start vector) computes only the
    ``k`` triplets asked for; LAPACK's full decomposition takes over where
    that does not pay: a smaller side of at most 90, where the dense call
    is cheaper, ``k > 25`` or ``5 * k >= min(n, p)``, and the all-zero
    matrix.  Lanczos multiplies the scaled matrix directly: a CSR copy
    (``'sparse'``) when it is a sparse matrix or at most 5% of its entries
    are nonzero, and a C-ordered array (``'lanczos'``) otherwise, through
    scipy's BLAS (``dgemv``), the one ARPACK itself calls.  A dense
    matrix's nonzeros are found once, in the boolean mask ``a != 0``: its
    count picks the path, and on ``'sparse'`` its positions give the CSR
    copy, the arrays ``scipy.sparse.csr_array(a)`` would hold, so a dense
    matrix and its CSR copy give the same bits.  The result is
    the same bits for C- and F-ordered input and from call to call (but see
    ``_lanczos`` for an older scipy), and ``path`` says which one ran; a
    sparse matrix is densified only for LAPACK.

    Every path decomposes the matrix scaled by the power of two that brings
    its largest entry into [0.5, 1), which is exact and keeps the products
    clear of overflow and underflow, and scales the singular values back;
    none comes back negative or ``-0.0``.  The exponent is applied with
    ``np.ldexp``, so an all-subnormal matrix, whose factor would overflow,
    scales too.

    Raises ``ValidationError`` for a non-integer ``k``, ``DimensionError``
    when ``k`` is out of range and ``ConvergenceError`` if the iterative
    path fails: with the number of triplets found when it exhausts its
    iteration cap, without one for any other ARPACK error.
    """
    a = as_matrix(m, sparse=True)
    n, p = a.shape
    _count(k, "k", min(n, p))
    sparse = _issparse(a)
    mask = None if sparse else a != 0
    nonzero = a.count_nonzero() if sparse else np.count_nonzero(mask)

    # An all-zero matrix gives Lanczos a zero starting vector, which it
    # rejects; LAPACK returns its (zero) spectrum like any other.
    if min(n, p) <= _DENSE_SIDE or k > 25 or 5 * k >= min(n, p) or not nonzero:
        path = "dense"
    elif sparse or nonzero <= _SPARSE_SHARE * n * p:
        path = "sparse"
    else:
        path = "lanczos"
    importlib.import_module("scipy.linalg" if path == "dense" else "scipy.sparse.linalg")
    if path == "sparse":
        # the scaled CSR copy, without a dense temporary: of a dense matrix,
        # scipy's csr_array(a) (int32 indices where they fit) read off the
        # mask.  Zeros are present, so the stored values hold the largest |entry|.
        if sparse:
            a = scipy.sparse.csr_array(a, copy=True)
        else:
            rows, cols = np.divmod(np.flatnonzero(mask), p)
            index = np.int32 if max(nonzero, p) <= np.iinfo(np.int32).max else np.int64
            a = scipy.sparse.csr_array(
                (a[rows, cols], cols.astype(index),
                 np.searchsorted(rows, np.arange(n + 1)).astype(index)), shape=(n, p))
        e = int(np.frexp(max(a.data.max(), -a.data.min()))[1])
        a.data = np.ldexp(a.data, -e)
    else:
        e = int(np.frexp(max(a.max(), -a.min()))[1])
        # C order whatever the input's, so both orders take the same products
        a = np.ldexp(a.toarray() if sparse else a, -e, order="C")

    if path == "dense":
        u, s, vt = scipy.linalg.svd(a, full_matrices=False)
        u, s, vt = u[:, :k], s[:k], vt[:k, :]
    else:
        operand = "a CSR operand" if path == "sparse" else "the dense array"
        v0 = np.linspace(1.0, 2.0, min(n, p))
        v0 /= np.linalg.norm(v0)
        try:
            u, s, vt = _lanczos(a, k, v0, 1000 * k)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            found = len(exc.eigenvalues) if exc.eigenvalues is not None else 0
            raise ConvergenceError(
                f"SVD (Lanczos on {operand}) did not converge within "
                f"{1000 * k} iterations ({found}/{k} triplets found)",
                found=found,
            ) from exc
        except scipy.sparse.linalg.ArpackError as exc:
            raise ConvergenceError(f"SVD (Lanczos on {operand}) failed: {exc}") from exc

    u, vt = _canonicalize_signs(u, vt)
    with np.errstate(over="ignore"):  # a singular value beyond the float range is inf
        s = np.ldexp(np.where(s > 0.0, s, 0.0), e)
    return SvdFactors(left=u, singular_values=s, right=vt.T, path=path)


@dataclass(frozen=True)
class RowNormalization:
    """Row-normalized matrix plus the (1-based) indices of rows too short to
    normalize, which are passed through unchanged."""

    matrix: np.ndarray
    degenerate_rows: tuple


def row_normalize(m) -> RowNormalization:
    """Scale each row to unit Euclidean norm.

    Rows with norm below ``ZERO_FLOOR`` are kept as-is and reported rather
    than perturbed: in the population model every row is nonzero, so
    degenerate rows signal noise or rank deficiency and should stay visible.
    """
    a = as_matrix(m)
    # each row scaled by the power of two that brings its largest |entry|
    # into [0.5, 1), as in truncated_svd: exact, and the squares in its norm
    # can neither overflow nor all underflow
    e = np.frexp(np.abs(a).max(axis=1, keepdims=True))[1]
    scaled = np.ldexp(a, -e)
    norms = np.linalg.norm(scaled, axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf norm; a zero row's 0/0
        degenerate = np.ldexp(norms[:, 0], e[:, 0]) < ZERO_FLOOR
        out = scaled / norms
    out[degenerate] = a[degenerate]
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
    restart_objectives: tuple  # final objective of each restart, in restart order


def _rng(seed, spawn_key=()):
    """Philox generator for a non-negative integer ``seed``, one stream per
    ``spawn_key``; raises ``ValidationError`` for any other seed."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=spawn_key))
    )


def _squared_distances(planes, centers):
    """(K, R, n) squared Euclidean distances from the rows of each of the R
    restarts' inputs to its K centers ``centers`` (R, K, d).  The inputs come
    as their coordinate planes ``planes`` (d, R, n), or (d, 1, n) for one
    input that every restart shares.  Each distance is summed from explicit
    differences (stable under orthogonal transformations of the data) in
    coordinate order, ((a0 + a1) + a2) + ..., and each pass runs along a
    contiguous (R, n) plane, not along the short d axis."""
    d = planes.shape[0]
    n_restarts, k, _ = centers.shape
    out = np.empty((k, n_restarts, planes.shape[2]))
    term = np.empty(out.shape[1:])
    for c in range(k):
        for j in range(d):
            plane = out[c] if j == 0 else term
            np.subtract(planes[j], centers[:, c, j, None], out=plane)
            np.multiply(plane, plane, out=plane)
            if j:
                np.add(out[c], term, out=out[c])
    return out


def _kmeans_pp_init(x, k, rngs):
    """Seed k centers per generator by D^2-weighted sampling (k-means++):
    (len(rngs), k, d), each center set drawn from its own generator."""
    n = x.shape[0]
    planes = x.T[:, None]
    picks = np.empty((len(rngs), k), dtype=np.intp)
    picks[:, 0] = [rng.integers(n) for rng in rngs]
    d2 = _squared_distances(planes, x[picks[:, :1]])[0]
    for j in range(1, k):
        totals = d2.sum(axis=1).tolist()
        cumulative = np.cumsum(d2, axis=1)
        for r, rng in enumerate(rngs):
            if totals[r] <= 0.0:
                # all remaining points coincide with chosen centers
                picks[r, j] = rng.integers(n)
            else:
                point = rng.random() * totals[r]
                picks[r, j] = min(int(np.searchsorted(cumulative[r], point, side="right")), n - 1)
        d2 = np.minimum(d2, _squared_distances(planes, x[picks[:, j : j + 1]])[0])
    return x[picks]


def _one_row_per_cluster(x, labels):
    """Whether every cluster holds copies of a single row."""
    return np.array_equal(x, x[np.unique(labels, return_index=True)[1]][labels])


def _repair_empty(labels, dist_to_own, sizes):
    """Move the point farthest from its centroid, among the clusters with two
    or more members, into each empty cluster in turn (in place)."""
    for empty in np.nonzero(sizes == 0)[0]:
        far = int(np.where(sizes[labels] > 1, dist_to_own, -np.inf).argmax())
        sizes[labels[far]] -= 1
        sizes[empty] = 1  # a point repairs at most one empty cluster
        labels[far] = empty
        dist_to_own[far] = 0.0


def _lloyd(x, centers, max_iter):
    """Lloyd iterations from each of the ``R`` center sets ``centers``
    (R, K, d), run in lockstep: every iteration advances the restarts that
    are still running, and a restart stops as it would alone.  ``x`` is one
    input (n, d) that every restart clusters, or one input per restart
    (R, n, d).

    A point equidistant to several centers joins the lowest-index one, an
    empty cluster is repaired with the farthest point of a cluster with two
    or more members, and centroid sums run over the rows in order.  With
    fewer distinct rows than clusters, the assignment merges copies that the
    repair split, so the two could trade points forever: a restart stops at
    the second repair in a row that leaves one row per cluster.

    Returns ``(labels (R, n), centers, objectives (R,), iterations,
    converged (R,), histories)``: ``iterations`` is the total over the
    restarts, and ``histories[r]`` holds restart ``r``'s objective after
    each assignment, one entry per iteration it ran."""
    n_restarts, k, d = centers.shape
    x = np.broadcast_to(x, (n_restarts, *x.shape[-2:]))
    n = x.shape[1]
    labels = np.empty((n_restarts, n), dtype=np.intp)
    centers = centers.copy()
    objectives = np.empty(n_restarts)
    converged = np.zeros(n_restarts, dtype=bool)
    histories = [[] for _ in range(n_restarts)]
    offsets = k * np.arange(n_restarts)[:, None]  # (restart, cluster) ids for bincount
    # the running restarts: their indices, input planes, labels, centers and
    # settled flags
    run = np.arange(n_restarts)
    run_planes = np.ascontiguousarray(np.moveaxis(x, 2, 0))
    run_labels = np.full((n_restarts, n), -1, dtype=np.intp)
    run_centers = centers
    settled = np.zeros(n_restarts, dtype=bool)
    for iteration in range(1, max_iter + 1):
        m = len(run)
        # a sweep over the centers that keeps the lowest index on ties and
        # leaves each row's distance to its own center, without a gather
        d2 = _squared_distances(run_planes, run_centers)
        new_labels, dist_to_own = np.zeros((m, n), dtype=np.intp), d2[0]
        for c in range(1, k):
            new_labels[d2[c] < dist_to_own] = c
            np.minimum(dist_to_own, d2[c], out=dist_to_own)
        sizes = np.bincount((new_labels + offsets[:m]).ravel(), minlength=m * k).reshape(m, k)
        repaired = (sizes == 0).any(axis=1)
        for i in np.flatnonzero(repaired):
            _repair_empty(new_labels[i], dist_to_own[i], sizes[i])
        sums = dist_to_own.sum(axis=1)
        for r, total in zip(run.tolist(), sums.tolist()):
            histories[r].append(total)
        unchanged = (new_labels == run_labels).all(axis=1)
        run_labels = new_labels
        # unchanged labels give back the centers they were computed from
        ids = (new_labels + offsets[:m]).ravel()
        run_centers = np.stack(
            [np.bincount(ids, weights=plane.ravel(), minlength=m * k) for plane in run_planes],
            axis=1,
        ).reshape(m, k, d) / sizes[..., None]
        now_settled = np.zeros(m, dtype=bool)
        for i in np.flatnonzero(repaired & ~unchanged):
            now_settled[i] = _one_row_per_cluster(x[run[i]], new_labels[i])
        done = unchanged | (now_settled & settled)
        settled = now_settled
        converged[run[done]] = True
        if iteration == max_iter:
            done[:] = True  # the cap stops the rest unconverged
        if done.any():
            labels[run[done]] = run_labels[done]
            centers[run[done]] = run_centers[done]
            # unchanged labels leave the centers the sums were taken against
            # (a repaired row is alone in its cluster, at distance 0); a
            # settled stop or the cap has just moved them
            objectives[run[unchanged]] = sums[unchanged]
            moved = done & ~unchanged
            if moved.any():
                d2 = _squared_distances(run_planes[:, moved], run_centers[moved])
                own = np.take_along_axis(d2, run_labels[moved][None], axis=0)[0]
                objectives[run[moved]] = own.sum(axis=1)
            keep = ~done
            run, run_planes, run_labels, run_centers, settled = (
                run[keep], run_planes[:, keep], run_labels[keep], run_centers[keep], settled[keep]
            )
            if not len(run):
                break
    iterations = sum(len(history) for history in histories)
    return labels, centers, objectives, iterations, converged, histories


def _kmeans_fits(xs, k: int, seed: int) -> list:
    """``kmeans(x, k, seed)`` of each matrix ``x`` in ``xs`` (all with the
    same rows), as a list, from one lockstep ``_lloyd`` over every input's
    10 restarts.

    The 10 Philox generators are built once and rewound to their first state
    for each input, so each input seeds from the streams it would alone.  An
    input narrower than the widest gets zero columns; a zero coordinate
    adds an exact 0 to every distance and stays 0 in every centroid, so each
    input's labels, centroids, objectives, iterations and convergence are
    the bits it gets alone.
    """
    xs = [as_matrix(x) for x in xs]
    _count(k, "k", xs[0].shape[0])
    rngs = [_rng(seed, (r,)) for r in range(_RESTARTS)]
    states = [rng.bit_generator.state for rng in rngs]
    width = max(x.shape[1] for x in xs)
    padded, starts = [], []
    for x in xs:
        for rng, state in zip(rngs, states):
            rng.bit_generator.state = state
        padded.append(np.pad(x, ((0, 0), (0, width - x.shape[1]))))
        starts.append(_kmeans_pp_init(padded[-1], k, rngs))
    labels, centers, objectives, _, converged, histories = _lloyd(
        np.repeat(np.stack(padded), _RESTARTS, axis=0), np.concatenate(starts), _MAX_ITER)
    fits = []
    for i, x in enumerate(xs):
        span = slice(i * _RESTARTS, (i + 1) * _RESTARTS)
        best = span.start + int(objectives[span].argmin())  # the first restart with the least
        fits.append(KMeansResult(
            labels=labels[best] + 1,
            centroids=centers[best, :, : x.shape[1]],
            objective=float(objectives[best]),
            iterations=len(histories[best]),
            converged=bool(converged[best]),
            restart_objectives=tuple(objectives[span].tolist()),
        ))
    return fits


def kmeans(x, k: int, seed: int) -> KMeansResult:
    """Best of 10 seeded k-means++ restarts followed by Lloyd iterations,
    at most 300 per restart.

    Deterministic for fixed ``(x, k, seed)``.  Each restart seeds its
    centers from its own Philox stream, then the restarts run their Lloyd
    iterations in lockstep (``_lloyd``); the first restart with the least
    objective wins, and ``restart_objectives`` lists every restart's.  A
    point equidistant to several centroids joins the lowest-index one; an
    empty cluster is reseeded at the point farthest from its current
    centroid among the clusters with two or more members, so exactly ``k``
    clusters always come back.  Squared distances are summed in coordinate
    order and centroid sums run over the rows in order.  This is
    ``_kmeans_fits`` on one input; ``detect.run_algorithms``, which every
    detection method runs with its one name, calls that with one read-out
    per method, and each comes out as it does here.

    Raises ``ValidationError`` for a non-integer ``k`` or a seed that is not
    a non-negative integer, and ``DimensionError`` when ``k`` is not in
    ``[1, rows of x]``.
    """
    return _kmeans_fits([x], k, seed)[0]


def spectral_deviation(a, b) -> float:
    """Largest singular value of ``a - b`` (the spectral norm of the noise),
    from ``truncated_svd(a - b, 1)``."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(truncated_svd(a - b, 1).singular_values[0])
