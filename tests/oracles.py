"""Independent reference implementations used only to check the library.

Everything here deliberately avoids the code paths under test: the SVD is a
one-sided Jacobi iteration rather than LAPACK, metrics are evaluated by
direct formula translation and full permutation enumeration, and expected
adjacencies come from triple loops over one-hot matrices.
"""
import itertools
import math

import numpy as np


def jacobi_svd(a, max_sweeps=100, tol=1e-14):
    """Full SVD by one-sided Jacobi rotations.

    Returns ``(u, s, v)`` with ``a = u @ diag(s) @ v.T`` and singular values
    sorted in non-increasing order.  Intended for small dense matrices.
    """
    a = np.asarray(a, dtype=float)
    transposed = a.shape[0] < a.shape[1]
    g = (a.T if transposed else a).copy()
    n, m = g.shape
    v = np.eye(m)
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(m - 1):
            for j in range(i + 1, m):
                alpha = g[:, i] @ g[:, i]
                beta = g[:, j] @ g[:, j]
                gamma = g[:, i] @ g[:, j]
                if abs(gamma) <= tol * math.sqrt(alpha * beta) or gamma == 0.0:
                    continue
                off = max(off, abs(gamma))
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (
                    abs(zeta) + math.sqrt(1.0 + zeta * zeta)
                )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                gi = g[:, i].copy()
                g[:, i] = c * gi - s * g[:, j]
                g[:, j] = s * gi + c * g[:, j]
                vi = v[:, i].copy()
                v[:, i] = c * vi - s * v[:, j]
                v[:, j] = s * vi + c * v[:, j]
        if off == 0.0:
            break
    norms = np.linalg.norm(g, axis=0)
    order = np.argsort(norms)[::-1]
    norms = norms[order]
    g = g[:, order]
    v = v[:, order]
    u = np.zeros_like(g)
    nonzero = norms > 0
    u[:, nonzero] = g[:, nonzero] / norms[nonzero]
    if transposed:
        return v, norms, u
    return u, norms, v


def brute_force_expected_adjacency(row_labels, col_labels, p, rho=None,
                                   theta_r=None, theta_c=None):
    """Triple-loop evaluation of the expected adjacency through one-hot sums."""
    k_r, k_c = p.shape
    n_r, n_c = len(row_labels), len(col_labels)
    z_r = np.zeros((n_r, k_r))
    z_c = np.zeros((n_c, k_c))
    for i, g in enumerate(row_labels):
        z_r[i, g - 1] = 1.0
    for j, g in enumerate(col_labels):
        z_c[j, g - 1] = 1.0
    out = np.zeros((n_r, n_c))
    for i in range(n_r):
        for j in range(n_c):
            total = 0.0
            for k in range(k_r):
                for l in range(k_c):
                    total += z_r[i, k] * p[k, l] * z_c[j, l]
            if rho is not None:
                total *= rho
            else:
                total *= theta_r[i] * theta_c[j]
            out[i, j] = total
    return out


def _clusters(labels, k):
    return [set(np.nonzero(np.asarray(labels) == c)[0]) for c in range(1, k + 1)]


def brute_force_hamming(estimated, truth, k):
    """Misassignment rate minimized by enumerating every relabeling."""
    estimated = np.asarray(estimated)
    truth = np.asarray(truth)
    n = len(truth)
    best = n + 1
    for perm in itertools.permutations(range(1, k + 1)):
        relabeled = np.array([perm[e - 1] for e in estimated])
        best = min(best, int((relabeled != truth).sum()))
    return best / n


def brute_force_assignment(cost):
    """Least total cost of matching each line of the shorter side of
    ``cost`` to a distinct line of the other, by enumerating every injection."""
    cost = np.asarray(cost)
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    rows = range(cost.shape[0])
    return min(sum(cost[i, cols[i]] for i in rows)
               for cols in itertools.permutations(range(cost.shape[1]), len(rows)))


def brute_force_criterion(estimated, truth, k):
    """Worst-cluster symmetric-difference criterion by full enumeration."""
    est_sets = _clusters(estimated, k)
    truth_sets = _clusters(truth, k)
    universe = set(range(len(truth)))
    best = math.inf
    for perm in itertools.permutations(range(k)):
        worst = 0.0
        for c in range(k):
            t = truth_sets[c]
            e = est_sets[perm[c]]
            if not t:
                if e:
                    worst = math.inf
                continue
            miss = len(t & (universe - e)) + len((universe - t) & e)
            worst = max(worst, miss / len(t))
        best = min(best, worst)
    return best


def direct_nmi(confusion):
    """Literal evaluation of the mutual-information formula on a confusion
    matrix, with the 0 log 0 = 0 convention."""
    c = np.asarray(confusion, dtype=float)
    n = c.sum()
    row = c.sum(axis=1)
    col = c.sum(axis=0)
    numerator = 0.0
    for k in range(c.shape[0]):
        for l in range(c.shape[1]):
            if c[k, l] > 0:
                numerator += c[k, l] * math.log(c[k, l] * n / (row[k] * col[l]))
    numerator *= -2.0
    denominator = 0.0
    for k in range(c.shape[0]):
        if row[k] > 0:
            denominator += row[k] * math.log(row[k] / n)
    for l in range(c.shape[1]):
        if col[l] > 0:
            denominator += col[l] * math.log(col[l] / n)
    if denominator == 0.0:
        return 1.0
    return numerator / denominator


def direct_ari(confusion):
    """Literal evaluation of the adjusted Rand formula on a confusion matrix."""
    c = np.asarray(confusion, dtype=np.int64)
    n = int(c.sum())
    index = sum(math.comb(int(x), 2) for x in c.ravel())
    rows = sum(math.comb(int(x), 2) for x in c.sum(axis=1))
    cols = sum(math.comb(int(x), 2) for x in c.sum(axis=0))
    total = math.comb(n, 2)
    expected = rows * cols / total
    maximum = (rows + cols) / 2.0
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


def confusion_of(estimated, truth, k_truth, k_est):
    c = np.zeros((k_truth, k_est), dtype=np.int64)
    for e, t in zip(estimated, truth):
        c[t - 1, e - 1] += 1
    return c


def exhaustive_kmeans_objective(points, k=2):
    """Globally optimal k-means objective by enumerating all k-partitions
    (k = 2 only; every nonempty bipartition of the points)."""
    assert k == 2
    points = np.asarray(points, dtype=float)
    n = len(points)
    best = math.inf
    for mask in range(1, 2 ** (n - 1)):  # fix point 0 in part A: halves the work
        part = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        part = np.concatenate(([False], part[: n - 1]))
        a, b = points[~part], points[part]
        if len(a) == 0 or len(b) == 0:
            continue
        obj = 0.0
        for block in (a, b):
            centroid = block.mean(axis=0)
            obj += ((block - centroid) ** 2).sum()
        best = min(best, obj)
    return best


# The sequential k-means that ran one restart after another before the
# restarts ran in lockstep, kept verbatim as the reference for that rewrite.

def _sequential_squared_distances(x, centers):
    diff = x[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _sequential_kmeans_pp_init(x, k, rng):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = _sequential_squared_distances(x, centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centers[j] = x[idx]
        d2 = np.minimum(d2, _sequential_squared_distances(x, centers[j : j + 1]).ravel())
    return centers


def _sequential_one_row_per_cluster(x, labels):
    return np.array_equal(x, x[np.unique(labels, return_index=True)[1]][labels])


def sequential_lloyd(x, centers, max_iter):
    """One restart's Lloyd iterations: ``(labels, centers, objective,
    iterations, converged, history)`` with 0-based labels."""
    k = centers.shape[0]
    labels = np.full(x.shape[0], -1)
    history = []
    iterations = 0
    converged = settled = False
    for iterations in range(1, max_iter + 1):
        d2 = _sequential_squared_distances(x, centers)
        new_labels = d2.argmin(axis=1)
        dist_to_own = d2[np.arange(x.shape[0]), new_labels]
        sizes = np.bincount(new_labels, minlength=k)
        empties = np.nonzero(sizes == 0)[0]
        for empty in empties:
            far = int(np.where(sizes[new_labels] > 1, dist_to_own, -np.inf).argmax())
            sizes[new_labels[far]] -= 1
            sizes[empty] = 1
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
        settled = len(empties) > 0 and _sequential_one_row_per_cluster(x, labels)
        if settled and was_settled:
            converged = True
            break
    d2 = _sequential_squared_distances(x, centers)
    objective = float(d2[np.arange(x.shape[0]), labels].sum())
    return labels, centers, objective, iterations, converged, history


def sequential_kmeans(x, k, seed, restarts=10, max_iter=300):
    """Best of ``restarts`` sequential runs: a list with one ``(labels,
    centers, objective, iterations, converged)`` per restart (1-based
    labels), and the index of the first restart with the least objective."""
    x = np.asarray(x, dtype=float)
    runs = []
    for r in range(restarts):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        )
        centers = _sequential_kmeans_pp_init(x, k, rng)
        labels, centers, objective, iterations, converged, _ = sequential_lloyd(
            x, centers, max_iter
        )
        runs.append((labels + 1, centers, objective, iterations, converged))
    best = 0
    for r, run in enumerate(runs):
        if run[2] < runs[best][2]:
            best = r
    return runs, best
