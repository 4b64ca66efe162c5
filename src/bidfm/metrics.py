"""Partition-quality measures built on the confusion matrix.

The misassignment rate minimizes over cluster relabelings via optimal
assignment, normalized mutual information and the adjusted Rand index follow
the standard confusion-matrix formulas with exact integer binomials, and the
worst-cluster criterion reports the largest per-cluster symmetric-difference
proportion under the best relabeling.

Every function accepts either :class:`~bidfm.model.Membership` objects or
plain 1-based label sequences.  The relabelings come from the module's own
exact assignment solver in numpy, so scoring loads no scipy submodule:
``scipy.optimize`` would cost a cold ``bidfm evaluate`` about 0.4 s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .model import Membership


def _coerce_pair(estimated, truth):
    est = Membership.coerce(estimated)
    tru = Membership.coerce(truth)
    if len(est) != len(tru):
        raise DimensionError(
            f"partitions cover different node counts: {len(est)} vs {len(tru)}"
        )
    return est, tru


def confusion_matrix(estimated, truth) -> np.ndarray:
    """Counts of common nodes: entry (k, l) pairs the k-th truth cluster with
    the l-th estimated cluster, counting only the clusters that occur, in
    increasing label order.  No score depends on empty clusters, and a label
    such as 2**62 then needs no 2**62 columns."""
    est, tru = _coerce_pair(estimated, truth)
    tru_ids, rows = np.unique(tru.labels, return_inverse=True)
    est_ids, cols = np.unique(est.labels, return_inverse=True)
    counts = np.zeros((len(tru_ids), len(est_ids)), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    return counts


def hamming_error(estimated, truth) -> float:
    """Fraction of misassigned nodes under the best cluster relabeling.

    Solved exactly by maximum-weight assignment on the confusion matrix.
    When the cluster counts differ, the clusters of the larger partition
    left without a partner count as wholly misassigned.
    """
    return _hamming(confusion_matrix(estimated, truth))


def _hamming(c) -> float:
    n = int(c.sum())
    if c.shape[0] > c.shape[1]:
        c = c.T
    matched = int(c[np.arange(len(c)), _assignment(-c)].sum())
    return (n - matched) / n


def _assignment(cost) -> np.ndarray:
    """Columns of a least-cost assignment of the rows of the finite ``cost``,
    which has no more rows than columns, to distinct columns: entry i is row
    i's column.

    Jonker & Volgenant's shortest augmenting paths (1987), in the form Crouse
    (2016) gives.  A row reduction (duals u = row minima, v = 0) gives each
    row its cheapest column unless an earlier row holds it.  Each row left
    over then grows a Dijkstra tree over the columns, settling the nearest
    column per step (a free one among ties) until it settles a free column.
    That takes at most ``cols`` steps, since each settles a new column and a
    free column remains, so there are at most ``rows * cols`` steps of
    O(cols) work: cubic in the size.  Integer costs give exact optima.
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    u = cost.min(axis=1)
    v = np.zeros(m)
    col4row = np.full(n, -1)
    row4col = np.full(m, -1)
    for i, j in enumerate(cost.argmin(axis=1).tolist()):
        if row4col[j] < 0:
            row4col[j], col4row[i] = i, j
    for cur in np.flatnonzero(col4row < 0).tolist():
        free = np.flatnonzero(row4col < 0)
        work = np.full(m, np.inf)  # tentative distances of unsettled columns
        open_v = v.copy()  # -inf once settled, so a settled column never relaxes
        path = np.zeros(m, dtype=np.intp)
        settled, dists = [], []
        i, low = cur, 0.0
        for _ in range(m):
            reduced = cost[i] - open_v
            reduced += low - u[i]
            closer = reduced < work
            np.copyto(path, i, where=closer)
            np.copyto(work, reduced, where=closer)
            j = int(work.argmin())
            low = work[j]
            if row4col[j] >= 0:
                near = work[free]
                k = int(near.argmin())
                if near[k] == low:
                    j = int(free[k])
            settled.append(j)
            dists.append(low)
            work[j], open_v[j] = np.inf, -np.inf
            i = row4col[j]
            if i < 0:
                break
        # dual update, then flip the path from the free column back to ``cur``
        cols = np.array(settled)
        gain = low - np.array(dists)
        u[cur] += low
        u[row4col[cols[:-1]]] += gain[:-1]
        v[cols] -= gain
        while i != cur:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    return col4row


def nmi(estimated, truth) -> float:
    """Normalized mutual information of two partitions, in [0, 1].

    Uses the convention ``0 * log 0 = 0``.  When both partitions are a
    single cluster the normalizer vanishes; the value is then 1, since the
    partitions are identical.
    """
    return _nmi(confusion_matrix(estimated, truth))


def _nmi(counts) -> float:
    c = counts.astype(float)
    n = c.sum()
    row = c.sum(axis=1)
    col = c.sum(axis=0)
    nz = c > 0
    if nz.sum(axis=0).max() <= 1 and nz.sum(axis=1).max() <= 1:
        return 1.0  # identical partitions up to relabeling
    numer = -2.0 * float(
        (c[nz] * np.log(c[nz] * n / np.outer(row, col)[nz])).sum()
    )
    denom = float((row * np.log(row / n)).sum() + (col * np.log(col / n)).sum())
    return float(min(max(numer / denom, 0.0), 1.0))


def ari(estimated, truth) -> float:
    """Adjusted Rand index in [-1, 1], exact integer binomial arithmetic.

    Degenerate normalizers (both partitions all singletons, or both a single
    cluster) yield 1 for identical partitions and 0 otherwise.
    """
    return _ari(confusion_matrix(estimated, truth))


def _ari(c) -> float:
    n = int(c.sum())
    if n < 2:
        raise DimensionError("adjusted Rand index needs at least 2 nodes")
    index = sum(math.comb(int(v), 2) for v in c.ravel())
    sum_rows = sum(math.comb(int(v), 2) for v in c.sum(axis=1))
    sum_cols = sum(math.comb(int(v), 2) for v in c.sum(axis=0))
    pairs = math.comb(n, 2)
    numer = 2 * (pairs * index - sum_rows * sum_cols)
    denom = pairs * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denom == 0:
        # vanishes only when both sides are all singletons or both a single
        # cluster, and then the two partitions coincide
        return 1.0
    return numer / denom


def _scores(counts) -> tuple:
    """``(hamming, nmi, ari)`` read off one confusion matrix."""
    return _hamming(counts), _nmi(counts), _ari(counts)


# Each score, in ``_scores`` order: its report name, its sweep-summary name,
# and how a network's two sides combine into it (the worse side counts).
_SCORES = (("error_rate", "error", max), ("nmi", "nmi", min), ("ari", "ari", min))


@dataclass(frozen=True)
class MetricsReport:
    """Per-side scores plus the combined conventions: worst-side error rate,
    best..worst-side minimum for NMI and ARI."""

    error_rate_r: float
    error_rate_c: float
    error_rate: float
    nmi_r: float
    nmi_c: float
    nmi: float
    ari_r: float
    ari_c: float
    ari: float

    CSV_HEADER = (
        "error_rate_r,error_rate_c,error_rate,nmi_r,nmi_c,nmi,ari_r,ari_c,ari"
    )

    def to_csv_row(self) -> str:
        return ",".join(
            format(getattr(self, name), ".10g")
            for name in self.CSV_HEADER.split(",")
        )


def combined_report(est_r, truth_r, est_c, truth_c) -> MetricsReport:
    """Score both sides and combine: max of the error rates, min of NMI and
    of ARI, so the combined numbers reflect the worse side, as ``_SCORES``
    states.  Each side's confusion matrix is built once for its scores."""
    sides = zip(_SCORES, _scores(confusion_matrix(est_r, truth_r)),
                _scores(confusion_matrix(est_c, truth_c)))
    fields = {}
    for (name, _, combine), row, col in sides:
        fields |= {f"{name}_r": row, f"{name}_c": col, name: combine(row, col)}
    return MetricsReport(**fields)


def _criterion_costs(counts):
    """Cost matrix M[k, j] = symmetric-difference size of truth cluster k and
    estimated cluster j, divided by the truth cluster size, from the
    confusion matrix ``counts`` of no more estimated clusters than truth
    clusters.  Empty estimated clusters pad it to a square: each costs 1
    against every truth cluster."""
    c = counts.astype(float)
    c = np.pad(c, ((0, 0), (0, c.shape[0] - c.shape[1])))
    truth_sizes = c.sum(axis=1)
    est_sizes = c.sum(axis=0)
    return (truth_sizes[:, None] + est_sizes[None, :] - 2.0 * c) / truth_sizes[:, None]


def _bottleneck_assignment(costs):
    """Exact min over permutations of the max matched cost of the square,
    finite ``costs``: binary-search the candidate cost levels for the
    smallest feasible bottleneck."""
    levels = np.unique(costs)
    lo, hi = 0, len(levels) - 1  # the largest level admits every matching
    while lo < hi:
        mid = (lo + hi) // 2
        penalty = costs > levels[mid]
        if not penalty[np.arange(len(penalty)), _assignment(penalty)].any():
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def criterion_f(estimated, truth) -> float:
    """Largest per-cluster symmetric-difference proportion under the best
    relabeling: min over permutations of max_k
    ``(|C_k \\ Chat_pi(k)| + |Chat_pi(k) \\ C_k|) / |C_k|``.

    Exact for any number of clusters: a bottleneck-assignment search finds
    the smallest cost level that admits a complete matching.  When the
    cluster counts differ, a truth cluster left without an estimated partner
    costs 1, and an estimate with more clusters than the truth has some
    estimated cluster that no relabeling matches, so its ``f`` is ``inf``.
    """
    c = confusion_matrix(estimated, truth)
    if c.shape[1] > c.shape[0]:
        return math.inf
    return _bottleneck_assignment(_criterion_costs(c))
