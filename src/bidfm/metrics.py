"""Partition-quality measures built on the confusion matrix.

The misassignment rate minimizes over cluster relabelings via optimal
assignment, normalized mutual information and the adjusted Rand index follow
the standard confusion-matrix formulas with exact integer binomials, and the
worst-cluster criterion reports the largest per-cluster symmetric-difference
proportion under the best relabeling.

Every function accepts either :class:`~bidfm.model.Membership` objects or
plain 1-based label sequences.  ``scipy.optimize`` is imported by the two
functions that solve assignments, since it adds about 0.2 s to a cold
import of the package.
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
    """Counts of common nodes: entry (k, l) pairs truth cluster k with
    estimated cluster l."""
    est, tru = _coerce_pair(estimated, truth)
    counts = np.zeros((tru.n_clusters, est.n_clusters), dtype=np.int64)
    np.add.at(counts, (tru.labels - 1, est.labels - 1), 1)
    return counts


def _square_confusion(estimated, truth):
    """Confusion matrix padded with empty clusters to a square shape."""
    c = confusion_matrix(estimated, truth)
    k = max(c.shape)
    padded = np.zeros((k, k), dtype=np.int64)
    padded[: c.shape[0], : c.shape[1]] = c
    return padded


def hamming_error(estimated, truth) -> float:
    """Fraction of misassigned nodes under the best cluster relabeling.

    Solved exactly by maximum-weight assignment on the confusion matrix;
    the smaller partition is padded with empty clusters when the cluster
    counts differ.
    """
    c = _square_confusion(estimated, truth)
    n = int(c.sum())
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-c)
    matched = int(c[rows, cols].sum())
    return (n - matched) / n


def nmi(estimated, truth) -> float:
    """Normalized mutual information of two partitions, in [0, 1].

    Uses the convention ``0 * log 0 = 0``.  When both partitions are a
    single cluster the normalizer vanishes; the value is then 1, since the
    partitions are identical.
    """
    c = confusion_matrix(estimated, truth).astype(float)
    n = c.sum()
    row = c.sum(axis=1)
    col = c.sum(axis=0)
    nz = c > 0
    if nz.sum(axis=0).max() <= 1 and nz.sum(axis=1).max() <= 1:
        return 1.0  # identical partitions up to relabeling
    numer = -2.0 * float(
        (c[nz] * np.log(c[nz] * n / np.outer(row, col)[nz])).sum()
    )
    row, col = row[row > 0], col[col > 0]  # 0 log 0 = 0 for empty clusters
    denom = float((row * np.log(row / n)).sum() + (col * np.log(col / n)).sum())
    return float(min(max(numer / denom, 0.0), 1.0))


def ari(estimated, truth) -> float:
    """Adjusted Rand index in [-1, 1], exact integer binomial arithmetic.

    Degenerate normalizers (both partitions all singletons, or both a single
    cluster) yield 1 for identical partitions and 0 otherwise.
    """
    est, tru = _coerce_pair(estimated, truth)
    n = len(est)
    if n < 2:
        raise DimensionError("adjusted Rand index needs at least 2 nodes")
    c = confusion_matrix(est, tru)
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
    of ARI, so the combined numbers reflect the worse side."""
    e_r = hamming_error(est_r, truth_r)
    e_c = hamming_error(est_c, truth_c)
    n_r = nmi(est_r, truth_r)
    n_c = nmi(est_c, truth_c)
    a_r = ari(est_r, truth_r)
    a_c = ari(est_c, truth_c)
    return MetricsReport(
        error_rate_r=e_r,
        error_rate_c=e_c,
        error_rate=max(e_r, e_c),
        nmi_r=n_r,
        nmi_c=n_c,
        nmi=min(n_r, n_c),
        ari_r=a_r,
        ari_c=a_c,
        ari=min(a_r, a_c),
    )


def _criterion_costs(estimated, truth):
    """Cost matrix M[k, j] = symmetric-difference size of truth cluster k and
    estimated cluster j, divided by the truth cluster size."""
    c = _square_confusion(estimated, truth).astype(float)
    truth_sizes = c.sum(axis=1)
    est_sizes = c.sum(axis=0)
    raw = truth_sizes[:, None] + est_sizes[None, :] - 2.0 * c
    with np.errstate(divide="ignore", invalid="ignore"):
        costs = raw / truth_sizes[:, None]
    # empty padded truth clusters: zero cost against empty estimated
    # clusters, impossible against nonempty ones
    costs = np.where(raw == 0.0, 0.0, costs)
    return np.where(np.isfinite(costs), costs, np.inf)


def _bottleneck_assignment(costs):
    """Exact min over permutations of the max matched cost: binary-search the
    candidate cost levels for the smallest feasible bottleneck."""
    from scipy.optimize import linear_sum_assignment

    levels = np.unique(costs[np.isfinite(costs)])
    feasible_value = np.inf
    lo, hi = 0, len(levels) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        allowed = costs <= levels[mid]
        penalty = (~allowed).astype(float)
        rows, cols = linear_sum_assignment(penalty)
        if penalty[rows, cols].sum() == 0:
            feasible_value = levels[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    return float(feasible_value)


def criterion_f(estimated, truth) -> float:
    """Largest per-cluster symmetric-difference proportion under the best
    relabeling: min over permutations of max_k
    ``(|C_k \\ Chat_pi(k)| + |Chat_pi(k) \\ C_k|) / |C_k|``.

    Exact for any number of clusters: a bottleneck-assignment search finds
    the smallest cost level that admits a complete matching.
    """
    return _bottleneck_assignment(_criterion_costs(estimated, truth))
