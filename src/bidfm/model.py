"""Generative model parameters and expected-adjacency builders.

Two models are covered: the distribution-free bipartite blockmodel, whose
expected adjacency is ``rho * Z_r @ P @ Z_c.T`` for one-hot membership
matrices ``Z`` and a full-rank mixing matrix ``P`` with ``max|P| = 1``, and
its degree-corrected extension ``diag(theta_r) @ Z_r @ P @ Z_c.T @
diag(theta_c)``.  Setting every theta to ``sqrt(rho)`` makes the second
reduce exactly to the first.

Both parameter types check themselves when built: an instance that breaks an
invariant cannot exist, and building one raises a single ``ValidationError``
that lists every broken rule.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InfeasibleError, ValidationError
from .linalg import _count, _positive, _rng, as_matrix

# Mixing matrices used throughout the simulation protocol: the first for
# laws that need non-negative block strengths, the second for signed ones.
P1 = np.array([[1.0, 0.2, 0.3], [0.3, 0.8, 0.2]])
P2 = np.array([[-1.0, 0.3, -0.5], [-0.4, 0.8, 0.2]])

_MAX_ABS_TOL = 1e-12
_RANK_TOL = 1e-10
# sample_memberships redraws at most this often: at n = k a draw hits every
# cluster with probability k!/k^k, about 2e-8 at k = 20.
_MEMBERSHIP_DRAWS = 1000
# the largest node count or label numpy can hold (the int64/intp maximum)
_INT_MAX = int(np.iinfo(np.intp).max)


class Membership:
    """Hard cluster assignment for one side of the network.

    ``labels`` holds one integer in ``1..n_clusters`` per node; every cluster
    must be nonempty.  A label that is not an integer numpy can hold
    (``1.5``, ``"1"``, ``10**20``) is a ``ValidationError``, not truncated;
    an integral float such as ``2.0`` is accepted, and so is an integer
    ``n_clusters``.  Converts losslessly to a one-hot matrix.
    """

    __slots__ = ("labels", "n_clusters")

    def __init__(self, labels, n_clusters: int | None = None):
        labels = np.asarray(labels)
        if labels.dtype.kind not in "biu":
            bad = [v for v in labels.ravel().tolist() if not (
                isinstance(v, numbers.Real) and abs(v) <= _INT_MAX and float(v).is_integer())]
            if bad:
                raise ValidationError(f"labels must be integers that fit in int64, got {bad[0]!r}")
        labels = labels.astype(int)
        if labels.ndim != 1 or labels.size == 0:
            raise DimensionError("labels must be a non-empty 1-D sequence")
        if n_clusters is None:
            n_clusters = int(labels.max())
        else:
            _count(n_clusters, "n_clusters")
        if labels.min() < 1 or labels.max() > n_clusters:
            raise ValidationError(
                f"labels must lie in 1..{n_clusters}, "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        self.labels = labels
        self.n_clusters = int(n_clusters)

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, Membership)
            and self.n_clusters == other.n_clusters
            and np.array_equal(self.labels, other.labels)
        )

    def __repr__(self):
        return f"Membership(n={len(self)}, n_clusters={self.n_clusters})"

    def cluster_sizes(self) -> np.ndarray:
        """Number of nodes per cluster, indexed 0..n_clusters-1."""
        return np.bincount(self.labels - 1, minlength=self.n_clusters)

    def is_complete(self) -> bool:
        """True when every cluster holds at least one node."""
        return len(np.unique(self.labels)) == self.n_clusters

    def to_onehot(self) -> np.ndarray:
        z = np.zeros((len(self), self.n_clusters))
        z[np.arange(len(self)), self.labels - 1] = 1.0
        return z

    @classmethod
    def coerce(cls, value) -> "Membership":
        return value if isinstance(value, Membership) else cls(value)


def _rho_violations(rho) -> list:
    """What ``rho`` breaks of the sparsity scale's rule, a positive real (not
    a bool) within the float range: nothing, or one message."""
    if _positive(rho, finite=True):
        return []
    if isinstance(rho, numbers.Real) and not isinstance(rho, bool) and not rho > 0:
        return [f"rho must be positive, got {rho}"]
    return [f"rho must be a positive real within the float range, got {rho}"]


@dataclass(frozen=True)
class BiDFMParams:
    """Parameters of the distribution-free bipartite blockmodel; building an
    invalid instance raises ``ValidationError``."""

    row_membership: Membership
    col_membership: Membership
    mixing: np.ndarray  # K_r x K_c, max|entry| = 1, full rank
    rho: float  # global sparsity scale, > 0 and finite

    def __post_init__(self):
        object.__setattr__(self, "mixing", as_matrix(self.mixing, "mixing"))
        _check(self, _rho_violations(self.rho))

    @property
    def shape(self):
        return (len(self.row_membership), len(self.col_membership))


@dataclass(frozen=True)
class BiDCDFMParams:
    """Degree-corrected variant: per-node positive real scale factors replace rho."""

    row_membership: Membership
    col_membership: Membership
    mixing: np.ndarray
    theta_row: np.ndarray = field(repr=False)  # n_r positive reals
    theta_col: np.ndarray = field(repr=False)  # n_c positive reals

    def __post_init__(self):
        object.__setattr__(self, "mixing", as_matrix(self.mixing, "mixing"))
        found = []
        for side, n in (("row", len(self.row_membership)), ("col", len(self.col_membership))):
            try:
                theta = np.asarray(getattr(self, f"theta_{side}"))
            except ValueError:  # a ragged nesting
                theta = np.asarray(None)
            if theta.dtype.kind in "iuf":
                theta = theta.astype(float)
                object.__setattr__(self, f"theta_{side}", theta)
            if theta.dtype.kind != "f":
                found.append(f"theta_{side} must hold real numbers, got dtype {theta.dtype}")
            elif theta.shape != (n,):
                found.append(f"theta_{side} must have length {n}, got {theta.shape}")
            elif not np.all(theta > 0):
                found.append(f"theta_{side} must be strictly positive")
        _check(self, found)

    @property
    def shape(self):
        return (len(self.row_membership), len(self.col_membership))

    @classmethod
    def from_bidfm(cls, params: BiDFMParams) -> "BiDCDFMParams":
        """Constant-theta embedding: theta == sqrt(rho) on both sides."""
        s = np.sqrt(float(params.rho))
        return cls(
            row_membership=params.row_membership,
            col_membership=params.col_membership,
            mixing=params.mixing,
            theta_row=np.full(len(params.row_membership), s),
            theta_col=np.full(len(params.col_membership), s),
        )


def _mixing_violations(p, k_r, k_c):
    found = []
    if p.shape != (k_r, k_c):
        found.append(
            f"mixing matrix shape {p.shape} does not match cluster counts ({k_r}, {k_c})"
        )
        return found
    if abs(np.abs(p).max() - 1.0) > _MAX_ABS_TOL:
        found.append(f"max|P| must equal 1, got {np.abs(p).max():.12g}")
    smallest = np.linalg.svd(p, compute_uv=False)[min(k_r, k_c) - 1]
    if smallest <= _RANK_TOL:
        found.append(f"mixing matrix is rank deficient (sigma_min={smallest:.3g})")
    return found


def _check(params, scale_violations):
    """Raise one ``ValidationError`` listing every broken invariant, in this
    order: memberships, ``K_r <= K_c``, the mixing, then
    ``scale_violations`` (rho or the thetas)."""
    found = []
    for side, mem in (("row", params.row_membership), ("col", params.col_membership)):
        if not mem.is_complete():
            found.append(f"{side} membership leaves at least one cluster empty")
    k_r = params.row_membership.n_clusters
    k_c = params.col_membership.n_clusters
    if k_r > k_c:
        found.append(
            f"K_r={k_r} exceeds K_c={k_c}; transpose the network so K_r <= K_c"
        )
    found += _mixing_violations(params.mixing, k_r, k_c) + scale_violations
    if found:
        raise ValidationError(found)


def expected_adjacency(params) -> np.ndarray:
    """Expected adjacency: ``rho * Z_r @ P @ Z_c.T`` for the plain model
    (entry (i, j) equals ``rho * P(g_i, g_j)``; the matrix has rank
    ``min(K_r, K_c)``), ``diag(theta_r) @ Z_r @ P @ Z_c.T @ diag(theta_c)``
    for the degree-corrected one."""
    cells = np.ix_(params.row_membership.labels - 1, params.col_membership.labels - 1)
    if isinstance(params, BiDFMParams):
        return (params.rho * params.mixing)[cells]
    return params.theta_row[:, None] * params.mixing[cells] * params.theta_col[None, :]


def sample_memberships(n: int, k: int, seed: int) -> Membership:
    """Draw node labels i.i.d. uniform over ``1..k``, resampling the whole
    vector until every cluster is hit.  Deterministic given ``seed``.

    After 1000 draws that all miss a cluster, the last draw is repaired
    instead: ``k`` randomly chosen nodes are given the labels ``1..k``.
    ``n`` and ``k`` must be integers of at least 1, ``n`` one numpy can
    index, and ``seed`` a non-negative integer (``ValidationError`` or
    ``DimensionError`` otherwise).
    """
    _count(n, "n", _INT_MAX)
    _count(k, "k")
    if n < k:
        raise InfeasibleError(f"cannot place {n} nodes into {k} nonempty clusters")
    rng = _rng(seed)
    for _ in range(_MEMBERSHIP_DRAWS):
        labels = rng.integers(1, k + 1, size=n)
        if len(np.unique(labels)) == k:
            return Membership(labels, n_clusters=k)
    labels[rng.permutation(n)[:k]] = np.arange(1, k + 1)
    return Membership(labels, n_clusters=k)


def sample_theta(n: int, rho: float, seed: int, floor: float = 0.05) -> np.ndarray:
    """Heterogeneity factors ``sqrt(rho) * u`` with ``u ~ Uniform(floor, 1)``.

    The positive floor (default 0.05) keeps the smallest factors bounded away
    from zero so normalized embeddings and theta-dependent bounds stay
    non-degenerate at desk scale.  ``n`` must be an integer of at least 1
    that numpy can index, and ``seed`` a non-negative integer
    (``ValidationError`` or ``DimensionError`` otherwise).
    """
    _count(n, "n", _INT_MAX)
    if bad := _rho_violations(rho):
        raise ValidationError(bad)
    if not (_positive(floor, strict=False) and floor < 1):
        raise ValidationError(f"floor must lie in [0, 1), got {floor}")
    rng = _rng(seed)
    return np.sqrt(float(rho)) * rng.uniform(floor, 1.0, size=n)
