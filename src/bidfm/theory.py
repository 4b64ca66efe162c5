"""Noise-scale constants, assumption checks, deviation bounds and error-rate
envelopes for the two generative models, plus population-level diagnostics.

The envelopes are order-of-magnitude expressions: the concentration constant
``C_alpha`` and the big-O constants are not pinned by the theory, so callers
supply them (positive, finite; default 1) and read the outputs comparatively,
e.g. for monotonicity in the model parameters, never as guarantees.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DimensionError, DomainError, ValidationError
from .linalg import (
    SvdFactors,
    _canonicalize_signs,
    _positive,
    as_matrix,
    row_normalize,
    truncated_svd,
)
from .model import BiDCDFMParams, BiDFMParams, expected_adjacency
from .sampling import _LAWS, DistributionSpec, distribution_moments

_RANK_TOL = 1e-9


@dataclass(frozen=True)
class GammaTau:
    """Noise-scale constant and almost-sure entry deviation bound for a law.

    ``gamma`` is the exact value ``max Var(A_ij) / scale`` (scale = rho, or
    the per-entry theta product for the degree-corrected model); ``gamma_bound``
    is the coarser law-level bound usually quoted (1 for Bernoulli, etc.).
    ``tau`` and ``gamma_bound`` come from the law table in ``bidfm.sampling``.
    ``tau`` is ``inf`` for laws with unbounded support; assumption checks then
    need an empirical surrogate, see :func:`empirical_tau`.
    """

    gamma: float
    tau: float
    gamma_bound: float

    @property
    def tau_unbounded(self) -> bool:
        return math.isinf(self.tau)


def gamma_tau(spec: DistributionSpec, params) -> GammaTau:
    """Exact noise-scale constant and deviation bound for a model/law pair."""
    omega = expected_adjacency(params)
    if isinstance(params, BiDFMParams):
        scale = params.rho
    else:
        scale = np.outer(params.theta_row, params.theta_col)
    gamma = float(distribution_moments(spec, omega, scale)[1].max())
    law = _LAWS[spec.kind]
    return GammaTau(gamma=gamma, tau=law.tau(omega), gamma_bound=law.gamma_bound(gamma, scale))


def empirical_tau(a, omega) -> float:
    """Largest observed entry deviation ``max|A - Omega|``.

    A heuristic stand-in for the almost-sure bound when the law's support is
    unbounded; results based on it should be labeled as such.
    """
    a = as_matrix(a, "a")
    omega = as_matrix(omega, "omega")
    if a.shape != omega.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {omega.shape}")
    return float(np.abs(a - omega).max())


@dataclass(frozen=True)
class TheoryInputs:
    """Scalar summary of a model instance, the raw material of every bound.

    Build one by hand or from parameters via :func:`theory_inputs`.  Fields
    that only apply to one model may stay ``None``; a check, bound or
    envelope that reads one raises a single ``ValidationError`` naming every
    such field it lacks.  Every other field must be a real number (not a
    bool) and positive, except ``gamma`` and the gaps ``delta_c`` and
    ``delta_c_star``, which must be non-negative; one ``ValidationError``
    names every field that breaks this.  A zero gap (two column clusters
    whose centroids coincide) voids the column guarantee, not the model: the
    column envelope is then infinite.
    """

    n_r: int
    n_c: int
    k_r: int
    k_c: int
    sigma_min_mixing: float  # smallest nonzero singular value of P
    gamma: float
    tau: float  # inf when the law has unbounded support
    n_r_min: int
    n_r_max: int
    n_c_min: int
    n_c_max: int
    rho: float | None = None
    theta_r_min: float | None = None
    theta_r_max: float | None = None
    theta_c_min: float | None = None
    theta_c_max: float | None = None
    theta_r_l1: float | None = None
    theta_c_l1: float | None = None
    delta_c: float | None = None  # min gap between column centroids (plain)
    delta_c_star: float | None = None  # same, normalized embedding
    m_v_c: float | None = None  # min column-centroid norm, normalized
    tau_is_empirical: bool = False  # tau came from an observed sample

    def __post_init__(self):
        zero_ok = ("gamma", "delta_c", "delta_c_star")
        optional = {f.name for f in fields(self) if f.default is None}
        bad = [f"{name} must be {'non-negative' if name in zero_ok else 'positive'}, "
               f"got {value!r}"
               for name, value in vars(self).items()
               if name != "tau_is_empirical"
               and not (value is None and name in optional
                        or _positive(value, strict=name not in zero_ok))]
        if bad:
            raise ValidationError(bad)


def theory_inputs(params, spec: DistributionSpec, observed=None) -> TheoryInputs:
    """Assemble :class:`TheoryInputs` from model parameters.

    ``gamma``/``tau`` come from :func:`gamma_tau`; when the law's deviation
    bound is unbounded and ``observed`` is given, the empirical maximum
    deviation is substituted for ``tau``.  ``delta_c`` and ``delta_c_star``
    are the smallest distance between the representative rows of two column
    clusters in the population right factor, raw and row-normalized (``inf``
    with one column cluster, 0 where two clusters' rows coincide, as when
    ``K_r = 1`` and two mixing entries share a sign), and ``m_v_c`` the
    smallest norm of a normalized representative row.
    """
    gt = gamma_tau(spec, params)
    tau = gt.tau
    tau_is_empirical = False
    if gt.tau_unbounded and observed is not None:
        tau = empirical_tau(observed, expected_adjacency(params))
        tau_is_empirical = True

    rows = params.row_membership
    cols = params.col_membership
    row_sizes = rows.cluster_sizes()
    col_sizes = cols.cluster_sizes()
    sigma_min = float(
        np.linalg.svd(params.mixing, compute_uv=False)[
            min(rows.n_clusters, cols.n_clusters) - 1
        ]
    )

    factors = population_svd_oracle(params)
    v_c = row_normalize(factors.right).matrix

    def min_gap(matrix):
        return min(_cluster_gaps(matrix, cols.labels).values(), default=math.inf)

    common = dict(
        tau_is_empirical=tau_is_empirical,
        n_r=len(rows),
        n_c=len(cols),
        k_r=rows.n_clusters,
        k_c=cols.n_clusters,
        sigma_min_mixing=sigma_min,
        gamma=gt.gamma,
        tau=tau,
        n_r_min=int(row_sizes.min()),
        n_r_max=int(row_sizes.max()),
        n_c_min=int(col_sizes.min()),
        n_c_max=int(col_sizes.max()),
        delta_c=min_gap(factors.right),
        delta_c_star=min_gap(v_c),
        m_v_c=float(np.linalg.norm(_cluster_rows(v_c, cols.labels), axis=1).min()),
    )
    if isinstance(params, BiDFMParams):
        return TheoryInputs(rho=params.rho, **common)
    return TheoryInputs(
        theta_r_min=float(params.theta_row.min()),
        theta_r_max=float(params.theta_row.max()),
        theta_c_min=float(params.theta_col.min()),
        theta_c_max=float(params.theta_col.max()),
        theta_r_l1=float(params.theta_row.sum()),
        theta_c_l1=float(params.theta_col.sum()),
        **common,
    )


@dataclass(frozen=True)
class AssumptionCheck:
    holds: bool | None  # None when indeterminate (unbounded tau)
    ratio: float | None  # lhs / rhs; >= 1 means the assumption holds
    lhs: float
    rhs: float | None
    note: str = ""


@dataclass(frozen=True)
class ErrorEnvelope:
    f_r: float
    f_c: float


def _theta_balance(inputs: TheoryInputs) -> float:
    return max(
        inputs.theta_r_max * inputs.theta_c_l1,
        inputs.theta_c_max * inputs.theta_r_l1,
    )


def _in_float_range(what: str, formula) -> float:
    """The value of ``formula()``, or a ``DomainError`` naming ``what`` when
    its arithmetic leaves the float range: it overflows (raising, or giving
    ``inf`` or ``nan``) or divides by a zero that an underflow left, since
    no denominator here is zero otherwise."""
    try:
        value = float(formula())
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"{what} is outside the float range")
    return value


def _plain_envelope(inputs: TheoryInputs, c: float) -> ErrorEnvelope:
    """Order-of-magnitude misclustering envelopes for the plain model.  A
    zero centroid gap ``delta_c`` voids the column guarantee: ``f_c`` is
    then infinite."""

    def tail():
        return (
            max(inputs.n_r, inputs.n_c)
            * math.log(inputs.n_r + inputs.n_c)
            / (
                inputs.sigma_min_mixing**2
                * inputs.rho
                * inputs.n_r_min
                * inputs.n_c_min
            )
        )

    f_r = _in_float_range("the row envelope", lambda: (
        c * inputs.gamma * inputs.k_r**2 * inputs.n_r_max / inputs.n_r_min * tail()))
    if inputs.delta_c == 0:
        return ErrorEnvelope(f_r=f_r, f_c=math.inf)
    f_c = _in_float_range("the column envelope", lambda: (
        c
        * inputs.gamma
        * inputs.k_r
        * inputs.k_c
        / (inputs.delta_c**2 * inputs.n_c_min)
        * tail()
    ))
    return ErrorEnvelope(f_r=f_r, f_c=f_c)


def _corrected_envelope(inputs: TheoryInputs, c: float) -> ErrorEnvelope:
    """Degree-corrected misclustering envelopes.  A zero normalized
    centroid gap ``delta_c_star`` voids the column guarantee: ``f_c`` is
    then infinite."""
    f_r = _in_float_range("the row envelope", lambda: (
        c
        * inputs.gamma
        * inputs.theta_r_max**2
        * inputs.k_r**2
        * inputs.n_r_max
        * _theta_balance(inputs)
        * math.log(inputs.n_r + inputs.n_c)
        / (
            inputs.theta_r_min**4
            * inputs.theta_c_min**2
            * inputs.sigma_min_mixing**2
            * inputs.n_r_min**2
            * inputs.n_c_min
        )
    ))
    if inputs.delta_c_star == 0:
        return ErrorEnvelope(f_r=f_r, f_c=math.inf)
    f_c = _in_float_range("the column envelope", lambda: (
        c
        * inputs.gamma
        * inputs.theta_c_max**2
        * inputs.k_r
        * inputs.k_c
        * inputs.n_c_max
        * _theta_balance(inputs)
        * math.log(inputs.n_r + inputs.n_c)
        / (
            inputs.theta_r_min**2
            * inputs.theta_c_min**4
            * inputs.sigma_min_mixing**2
            * inputs.delta_c_star**2
            * inputs.m_v_c**2
            * inputs.n_r_min
            * inputs.n_c_min**2
        )
    ))
    return ErrorEnvelope(f_r=f_r, f_c=f_c)


# A model's theory: its name in messages, the optional inputs its signal
# reads, the further ones its envelope reads, its signal ``(s, m)`` (see
# check_assumption and deviation_bound), its ``envelope(inputs, c)`` and
# its column gaps, each mapped to the value it takes, given ``inputs``,
# when the cluster counts agree.
_Theory = namedtuple("_Theory", "label signal_fields envelope_fields signal envelope gaps")

_THEORIES = {
    "bidfm": _Theory(
        "plain-model", ("rho",), (),
        lambda inputs: (inputs.rho, max(inputs.n_r, inputs.n_c)),
        _plain_envelope,
        {"delta_c": lambda inputs: math.sqrt(2.0 / inputs.n_c_max)},
    ),
    "bidcdfm": _Theory(
        "degree-corrected",
        ("theta_r_max", "theta_c_max", "theta_r_l1", "theta_c_l1"),
        ("theta_r_min", "theta_c_min"),
        lambda inputs: (_theta_balance(inputs), 1.0),
        _corrected_envelope,
        {"delta_c_star": lambda inputs: math.sqrt(2.0), "m_v_c": lambda inputs: 1.0},
    ),
}

MODELS = tuple(_THEORIES)


def _theory(model: str, inputs: TheoryInputs, what: str, envelope: bool = False, **constant):
    """``model``'s row of ``_THEORIES``; raises a ``ValidationError`` for a
    ``constant`` (``c_alpha=...`` or ``c=...``) that is not a positive real
    within the float range, and one naming every optional field that
    ``what`` reads and ``inputs`` leaves at ``None``."""
    for name, value in constant.items():
        if not _positive(value, finite=True):
            raise ValidationError(f"{name!r} must be a positive real within the float range, "
                                  f"got {value!r}")
    if model not in _THEORIES:
        raise ValidationError(f"unknown model {model!r}")
    theory = _THEORIES[model]
    needed = theory.signal_fields
    if envelope:
        needed = theory.envelope_fields + needed
    missing = [name for name in needed if getattr(inputs, name) is None]
    if missing:
        raise ValidationError(f"{theory.label} {what} needs {', '.join(missing)}")
    return theory


def check_assumption(model: str, inputs: TheoryInputs) -> AssumptionCheck:
    """Signal-strength requirement of ``model``:
    ``gamma * s >= tau^2 log(n_r + n_c) / m``, where ``(s, m)`` is
    ``(rho, max(n_r, n_c))`` for the plain model and
    ``(max(theta_r_max * |theta_c|_1, theta_c_max * |theta_r|_1), 1)`` for
    the degree-corrected one."""
    signal = _theory(model, inputs, "assumption check").signal
    lhs = _in_float_range("the assumption's signal",
                          lambda: inputs.gamma * signal(inputs)[0])
    if inputs.tau == math.inf:  # isinf would fail on an int beyond the float range
        return AssumptionCheck(
            holds=None,
            ratio=None,
            lhs=lhs,
            rhs=None,
            note="tau is unbounded for this law; substitute an empirical "
            "max|A - Omega| (heuristic) to obtain a verdict",
        )
    rhs = _in_float_range("the assumption's noise level", lambda: (
        inputs.tau**2 * math.log(inputs.n_r + inputs.n_c) / signal(inputs)[1]))
    note = (
        "tau is an empirical max|A - Omega| surrogate; the verdict is heuristic"
        if inputs.tau_is_empirical
        else ""
    )
    return AssumptionCheck(holds=lhs >= rhs,
                           ratio=_in_float_range("the assumption's ratio", lambda: lhs / rhs),
                           lhs=lhs, rhs=rhs, note=note)


def deviation_bound(model: str, inputs: TheoryInputs, c_alpha: float = 1.0) -> float:
    """High-probability bound on the spectral norm of ``A - Omega``:
    ``C_alpha * sqrt(gamma * s * m * log(n_r + n_c))``, with ``model``'s
    signal ``(s, m)`` as in :func:`check_assumption`.  The two models'
    bounds agree when every theta is ``sqrt(rho)``."""
    signal = _theory(model, inputs, "deviation bound", c_alpha=c_alpha).signal

    def bound():
        s, m = signal(inputs)
        return c_alpha * math.sqrt(inputs.gamma * s * m * math.log(inputs.n_r + inputs.n_c))

    return _in_float_range("the deviation bound", bound)


def error_envelope(model: str, inputs: TheoryInputs, c: float = 1.0) -> ErrorEnvelope:
    """Order-of-magnitude misclustering envelopes ``(f_r, f_c)`` of
    ``model``; see :func:`_plain_envelope` and :func:`_corrected_envelope`
    for the formulas.  A column gap left at ``None`` takes its value in the
    model's ``gaps`` when the cluster counts agree, and is a
    ``ValidationError`` otherwise."""
    theory = _theory(model, inputs, "envelope", envelope=True, c=c)
    absent = [name for name in theory.gaps if getattr(inputs, name) is None]
    if absent and inputs.k_r != inputs.k_c:
        raise ValidationError(f"column envelope needs {' and '.join(theory.gaps)} "
                              "when cluster counts differ")
    inputs = replace(inputs, **{
        name: _in_float_range(f"the default {name}", lambda: theory.gaps[name](inputs))
        for name in absent})
    return theory.envelope(inputs, c)


def _cluster_rows(matrix, labels):
    """One representative row per cluster (the first occurrence)."""
    first = [int(np.nonzero(labels == k)[0][0]) for k in range(1, labels.max() + 1)]
    return matrix[first]


def _cluster_gaps(matrix, labels) -> dict:
    """Distance between the representative rows (see :func:`_cluster_rows`)
    of each cluster pair, keyed by the 0-based pair ``(k, l)``, ``k < l``."""
    reps = _cluster_rows(matrix, labels)
    return {(k, l): float(np.linalg.norm(reps[k] - reps[l]))
            for k in range(len(reps)) for l in range(k + 1, len(reps))}


@dataclass(frozen=True)
class GeometryReport:
    """Deviations of the population singular-vector geometry from theory.

    ``within_*`` measure how far same-cluster embedding rows are from
    coinciding; ``row_gap_dev``/``col_gap_dev`` compare between-centroid
    distances with their closed forms (``col_gap_dev`` is None when the
    cluster counts differ, where no closed form applies).
    """

    within_row: float
    within_col: float
    row_gap_dev: float
    col_gap_dev: float | None

    @property
    def max_deviation(self) -> float:
        vals = [self.within_row, self.within_col, self.row_gap_dev]
        if self.col_gap_dev is not None:
            vals.append(self.col_gap_dev)
        return max(vals)


def _within_cluster_spread(matrix, labels):
    worst = 0.0
    for k in range(1, labels.max() + 1):
        block = matrix[labels == k]
        worst = max(
            worst, float(np.abs(block - block.mean(axis=0)).max(initial=0.0))
        )
    return worst


def population_geometry_check(params) -> GeometryReport:
    """Verify the exact-recovery geometry on the expected adjacency.

    Plain model: same-cluster rows of the singular-vector matrices coincide
    and row centroids sit ``sqrt(1/n_k + 1/n_l)`` apart (columns too when the
    cluster counts agree).  Degree-corrected model: the same statements for
    the row-normalized matrices with all gaps equal to ``sqrt(2)``.  The
    model type picks the read-out and the expected gap together; each gap
    is the distance between two clusters' representative rows.
    """
    omega = expected_adjacency(params)
    rows = params.row_membership
    cols = params.col_membership
    k = min(rows.n_clusters, cols.n_clusters)
    factors = truncated_svd(omega, k)
    if factors.singular_values[-1] <= _RANK_TOL * factors.singular_values[0]:
        raise ValidationError(
            "expected adjacency is numerically rank deficient; geometry "
            "checks are meaningless"
        )

    if isinstance(params, BiDCDFMParams):
        u_r, u_c = (row_normalize(u).matrix for u in (factors.left, factors.right))
        expected = lambda sizes, k_, l_: math.sqrt(2.0)
    else:
        u_r, u_c = factors.left, factors.right
        expected = lambda sizes, k_, l_: math.sqrt(1.0 / sizes[k_] + 1.0 / sizes[l_])

    def gap_deviation(u, membership):
        """Max |achieved - expected| over between-centroid distances."""
        sizes = membership.cluster_sizes()
        return max([0.0, *(abs(gap - expected(sizes, *pair)) for pair, gap
                           in _cluster_gaps(u, membership.labels).items())])

    return GeometryReport(
        within_row=_within_cluster_spread(u_r, rows.labels),
        within_col=_within_cluster_spread(u_c, cols.labels),
        row_gap_dev=gap_deviation(u_r, rows),
        col_gap_dev=(gap_deviation(u_c, cols) if rows.n_clusters == cols.n_clusters
                     else None),
    )


def population_svd_oracle(params) -> SvdFactors:
    """Analytic compact SVD of the expected adjacency.

    Scaled one-hot columns give orthonormal bases on each side; the problem
    collapses to the SVD of a small weighted mixing matrix, whose factors are
    lifted back.  Agrees with the numerical SVD up to per-column signs, which
    are canonicalized identically.
    """
    if isinstance(params, BiDFMParams):
        params = BiDCDFMParams.from_bidfm(params)
    z_r = params.row_membership.to_onehot()
    z_c = params.col_membership.to_onehot()
    scaled_r = params.theta_row[:, None] * z_r
    scaled_c = params.theta_col[:, None] * z_c
    norms_r = np.linalg.norm(scaled_r, axis=0)
    norms_c = np.linalg.norm(scaled_c, axis=0)
    basis_r = scaled_r / norms_r
    basis_c = scaled_c / norms_c
    total_r = np.linalg.norm(params.theta_row)
    total_c = np.linalg.norm(params.theta_col)
    core = (norms_r / total_r)[:, None] * params.mixing * (norms_c / total_c)[None, :]
    v_r, sigma, v_c_t = np.linalg.svd(core, full_matrices=False)
    k = min(core.shape)
    u_r = basis_r @ v_r[:, :k]
    u_c = basis_c @ v_c_t[:k, :].T
    # same sign convention as truncated_svd
    u_r, u_c_t = _canonicalize_signs(u_r, u_c.T)
    return SvdFactors(
        left=u_r, singular_values=total_r * total_c * sigma[:k], right=u_c_t.T
    )
