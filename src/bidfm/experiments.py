"""Reproducible simulation harness and network-exploration helpers.

A simulation sweeps exactly one parameter (sparsity, size, or normal
variance).  Building the sweep reads each swept value's model config once
and keeps the generative parameters it draws; running it samples
``replicates`` adjacency matrices per value with seeds ``base_seed + rep``,
scores every requested algorithm against the truth, and averages the
scores.  Everything is a pure function of the configuration, so two runs of
the same configuration produce byte-identical reports.
"""
from __future__ import annotations

import io
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import detect, fileio
from .errors import BidfmError, DimensionError, DomainError, ValidationError
from .linalg import _count, _rng, as_matrix, truncated_svd
from .metrics import _SCORES, _scores, combined_report, confusion_matrix
from .model import (
    P1,
    P2,
    Membership,
    expected_adjacency,
)
from .sampling import check_omega_range, sample_adjacency

# Per-point parameter seeds stride by this prime so they never collide
# with the per-replicate draw seeds (base_seed + rep).
_POINT_SEED_STRIDE = 100003

# Each axis a sweep may sweep, and the field that holds its grid.
_AXES = (("rho", "rho_grid"), ("n", "n_grid"), ("sigma2", "sigma2_grid"))


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation: a model, an edge law, and exactly one swept parameter.

    Fixed dimensions go in ``n_r``/``n_c``; a size sweep uses ``n_grid`` and
    square ``n x n`` networks.  A grid and ``algorithms`` may be any iterable
    (a generator or a numpy array too, but for ``algorithms`` not a string,
    which is one name, not its letters): a build reads each once and stores
    the tuple it read back in its field.  Degree-corrected thetas come from
    :func:`~bidfm.model.sample_theta` with its default floor.  A build reads
    each point once into ``_points``: ``(value, config, params, spec)``.
    """

    model: str  # "bidfm" | "bidcdfm"
    kind: str  # distribution kind
    mixing: np.ndarray
    k_r: int = 2
    k_c: int = 3
    n_r: int | None = None
    n_c: int | None = None
    rho: float | None = None
    sigma2: float | None = None
    rho_grid: tuple[float, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    sigma2_grid: tuple[float, ...] | None = None
    replicates: int = 50
    algorithms: tuple[str, ...] = detect.ALGORITHMS
    base_seed: int = 0
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "mixing", as_matrix(self.mixing, "mixing"))
        grids = {axis: tuple(g) if np.iterable(g) else () for axis, name in _AXES
                 if (g := getattr(self, name)) is not None}
        if len(grids) != 1 or not all(grids.values()):
            raise ValidationError("exactly one non-empty swept grid is required")
        [(swept_name, values)] = grids.items()
        object.__setattr__(self, dict(_AXES)[swept_name], values)
        _count(self.replicates, "replicates")
        _rng(self.base_seed)  # raises for a seed no replicate could draw from
        if self.n_grid is None and (self.n_r is None or self.n_c is None):
            raise ValidationError("fixed dimensions n_r, n_c are required")
        if self.rho_grid is None and self.rho is None:
            raise ValidationError("rho is required when not swept")
        listed = np.iterable(self.algorithms) and not isinstance(self.algorithms, (str, bytes))
        algorithms = list(self.algorithms) if listed else []
        if (not algorithms or not all(isinstance(alg, str) for alg in algorithms)
                or len(set(algorithms)) < len(algorithms)):
            raise ValidationError(f"algorithms must name one or more methods, none twice, "
                                  f"got {algorithms or self.algorithms!r}")
        unknown = set(algorithms) - set(detect.ALGORITHMS)
        if unknown:
            raise ValidationError(f"unknown algorithms: {sorted(unknown)}")
        object.__setattr__(self, "algorithms", tuple(algorithms))  # read once, like the grid
        # each point is a config `bidfm generate` reads, read once here: the
        # fixed fields, with the swept value (uncast: the reader's integer
        # rule) in those its axis sets.  Its law must admit rho * mixing: those
        # are the plain model's expected entries, and they bound the
        # degree-corrected ones, since thetas never exceed sqrt(rho) and every
        # law's interval contains 0
        swept_fields = ("n_r", "n_c") if swept_name == "n" else (swept_name,)
        points = []
        for index, value in enumerate(values):
            at = vars(self) | dict.fromkeys(swept_fields, value)
            point = {key: at[key] for key in ("model", "n_r", "n_c", "k_r", "k_c", "mixing", "rho")}
            point |= {"membership_seed": self.base_seed + _POINT_SEED_STRIDE * (index + 1),
                      "distribution": {"kind": self.kind, "sigma2": at["sigma2"]}}
            # numpy values become plain numbers, other non-JSON values a repr the reader rejects
            try:
                point = json.loads(json.dumps(
                    point, default=lambda v: v.tolist() if hasattr(v, "tolist") else repr(v)))
            except ValueError as exc:  # an integer past Python's digit limit
                raise ValidationError(f"sweep point {index}: {exc}") from None
            params = fileio.params_from_config(point)
            spec = fileio.distribution_from_config(point["distribution"])
            try:
                check_omega_range(point["rho"] * self.mixing, spec)
            except DomainError as exc:
                raise ValidationError(f"the law does not admit rho * mixing at "
                                      f"rho = {point['rho']}: {exc}") from None
            points.append((value, point, params, spec))
        object.__setattr__(self, "_points", tuple(points))

    @property
    def swept(self) -> tuple:
        """(parameter name, values) of the swept axis."""
        return next((axis, getattr(self, name)) for axis, name in _AXES
                    if getattr(self, name) is not None)


@dataclass(frozen=True)
class PointSummary:
    """Averaged scores of one algorithm at one swept value."""

    algorithm: str
    value: float
    mean_error: float
    mean_nmi: float
    mean_ari: float
    se_error: float
    se_nmi: float
    se_ari: float
    replicates: int  # successful replicates averaged here
    failed: int
    seeds: tuple
    failure_reasons: dict  # exception class name -> failed replicates


@dataclass(frozen=True)
class ExperimentReport:
    model: str
    kind: str
    swept_name: str
    points: tuple

    CSV_HEADER = (
        "algorithm,swept,value,mean_error,se_error,mean_nmi,se_nmi,"
        "mean_ari,se_ari,replicates,failed"
    )

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# bidfm experiment report v1: {self.model}/{self.kind}\n")
        out.write(self.CSV_HEADER + "\n")
        columns = self.CSV_HEADER.split(",")[2:]
        for p in self.points:
            fields = [p.algorithm, self.swept_name]
            fields += [format(getattr(p, name), ".10g") for name in columns]
            out.write(",".join(fields) + "\n")
        return out.getvalue()


def run_simulation(config: SimulationConfig) -> ExperimentReport:
    """Execute the sweep and average the scores per (algorithm, value).

    Individual algorithm failures (for instance the ratio method with a
    single cluster) count as missing replicates instead of aborting the run,
    and ``failure_reasons`` counts them by exception class.  The points are
    the ones ``config`` read when built.  Each replicate's matrix is
    decomposed once per operator and shared by the algorithms on it.
    """
    seeds = range(config.base_seed, config.base_seed + config.replicates)
    points = []
    for value, _, params, spec in config._points:
        omega = expected_adjacency(params)
        scores = {alg: [] for alg in config.algorithms}
        failures = {alg: Counter() for alg in config.algorithms}
        for seed in seeds:
            a = sample_adjacency(omega, spec, seed)
            outcomes = detect.run_algorithms(config.algorithms, a, config.k_r, config.k_c, seed)
            for alg, result in outcomes:
                if isinstance(result, BidfmError):
                    failures[alg][type(result).__name__] += 1
                    continue
                scores[alg].append(
                    combined_report(
                        result.row_labels,
                        params.row_membership,
                        result.col_labels,
                        params.col_membership,
                    )
                )
        for alg in config.algorithms:
            points.append(
                _summarize(alg, float(value), scores[alg], failures[alg], seeds)
            )
    return ExperimentReport(
        model=config.model,
        kind=config.kind,
        swept_name=config.swept[0],
        points=tuple(points),
    )


def _summarize(algorithm, value, reports, failures, seeds):
    stats = {}  # each score's mean and standard error, NaN without a replicate
    for name, short, _ in _SCORES:
        xs = np.array([getattr(r, name) for r in reports])
        se = float(xs.std(ddof=1) / math.sqrt(xs.size)) if xs.size > 1 else 0.0
        stats |= {f"mean_{short}": float(xs.mean()) if xs.size else math.nan,
                  f"se_{short}": se if xs.size else math.nan}
    return PointSummary(
        algorithm=algorithm,
        value=value,
        **stats,
        replicates=len(reports),
        failed=failures.total(),
        seeds=tuple(seeds),
        failure_reasons=dict(failures),
    )


def _grid(start, stop, step):
    return tuple(round(start + i * step, 10) for i in range(int(round((stop - start) / step)) + 1))


_PRESETS = {
    # Bernoulli-weighted networks, non-negative mixing
    "sim1a": dict(model="bidfm", kind="bernoulli", mixing=P1, n_r=200, n_c=300,
                  rho_grid=_grid(0.1, 1.0, 0.1)),
    "sim1b": dict(model="bidcdfm", kind="bernoulli", mixing=P1, n_r=600, n_c=900,
                  rho_grid=_grid(0.1, 1.0, 0.1)),
    "sim1c": dict(model="bidfm", kind="bernoulli", mixing=P1, rho=0.5,
                  n_grid=_grid(50, 500, 50)),
    "sim1d": dict(model="bidcdfm", kind="bernoulli", mixing=P1, rho=0.5,
                  n_grid=_grid(500, 3000, 500)),
    # Normal-weighted networks, signed mixing allowed
    "sim2a": dict(model="bidfm", kind="normal", mixing=P2, n_r=200, n_c=300,
                  sigma2=1.0, rho_grid=_grid(0.1, 2.0, 0.1)),
    "sim2b": dict(model="bidcdfm", kind="normal", mixing=P2, n_r=600, n_c=900,
                  sigma2=1.0, rho_grid=_grid(0.1, 2.0, 0.1)),
    "sim2c": dict(model="bidfm", kind="normal", mixing=P2, n_r=200, n_c=300,
                  rho=0.5, sigma2_grid=_grid(0.2, 2.0, 0.2)),
    "sim2d": dict(model="bidcdfm", kind="normal", mixing=P2, n_r=600, n_c=900,
                  rho=3.0, sigma2_grid=_grid(0.2, 2.0, 0.2)),
    "sim2e": dict(model="bidfm", kind="normal", mixing=P2, rho=0.5, sigma2=1.0,
                  n_grid=_grid(50, 500, 50)),
    "sim2f": dict(model="bidcdfm", kind="normal", mixing=P2, rho=1.0, sigma2=1.0,
                  n_grid=_grid(500, 3000, 500)),
    # Signed +/-1 networks
    "sim3a": dict(model="bidfm", kind="signed", mixing=P2, n_r=100, n_c=150,
                  rho_grid=_grid(0.1, 1.0, 0.1)),
    "sim3b": dict(model="bidcdfm", kind="signed", mixing=P2, n_r=1000, n_c=1500,
                  rho_grid=_grid(0.1, 1.0, 0.1)),
    "sim3c": dict(model="bidfm", kind="signed", mixing=P2, rho=0.5,
                  n_grid=_grid(50, 500, 50)),
    "sim3d": dict(model="bidcdfm", kind="signed", mixing=P2, rho=1.0,
                  n_grid=_grid(500, 3000, 250)),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str, **overrides) -> SimulationConfig:
    """Return a named simulation configuration (2 row / 3 column clusters,
    50 replicates, all five algorithms); keyword overrides replace the
    preset's fields before the one configuration is built and checked, e.g.
    ``preset('sim1a', replicates=5)`` for a quick look."""
    if name not in _PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        )
    return SimulationConfig(**{"name": name, **_PRESETS[name], **overrides})


@dataclass(frozen=True)
class KEstimate:
    """Leading singular values and the spot where their ratio drops most."""

    k_suggestion: int
    singular_values: tuple


def estimate_k_eigengap(a, m: int = 8) -> KEstimate:
    """Suggest a cluster count from the largest ratio gap between consecutive
    singular values.

    The suggestion is argmax over k < m of ``sigma_k / sigma_{k+1}`` (a zero
    successor, or a ratio beyond the float range, counts as an infinite
    gap).  The raw values always come back too: the numeric suggestion is
    advisory and an eyeball on the elbow is worth more.  ``a`` may be dense
    or ``scipy.sparse``, and ``m`` an integer in ``[1, min(a.shape)]``.
    """
    a = as_matrix(a, sparse=True)
    _count(m, "m", min(a.shape))
    sv = truncated_svd(a, m).singular_values
    if m == 1:
        return KEstimate(k_suggestion=1, singular_values=tuple(sv))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = sv[:-1] / sv[1:]
    ratios = np.where(np.isnan(ratios), 0.0, ratios)  # 0/0: no gap evidence
    return KEstimate(
        k_suggestion=int(ratios.argmax()) + 1, singular_values=tuple(sv)
    )


def degree_profiles(a) -> tuple:
    """Absolute-value row and column degree sequences of a dense or
    ``scipy.sparse`` matrix; a sparse one's degrees sum its stored entries.
    A degree beyond the float range reads ``inf``."""
    weights = abs(as_matrix(a, sparse=True))
    with np.errstate(over="ignore"):
        return weights.sum(axis=1), weights.sum(axis=0)


FILTER_MODES = ("rows", "cols", "both-and", "both-or")


@dataclass(frozen=True)
class ZeroDegreeSets:
    """1-based node indices with zero absolute degree, per side; ``both`` and
    ``either`` are only defined for square matrices (shared node universe)."""

    rows: tuple
    cols: tuple
    both: tuple | None = None
    either: tuple | None = None


@dataclass(frozen=True)
class FilterResult:
    matrix: np.ndarray  # a CSR array for a scipy.sparse input
    kept_rows: tuple  # 1-based original indices surviving the filter
    kept_cols: tuple
    removed: ZeroDegreeSets


def filter_zero_degree(a, mode: str) -> FilterResult:
    """Drop zero-degree nodes from a network.

    ``rows``/``cols`` drop one side's zero-degree nodes only.  ``both-and``
    drops nodes dead on both sides, ``both-or`` nodes dead on either side;
    these two need a square matrix since they remove the same node from both
    sides.  A node is zero-degree when its row (or column) holds no
    nonzero entry, which is an absolute degree of 0 (``degree_profiles``):
    a dense matrix is scanned for it through the mask ``a != 0``, with no
    absolute-value copy, and entries that cancel, subnormal entries and a
    degree beyond the float range all leave a node in.  Retained entries
    are copied verbatim, into a CSR array when ``a`` is ``scipy.sparse``
    and a dense array otherwise.  ``removed``
    lists each side's zero-degree nodes, and in the two square modes also
    the nodes dead on both sides and on either side; every index is 1-based.
    """
    a = as_matrix(a, sparse=True)
    if mode not in FILTER_MODES:
        raise ValidationError(f"unknown mode {mode!r}; choose from {FILTER_MODES}")
    square = mode in ("both-and", "both-or")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionError(
            f"mode {mode!r} removes the same node from both sides and "
            f"needs a square matrix, got {a.shape}"
        )
    if isinstance(a, np.ndarray):  # a node with no nonzero entry, in a byte scan
        nonzero = a != 0
        zero_r, zero_c = (np.flatnonzero(~nonzero.any(axis=axis)) for axis in (1, 0))
    else:
        zero_r, zero_c = (np.nonzero(d == 0)[0] for d in degree_profiles(a))
    both, either = np.intersect1d(zero_r, zero_c), np.union1d(zero_r, zero_c)
    drop_r, drop_c = {"rows": (zero_r, zero_c[:0]), "cols": (zero_r[:0], zero_c),
                      "both-and": (both, both), "both-or": (either, either)}[mode]
    keep_r, keep_c = (np.setdiff1d(np.arange(n), drop)
                      for n, drop in zip(a.shape, (drop_r, drop_c)))

    def ids(indices):  # 0-based positions to 1-based node ids
        return tuple(int(i) for i in indices + 1)

    return FilterResult(
        matrix=a[np.ix_(keep_r, keep_c)],
        kept_rows=ids(keep_r),
        kept_cols=ids(keep_c),
        removed=ZeroDegreeSets(ids(zero_r), ids(zero_c),
                               *((ids(both), ids(either)) if square else ())),
    )


def row_column_similarity(row_labels, col_labels) -> tuple:
    """Compare the row and column partitions of a shared node universe.

    Returns ``(hamming, nmi, ari)`` between the two estimated partitions,
    the columns scored as the estimate of the rows, all read off one
    confusion matrix; no ground truth is involved.  A large Hamming value
    (or small NMI/ARI) indicates an asymmetric sending/receiving structure.
    """
    rows = Membership.coerce(row_labels)
    cols = Membership.coerce(col_labels)
    if len(rows) != len(cols):
        raise DimensionError(
            f"row and column partitions cover different node counts: "
            f"{len(rows)} vs {len(cols)}"
        )
    if rows.n_clusters != cols.n_clusters:
        raise DimensionError(
            f"row and column partitions use different cluster counts: "
            f"{rows.n_clusters} vs {cols.n_clusters}"
        )
    return _scores(confusion_matrix(cols, rows))
