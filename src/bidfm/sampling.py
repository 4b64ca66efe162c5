"""Distribution-free edge samplers.

Given an expected adjacency and a distribution choice (bernoulli, normal,
signed +/-1 or poisson), draw an observed matrix whose entries are
independent with the prescribed means.  A law enters only through the
interval its means may lie in, its entry variance as a function of the mean
``w``, its draw, the almost-sure bound ``tau`` on ``|A_ij - w|`` and the
quoted bound on the noise-scale constant gamma; ``_LAWS`` states each once,
and the README tabulates them.  Means outside the interval are rejected
outright, because clamping would silently break unbiasedness.

Random numbers come from numpy's counter-based Philox generator keyed by the
caller's seed, so a fixed ``(omega, spec, seed)`` triple always reproduces
the same matrix regardless of platform or thread count; entry ``(i, j)``
is a pure function of the seed and its position in the stream.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import _rng, as_matrix


# A law: its admissible mean interval [lo, hi], its entry variance
# ``variance(means, spec)``, its sampler ``draw(generator, means, spec)``, the
# almost-sure deviation bound ``tau(means)`` (inf for unbounded support) and
# the quoted gamma bound ``gamma_bound(gamma, scale)`` given the exact gamma
# and the scale (rho, or the theta products).
_Law = namedtuple("_Law", "lo hi variance draw tau gamma_bound")

_LAWS = {
    "bernoulli": _Law(
        0.0, 1.0,
        lambda w, spec: w * (1.0 - w),
        lambda rng, w, spec: (rng.random(w.shape) < w).astype(float),
        lambda w: 1.0,
        lambda gamma, scale: 1.0,
    ),
    "normal": _Law(
        -np.inf, np.inf,
        lambda w, spec: np.full_like(w, spec.sigma2),
        lambda rng, w, spec: w + np.sqrt(spec.sigma2) * rng.standard_normal(w.shape),
        lambda w: np.inf,
        lambda gamma, scale: gamma,
    ),
    "signed": _Law(
        -1.0, 1.0,
        lambda w, spec: 1.0 - w * w,
        lambda rng, w, spec: np.where(rng.random(w.shape) < (1.0 + w) / 2.0, 1.0, -1.0),
        lambda w: 1.0 + float(np.abs(w).max()),
        lambda gamma, scale: 1.0 / float(np.min(scale)),
    ),
    "poisson": _Law(
        0.0, np.inf,
        lambda w, spec: w,
        lambda rng, w, spec: rng.poisson(w).astype(float),
        lambda w: np.inf,
        lambda gamma, scale: gamma,
    ),
}

KINDS = tuple(_LAWS)


@dataclass(frozen=True)
class DistributionSpec:
    """Edge-weight law plus its parameters.

    ``sigma2`` is the normal variance and must be present exactly for the
    normal law: ``DistributionSpec("normal", sigma2=1.0)``, spelled as in a
    JSON config's ``distribution`` object.
    """

    kind: str
    sigma2: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(
                f"unknown distribution {self.kind!r}; choose from {KINDS}"
            )
        if self.kind == "normal":
            if self.sigma2 is None or not self.sigma2 > 0:
                raise ValidationError("normal law requires sigma2 > 0")
        elif self.sigma2 is not None:
            raise ValidationError("sigma2 is only meaningful for the normal law")


def check_omega_range(omega, spec: DistributionSpec):
    """Reject expected entries outside the law's admissible interval."""
    law = _LAWS[spec.kind]
    bad = ~((law.lo <= omega) & (omega <= law.hi))
    if bad.any():
        where = tuple(np.argwhere(bad)[0])
        entry = f"entry {tuple(int(i) + 1 for i in where)} = " if where else "got "
        raise DomainError(
            f"{spec.kind} law requires expected entries in [{law.lo}, {law.hi}]; "
            f"{entry}{omega[where]:.6g}"
        )


def sample_adjacency(omega, spec: DistributionSpec, seed: int) -> np.ndarray:
    """Draw an adjacency matrix with independent entries from ``spec``'s law
    and mean ``omega``; ``seed`` must be a non-negative integer
    (``ValidationError`` otherwise)."""
    omega = as_matrix(omega, "omega")
    check_omega_range(omega, spec)
    rng = _rng(seed)
    return _LAWS[spec.kind].draw(rng, omega, spec)


def distribution_moments(spec: DistributionSpec, omega_entry, scale) -> tuple:
    """Exact entry variance and its contribution to the noise-scale constant.

    ``scale`` is ``rho`` for the plain model or ``theta_r(i) * theta_c(j)``
    for the degree-corrected one; the second return value is
    ``variance / scale``.  ``omega_entry`` and ``scale`` may be arrays, which
    give arrays back; scalars give floats.
    """
    if not np.all(np.asarray(scale) > 0):
        raise DomainError(f"scale must be positive, got {scale}")
    w = np.asarray(omega_entry, dtype=float)
    check_omega_range(w, spec)
    variance = _LAWS[spec.kind].variance(w, spec)
    contribution = variance / scale
    if np.ndim(contribution) == 0:
        return float(variance), float(contribution)
    return variance, contribution
