"""Build the two generative models and sample networks under several laws.

Walks through: memberships -> mixing matrix -> expected adjacency ->
observed adjacency, and shows that the samplers are unbiased.
"""
import numpy as np

from bidfm import (
    P1,
    P2,
    BiDCDFMParams,
    BiDFMParams,
    DistributionSpec,
    ValidationError,
    expected_adjacency,
    sample_adjacency,
    sample_memberships,
    sample_theta,
)

# A small bipartite network: 2 row clusters, 3 column clusters.
rows = sample_memberships(n=12, k=2, seed=1)
cols = sample_memberships(n=18, k=3, seed=2)
print("row cluster sizes:", rows.cluster_sizes())
print("col cluster sizes:", cols.cluster_sizes())

# Plain model: one global sparsity scale.
plain = BiDFMParams(rows, cols, P1, rho=0.5)

# Parameters check themselves when built, and list every rule they break.
try:
    BiDFMParams(rows, cols, 0.5 * P1, rho=-1.0)
except ValidationError as exc:
    print("rejected:", exc.violations)

omega = expected_adjacency(plain)
print("expected adjacency block values:", sorted(set(np.round(omega.ravel(), 3))))

# Degree-corrected model: per-node scale factors.
corrected = BiDCDFMParams(
    rows, cols, P1,
    theta_row=sample_theta(12, rho=0.5, seed=3),
    theta_col=sample_theta(18, rho=0.5, seed=4),
)
omega_dc = expected_adjacency(corrected)
print("degree-corrected entry range: [%.3f, %.3f]" % (omega_dc.min(), omega_dc.max()))

# The same expected matrix can drive very different edge laws.
for spec in (DistributionSpec("bernoulli"), DistributionSpec("poisson")):
    a = sample_adjacency(omega, spec, seed=7)
    print(f"{spec.kind:9s} sample mean {a.mean():.4f} vs expected {omega.mean():.4f}")

# Signed +/-1 networks and real-valued normal networks need a signed mixing
# matrix; the admissible range of the expected entries depends on the law.
signed_omega = expected_adjacency(BiDFMParams(rows, cols, P2, rho=0.5))
for spec in (DistributionSpec("signed"), DistributionSpec("normal", sigma2=1.0)):
    a = sample_adjacency(signed_omega, spec, seed=8)
    print(f"{spec.kind:9s} sample mean {a.mean():.4f} vs expected {signed_omega.mean():.4f}")

# Unbiasedness, more carefully: average many draws of one entry.
draws = np.array([
    sample_adjacency(signed_omega, DistributionSpec("signed"), seed)[0, 0]
    for seed in range(2000)
])
print("entry (1,1): mean of 2000 signed draws = %.4f, expected %.4f"
      % (draws.mean(), signed_omega[0, 0]))
