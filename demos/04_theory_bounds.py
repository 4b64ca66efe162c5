"""Evaluate the theoretical machinery: noise constants, assumption checks,
spectral deviation bounds, and misclustering envelopes.

The envelopes carry unknown multiplicative constants, so read them
comparatively (monotone trends), never as absolute guarantees.
"""
import numpy as np

from bidfm import (
    P1,
    BiDFMParams,
    DistributionSpec,
    check_assumption,
    deviation_bound,
    error_envelope,
    expected_adjacency,
    gamma_tau,
    population_geometry_check,
    population_svd_oracle,
    sample_adjacency,
    sample_memberships,
    spectral_deviation,
    theory_inputs,
    truncated_svd,
)

rows = sample_memberships(200, 2, seed=21)
cols = sample_memberships(300, 3, seed=22)
params = BiDFMParams(rows, cols, P1, rho=0.5)
omega = expected_adjacency(params)

# --- distribution-specific constants ---------------------------------------
for spec in (DistributionSpec("bernoulli"), DistributionSpec("normal", sigma2=1.0),
             DistributionSpec("poisson")):
    gt = gamma_tau(spec, params)
    tau = "unbounded" if gt.tau_unbounded else f"{gt.tau:.3g}"
    print(f"{spec.kind:9s} gamma={gt.gamma:.4f} (bound {gt.gamma_bound:.4f}) tau={tau}")

# --- signal-strength assumption and the deviation bound ---------------------
spec = DistributionSpec("bernoulli")
inputs = theory_inputs(params, spec)
check = check_assumption("bidfm", inputs)
print(f"\nsignal assumption holds: {check.holds} (ratio {check.ratio:.1f})")

bound = deviation_bound("bidfm", inputs, c_alpha=1.0)
observed = [
    spectral_deviation(sample_adjacency(omega, spec, seed), omega)
    for seed in range(20)
]
print(f"deviation bound (C=1): {bound:.2f}; observed max over 20 draws: "
      f"{max(observed):.2f}")

# --- misclustering envelopes are monotone in the model parameters -----------
print("\nrow-error envelope vs sparsity (decreasing):")
for rho in (0.25, 0.5, 1.0):
    scaled = theory_inputs(BiDFMParams(rows, cols, P1, rho), spec)
    print(f"  rho={rho:4.2f}: {error_envelope('bidfm', scaled).f_r:10.4f}")

# --- exact population geometry ----------------------------------------------
geometry = population_geometry_check(params)
print(f"\npopulation geometry deviation: {geometry.max_deviation:.2e}")

analytic = population_svd_oracle(params)
numeric = truncated_svd(omega, 2)
gap = np.abs(analytic.singular_values - numeric.singular_values).max()
print(f"analytic vs numerical singular values: max gap {gap:.2e}")
