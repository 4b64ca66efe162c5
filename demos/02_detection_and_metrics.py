"""Detect planted communities and score the estimates.

On the noiseless expected adjacency both spectral methods recover the
planted clusters exactly; with sampling noise the degree-corrected variant
wins whenever node scales vary.
"""
import numpy as np

from bidfm import (
    P1,
    BiDCDFMParams,
    BiDFMParams,
    DistributionSpec,
    bisc,
    combined_report,
    disim,
    dscore,
    expected_adjacency,
    nbisc,
    sample_adjacency,
    sample_memberships,
    sample_theta,
)

rows = sample_memberships(150, 2, seed=10)
cols = sample_memberships(225, 3, seed=11)

# --- noiseless identifiability -------------------------------------------
plain = BiDFMParams(rows, cols, P1, rho=0.6)
omega = expected_adjacency(plain)
result = bisc(omega, 2, 3, seed=0)
score = combined_report(result.row_labels, rows, result.col_labels, cols)
print("population input, plain model: error", score.error_rate)

corrected = BiDCDFMParams(
    rows, cols, P1,
    sample_theta(150, 0.6, seed=12),
    sample_theta(225, 0.6, seed=13),
)
omega_dc = expected_adjacency(corrected)
result = nbisc(omega_dc, 2, 3, seed=0)
score = combined_report(result.row_labels, rows, result.col_labels, cols)
print("population input, degree-corrected model: error", score.error_rate)

# --- noisy recovery, heterogeneous degrees --------------------------------
# Sample Bernoulli networks from the degree-corrected model and compare
# algorithms. Normalizing the singular-vector rows absorbs the node scales.
print("\nBernoulli draws from the degree-corrected model (5 replicates):")
algorithms = {"bisc": bisc, "nbisc": nbisc, "disim": disim, "dscore": dscore}
errors = {name: [] for name in algorithms}
for rep in range(5):
    a = sample_adjacency(omega_dc, DistributionSpec("bernoulli"), seed=100 + rep)
    for name, fn in algorithms.items():
        res = fn(a, 2, 3, seed=rep)
        errors[name].append(
            combined_report(res.row_labels, rows, res.col_labels, cols).error_rate
        )
for name, values in errors.items():
    print(f"  {name:7s} mean error {np.mean(values):.4f}")

# Diagnostics travel with the result: k-means objectives, and for nbisc the
# row indices whose embedding was too short to normalize.
last_draw = a
res = nbisc(last_draw, 2, 3, seed=0)
print("\nnbisc diagnostics:", {k: v for k, v in res.diagnostics.items() if v})
print("leading singular values:", np.round(res.singular_values, 3))
