"""End-to-end pipeline for a real-world weighted directed network.

Synthesizes an edge-list file standing in for downloaded data, then walks
the analysis the library supports: ingest, degree profiles, zero-degree
filtering, cluster-count suggestion, detection, and the row-vs-column
cluster comparison that reveals asymmetric structure.

Every step has a CLI equivalent, noted inline.
"""
import os
import tempfile

import numpy as np

from bidfm import (
    P1,
    BiDCDFMParams,
    DistributionSpec,
    degree_profiles,
    estimate_k_eigengap,
    expected_adjacency,
    filter_zero_degree,
    nbisc,
    row_column_similarity,
    sample_adjacency,
    sample_memberships,
    sample_theta,
)
from bidfm.fileio import read_edge_list, write_edge_list

# --- synthesize a directed weighted network and park it in a file -----------
n = 160
rows = sample_memberships(n, 2, seed=31)
cols = sample_memberships(n, 2, seed=32)  # same nodes, own column clusters
params = BiDCDFMParams(
    rows, cols, np.array([[1.0, 0.05], [0.1, 0.9]]),
    sample_theta(n, 2.0, seed=33, floor=0.3),
    sample_theta(n, 2.0, seed=34, floor=0.3),
)
a = sample_adjacency(expected_adjacency(params), DistributionSpec("poisson"), seed=35)
a[:3, :] = 0.0  # a few dead senders, as real snapshots have

with tempfile.TemporaryDirectory(prefix="bidfm-demo-") as workdir:
    edges = os.path.join(workdir, "network.tsv")
    write_edge_list(edges, a)
    print("wrote", edges)

    # --- ingest ----------------------------------------------------------------
    # CLI: none needed; matrices also load via `read_matrix`. Edge lists with a
    # shared node universe come back square with rows and columns aligned.
    matrix, node_ids, _ = read_edge_list(edges)
print("loaded", matrix.shape, "network,", len(node_ids), "nodes")

# --- degree structure ---------------------------------------------------------
d_r, d_c = degree_profiles(matrix)
print(f"out-degrees: min {d_r.min():.0f} median {np.median(d_r):.0f} "
      f"max {d_r.max():.0f}")

# --- drop dead nodes -----------------------------------------------------------
# CLI: bidfm preprocess --input A.txt --mode both-or --output filtered
filtered = filter_zero_degree(matrix, "both-or")
print("zero out-degree:", len(filtered.removed.rows),
      "| zero in-degree:", len(filtered.removed.cols),
      "| filtered shape:", filtered.matrix.shape)

# --- how many clusters? ---------------------------------------------------------
# CLI: bidfm estimate-k --input filtered_matrix.txt --m 8
estimate = estimate_k_eigengap(filtered.matrix, m=8)
print("top singular values:", [f"{v:.1f}" for v in estimate.singular_values])
print("suggested cluster count:", estimate.k_suggestion)

# --- detect and compare sending vs receiving roles ------------------------------
# CLI: bidfm detect --input filtered_matrix.txt --alg nbisc --kr 2 --kc 2
k = estimate.k_suggestion
result = nbisc(filtered.matrix, k, k, seed=0)
hamming, nmi_value, ari_value = row_column_similarity(
    result.row_labels, result.col_labels
)
print(f"row vs column clusters: hamming {hamming:.3f}, nmi {nmi_value:.3f}, "
      f"ari {ari_value:.3f}")
print("(large hamming / small nmi would indicate asymmetric send/receive roles)")
