"""Certifying unit decompositions and moving between their equivalent forms.

A family of vectors v_1, ..., v_n in R^k is a unit decomposition when
sum_i v_i v_i^T = I_k.  The same data can be read three more ways: as the
projections of the standard basis onto a k-dimensional subspace of R^n, as
an n x n Gram matrix that is a rank-k orthogonal projector, and as k rows
of an n x n orthogonal matrix.  This script walks one example through all
four views.
"""

import numpy as np

from framegeo import (Subspace, certify_unit_decomposition, gram_matrix,
                      is_projection_matrix, orthogonal_completion,
                      project_standard_basis)
from framegeo.frames import TAU_CERT

rng = np.random.default_rng(7)
q, r = np.linalg.qr(rng.standard_normal((5, 2)))
subspace = Subspace(n=5, k=2, basis=(q * np.sign(np.diag(r))).T)

frame = project_standard_basis(subspace)
print("projected standard basis of a random plane in R^5:")
print(np.array_str(frame.vectors, precision=4, suppress_small=True))

cert = certify_unit_decomposition(frame)
print(f"\ncertified: {bool(cert)} (deviation {cert.deviation:.2e}, "
      f"tolerance {TAU_CERT:g})")
print(f"squared norms sum to k: {frame.squared_norms().sum():.12f}")

gram = gram_matrix(frame)
check = is_projection_matrix(gram, target_rank=frame.k)
print(f"\nGram matrix is a rank-{frame.k} projector: {check.ok} "
      f"(idempotency {check.idempotency_deviation:.2e}, "
      f"trace error {check.trace_deviation:.2e})")

completion = orthogonal_completion(frame)
print("\ncompleting the 2 columns to a full orthogonal matrix:")
print(np.array_str(completion, precision=4, suppress_small=True))
print(f"completion orthogonality error: "
      f"{np.max(np.abs(completion @ completion.T - np.eye(5))):.2e}")
