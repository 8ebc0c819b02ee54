"""Volume bounds for the minimal cover of a projected standard basis.

Projecting the standard basis of R^n onto a k-dimensional subspace and
covering the resulting symmetric point set with its minimum-volume
ellipsoid gives a volume ratio (against the unit ball) that can never drop
below (k/n)^{k/2}; dually, the largest ellipsoid inside the subspace's
cube section never exceeds (n/k)^{k/2}.  Equality holds exactly when all
projected vectors share the squared norm k/n, which block-averaging
subspaces achieve whenever k divides n.
"""

import numpy as np

from framegeo import (ellipsoid_volume_ratio, john_of_cube_section,
                      lowner_symmetric, project_standard_basis,
                      random_subspace, equality_subspace,
                      verify_ellipsoid_bounds)

print(f"{'n':>3} {'k':>3} {'lowner ratio':>14} {'bound (k/n)^(k/2)':>18} "
      f"{'john ratio':>12} {'bound':>10} {'uniform':>8}")

for n, k, seed in [(4, 2, 0), (6, 2, 1), (7, 3, 2), (8, 4, 3)]:
    subspace = random_subspace(n, k, seed)
    report = verify_ellipsoid_bounds(subspace)
    john = john_of_cube_section(subspace)
    john_ratio = ellipsoid_volume_ratio(john)
    print(f"{n:>3} {k:>3} {report.ratios['lowner_ratio']:>14.6f} "
          f"{report.checks['lowner_ratio'].bound:>18.6f} "
          f"{john_ratio:>12.6f} {(n / k) ** (k / 2):>10.6f} "
          f"{str(report.profile_uniform):>8}")

print("\nblock-averaging subspaces attain the bounds:")
for n, k in [(4, 2), (6, 3), (8, 4)]:
    frame = project_standard_basis(equality_subspace(n, k))
    fit = lowner_symmetric(frame.vectors)
    ratio = ellipsoid_volume_ratio(fit.ellipsoid)
    print(f"  n={n} k={k}: ratio {ratio:.12f} vs bound {(k / n) ** (k / 2):.12f}")

# the contact points of the cover carry the positive weights
frame = project_standard_basis(random_subspace(6, 3, 9))
fit = lowner_symmetric(frame.vectors)
quad = np.einsum("ij,jk,ik->i", frame.vectors, fit.ellipsoid.matrix, frame.vectors)
print(f"\nsupport of the optimal weights touches the boundary: "
      f"quadratic form on the support = "
      f"{np.round(quad[fit.weights > 1e-7], 6)}")
