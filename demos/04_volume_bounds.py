"""Exact polytope volumes: cube sections and cross-polytope projections.

A k-dimensional subspace of R^n cuts the cube [-1,1]^n in a section whose
volume, normalized by the cube [-1,1]^k, stays below (n/k)^{k/2}; the
projection of the unit l1 ball onto the subspace, normalized by the l1
ball of R^k, stays above (k/n)^{k/2}.  The two bodies are polar to each
other, and each one is sandwiched by the ellipsoid ratios.
"""

from framegeo import (SuiteSpec, estimate_volume, polytope_from_frame,
                      cross_projection, project_standard_basis,
                      random_subspace, run_suite, verify_volume_bounds,
                      equality_subspace, volume)

report = verify_volume_bounds(random_subspace(6, 3, seed=4))
print("one random 3-plane in R^6:")
for key in ("lowner_ratio", "cross_projection_ratio",
            "cube_section_ratio", "john_ratio"):
    print(f"  {key:>24}: {report.ratios[key]:.6f} "
          f"(bound {report.bounds[key]:.6f}, pass {report.passes[key]})")
print(f"  sandwich holds: cube <= john is {report.passes['chain_cube']}, "
      f"cross >= lowner is {report.passes['chain_cross']}")
print(f"  proved inequalities: Vaaler {report.passes['vaaler']}, "
      f"Blaschke-Santalo {report.passes['blaschke_santalo']}")

# Monte Carlo agrees with the exact convex-hull volume
frame = project_standard_basis(random_subspace(7, 3, seed=8))
section = polytope_from_frame(frame)
exact = volume(section)
est = estimate_volume(section, samples=200_000, seed=1)
print(f"\nexact section volume {exact:.6f}, Monte Carlo {est.value:.6f} "
      f"+/- {est.standard_error:.6f}")

hull = cross_projection(frame)
exact = volume(hull)
est = estimate_volume(hull, samples=200_000, seed=2)
print(f"exact projection volume {exact:.6f}, Monte Carlo {est.value:.6f} "
      f"+/- {est.standard_error:.6f}")

print("\nequality case (8, 4): every ratio sits on its bound")
r = verify_volume_bounds(equality_subspace(8, 4))
print(f"  ratios: { {k: round(v, 9) for k, v in r.ratios.items()} }")

print("\nsmall verification suite as CSV:")
_, csv_text = run_suite([SuiteSpec(n=5, k=2, trials=3, seed=11)])
print(csv_text)
