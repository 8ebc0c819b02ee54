"""Scanning the two-power volume bounds on random subspaces.

Normalized cube-section volumes are bounded above by 2^{(n-k)/2}; that
bound is proved, so the scan treats any violation as evidence of a solver
bug.  The mirror-image lower bound 2^{(k-n)/2} for cross-polytope
projections is exploratory: the scan reads the minimum off its trials and
would serialize the first subspace falling below it, without asserting
anything.
"""

import json

from framegeo import conjecture_scan

found = False
for n, k in [(3, 2), (4, 2), (4, 3), (5, 3)]:
    s = conjecture_scan(n, k, trials=2000, seed=42)
    gap_hard = s.bound_ball2 - s.max_cube_ratio
    gap_soft = s.min_cross_ratio - s.bound_2pow
    print(f"n={n} k={k}: max cube ratio {s.max_cube_ratio:.6f} "
          f"< proved bound {s.bound_ball2:.6f} (margin {gap_hard:+.6f}), "
          f"violations {len(s.ball2_violations)}")
    print(f"          min cross ratio {s.min_cross_ratio:.6f} "
          f"vs soft bound {s.bound_2pow:.6f} (margin {gap_soft:+.6f})")
    if s.counterexample is not None:
        found = True
        print("          candidate below the soft bound:")
        print(json.dumps(s.counterexample, indent=2))

if not found:
    print("\nno candidate found: the soft bound survived every draw above.")
