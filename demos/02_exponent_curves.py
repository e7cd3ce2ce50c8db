"""
Error and security exponents across the rate axis
==================================================

E(R|p_X) governs how fast decoding error decays; F(R|p_K) governs how
fast leakage decays.  Both are positive exactly on the window between
the two entropies.
"""

import numpy as np

from typecipher import (
    Distribution,
    admissible_thresholds,
    entropy,
    exponent_E,
    positivity_region,
)

p_X = Distribution([0.85, 0.15])
p_K = Distribution([0.55, 0.45])
info = admissible_thresholds(p_X, p_K)
print(f"H(X) = {info['h_x']:.4f}   H(K) = {info['h_k']:.4f}")
# Reliable above H(X) (the achievable threshold), secret below H(K).
print(f"rates in ({info['achievable_threshold']:.4f}, "
      f"{info['h_k']:.4f}) are workable\n")

# One call solves both exponents at every rate of the table together.
print(f"{'R':>5}  {'E(R|p_X)':>10}  {'F(R|p_K)':>10}")
for row in positivity_region(p_X, p_K, np.arange(0.1, 1.01, 0.1)):
    print(f"{row['R']:5.2f}  {row['E']:10.6f}  {row['F']:10.6f}")

# The tilted solver pins down the optimizing law as well; at rates just
# above H(X) it sits close to p_X, sliding toward uniform as R grows.
res = exponent_E(0.95, p_X)
print(f"\nargmin at R=0.95: {np.round(res.argmin, 4)}  "
      f"(entropy {entropy(res.argmin):.4f})")

# The positivity region, scanned on a grid, recovers the entropy window.
rows = positivity_region(p_X, p_K, list(np.linspace(0.05, 1.0, 20)))
both = [r["R"] for r in rows if r["E_positive"] and r["F_positive"]]
print(f"\ngrid points with both exponents positive: "
      f"{both[0]:.2f} .. {both[-1]:.2f}")
