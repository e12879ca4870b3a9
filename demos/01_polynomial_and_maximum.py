"""
Multiset patterns and their simplex maxima
==========================================

Build a small pattern, inspect its weighted polynomial, and certify the
polynomial's maximum over the probability simplex.
"""

import numpy as np

from turangap import (
    OptimizerConfig,
    Pattern,
    certificate,
    evaluate,
    evaluate_exact,
    maximize,
)

# a 3-uniform pattern on 3 vertices: one multiset repeats vertex 1
pattern = Pattern.from_element_lists(3, 3, [(1, 1, 2), (1, 2, 3)])

print("monomials (exponents -> coefficient):")
for exps, coeff in pattern.monomials:
    print(f"  {exps} -> {coeff}")

# exact and floating evaluation agree
x = np.array([0.5, 0.5, 0.0])
print(f"\nvalue at (1/2, 1/2, 0): {evaluate(pattern, x)}")
print(f"same point, exact arithmetic: {evaluate_exact(pattern, (0.5, 0.5, 0.0))}")

# multi-start projected gradient ascent with a KKT certificate
res = maximize(pattern, OptimizerConfig(starts=24, seed=0))
print(f"\nmaximum over the simplex: {res.value:.12f}  (4/9 = {4 / 9:.12f})")
print(f"argmax: ({', '.join(f'{v:.6f}' for v in res.point)})")
print(f"kkt residual: {res.kkt_residual:.3e}")

cert = certificate(pattern, res)
print(f"certificate keys: {sorted(cert)}")
