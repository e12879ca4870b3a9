"""
A one-edge-at-a-time density chain
==================================

Add the triples on 6 vertices one at a time (colex order) and take the
simplex maximum after every insertion: exactly where the rung is a complete
pattern K_t, or K_{t-1} with a vertex pair left uncovered; on a segment, a
triangle or a tetrahedron where its vertices form two, three or four
classes of twins (swapping two twins fixes the edge set); and by the
optimizer on five or more classes, of which this chain has none.
Consecutive maxima never differ by more than 3!/3^3 = 2/9, the values
climb monotonically, and a step from value v is at most 2/9 (1 - v), so a
step near the bound starts near zero.
One audit, ``verify_gap_bound``, checks all three, that every rung with
no closed form ended at a stationary point (KKT residual at most 1e-6),
and, from m = minimal_m(3) = 13 on, that the top value crosses 1 - 2/9.
"""

from math import comb

from turangap import build_chain_ladder, minimal_m, verify_gap_bound

lad = build_chain_ladder(3, 6, order="colex", seed=0)

print(f"{comb(6, 3)} edges inserted, {len(lad.values)} ladder rungs")
print(f"closed-form rungs: {len(lad.closed_form_rungs)} of {len(lad.edges)}")
print(f"segment rungs: {lad.segment_rungs}")
print(f"triangle rungs: {lad.triangle_rungs}")
print(f"tetrahedron rungs: {lad.tetrahedron_rungs}\n")
print(" idx  value        step         kkt")
steps = (0.0,) + lad.steps
for i, v in enumerate(lad.values):
    print(f" {i:3d}  {v:.9f}  {steps[i]:.9f}  {lad.kkt_residuals[i]:.1e}")

gap = verify_gap_bound(lad)
print(f"\nstep bound 2/9: max step {lad.max_step:.9f} at index {lad.max_step_index}")
# every step must lie in [0, 2/9]: no fall, no rise beyond the bound
print(f"steps outside [0, 2/9]: {gap.step_violations}")
# a step from value v may not exceed 2/9 (1 - v): the full 2/9 only from 0
print(f"steps above 2/9 (1 - previous value): {gap.near_violations}")
print(f"rungs with no closed form and a KKT residual above 1e-6: {gap.kkt_violations}")
# rung 0 is the least value, so bounded steps leave no longer gap on the value axis
print(f"every check passed: {gap.ok}")

# 6 vertices cannot push the density past 1 - 2/9; that takes m >= 13
print(f"\ntop value {lad.exact_values[-1]} vs threshold {1 - gap.bound:.6f}")
# below minimal_m the audit claims nothing about the top rung
print(f"top value checked: {gap.top_ok}")
print(f"smallest m whose complete density crosses it: {minimal_m(3)}")
print("rerun with build_chain_ladder(3, 13) to watch the crossing")
