"""
A one-edge-at-a-time density chain
==================================

Add the triples on 6 vertices one at a time (colex order) and take the
simplex maximum after every insertion: exactly where the rung is a complete
pattern K_t, or K_{t-1} with a vertex pair left uncovered, and by the
optimizer elsewhere.  Consecutive maxima never differ by more than
3!/3^3 = 2/9, the values climb monotonically, and whenever a step comes
close to the bound the value it started from was already near zero.
One audit, ``verify_gap_bound``, checks all three, and that every
optimizer rung ended at a stationary point (KKT residual at most 1e-6).
"""

from math import comb

from turangap import build_chain_ladder, minimal_m, verify_gap_bound

lad = build_chain_ladder(3, 6, order="colex", seed=0)

print(f"{comb(6, 3)} edges inserted, {len(lad.values)} ladder rungs")
print(f"closed-form rungs: {len(lad.closed_form_rungs)} of {len(lad.edges)}\n")
print(" idx  value        step         kkt")
steps = (0.0,) + lad.steps
for i, v in enumerate(lad.values):
    print(f" {i:3d}  {v:.9f}  {steps[i]:.9f}  {lad.kkt_residuals[i]:.1e}")

gap = verify_gap_bound(lad)
print(f"\nstep bound 2/9: max step {lad.max_step:.9f} at index {lad.max_step_index}")
print(f"violations: steps={gap.step_violations} monotone={gap.monotone_violations}")
# steps within 0.01 of 2/9 must start below 0.01
print(f"near-equality rungs: {gap.near_triggered}, violations: {gap.near_violations}")
print(f"optimizer rungs with a KKT residual above 1e-6: {gap.kkt_violations}")
# rung 0 is the least value, so bounded steps leave no longer gap on the value axis
print(f"every check passed: {gap.ok}")

# 6 vertices cannot push the density past 1 - 2/9; that takes m >= 13
print(f"\ntop value {lad.exact_values[-1]} vs threshold {1 - gap.bound:.6f}")
print(f"smallest m whose complete density crosses it: {minimal_m(3)}")
print("rerun with build_chain_ladder(3, 13) to watch the crossing (a few seconds)")
