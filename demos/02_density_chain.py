"""
A one-edge-at-a-time density chain
==================================

Add the triples on 6 vertices one at a time (colex order) and maximize
after every insertion.  Consecutive maxima never differ by more than
3!/3^3 = 2/9, the values climb monotonically, and whenever a step comes
close to the bound the value it started from was already near zero.
"""

from math import comb

from turangap import (
    ChainConfig,
    OptimizerConfig,
    build_chain_ladder,
    minimal_m,
    near_equality_check,
    value_axis_cover_ok,
    verify_gap_bound,
)

config = ChainConfig(r=3, m=6, opt=OptimizerConfig(starts=24, seed=0))
lad = build_chain_ladder(config)

print(f"{comb(6, 3)} edges inserted, {len(lad.values)} ladder rungs\n")
print(" idx  value        step         kkt")
steps = (0.0,) + lad.steps
for i, v in enumerate(lad.values):
    print(f" {i:3d}  {v:.9f}  {steps[i]:.9f}  {lad.kkt_residuals[i]:.1e}")

gap = verify_gap_bound(lad)
print(f"\nstep bound 2/9: max step {gap.max_step:.9f} at index {gap.max_step_index}")
print(f"violations: steps={gap.step_violations} monotone={gap.monotone_violations}")

near = near_equality_check(lad)  # steps within 0.01 of 2/9 must start below 0.01
print(f"near-equality rungs: {near.triggered}, violations: {near.violations}")
print(f"every value gap within the bound: {value_axis_cover_ok(lad)}")

# 6 vertices cannot push the density past 1 - 2/9; that takes m >= 13
print(f"\ntop value {lad.values[-1]:.6f} vs threshold {1 - 2 / 9:.6f}")
print(f"smallest m whose complete density crosses it: {minimal_m(3)}")
print("rerun with ChainConfig(3, 13, ...) to watch the crossing (about a minute)")
