"""
Down-closed families and the averaging inequality
=================================================

Partition shapes are partially ordered by prefix-sum dominance.  For a
down-closed family the pattern polynomial peaks at the uniform point, so
its maximum is an exact rational.  The second half prints the grouped
coefficients behind the two-variable averaging step: nonpositive inside
the window, nonnegative outside, zero in total.
"""

from fractions import Fraction

from turangap import (
    DownSet,
    bunching_indices,
    bunching_verify,
    compositions,
    dominates,
    iter_down_sets,
    uniform_value_exact,
    verify_lemma,
)

print("shapes of 4 into at most 3 parts:", compositions(4, 3))
print("(3,1,0) dominates (2,1,1):", dominates((3, 1, 0), (2, 1, 1)))
print("(2,2,0) vs (3,1,0):", dominates((2, 2, 0), (3, 1, 0)), "\n")

families = list(iter_down_sets(3, 3))
print(f"{len(families)} down-closed families at r=3, s=3:")
for a in families:
    u = uniform_value_exact(a)
    print(f"  uniform value {str(u):<6} members {sorted(a.members)}")

# optimizer vs exact value, certified both ways
a = DownSet.from_generators(3, 3, [(2, 1, 0)])
rep = verify_lemma(a)
print(f"\nfamily {sorted(a.members)}:")
print(f"  exact uniform value {rep.uniform_value} = {float(rep.uniform_value):.9f}")
print(f"  optimizer found     {rep.opt_value:.9f} (kkt {rep.kkt_residual:.1e})")
print(f"  grid upper bound    {rep.grid_bound:.6f}")
print(f"  passed: {rep.passed}")

print("\ngrouped averaging coefficients, r=4:")
for h2 in bunching_indices(4):
    h = Fraction(h2, 2)
    rep = bunching_verify(4, h, samples=200, seed=0)
    total = sum((c for _, c in rep.coefficients), Fraction(0))
    print(f"  window h={h}: zero sum {total == 0}, "
          f"signs ok {rep.inside_ok and rep.outside_ok}, "
          f"sampled min {float(rep.sample_min):.3f}")
    for j2, c in rep.coefficients:
        if c:
            print(f"    j={Fraction(j2, 2)}: {c}")
