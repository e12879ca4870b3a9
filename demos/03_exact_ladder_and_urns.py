"""
Exact ladders from balls-in-urns probabilities
==============================================

Throwing r balls into r urns and sorting the occupancy vector gives a
probability for each partition shape.  Accumulated along a fixed linear
order, those probabilities tile [0, 1] exactly, and the largest single
tile shrinks as r grows.
"""

from turangap import ladder, max_step, mc_verdict, monte_carlo_urns, occupancy_count

for r in (2, 3, 4):
    print(f"ladder r={r}:")
    for i, e in enumerate(ladder(r)):
        shape = e.composition if e.composition else "(start)"
        print(f"  {i}  {str(shape):<18} value {str(e.value):<8} step {e.step}")
    print()

# the widest rung per r, exact
print("largest step by r:")
for r in range(2, 13):
    step, comp = max_step(r)
    print(f"  r={r:2d}  {str(step):<16} = {float(step):.6f}  at {comp}")

big4 = max_step(4)[0]
big12 = max_step(12)[0]
print(f"\nmax step falls from {big4} (r=4) to {big12} (r=12): {big12 < big4}")

# simulation agrees with the closed form
trials = 200_000
freq = monte_carlo_urns(3, trials=trials, seed=0)
print(f"\n{trials} random throws, r=3:")
for comp, f in freq.items():
    exact = occupancy_count(comp, 3) / 3**3
    print(f"  {comp}  exact {exact:.6f}  empirical {f:.6f}")
verdict = mc_verdict(freq, trials, 3)
print(f"worst n*KL {verdict.worst:.2f}, limit {verdict.limit:.2f} (false-alarm rate 1e-6)")

assert sum(freq.values()) == 1.0
assert verdict.ok
assert sum(occupancy_count(c, 3) for c in freq) == 3**3
