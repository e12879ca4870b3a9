"""Acceptance checks.

Each test exercises one headline capability end to end and prints a single
[PASS]/[FAIL] line (visible even under capture) so a full run reads as a
ten-line scorecard.  Tolerances are pinned here and nowhere looser.
"""

import random
import warnings
from fractions import Fraction
from itertools import combinations, product
from math import factorial

import numpy as np
import pytest

from turangap import (
    Pattern,
    BlowupSpec,
    blow_up,
    build_chain_ladder,
    bunching_indices,
    bunching_verify,
    evaluate,
    iter_down_sets,
    ladder,
    maximize,
    minimal_m,
    mc_verdict,
    monte_carlo_urns,
    occupancy_count,
    simple_pattern,
    verify_gap_bound,
    verify_lemma,
)
from turangap.dominance import linear_extension
from turangap.simplex import gradient

from oracles import complete_pattern, enumerated_occupancy_counts, max_value_gap, restrict

WORKED = Pattern.from_element_lists(3, 3, [(1, 1, 2), (1, 2, 3)])


def _report(capsys, label: str, failures: list) -> None:
    ok = not failures
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"{label}: {failures}"


def test_criterion_01_worked_pattern_polynomial(capsys):
    failures = []
    got = dict(WORKED.monomials)
    want = {(2, 1, 0): Fraction(3), (1, 1, 1): Fraction(6)}
    if got != want:
        failures.append(f"monomials {got} != {want}")
    if evaluate(WORKED, np.array([0.5, 0.5, 0.0])) != 0.375:
        failures.append("evaluation at (1/2, 1/2, 0) is not exactly 0.375")
    _report(capsys, "01 worked pattern: 3 x1^2 x2 + 6 x1 x2 x3, value 3/8 at (1/2,1/2,0)", failures)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_criterion_02_single_edge_anchor(r, capsys):
    failures = []
    pattern = simple_pattern(r, r, [tuple(range(1, r + 1))])
    res = maximize(pattern)
    target = factorial(r) / r**r
    if abs(res.value - target) > 1e-8:
        failures.append(f"value {res.value} vs {target}")
    if max(abs(v - 1 / r) for v in res.point) > 1e-5:
        failures.append(f"point {res.point} not uniform")
    _report(capsys, f"02 single-edge max r={r}: r!/r^r at the uniform point", failures)


def test_criterion_03_complete_pair_pattern(capsys):
    failures = []
    for m in range(2, 9):
        res = maximize(complete_pattern(2, m))
        target = (m - 1) / m
        if abs(res.value - target) > 1e-7:
            failures.append(f"m={m}: {res.value} vs {target}")
    _report(capsys, "03 complete pair pattern m=2..8: maximum is (m-1)/m", failures)


def test_criterion_04_chain_m6(capsys):
    failures = []
    lad = build_chain_ladder(3, 6)
    gap = verify_gap_bound(lad)
    if gap.step_violations:
        failures.append(f"steps outside [0, 2/9] at {gap.step_violations}")
    if lad.exact_values[-1] != Fraction(5, 9):
        failures.append(f"top {lad.exact_values[-1]} vs 5/9")
    if lad.max_step > 2 / 9 + 1e-6:
        failures.append(f"max step {lad.max_step}")
    if gap.near_violations:
        failures.append(f"near-equality violations {gap.near_violations}")
    if max_value_gap(lad.values) > 2 / 9 + 1e-6:
        failures.append("value axis not covered within the step bound")
    _report(capsys, "04 chain r=3 m=6: monotone to 5/9, steps within 2/9, near-equality", failures)


def test_criterion_04b_chain_crosses_threshold(capsys):
    failures = []
    m = minimal_m(3)
    if m != 13:
        failures.append(f"minimal m {m} != 13")
    lad = build_chain_ladder(3, m)
    gap = verify_gap_bound(lad)
    if lad.exact_values[-1] != Fraction(132, 169):
        failures.append(f"top {lad.exact_values[-1]} vs 132/169")
    if lad.exact_values[-1] <= 1 - Fraction(2, 9):
        failures.append(f"top {lad.exact_values[-1]} does not cross 7/9")
    if gap.top_ok is not True:
        failures.append(f"gap report top_ok {gap.top_ok}, not True")
    if not gap.ok:
        failures.append("gap report not ok")
    if max(lad.kkt_residuals) >= 1e-6:
        failures.append(f"kkt residual {max(lad.kkt_residuals)}")
    if max_value_gap(lad.values) > 2 / 9 + 1e-6:
        failures.append("value axis not covered within the step bound")
    _report(capsys, "04b chain r=3 m=13: top value 132/169 crosses 1 - 2/9", failures)


def test_criterion_05_uniform_value_lemma_sweep(capsys):
    # dense families at s=3 legitimately trip the coarse-grid flag: the
    # additive Lipschitz term scales with the coefficient sum.  The flags are
    # recorded and counted, not filtered away: 4 of the 20 families, all s=3
    failures = []
    flagged = []
    for r, s in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]:
        for a in iter_down_sets(r, s):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rep = verify_lemma(a)
            flagged += [(s, str(w.message)) for w in caught]
            u = float(rep.uniform_value)
            if not (u - 1e-9 <= rep.opt_value <= u + 1e-6):
                failures.append(f"r={r} s={s} {sorted(a.members)}: "
                                f"opt {rep.opt_value} vs uniform {u}")
            if not rep.passed:
                failures.append(f"r={r} s={s} {sorted(a.members)}: report failed")
    coarse = [s for s, msg in flagged if msg.startswith("grid resolution 200 too coarse")]
    if len(flagged) != 4 or coarse != [3] * 4:
        failures.append(f"expected 4 coarse-grid warnings, all at s=3; got {flagged}")
    _report(capsys, "05 down-closed families r,s<=5: optimizer max equals uniform value", failures)


def test_criterion_06_exact_ladders(capsys):
    failures = []
    for r in range(2, 11):
        rungs = ladder(r)
        counts = enumerated_occupancy_counts(r, r)
        prev = Fraction(0)
        for i, entry in enumerate(rungs[1:], start=1):
            if entry.step != Fraction(counts[entry.composition], r**r):
                failures.append(f"r={r} rung {i}: step mismatch")
            if entry.value != prev + entry.step:
                failures.append(f"r={r} rung {i}: telescoping broken")
            prev = entry.value
        if prev != 1:
            failures.append(f"r={r}: ladder tops out at {prev}")
    if [e.value for e in ladder(3)] != [0, Fraction(2, 9), Fraction(8, 9), 1]:
        failures.append("r=3 ladder values wrong")
    _report(capsys, "06 ladders r=2..10 telescope 0 to 1 by urn probabilities; r=3 is (0, 2/9, 8/9, 1)", failures)


def test_criterion_07_urn_formula_vs_enumeration(capsys):
    failures = []
    for r in range(2, 7):
        counts: dict = {}
        for func in product(range(r), repeat=r):
            occ = [0] * r
            for v in func:
                occ[v] += 1
            key = tuple(sorted(occ, reverse=True))
            counts[key] = counts.get(key, 0) + 1
        for comp in linear_extension(r):
            if occupancy_count(comp, r) != counts.get(comp, 0):
                failures.append(f"r={r} {comp}: closed form disagrees with enumeration")
    _report(capsys, "07 occupancy closed form matches full r^r enumeration, r=2..6", failures)


def test_criterion_08_monte_carlo_verdict(capsys):
    failures = []
    trials = 1_000_000
    for r in range(3, 7):
        verdict = mc_verdict(monte_carlo_urns(r, trials=trials, seed=0), trials, r)
        if not verdict.ok:
            failures.append(f"r={r}: n*KL {verdict.worst:.2f} above {verdict.limit:.2f}")
    _report(capsys, "08 monte carlo urns r=3..6, 1e6 trials, seed 0: "
            "verdict at false-alarm rate 1e-6", failures)


def test_criterion_09_bunching_inequality(capsys):
    failures = []
    for r in range(2, 11):
        for h2 in bunching_indices(r):
            rep = bunching_verify(r, Fraction(h2, 2))
            if not (rep.inside_ok and rep.outside_ok):
                failures.append(f"r={r} h={Fraction(h2, 2)}: sign structure broken")
            if not rep.zero_sum_ok:
                failures.append(f"r={r} h={Fraction(h2, 2)}: coefficients do not sum to 0")
            if rep.sample_min < -Fraction(1, 10**10):
                failures.append(f"r={r} h={Fraction(h2, 2)}: sampled min {rep.sample_min}")
    _report(capsys, "09 averaging inequality r=2..10, all windows: signs, zero sum, sampled min >= 0", failures)


def test_criterion_10_property_battery(capsys):
    failures = []
    rng = random.Random(0)

    # finite differences confirm the analytic gradient
    for trial in range(20):
        r = rng.randint(2, 4)
        m = rng.randint(r, r + 3)
        universe = [
            c for c in combinations(sorted(rng.choices(range(1, m + 1), k=r * 3)), r)
        ]
        edges = sorted(set(universe))[: rng.randint(1, 5)]
        if not edges:
            continue
        p = Pattern.from_element_lists(r, m, edges)
        x = np.array([rng.uniform(0.05, 1.0) for _ in range(m)])
        x /= x.sum()
        g = gradient(p, x)
        h = 1e-6
        for i in range(m):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (evaluate(p, xp) - evaluate(p, xm)) / (2 * h)
            if abs(g[i] - fd) > 1e-5 * max(1.0, abs(fd)):
                failures.append(f"gradient trial {trial} coord {i}: {g[i]} vs {fd}")

    # degree-r homogeneity of the polynomial
    for _ in range(50):
        x = np.array([rng.uniform(0.0, 2.0) for _ in range(3)])
        t = rng.uniform(0.1, 2.0)
        lhs, rhs = evaluate(WORKED, t * x), t**3 * evaluate(WORKED, x)
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(rhs)):
            failures.append(f"homogeneity off at t={t}")

    # variable deletion keeps families down-closed (constructor re-validates)
    for r in range(2, 6):
        for s in range(2, 5):
            for a in iter_down_sets(r, s):
                for j in range(r + 1):
                    try:
                        restrict(a, j)
                    except ValueError as exc:
                        failures.append(f"restrict({sorted(a.members)}, {j}): {exc}")

    # blow-up edge lists match direct enumeration for every profile test
    for sizes in [(2, 2, 2), (4, 4, 4), (1, 5, 6), (3, 0, 2)]:
        spec = BlowupSpec(WORKED, sizes)
        got = set(blow_up(spec))
        n = sum(sizes)
        bounds = np.cumsum((0,) + sizes)
        part_of = {
            v: p for p in range(3) for v in range(bounds[p] + 1, bounds[p + 1] + 1)
        }
        want = set()
        allowed = set(WORKED.multisets)
        for edge in combinations(range(1, n + 1), 3):
            prof = [0, 0, 0]
            for v in edge:
                prof[part_of[v]] += 1
            if tuple(prof) in allowed:
                want.add(edge)
        if got != want:
            failures.append(f"blow-up at sizes {sizes}: {len(got)} vs {len(want)} edges")

    _report(capsys, "10 property battery: gradients, homogeneity, deletion closure, blow-up counts", failures)
