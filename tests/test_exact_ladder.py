"""Exact ladders, urn probabilities, and the uniform-value lemma."""

from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from turangap import (
    DownSet,
    LadderEntry,
    eval_uniform_exact,
    ladder,
    lagrange_polynomial,
    linear_extension,
    max_step,
    monte_carlo_urns,
    occupancy_count,
    pattern_of,
    uniform_value_exact,
    urn_probability_exact,
    verify_lemma,
)

from oracles import brute_occupancy_counts, enumerated_occupancy_counts


def uniform_value_via_polynomial(a: DownSet) -> Fraction:
    """Second route to the uniform value, through the pattern polynomial."""
    return eval_uniform_exact(lagrange_polynomial(pattern_of(a)), a.s)


def _plain_monte_carlo(r: int, trials: int, seed: int) -> dict:
    """Per-row Python tally of the same draws monte_carlo_urns makes."""
    throws = np.random.default_rng(seed).integers(0, r, size=(trials, r))
    tally: Counter = Counter()
    for row in throws.tolist():
        occ = [0] * r
        for v in row:
            occ[v] += 1
        tally[tuple(sorted(occ, reverse=True))] += 1
    return {comp: tally[comp] / trials for comp in linear_extension(r)}


@pytest.mark.parametrize("r,s", [(2, 2), (3, 3), (4, 4), (5, 5), (3, 5), (5, 2), (6, 3), (6, 4)])
def test_occupancy_count_vs_brute_force(r, s):
    brute = brute_occupancy_counts(r, s)
    total = 0
    for comp, want in brute.items():
        got = occupancy_count(comp, s)
        assert got == want, (comp, got, want)
        total += got
    assert total == s**r
    assert enumerated_occupancy_counts(r, s) == brute


def test_occupancy_count_validation():
    with pytest.raises(ValueError):
        occupancy_count((1, 2, 0), 3)  # must be sorted non-increasing
    with pytest.raises(ValueError):
        occupancy_count((2, 1), 1)  # more support than urns


def test_urn_probability_examples():
    assert urn_probability_exact((1, 1, 1)) == Fraction(2, 9)
    assert urn_probability_exact((2, 1, 0)) == Fraction(2, 3)
    assert urn_probability_exact((3, 0, 0)) == Fraction(1, 9)
    assert urn_probability_exact((2, 0)) == Fraction(1, 2)
    # general urn count: 2 balls in 3 urns landing together
    assert urn_probability_exact((2, 0, 0), 3) == Fraction(1, 3)


@pytest.mark.parametrize("r", range(2, 11))
def test_ladder_telescopes_and_steps_are_urn_probabilities(r):
    rungs = ladder(r)
    order = linear_extension(r)
    counts = enumerated_occupancy_counts(r, r)
    assert len(rungs) == len(order) + 1
    assert rungs[0] == LadderEntry(0, None, Fraction(0), Fraction(0))
    assert rungs[-1].value == 1
    prev = Fraction(0)
    for idx, entry in enumerate(rungs[1:], start=1):
        assert entry.index == idx
        assert entry.composition == order[idx - 1]
        assert entry.step == Fraction(counts[entry.composition], r**r)
        assert entry.value == prev + entry.step
        assert entry.value > prev
        prev = entry.value


def test_r3_ladder_exact_values():
    rungs = ladder(3)
    assert [e.value for e in rungs] == [0, Fraction(2, 9), Fraction(8, 9), 1]
    assert [e.step for e in rungs[1:]] == [
        Fraction(2, 9),
        Fraction(2, 3),
        Fraction(1, 9),
    ]


def test_r2_ladder_exact_values():
    assert [e.value for e in ladder(2)] == [0, Fraction(1, 2), 1]


def test_ladder_entry_validation():
    with pytest.raises(ValueError):
        LadderEntry(0, None, Fraction(-1, 2), Fraction(0))
    with pytest.raises(ValueError):
        LadderEntry(0, None, Fraction(1, 2), Fraction(-1, 9))
    with pytest.raises(ValueError):
        LadderEntry(0, None, Fraction(3, 2), Fraction(0))


def test_max_step_small_cases():
    assert max_step(2) == (Fraction(1, 2), (1, 1))
    assert max_step(3) == (Fraction(2, 3), (2, 1, 0))
    assert max_step(4) == (Fraction(9, 16), (2, 1, 1, 0))


def test_max_step_ties_go_to_earliest_rung():
    # r=2 has probabilities 1/2 and 1/2; the earlier rung must win
    value, comp = max_step(2)
    assert comp == linear_extension(2)[0]
    assert value == Fraction(1, 2)


def test_largest_step_shrinks_from_r4_to_r12():
    big, comp = max_step(12)
    # recorded by the multinomial enumeration route
    assert big == Fraction(741125, 3981312)
    assert comp == (3, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0)
    # r = 30 has C(59, 30) ~ 6e16 ordered occupancy vectors, out of reach
    # of any enumeration, but only p(30) = 5604 partitions
    far, far_comp = max_step(30)
    assert far < big < max_step(4)[0]
    assert far >= Fraction(factorial(30), 30**30)
    assert sum(far_comp) == 30 and len(far_comp) == 30


def test_monte_carlo_deterministic_and_complete():
    a = monte_carlo_urns(3, trials=2000, seed=7)
    b = monte_carlo_urns(3, trials=2000, seed=7)
    assert a == b
    c = monte_carlo_urns(3, trials=2000, seed=8)
    assert c != a
    # every composition gets a key, even ones never sampled
    assert set(a) == set(linear_extension(3))
    assert abs(sum(a.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("r,trials,seed", [(3, 2000, 7), (8, 20000, 1), (17, 3000, 2)])
def test_monte_carlo_tally_matches_plain_oracle(r, trials, seed):
    # r = 17 is past the int64 range of a base-(r+1) key (18^17 > 2^63),
    # where a key-and-bincount tally cannot run
    freq = monte_carlo_urns(r, trials, seed)
    assert list(freq) == list(linear_extension(r))
    assert freq == _plain_monte_carlo(r, trials, seed)
    if r > 3:  # rare shapes such as (r, 0, ..., 0) go unsampled
        assert 0.0 in freq.values()


def test_monte_carlo_validation():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        monte_carlo_urns(3, trials=0)
    for r in (0, -1):
        with pytest.raises(ValueError, match="r must be >= 1"):
            monte_carlo_urns(r, trials=10)


def test_monte_carlo_single_trial():
    freq = monte_carlo_urns(4, trials=1, seed=3)
    assert sorted(freq.values(), reverse=True)[0] == 1.0
    assert sum(v > 0 for v in freq.values()) == 1


def test_monte_carlo_matches_exact_roughly():
    freq = monte_carlo_urns(3, trials=200_000, seed=0)
    for comp in linear_extension(3):
        exact = float(urn_probability_exact(comp))
        # 4 sigma of a binomial proportion at 2e5 trials
        sigma = (exact * (1 - exact) / 200_000) ** 0.5
        assert abs(freq[comp] - exact) <= 4 * sigma + 1e-12, comp


def test_uniform_value_two_routes_agree():
    for r in range(2, 6):
        for s in range(2, 6):
            full = DownSet.from_generators(r, s, [(r,) + (0,) * (s - 1)])
            half = DownSet(
                r, s, frozenset(c for c in full.members if c[0] < r)
            ) if any(c[0] < r for c in full.members) else None
            for a in filter(None, (full, half)):
                direct = uniform_value_exact(a)
                via_poly = uniform_value_via_polynomial(a)
                assert direct == via_poly, (r, s, sorted(a.members))
    # the complete family always has uniform value exactly 1
    assert uniform_value_exact(DownSet.from_generators(4, 3, [(4, 0, 0)])) == 1


def test_uniform_value_examples():
    a = DownSet(3, 3, frozenset({(1, 1, 1)}))
    assert uniform_value_exact(a) == Fraction(2, 9)
    b = DownSet.from_generators(3, 3, [(2, 1, 0)])
    assert uniform_value_exact(b) == Fraction(8, 9)
    assert uniform_value_exact(DownSet(3, 3, frozenset())) == 0


def test_verify_lemma_passes_on_small_family():
    a = DownSet.from_generators(3, 2, [(2, 1)])
    report = verify_lemma(a)
    assert report.passed
    assert report.uniform_value == uniform_value_exact(a)
    assert report.lower_ok and report.upper_ok
    assert report.grid_bound is not None
    assert report.opt_value <= float(report.uniform_value) + 1e-6
    assert report.opt_value >= float(report.uniform_value) - 1e-9


def test_verify_lemma_empty_family():
    report = verify_lemma(DownSet(3, 2, frozenset()))
    assert report.passed
    assert report.uniform_value == 0
    assert report.opt_value == 0


def test_verify_lemma_skips_grid_for_many_urns():
    a = DownSet(3, 7, frozenset({(1, 1, 1, 0, 0, 0, 0)}))
    report = verify_lemma(a)
    assert report.grid_bound is None
    assert report.passed
