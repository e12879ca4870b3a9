"""Exact ladders, urn probabilities, and the uniform-value lemma."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial, log, sqrt

import numpy as np
import pytest

from turangap import (
    DownSet,
    ladder,
    max_step,
    mc_verdict,
    monte_carlo_urns,
    occupancy_count,
    uniform_value_exact,
    verify_lemma,
)
from turangap.dominance import linear_extension, pattern_of
from turangap.exact_ladder import _MC_BLOCK, LadderEntry

from oracles import brute_occupancy_counts, enumerated_occupancy_counts, eval_uniform_exact


def uniform_value_via_polynomial(a: DownSet) -> Fraction:
    """Second route to the uniform value, through the pattern polynomial."""
    return eval_uniform_exact(pattern_of(a), a.s)


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


def _biased_monte_carlo(r: int, trials: int, seed: int, bias: float) -> dict:
    """Frequencies from a faulty sampler: urn 0 has probability bias / r."""
    probs = np.array([bias] + [(r - bias) / (r - 1)] * (r - 1)) / r
    rng = np.random.default_rng(seed)
    tally: Counter = Counter()
    for _ in range(trials // 100_000):
        throws = rng.choice(r, size=(100_000, r), p=probs)
        occ = -np.sort(-(throws[:, :, None] == np.arange(r)).sum(axis=1), axis=1)
        tally.update(map(tuple, occ.tolist()))
    return {comp: tally[comp] / trials for comp in linear_extension(r)}


def _square_probability(comp) -> float:
    """Occupancy probability of a shape of r balls in r urns, as a float."""
    r = len(comp)
    return occupancy_count(comp, r) / r**r


def _four_sigma_ok(freq: dict, trials: int) -> bool:
    """The per-shape two-sided 4-sigma rule that mc_verdict replaced."""
    for comp, f in freq.items():
        p = _square_probability(comp)
        if abs(f - p) > 4 * sqrt(p * (1 - p) / trials) + 1e-12:
            return False
    return True


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
    assert Fraction(occupancy_count((1, 1, 1), 3), 3**3) == Fraction(2, 9)
    assert Fraction(occupancy_count((2, 1, 0), 3), 3**3) == Fraction(2, 3)
    assert Fraction(occupancy_count((3, 0, 0), 3), 3**3) == Fraction(1, 9)
    assert Fraction(occupancy_count((2, 0), 2), 2**2) == Fraction(1, 2)
    # general urn count: 2 balls in 3 urns landing together; a shorter
    # shape is padded with empty urns
    assert Fraction(occupancy_count((2, 0, 0), 3), 3**2) == Fraction(1, 3)
    assert occupancy_count((2,), 3) == occupancy_count((2, 0, 0), 3)
    # the float the ladder's Monte Carlo lines print is the exact one rounded
    for r in range(1, 16):
        for comp in linear_extension(r):
            exact = Fraction(occupancy_count(comp, r), r**r)
            assert _square_probability(comp) == float(exact), comp


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


@pytest.mark.parametrize(
    "r,trials,seed",
    [(3, 2000, 7), (8, 20000, 1), (17, 3000, 2), (35, 300, 0),
     # trial counts at the edges of the blocks monte_carlo_urns draws in
     (3, _MC_BLOCK - 1, 0), (3, _MC_BLOCK, 0), (3, _MC_BLOCK + 1, 0),
     (8, 2 * _MC_BLOCK + 1, 4),
     # r = 10 has the largest key -> slot table, r = 11 the first binary search
     (10, 20000, 5), (11, 2 * _MC_BLOCK + 1, 6)],
)
def test_monte_carlo_tally_matches_plain_oracle(r, trials, seed):
    # r = 35 is the largest r whose histogram keys fit in int64, where a
    # key collision would merge two shapes; the oracle sorts each row and
    # draws all trials in one call, so equality also pins the random stream
    # across blocks
    freq = monte_carlo_urns(r, trials, seed)
    assert list(freq) == list(linear_extension(r))
    assert freq == _plain_monte_carlo(r, trials, seed)
    if r > 3:  # rare shapes such as (r, 0, ..., 0) go unsampled
        assert 0.0 in freq.values()


def test_monte_carlo_memory_is_bounded():
    for r in (8, 10):  # r = 10 builds the largest key -> slot table
        tracemalloc.start()
        try:
            monte_carlo_urns(r, 300_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (r, peak)


def test_monte_carlo_validation():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        monte_carlo_urns(3, trials=0)
    for r in (0, -1):
        with pytest.raises(ValueError, match="r must be >= 1"):
            monte_carlo_urns(r, trials=10)


def test_monte_carlo_rejects_r_past_the_int64_key_range(monkeypatch):
    def no_enumeration(r):
        raise AssertionError("shapes listed before r was checked")

    monkeypatch.setattr("turangap.exact_ladder.linear_extension", no_enumeration)
    with pytest.raises(ValueError, match="r must be <= 35"):
        monte_carlo_urns(36, 10)


def test_monte_carlo_single_trial():
    freq = monte_carlo_urns(4, trials=1, seed=3)
    assert sorted(freq.values(), reverse=True)[0] == 1.0
    assert sum(v > 0 for v in freq.values()) == 1


def test_monte_carlo_matches_exact_roughly():
    verdict = mc_verdict(monte_carlo_urns(3, trials=200_000, seed=0), 200_000, 3)
    assert verdict.ok, verdict
    assert verdict.limit == log(2 * 3 / 1e-6)


def test_verdict_accepts_a_rare_shape_the_4_sigma_rule_rejected():
    # 4 hits of 8-0-...-0 where 0.48 are expected read as 5.1 standard
    # errors, yet a correct sampler gives 4 or more in about 1 run of 750
    freq = monte_carlo_urns(8, 10**6, 4103)
    assert freq[(8,) + (0,) * 7] * 10**6 == 4
    assert not _four_sigma_ok(freq, 10**6)
    verdict = mc_verdict(freq, 10**6, 8)
    assert verdict.ok and 4.9 < verdict.worst < 5.0, verdict
    # the rare shape is the worst one, and worst is the largest kept score
    assert set(verdict.scores) == set(freq)
    assert verdict.scores[(8,) + (0,) * 7] == verdict.worst == max(verdict.scores.values())
    assert verdict.limit == log(2 * 22 / 1e-6)
    exact = {c: _square_probability(c) for c in freq}
    assert mc_verdict(exact, 10**6, 8).worst < 1e-9


def test_verdict_rejects_a_table_missing_shapes():
    # 5 of the 11 shapes would shrink K, and with it the limit
    freq = monte_carlo_urns(6, 10_000, 0)
    partial = dict(list(freq.items())[:5])
    with pytest.raises(ValueError, match="not the compositions of r=6"):
        mc_verdict(partial, 10_000, 6)
    with pytest.raises(ValueError, match="not the compositions of r=6"):
        mc_verdict(freq | {(7, 0, 0, 0, 0, 0): 0.0}, 10_000, 6)
    with pytest.raises(ValueError, match="not the compositions of r=5"):
        mc_verdict(freq, 10_000, 5)


def test_verdict_rejects_frequencies_outside_0_1():
    # kl skips a term unless its frequency is > 0, so NaN would score 0
    freq = monte_carlo_urns(4, 1000, 0)
    with pytest.raises(ValueError, match="finite and in \\[0, 1\\]"):
        mc_verdict(dict.fromkeys(freq, float("nan")), 1000, 4)
    for bad in (-0.5, 1.5, float("inf")):
        with pytest.raises(ValueError, match="finite and in \\[0, 1\\]"):
            mc_verdict(freq | {(4, 0, 0, 0): bad}, 1000, 4)


def test_verdict_rejects_zero_trials():
    freq = monte_carlo_urns(3, 100, 0)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            mc_verdict(freq, trials, 3)


def test_verdict_rejects_an_urn_biased_sampler():
    freq = _biased_monte_carlo(6, 10**6, 0, bias=1.25)
    verdict = mc_verdict(freq, 10**6, 6)
    assert not verdict.ok and verdict.worst > 3 * verdict.limit, verdict
    assert not _four_sigma_ok(freq, 10**6)


def test_verdict_rejects_one_shifted_shape():
    freq = monte_carlo_urns(6, 10**6, 0)
    assert mc_verdict(freq, 10**6, 6).ok and _four_sigma_ok(freq, 10**6)
    comp = max(freq, key=freq.get)
    p = _square_probability(comp)
    freq[comp] += 7 * sqrt(p * (1 - p) / 10**6)
    assert not mc_verdict(freq, 10**6, 6).ok
    assert not _four_sigma_ok(freq, 10**6)


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
