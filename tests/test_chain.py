"""One-edge-at-a-time chains and the step-size bound."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from turangap import build_chain_ladder, minimal_m, verify_gap_bound
from turangap.chain import _KKT_BOUND, _STEP_SLACK, ChainLadder, edge_enumeration
from turangap.patterns import simple_pattern
import turangap.simplex as sx
from turangap.simplex import maximize

from oracles import max_value_gap


def test_minimal_m_r3_is_13():
    assert minimal_m(3) == 13
    # m = 13 clears the threshold, m = 12 does not
    bound = 1 - Fraction(factorial(3), 3**3)
    assert Fraction(factorial(3) * comb(13, 3), 13**3) > bound
    assert Fraction(factorial(3) * comb(12, 3), 12**3) <= bound


def test_minimal_m_r2():
    # 2 * C(m,2) / m^2 = (m-1)/m must exceed 1/2, so m = 3
    assert minimal_m(2) == 3


def test_minimal_m_grows():
    values = [minimal_m(r) for r in range(2, 7)]
    assert values == sorted(values)
    assert all(v > r for r, v in zip(range(2, 7), values))


def test_edge_enumeration_colex():
    assert edge_enumeration(4, 3) == (
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    )


def test_edge_enumeration_lex():
    got = edge_enumeration(4, 3, rule="lex")
    assert got == tuple(combinations(range(1, 5), 3))


def test_edge_enumeration_random_is_seeded_permutation():
    a = edge_enumeration(5, 3, rule="random", seed=11)
    b = edge_enumeration(5, 3, rule="random", seed=11)
    c = edge_enumeration(5, 3, rule="random", seed=12)
    assert a == b
    assert sorted(a) == sorted(edge_enumeration(5, 3, rule="lex"))
    assert c != a
    with pytest.raises(ValueError):
        edge_enumeration(5, 3, rule="shuffled")


def test_single_edge_chain_m_equals_r():
    lad = build_chain_ladder(3, 3)
    assert len(lad.values) == 2
    assert lad.values[0] == 0.0
    assert abs(lad.values[1] - 2 / 9) < 1e-9
    assert lad.max_step_index == 1
    assert max(lad.kkt_residuals) < 1e-6


def test_m6_chain_satisfies_every_check():
    lad = build_chain_ladder(3, 6)
    assert len(lad.values) == comb(6, 3) + 1

    gap = verify_gap_bound(lad)
    assert gap.ok and gap.steps_ok
    assert gap.step_violations == ()
    assert gap.monotone_violations == ()
    assert lad.max_step <= 2 / 9 + 1e-6
    # the very first edge is the worst step at this size
    assert lad.max_step_index == 1
    # complete pattern on 6 vertices peaks at 5/9, below 1 - 2/9
    assert lad.exact_values[-1] == Fraction(5, 9)
    assert 6 < minimal_m(3)

    # a step within 0.01 of the bound forces the previous value below 0.01
    assert 1 in gap.near_triggered
    assert gap.near_violations == ()

    assert max_value_gap(lad.values) <= 2 / 9 + 1e-6


def test_chain_is_deterministic():
    a = build_chain_ladder(3, 5, seed=4)
    b = build_chain_ladder(3, 5, seed=4)
    assert a.values == b.values
    assert a.points == b.points


def test_chain_values_monotone_r4():
    lad = build_chain_ladder(4, 5)
    gap = verify_gap_bound(lad)
    assert gap.ok
    assert lad.max_step <= factorial(4) / 4**4 + 1e-6
    assert lad.values[-1] == max(lad.values)


def test_gap_report_fields():
    gap = verify_gap_bound(build_chain_ladder(3, 4))
    assert gap.r == 3 and gap.m == 4
    assert abs(gap.bound - 2 / 9) < 1e-15
    assert gap.near_triggered == (1,)
    assert gap.ok


def _fabricated_ladder(*values: float) -> ChainLadder:
    """An r=3 ladder with the given rung values, no optimizer run; the top
    rung is closed-form, as in every built ladder."""
    edges = edge_enumeration(8, 3)[: len(values) - 1]
    exact = (Fraction(0),) + (None,) * (len(values) - 2) + (Fraction(values[-1]),)
    return ChainLadder(3, 8, edges, values, exact,
                       ((0.125,) * 8,) * len(values), (0.0,) * len(values))


def test_chain_checks_fail_beyond_their_float_slack():
    # steps are checked against 2/9 with 1e-6 slack, falls with 1e-9
    assert verify_gap_bound(_fabricated_ladder(0.0, 2 / 9 + 0.5e-6)).ok
    step_over = verify_gap_bound(_fabricated_ladder(0.0, 2 / 9 + 1.5e-6))
    assert step_over.step_violations == (1,) and not step_over.steps_ok
    assert not step_over.ok
    assert verify_gap_bound(_fabricated_ladder(0.0, 0.1, 0.1 - 0.5e-9)).ok
    falling = verify_gap_bound(_fabricated_ladder(0.0, 0.1, 0.1 - 2e-9))
    assert falling.monotone_violations == (2,) and not falling.steps_ok
    assert not falling.ok


def test_near_equality_fails_on_a_large_predecessor():
    # a step within 0.01 of 2/9 must start from a value below 0.01
    gap = verify_gap_bound(_fabricated_ladder(0.0, 0.0099, 0.0099 + 2 / 9 - 0.005))
    assert gap.near_triggered == (2,) and gap.ok
    gap = verify_gap_bound(_fabricated_ladder(0.0, 0.0101, 0.0101 + 2 / 9 - 0.005))
    assert gap.near_triggered == (2,) and gap.near_violations == (2,)
    assert gap.steps_ok and not gap.ok
    # a step just short of 2/9 - 0.01 is not audited at all
    gap = verify_gap_bound(_fabricated_ladder(0.0, 0.05, 0.05 + 2 / 9 - 0.0101))
    assert gap.near_triggered == () and gap.ok


def test_starved_optimizer_fails_the_kkt_gate(monkeypatch):
    # one ascent step leaves the optimizer rungs far from stationary while
    # every step stays below 2/9, so only the KKT gate can see it
    with monkeypatch.context() as mp:
        mp.setattr(sx, "_MAX_ITERATIONS", 1)
        starved = build_chain_ladder(3, 5)
    gap = verify_gap_bound(starved)
    assert gap.steps_ok and not gap.near_violations
    assert gap.kkt_violations == (3, 8, 9) and not gap.ok
    assert all(starved.exact_values[i] is None for i in gap.kkt_violations)
    assert verify_gap_bound(build_chain_ladder(3, 5)).kkt_violations == ()


def test_kkt_gate_reads_optimizer_rungs_against_its_bound():
    lad = _fabricated_ladder(0.0, 0.1, 0.2)  # rung 1 optimized, rung 2 closed-form
    assert verify_gap_bound(replace(lad, kkt_residuals=(0.0, _KKT_BOUND, 1.0))).ok
    over = verify_gap_bound(replace(lad, kkt_residuals=(0.0, 1.5 * _KKT_BOUND, 0.0)))
    assert over.kkt_violations == (1,) and over.steps_ok and not over.ok


_STEPS = st.one_of(st.floats(-0.3, 0.3), st.floats(-1e-9, 0.0),
                   st.floats(2 / 9 - 1e-6, 2 / 9 + 2e-6))


@given(st.lists(_STEPS, min_size=1, max_size=40))
def test_bounded_steps_leave_no_longer_gap_on_the_value_axis(steps):
    # rung 0 = 0 is the least value, as for every chain of Lagrangians
    values = [0.0]
    for d in steps:
        values.append(max(0.0, values[-1] + d))
    if verify_gap_bound(_fabricated_ladder(*values)).steps_ok:
        assert max_value_gap(values) <= 2 / 9 + _STEP_SLACK


def _qualifies(r: int, edges) -> bool:
    """The closed-form rule by brute force: K_t on the covered vertices V, or
    every r-set of V - v for some v with a pair of V in no edge."""
    have = set(edges)
    vertices = sorted({v for e in edges for v in e})
    if have == set(combinations(vertices, r)):
        return True
    if {p for e in edges for p in combinations(e, 2)} == set(combinations(vertices, 2)):
        return False
    return any(set(combinations([u for u in vertices if u != v], r)) <= have
               for v in vertices)


@pytest.mark.parametrize("r,m,order,closed", [(3, 7, "colex", 25), (4, 6, "colex", 8),
                                               (5, 8, "colex", 25), (3, 7, "lex", 3)])
def test_closed_form_rungs_qualify_by_structure_and_match_the_optimizer(r, m, order, closed):
    lad = build_chain_ladder(r, m, order)
    want = tuple(i for i in range(1, len(lad.values)) if _qualifies(r, lad.edges[:i]))
    assert lad.closed_form_rungs == want
    assert len(want) == closed
    assert lad.exact_values[0] == 0
    for i in want:
        # lambda(K_s) on the rung's support, equal to the optimizer oracle
        s = sum(x > 0 for x in lad.points[i])
        assert lad.exact_values[i] == Fraction(factorial(r) * comb(s, r), s**r)
        assert lad.values[i] == float(lad.exact_values[i])
        oracle = maximize(simple_pattern(r, m, lad.edges[:i]))
        assert abs(oracle.value - lad.values[i]) <= 1e-12, i
        assert lad.kkt_residuals[i] < 1e-12, i
    assert lad.exact_values[-1] == Fraction(factorial(r) * comb(m, r), m**r)


def test_clique_with_every_pair_covered_runs_the_optimizer():
    # colex r=3 m=5, rung 8: K_4 plus 125, 135, 235, 145 covers every pair of [5]
    lad = build_chain_ladder(3, 5)
    edges = lad.edges[:8]
    assert set(combinations(range(1, 5), 3)) <= set(edges)
    assert not _qualifies(3, edges)
    assert lad.exact_values[8] is None
    # the plateau value 3/8 would be wrong here
    assert lad.values[8] > 3 / 8 + 0.01
    assert lad.exact_values[7] == Fraction(3, 8)
