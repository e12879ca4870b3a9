"""One-edge-at-a-time chains and the step-size bound."""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from turangap import (
    ChainConfig,
    OptimizerConfig,
    build_chain_ladder,
    edge_enumeration,
    minimal_m,
    near_equality_check,
    value_axis_cover_ok,
    verify_gap_bound,
)


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
    cfg = ChainConfig(3, 3, opt=OptimizerConfig(starts=8, seed=0))
    lad = build_chain_ladder(cfg)
    assert len(lad.values) == 2
    assert lad.values[0] == 0.0
    assert abs(lad.values[1] - 2 / 9) < 1e-9
    assert lad.max_step_index == 1
    assert max(lad.kkt_residuals) < 1e-6


def test_m6_chain_satisfies_every_check():
    cfg = ChainConfig(3, 6, opt=OptimizerConfig(starts=24, seed=0))
    lad = build_chain_ladder(cfg)
    assert len(lad.values) == comb(6, 3) + 1

    gap = verify_gap_bound(lad)
    assert gap.ok
    assert gap.step_violations == ()
    assert gap.monotone_violations == ()
    assert not gap.top_checked  # 6 < minimal_m(3), threshold not in force
    assert gap.max_step <= 2 / 9 + 1e-6
    # the very first edge is the worst step at this size
    assert gap.max_step_index == 1
    # complete pattern on 6 vertices peaks at 5/9
    assert abs(lad.values[-1] - 5 / 9) < 1e-7

    near = near_equality_check(lad)
    assert near.ok
    assert 1 in near.triggered
    assert near.violations == ()

    assert value_axis_cover_ok(lad)


def test_chain_is_deterministic():
    cfg = ChainConfig(3, 5, opt=OptimizerConfig(starts=12, seed=4))
    a = build_chain_ladder(cfg)
    b = build_chain_ladder(cfg)
    assert a.values == b.values
    assert a.points == b.points


def test_chain_values_monotone_r4():
    cfg = ChainConfig(4, 5, opt=OptimizerConfig(starts=16, seed=0))
    lad = build_chain_ladder(cfg)
    gap = verify_gap_bound(lad)
    assert gap.ok
    assert gap.max_step <= factorial(4) / 4**4 + 1e-6
    assert lad.values[-1] == max(lad.values)


def test_gap_report_fields():
    cfg = ChainConfig(3, 4, opt=OptimizerConfig(starts=12, seed=0))
    gap = verify_gap_bound(build_chain_ladder(cfg))
    assert gap.r == 3 and gap.m == 4
    assert abs(gap.bound - 2 / 9) < 1e-15
    assert gap.top_threshold == pytest.approx(1 - 2 / 9)
    assert 0 < gap.max_step <= gap.bound + 1e-6
    assert gap.ok


def test_near_equality_flags_only_small_predecessors():
    cfg = ChainConfig(3, 6, opt=OptimizerConfig(starts=24, seed=0))
    near = near_equality_check(build_chain_ladder(cfg), eps=0.01, delta=0.01)
    # a step within eps of the bound forces the previous value below delta
    assert near.triggered != ()
    assert near.violations == ()
    assert near.ok
