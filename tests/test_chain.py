"""One-edge-at-a-time chains and the step-size bound."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from turangap import build_chain_ladder, minimal_m, verify_gap_bound
import turangap.chain as chain_module
from turangap.chain import (
    _KKT_BOUND,
    _STEP_SLACK,
    _bernstein_argmax,
    _clique_value,
    _closed_form,
    _subdivision,
    _twin_classes,
    edge_enumeration,
)
from turangap.patterns import simple_pattern
import turangap.simplex as sx
from turangap.simplex import maximize

from oracles import (fabricated_ladder, link_table, max_value_gap, minimal_m_by_walk,
                     swap_twin_classes)


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
    assert values == [3, 13, 63, 257, 967]


def test_minimal_m_matches_the_walk_up_from_r():
    assert [minimal_m(r) for r in range(2, 11)] == [minimal_m_by_walk(r) for r in range(2, 11)]
    # the walk up takes seconds at r = 12 and over a minute at r = 14
    assert minimal_m(12) == 1228490
    assert minimal_m(14) == 11599093


def test_top_verdict_reads_the_ladders_own_m(monkeypatch):
    # the audit never walks m: lambda(K_m) is compared with 1 - r!/r^r directly
    monkeypatch.setattr(chain_module, "minimal_m", lambda r: pytest.fail("walked m"))
    assert verify_gap_bound(build_chain_ladder(3, 13)).top_ok is True
    # 0.24 on top claims nothing on 8 vertices and fails on 13
    assert verify_gap_bound(fabricated_ladder(0.0, 2 / 9, 0.24)).top_ok is None
    below = verify_gap_bound(fabricated_ladder(0.0, 2 / 9, 0.24, m=13))
    assert below.top_ok is False and not below.step_violations and not below.ok
    # the r = 2 boundary: (m - 1)/m crosses 1/2 from m = 3 on
    assert verify_gap_bound(build_chain_ladder(2, 2)).top_ok is None
    assert verify_gap_bound(build_chain_ladder(2, 3)).top_ok is True


def test_a_top_rung_with_no_exact_value_fails_from_minimal_m():
    # each step the largest from where it starts: 1 - (7/9)^7 = 0.83 on top
    lad = fabricated_ladder(*(1 - (7 / 9)**k for k in range(8)), m=13)
    assert verify_gap_bound(lad).ok and verify_gap_bound(lad).top_ok
    gap = verify_gap_bound(replace(lad, exact_values=lad.exact_values[:-1] + (None,)))
    assert gap.top_ok is False and not gap.ok


def test_edge_enumeration_colex():
    assert edge_enumeration(3, 4) == (
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    )


def test_edge_enumeration_lex():
    got = edge_enumeration(3, 4, order="lex")
    assert got == tuple(combinations(range(1, 5), 3))


def test_edge_enumeration_random_is_seeded_permutation():
    a = edge_enumeration(3, 5, order="random", seed=11)
    b = edge_enumeration(3, 5, order="random", seed=11)
    c = edge_enumeration(3, 5, order="random", seed=12)
    assert a == b
    assert sorted(a) == sorted(edge_enumeration(3, 5, order="lex"))
    assert c != a
    with pytest.raises(ValueError):
        edge_enumeration(3, 5, order="shuffled")


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
    assert gap.ok
    assert gap.step_violations == ()
    assert lad.max_step <= 2 / 9 + 1e-6
    # the very first edge is the worst step at this size
    assert lad.max_step_index == 1
    # complete pattern on 6 vertices peaks at 5/9, below 1 - 2/9
    assert lad.exact_values[-1] == Fraction(5, 9)
    assert 6 < minimal_m(3)

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
    assert gap.bound == 2 / 9
    # the exact lambda(K_r), rounded once, is the float r!/r^r
    assert all(float(_clique_value(r, r)) == factorial(r) / r**r for r in range(2, 40))
    assert gap.ok


def test_chain_checks_fail_beyond_their_float_slack():
    # each step must lie in [0, 2/9], with 1e-9 slack below and 1e-6 above
    assert verify_gap_bound(fabricated_ladder(0.0, 2 / 9 + 0.5e-6)).ok
    step_over = verify_gap_bound(fabricated_ladder(0.0, 2 / 9 + 1.5e-6))
    assert step_over.step_violations == (1,) and not step_over.ok
    assert verify_gap_bound(fabricated_ladder(0.0, 0.1, 0.1 - 0.5e-9)).ok
    falling = verify_gap_bound(fabricated_ladder(0.0, 0.1, 0.1 - 2e-9))
    assert falling.step_violations == (2,) and not falling.ok


def test_near_equality_fails_on_a_large_predecessor():
    # step i <= 2/9 (1 - values[i - 1]): a step of 2/9 - 0.005 must start
    # at or below 1 - (2/9 - 0.005) / (2/9) = 0.0225
    gap = verify_gap_bound(fabricated_ladder(0.0, 0.02, 0.02 + 2 / 9 - 0.005))
    assert gap.ok
    gap = verify_gap_bound(fabricated_ladder(0.0, 0.05, 0.05 + 2 / 9 - 0.005))
    assert gap.near_violations == (2,) and not gap.step_violations and not gap.ok
    # the full step 2/9 only from 0, with the float slack of the step bound
    assert verify_gap_bound(fabricated_ladder(0.0, 2 / 9)).ok
    gap = verify_gap_bound(fabricated_ladder(0.0, 0.01, 0.01 + 2 / 9))
    assert gap.near_violations == (2,) and not gap.step_violations
    tight = 2 / 9 * (1 - 0.2)
    assert verify_gap_bound(fabricated_ladder(0.0, 0.2, 0.2 + tight + 0.5e-6)).ok
    gap = verify_gap_bound(fabricated_ladder(0.0, 0.2, 0.2 + tight + 1.5e-6))
    assert gap.near_violations == (2,) and not gap.ok
    # a step over 2/9 is reported by the step bound alone
    gap = verify_gap_bound(fabricated_ladder(0.0, 0.05, 0.05 + 2 / 9 + 2e-6))
    assert gap.step_violations == (2,) and gap.near_violations == ()


@pytest.mark.parametrize("r,m", [(2, 6), (3, 7), (4, 6), (5, 7), (6, 7)])
def test_built_chains_meet_the_near_equality_bound_with_no_slack(r, m):
    # step i <= b (1 - values[i - 1]), with equality at the first step; at
    # r = 6 the bound b = 0.0154 lies below the old absolute tests' 0.01 + 0.01
    lad = build_chain_ladder(r, m)
    b = factorial(r) / r**r
    excess = [s - b * (1 - v) for s, v in zip(lad.steps, lad.values)]
    assert max(excess) == excess[0] == 0.0
    assert verify_gap_bound(lad).ok


def test_starved_optimizer_fails_the_kkt_gate(monkeypatch):
    # one ascent step leaves the optimizer rungs far from stationary while
    # every step stays below 5!/5^5, so only the KKT gate can see it
    with monkeypatch.context() as mp:
        mp.setattr(sx, "_MAX_ITERATIONS", 1)
        starved = build_chain_ladder(5, 8)
    gap = verify_gap_bound(starved)
    assert not gap.step_violations and not gap.near_violations
    # rungs 41, 42, 44 and 50 have five or six twin classes; the rungs with
    # two to four never reach the optimizer
    bernstein = starved.segment_rungs + starved.triangle_rungs + starved.tetrahedron_rungs
    optimized = [i for i in range(1, len(starved.values))
                 if starved.exact_values[i] is None and i not in bernstein]
    assert optimized == [41, 42, 44, 50]
    assert [len(_twin_classes(link_table(starved.edges[:i]))) for i in optimized] == [5, 6, 5, 5]
    assert gap.kkt_violations == (41, 42, 44, 50) and not gap.ok
    assert verify_gap_bound(build_chain_ladder(5, 8)).kkt_violations == ()


def test_starved_branch_and_bound_fails_the_kkt_gate(monkeypatch):
    # one level of subdivision stops at the corners and edge midpoints
    with monkeypatch.context() as mp:
        mp.setattr(chain_module, "_MAX_DEPTH", 1)
        starved = build_chain_ladder(3, 5)
    assert starved.segment_rungs == (3, 9) and starved.triangle_rungs == (8,)
    gap = verify_gap_bound(starved)
    assert gap.kkt_violations == (3, 8, 9) and not gap.ok
    assert verify_gap_bound(build_chain_ladder(3, 5)).ok


def test_starved_branch_and_bound_fails_the_kkt_gate_on_a_tetrahedron(monkeypatch):
    # colex r=4 m=7 rungs 27 and 30 have four twin classes; one level stops
    # at a tetrahedron edge midpoint, far from stationary
    with monkeypatch.context() as mp:
        mp.setattr(chain_module, "_MAX_DEPTH", 1)
        starved = build_chain_ladder(4, 7)
    assert starved.tetrahedron_rungs == (11, 27, 30)
    gap = verify_gap_bound(starved)
    assert {27, 30} <= set(gap.kkt_violations) and not gap.ok
    assert min(starved.kkt_residuals[i] for i in (27, 30)) > 1
    assert verify_gap_bound(build_chain_ladder(4, 7)).ok


def test_kkt_gate_passes_a_rung_stuck_at_a_zero_of_lambda(monkeypatch):
    # colex r=4 m=6 rung 11 has classes {1}, {2,3}, {4}, {5,6}; one level
    # stops at the corner e_1, where every edge meets two classes, so lambda
    # and its gradient vanish: the first-order gate passes, the step audit fails
    with monkeypatch.context() as mp:
        mp.setattr(chain_module, "_MAX_DEPTH", 1)
        starved = build_chain_ladder(4, 6)
    assert starved.tetrahedron_rungs == (11,)
    assert starved.values[11] == 0.0 and starved.kkt_residuals[11] == 0.0
    gap = verify_gap_bound(starved)
    assert 11 in gap.step_violations and 11 not in gap.kkt_violations


def test_kkt_gate_reads_optimizer_rungs_against_its_bound():
    lad = fabricated_ladder(0.0, 0.1, 0.2)  # rung 1 optimized, rung 2 closed-form
    assert verify_gap_bound(replace(lad, kkt_residuals=(0.0, _KKT_BOUND, 1.0))).ok
    over = verify_gap_bound(replace(lad, kkt_residuals=(0.0, 1.5 * _KKT_BOUND, 0.0)))
    assert over.kkt_violations == (1,) and not over.step_violations and not over.ok


_STEPS = st.one_of(st.floats(-0.3, 0.3), st.floats(-1e-9, 0.0),
                   st.floats(2 / 9 - 1e-6, 2 / 9 + 2e-6))


@given(st.lists(_STEPS, min_size=1, max_size=40))
def test_bounded_steps_leave_no_longer_gap_on_the_value_axis(steps):
    # rung 0 = 0 is the least value, as for every chain of Lagrangians
    values = [0.0]
    for d in steps:
        values.append(max(0.0, values[-1] + d))
    if not verify_gap_bound(fabricated_ladder(*values)).step_violations:
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


def test_closed_form_drops_the_lowest_vertex_of_a_tie():
    # random r=2 m=3 seed 1, rung 2 is {13, 23}: dropping 1 or 2 leaves K_2
    # on a vertex whose link misses the other; the lowest, 1, is dropped
    lad = build_chain_ladder(2, 3, "random", 1)
    assert lad.edges[:2] == ((1, 3), (2, 3))
    assert _closed_form(2, 3, 2, link_table(lad.edges[:2])) == (Fraction(1, 2), (0.0, 0.5, 0.5))
    assert lad.exact_values[2] == Fraction(1, 2) and lad.points[2] == (0.0, 0.5, 0.5)


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


# the fixed orders keep their r-m-order case ids; random orders add a seed
_TWIN_CHAINS = [pytest.param(r, m, order, 0, id=f"{r}-{m}-{order}")
                for r, m, order in [(3, 7, "colex"), (4, 6, "colex"), (5, 8, "colex"),
                                    (3, 7, "lex"), (3, 7, "random")]]
_TWIN_CHAINS += [(r, m, "random", seed) for seed in range(1, 6) for r, m in [(3, 7), (4, 6)]]


@pytest.mark.parametrize("r,m,order,seed", _TWIN_CHAINS)
def test_segment_rungs_are_the_two_class_rungs_by_swapping(r, m, order, seed):
    # the ladder grows one link table; each rung's table is rebuilt here
    lad = build_chain_ladder(r, m, order, seed)
    closed, by_classes = [], {2: [], 3: [], 4: []}
    for i in range(1, len(lad.values)):
        classes = swap_twin_classes(lad.edges[:i])
        assert _twin_classes(link_table(lad.edges[:i])) == classes, i
        if _qualifies(r, lad.edges[:i]):
            closed.append(i)
        elif len(classes) in by_classes:
            by_classes[len(classes)].append(i)
    assert lad.closed_form_rungs == tuple(closed)
    assert lad.segment_rungs == tuple(by_classes[2])
    assert lad.triangle_rungs == tuple(by_classes[3])
    assert lad.tetrahedron_rungs == tuple(by_classes[4])


# (triangle, tetrahedron) rung counts, kept out of the parametrization so
# the case ids stay r-m-order-segment
_TRIANGLE_COUNTS = {(3, 7, "colex"): (6, 0), (4, 6, "colex"): (2, 1), (5, 8, "colex"): (9, 9),
                    (3, 13, "colex"): (45, 0), (3, 7, "lex"): (9, 9), (3, 7, "random"): (0, 2)}


@pytest.mark.parametrize("r,m,order,segment", [
    (3, 7, "colex", 4), (4, 6, "colex", 4), (5, 8, "colex", 9), (3, 13, "colex", 10),
    (3, 7, "lex", 7), (3, 7, "random", 1)])
def test_segment_rungs_match_the_warm_started_optimizer(monkeypatch, r, m, order, segment):
    triangle, tetrahedron = _TRIANGLE_COUNTS[r, m, order]
    calls = []
    monkeypatch.setattr(chain_module, "maximize",
                        lambda p, *args, **kw: calls.append(p) or maximize(p, *args, **kw))
    lad = build_chain_ladder(r, m, order)
    assert (len(lad.segment_rungs), len(lad.triangle_rungs),
            len(lad.tetrahedron_rungs)) == (segment, triangle, tetrahedron)
    bernstein = lad.segment_rungs + lad.triangle_rungs + lad.tetrahedron_rungs
    # every rung is closed-form, solved by Bernstein or optimized, never two
    assert len(calls) == len(lad.edges) - len(lad.closed_form_rungs) - len(bernstein)
    assert not set(bernstein) & set(lad.closed_form_rungs)
    for i in bernstein:
        pattern = simple_pattern(r, m, lad.edges[:i])
        assert pattern not in calls
        oracle = maximize(pattern, extra_starts=[lad.points[i - 1]])
        assert abs(oracle.value - lad.values[i]) <= 1e-12, i
        assert lad.exact_values[i] is None and lad.kkt_residuals[i] <= 1e-7, i


def test_rational_segment_rungs():
    # colex r=3 rung 3 is {123, 124, 134}: vertex 1, then 2, 3, 4
    lad = build_chain_ladder(3, 7)
    assert 3 in lad.segment_rungs and abs(lad.values[3] - 8 / 27) <= 1e-15
    lad = build_chain_ladder(4, 6)
    assert {3, 4} <= set(lad.segment_rungs)
    assert abs(lad.values[3] - 1 / 8) <= 1e-15
    assert abs(lad.values[4] - 81 / 512) <= 1e-15
    # lex r=4 m=6 rung 7 peaks at the dyadic point (1/4, 3/16, 3/16, 3/16,
    # 3/16, 0) of its four twin classes; the optimizer stopped 1.6e-12 short
    lad = build_chain_ladder(4, 6, "lex")
    assert 7 in lad.tetrahedron_rungs and lad.values[7] == 81 / 512


def _bernstein(r, k, monomials):
    """Bernstein coefficients of sum c y^a, from {a: c}: beta_a = c / multinomial(r; a)."""
    return np.array([monomials.get(a, 0) * prod(map(factorial, a)) / factorial(r)
                     for a in _subdivision(r, k)[0]])


def _value(monomials, y):
    return sum(c * prod(t**j for t, j in zip(y, a)) for a, c in monomials.items())


@pytest.mark.parametrize("r,monomials,want,where", [
    (2, {(2, 0, 0): 1, (0, 1, 1): 1}, 1, (1, 0, 0)),  # a vertex
    (3, {(1, 2, 0): 27 / 4}, 1, (1 / 3, 2 / 3, 0)),  # on an edge, off the dyadic grid
    (3, {(1, 1, 1): 27}, 1, (1 / 3, 1 / 3, 1 / 3)),  # inside
    (2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 0): 2, (1, 0, 1): 2,
         (0, 1, 1): 2}, 1, (1, 0, 0)),  # (y1 + y2 + y3)^2, constant
    (3, {(1, 2): 27 / 4}, 1, (1 / 3, 2 / 3)),  # on a segment
    (4, {(1, 1, 1, 1): 256}, 1, (1 / 4, 1 / 4, 1 / 4, 1 / 4)),  # inside a tetrahedron
    (3, {(1, 1, 1, 0): 27}, 1, (1 / 3, 1 / 3, 1 / 3, 0)),  # on its face
    (3, {(0, 1, 2, 0): 27 / 4}, 1, (0, 1 / 3, 2 / 3, 0)),  # on its edge
    (2, {(0, 0, 0, 2): 1, (1, 1, 0, 0): 1}, 1, (0, 0, 0, 1)),  # at its vertex
])
def test_bernstein_argmax_finds_the_maximum(r, monomials, want, where):
    k = len(where)
    y = _bernstein_argmax(r, k, _bernstein(r, k, monomials))
    assert abs(_value(monomials, y) - want) <= 1e-15
    assert y.sum() == pytest.approx(1, abs=1e-15) and y.min() >= 0
    assert np.abs(y - where).max() <= 1e-7
    # a maximum on the boundary is found on it, exactly
    assert all(y[c] == 0 for c in range(k) if where[c] == 0)


def _bernstein_value(r, alphas, beta, y):
    return sum(b * factorial(r) / prod(map(factorial, a)) * prod(t**j for t, j in zip(y, a))
               for a, b in zip(alphas, beta))


@given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_split_children_carry_the_parent_polynomial(r, k, seed):
    alphas, corners, vertices, split = _subdivision(r, k)
    n = len(alphas)
    assert split.shape == (n, 2**(k - 1) * n) and vertices.shape == (2**(k - 1), k, k)
    # dyadic weights: every child coefficient is an exact convex combination
    assert split.min() >= 0 and (split.sum(axis=0) == 1).all()
    rng = np.random.default_rng(seed)
    beta = rng.random(n)
    children = (beta @ split).reshape(-1, n)
    for child, corner_points in zip(children, vertices):
        # a corner coefficient is the parent's value at that child vertex
        for c, v in zip(corners, corner_points):
            assert child[c] == pytest.approx(_bernstein_value(r, alphas, beta, v), abs=1e-14)
        # and the child's polynomial is the parent's on the child
        for u in rng.dirichlet(np.ones(k), size=3):
            assert _bernstein_value(r, alphas, child, u) == pytest.approx(
                _bernstein_value(r, alphas, beta, u @ corner_points), abs=1e-14)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_split_pieces_halve_in_width_every_level(k):
    # children keep their vertices in path order, so applying the same split
    # again never flattens a piece: from the second level on, the longest
    # piece edge halves per level
    children = _subdivision(3, k)[2]
    pieces, widest = np.eye(k)[None], []
    for _ in range(5):
        pieces = (children @ pieces[:, None]).reshape(-1, k, k)
        widest.append(max(((p[:, None] - p[None]) ** 2).sum(axis=-1).max() for p in pieces))
    assert all(4 * w == v for v, w in zip(widest[1:], widest[2:]))


class _CountedSplit(np.ndarray):
    """A subdivision matrix that records how many pieces each level splits."""

    rows: list[int] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountedSplit.rows.append(len(inputs[0]))
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


@pytest.mark.parametrize("monomials,want,line", [
    ({(1, 1, 0): 2, (1, 0, 1): 2}, 1 / 2, 1 / 2),  # 2 y1 (y2 + y3)
    ({(1, 2, 0): 1, (1, 1, 1): 2, (1, 0, 2): 1}, 4 / 27, 1 / 3),  # y1 (y2 + y3)^2
])
def test_bernstein_argmax_on_a_line_of_maxima_stays_under_the_piece_cap(monkeypatch, monomials,
                                                                        want, line):
    r = sum(next(iter(monomials)))
    alphas, corners, children, split = _subdivision(r, 3)
    monkeypatch.setattr(chain_module, "_subdivision",
                        lambda *_: (alphas, corners, children, split.view(_CountedSplit)))
    _CountedSplit.rows = []
    y = _bernstein_argmax(r, 3, _bernstein(r, 3, monomials))
    assert abs(_value(monomials, y) - want) <= 1e-15
    assert abs(y[0] - line) <= 1e-7
    assert 0 < max(_CountedSplit.rows) <= chain_module._MAX_PIECES
    # off the dyadic grid, the pieces along the line stay alive up to the cap
    if line == 1 / 3:
        assert max(_CountedSplit.rows) == chain_module._MAX_PIECES
