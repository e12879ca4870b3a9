"""Pattern construction, polynomials, profiles, and blow-ups."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, isclose

import pytest

from turangap import (
    BlowupSpec,
    Pattern,
    blow_up,
    blowup_density_check,
    blowup_edge_count,
    evaluate,
    evaluate_exact,
    lagrange_polynomial,
    simple_pattern,
)
from turangap.patterns import (
    RMultiset,
    complete_pattern,
    largest_remainder_sizes,
    pattern_from_dict,
    pattern_to_dict,
)

from oracles import eval_uniform_exact, profile

WORKED = Pattern.from_element_lists(3, 3, [[1, 1, 2], [1, 2, 3]])


def test_rmultiset_roundtrip():
    d = RMultiset.from_elements([1, 1, 2], 3)
    assert d.mult == (2, 1, 0)
    assert d.r == 3
    assert d.elements() == (1, 1, 2)


def test_rmultiset_validation():
    with pytest.raises(ValueError):
        RMultiset.from_elements([0, 1, 2], 3)  # elements are 1-based
    with pytest.raises(ValueError):
        RMultiset.from_elements([1, 4], 3)
    with pytest.raises(ValueError):
        RMultiset(3, (1, 0, 0))  # size 1 multiset
    with pytest.raises(ValueError):
        RMultiset(3, (1, 1))  # wrong vector length


def test_pattern_rejects_mixed_and_duplicate():
    with pytest.raises(ValueError):
        Pattern(3, 3, (RMultiset(3, (2, 1, 0)), RMultiset(3, (2, 1, 0))))
    with pytest.raises(ValueError):
        Pattern(3, 3, (RMultiset(2, (2, 1)),))  # wrong ground set
    with pytest.raises(ValueError):
        Pattern(2, 3, (RMultiset(3, (2, 1, 0)),))  # wrong uniformity


def test_worked_example_polynomial_exact():
    poly = lagrange_polynomial(WORKED)
    assert dict(poly.monomials) == {
        (2, 1, 0): Fraction(3),
        (1, 1, 1): Fraction(6),
    }


def test_evaluate_matches_hand_values():
    poly = lagrange_polynomial(WORKED)
    assert evaluate(poly, [0.5, 0.5, 0.0]) == pytest.approx(0.375, abs=1e-15)
    assert eval_uniform_exact(poly, 3) == Fraction(1, 3)
    # uniform with spare coordinates: larger s only shrinks the value
    assert eval_uniform_exact(poly, 4) == Fraction(9, 64)
    with pytest.raises(ValueError):
        eval_uniform_exact(poly, 2)
    with pytest.raises(ValueError):
        evaluate(poly, [0.5, 0.5])


def test_evaluate_exact_agrees_with_float():
    rng = random.Random(4)
    for _ in range(25):
        r = rng.randint(2, 4)
        m = rng.randint(2, 5)
        mults = set()
        while len(mults) < rng.randint(1, 5):
            counts = [0] * m
            for _ in range(r):
                counts[rng.randrange(m)] += 1
            mults.add(tuple(counts))
        poly = lagrange_polynomial(
            Pattern(r, m, tuple(RMultiset(m, c) for c in mults))
        )
        point = [Fraction(rng.randint(0, 10), 37) for _ in range(m)]
        exact = evaluate_exact(poly, point)
        approx = evaluate(poly, [float(v) for v in point])
        assert isclose(float(exact), approx, rel_tol=1e-12, abs_tol=1e-12)


def test_homogeneity_scaling():
    rng = random.Random(11)
    poly = lagrange_polynomial(WORKED)
    for _ in range(50):
        x = [rng.uniform(0, 1) for _ in range(3)]
        t = rng.uniform(0, 2)
        lhs = evaluate(poly, [t * v for v in x])
        rhs = t**poly.r * evaluate(poly, x)
        assert isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)


def test_complete_pattern_polynomial_is_one_on_simplex():
    # complete multiset pattern would be (sum x)^r; the plain-set version
    # evaluated at uniform gives r! C(m,r) / m^r
    p = complete_pattern(3, 6)
    assert eval_uniform_exact(lagrange_polynomial(p), 6) == Fraction(5, 9)


def test_json_roundtrip():
    d = pattern_to_dict(WORKED)
    assert d == {"r": 3, "m": 3, "multisets": [[1, 1, 2], [1, 2, 3]]}
    assert pattern_from_dict(d) == WORKED
    with pytest.raises(ValueError):
        pattern_from_dict({"r": 3, "m": 3, "multisets": [[2, 1, 1]]})  # unsorted
    with pytest.raises(ValueError):
        pattern_from_dict({"r": 3, "m": 3, "multisets": [[1, 1]]})  # short
    with pytest.raises(ValueError):
        pattern_from_dict({"r": 3, "multisets": []})  # missing m


def test_profile_worked_case():
    assert profile((1, 2, 5), [1, 1, 1, 2, 2]).mult == (2, 1)
    assert profile((1, 2, 5), {1: 1, 2: 1, 3: 1, 4: 2, 5: 2}).mult == (2, 1)
    with pytest.raises(ValueError):
        profile((1, 2, 9), [1, 1, 1, 2, 2])
    with pytest.raises(ValueError):
        profile((1, 1, 2), [1, 1, 1, 2, 2])  # repeated vertex


def test_blow_up_worked_case():
    spec = BlowupSpec(WORKED, (2, 2, 2))
    edges = blow_up(spec)
    assert len(edges) == 10
    assert blowup_edge_count(spec) == 10
    assert edges == sorted(edges)
    assert all(e == tuple(sorted(e)) and len(e) == 3 for e in edges)


@pytest.mark.parametrize("sizes", [(2, 2, 2), (4, 3, 1), (5, 0, 2), (1, 1, 10)])
def test_blow_up_count_matches_brute_force(sizes):
    spec = BlowupSpec(WORKED, sizes)
    n = sum(sizes)
    partition = []
    for part, size in enumerate(sizes, start=1):
        partition.extend([part] * size)
    want = {d.mult for d in WORKED.multisets}
    brute = [
        e
        for e in combinations(range(1, n + 1), 3)
        if profile(e, partition, 3).mult in want
    ]
    assert blow_up(spec) == brute  # brute enumeration is already lex sorted
    assert blowup_edge_count(spec) == len(brute)


def test_blow_up_empty_part_with_needed_class():
    # mass on one part only: no repeated-vertex multiset can be realized
    p = simple_pattern(3, 3, [[1, 2, 3]])
    assert blow_up(BlowupSpec(p, (6, 0, 0))) == []
    assert blowup_edge_count(BlowupSpec(p, (6, 0, 0))) == 0


def test_largest_remainder_rounding():
    assert largest_remainder_sizes(9, (1 / 3, 1 / 3, 1 / 3)) == (3, 3, 3)
    assert largest_remainder_sizes(10, (1 / 3, 1 / 3, 1 / 3)) == (4, 3, 3)
    # remainders 0.5, 0.75, 0.75: the two larger ones take the spare seats
    assert largest_remainder_sizes(7, (0.5, 0.25, 0.25)) == (3, 2, 2)
    assert sum(largest_remainder_sizes(13, (0.41, 0.29, 0.30))) == 13


def test_density_check_worked_values():
    p = simple_pattern(3, 3, [[1, 2, 3]])
    rows = blowup_density_check(p, (1 / 3, 1 / 3, 1 / 3), [9, 30, 60])
    assert rows[0].edge_count == 27
    assert rows[0].density == Fraction(27, comb(9, 3))
    assert rows[0].error == Fraction(25, 252)
    # first-order decay: doubling n roughly halves the error
    ratio = rows[1].error / rows[2].error
    assert Fraction(18, 10) < ratio < Fraction(23, 10)


def test_density_check_validation():
    p = simple_pattern(3, 3, [[1, 2, 3]])
    with pytest.raises(ValueError):
        blowup_density_check(p, (0.5, 0.5), [9])
    with pytest.raises(ValueError):
        blowup_density_check(p, (0.9, 0.05, 0.05), [2])  # n < r
    with pytest.raises(ValueError):
        blowup_density_check(p, (0.9, 0.2, 0.2), [9])  # sums past 1
