"""Pattern construction, polynomials, profiles, and blow-ups."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, isclose, prod

import numpy as np
import pytest

from turangap import (
    BlowupSpec,
    Pattern,
    blow_up,
    blowup_density_check,
    blowup_edge_count,
    evaluate,
    evaluate_exact,
    simple_pattern,
)
from turangap.patterns import (
    _multisets,
    largest_remainder_sizes,
    pattern_from_dict,
    pattern_to_dict,
)
from turangap.simplex import gradient

from oracles import complete_pattern, eval_uniform_exact, profile, random_pattern

WORKED = Pattern.from_element_lists(3, 3, [[1, 1, 2], [1, 2, 3]])


def test_pattern_holds_multiplicity_tuples():
    p = Pattern.from_element_lists(3, 3, [[1, 1, 2]])
    assert p.multisets == ((2, 1, 0),)
    assert pattern_to_dict(p)["multisets"] == [[1, 1, 2]]
    # entries are normalized to plain ints, so equal patterns compare equal
    q = Pattern(3, 3, [np.array([2, 1, 0])])
    assert q == p and type(q.multisets[0][0]) is int


def test_pattern_rejects_invalid_multisets():
    with pytest.raises(ValueError, match="outside ground set"):
        Pattern.from_element_lists(3, 3, [[0, 1, 2]])  # elements are 1-based
    with pytest.raises(ValueError, match="outside ground set"):
        Pattern.from_element_lists(3, 3, [[1, 2, 4]])  # element > m
    with pytest.raises(ValueError, match="length m=3"):
        Pattern(3, 3, ((2, 1),))  # wrong vector length
    with pytest.raises(ValueError, match="negative"):
        Pattern(3, 3, ((4, -1, 0),))
    with pytest.raises(ValueError, match="size r=3"):
        Pattern(3, 3, ((1, 0, 0),))  # size 1 multiset
    with pytest.raises(ValueError, match="integers"):
        Pattern(3, 3, ((2.5, 0.5, 0),))  # sums to r, but not a multiset
    with pytest.raises(ValueError, match="integers"):
        Pattern(2, 2.5, ())  # non-integer ground set size
    with pytest.raises(ValueError, match="integers"):
        Pattern(2.0, 3, ((1, 1, 0),))  # non-integer uniformity


def test_pattern_rejects_mixed_and_duplicate():
    with pytest.raises(ValueError, match="duplicate"):
        Pattern(3, 3, ((2, 1, 0), (2, 1, 0)))
    with pytest.raises(ValueError, match="duplicate"):
        Pattern.from_element_lists(3, 3, [[1, 1, 2], [1, 2, 1]])
    with pytest.raises(ValueError, match="length m=3"):
        Pattern(3, 3, ((2, 1, 0), (2, 1)))  # wrong ground set
    with pytest.raises(ValueError, match="size r=2"):
        Pattern(2, 3, ((2, 1, 0),))  # wrong uniformity


def test_worked_example_polynomial_exact():
    assert dict(WORKED.monomials) == {
        (2, 1, 0): Fraction(3),
        (1, 1, 1): Fraction(6),
    }


def test_tables_follow_sorted_monomials_whatever_the_multiset_order():
    # a pattern sorts its multisets once, so the order it was built in
    # changes nothing: not the multisets, the wire form or a float table
    rng = random.Random(5)
    nprng = np.random.default_rng(5)
    for _ in range(20):
        p = random_pattern(rng, r_max=4, m_max=5)
        shuffled = list(p.multisets)
        rng.shuffle(shuffled)
        q = Pattern(p.r, p.m, tuple(shuffled))
        assert q.multisets == p.multisets == tuple(sorted(shuffled, reverse=True))
        assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
        lists = pattern_to_dict(q)["multisets"]
        assert lists == sorted(lists) == pattern_to_dict(p)["multisets"]
        for name in ("factors", "coefs", "grad_factors", "grad_weights"):
            assert np.array_equal(getattr(q, name), getattr(p, name)), name
        xs = nprng.dirichlet(np.ones(p.m), 4)
        assert np.array_equal(evaluate(q, xs), evaluate(p, xs))
        assert np.array_equal(gradient(q, xs), gradient(p, xs))
        exps = [d for d, _ in q.monomials]
        assert exps == sorted(shuffled)
        for d, c in q.monomials:
            assert type(c) is int
            assert c * prod(factorial(v) for v in d) == factorial(p.r)
        assert q.coefficient_sum() == sum(c for _, c in p.monomials)


def test_tables_are_read_only_and_stay_out_of_hash_and_repr():
    for name in ("factors", "coefs", "grad_factors", "grad_weights"):
        arr = getattr(WORKED, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
    assert hash(WORKED) == hash(Pattern(3, 3, WORKED.multisets))
    assert repr(WORKED) == "Pattern(r=3, m=3, multisets=((2, 1, 0), (1, 1, 1)))"


def test_reordered_multisets_are_the_same_pattern():
    # either order gives the one canonical order: ascending element lists
    turned = Pattern(3, 3, ((1, 1, 1), (2, 1, 0)))
    assert turned == WORKED and hash(turned) == hash(WORKED)
    assert len({turned, WORKED}) == 1
    assert turned.multisets == WORKED.multisets == ((2, 1, 0), (1, 1, 1))
    assert repr(turned) == repr(WORKED)
    assert pattern_to_dict(turned) == pattern_to_dict(WORKED) == {
        "r": 3, "m": 3, "multisets": [[1, 1, 2], [1, 2, 3]]}
    assert pattern_from_dict({"r": 3, "m": 3, "multisets": [[1, 2, 3], [1, 1, 2]]}) == WORKED
    assert turned != Pattern(3, 3, ((1, 1, 1),))
    assert turned != Pattern(3, 4, ((1, 1, 1, 0), (2, 1, 0, 0)))
    assert turned != Pattern(4, 3, ((2, 1, 1), (2, 2, 0))) and turned != "pattern"


def test_evaluate_matches_hand_values():
    assert evaluate(WORKED, [0.5, 0.5, 0.0]) == pytest.approx(0.375, abs=1e-15)
    assert eval_uniform_exact(WORKED, 3) == Fraction(1, 3)
    # uniform with spare coordinates: larger s only shrinks the value
    assert eval_uniform_exact(WORKED, 4) == Fraction(9, 64)
    with pytest.raises(ValueError):
        eval_uniform_exact(WORKED, 2)
    with pytest.raises(ValueError):
        evaluate(WORKED, [0.5, 0.5])


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
        p = Pattern(r, m, tuple(mults))
        point = [Fraction(rng.randint(0, 10), 37) for _ in range(m)]
        exact = evaluate_exact(p, point)
        approx = evaluate(p, [float(v) for v in point])
        assert isclose(float(exact), approx, rel_tol=1e-12, abs_tol=1e-12)


def test_homogeneity_scaling():
    rng = random.Random(11)
    for _ in range(50):
        x = [rng.uniform(0, 1) for _ in range(3)]
        t = rng.uniform(0, 2)
        lhs = evaluate(WORKED, [t * v for v in x])
        rhs = t**WORKED.r * evaluate(WORKED, x)
        assert isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)


def test_complete_pattern_polynomial_is_one_on_simplex():
    # complete multiset pattern would be (sum x)^r; the plain-set version
    # evaluated at uniform gives r! C(m,r) / m^r
    p = complete_pattern(3, 6)
    assert eval_uniform_exact(p, 6) == Fraction(5, 9)


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


def test_json_roundtrip_on_random_patterns():
    rng = random.Random(8)
    patterns = [random_pattern(rng) for _ in range(200)]
    assert sum(max(c for d in p.multisets for c in d) > 1 for p in patterns) > 100
    for p in patterns:
        assert pattern_from_dict(pattern_to_dict(p)) == p


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("r", range(7))
def test_multisets_list_every_r_multiset_in_lexicographic_order(r, m):
    rows = _multisets(r, m)
    assert rows.shape == (comb(r + m - 1, m - 1), m)
    assert list(map(tuple, rows.tolist())) == [
        a for a in product(range(r + 1), repeat=m) if sum(a) == r]


def test_profile_worked_case():
    assert profile((1, 2, 5), [1, 1, 1, 2, 2]) == (2, 1)
    assert profile((1, 2, 5), {1: 1, 2: 1, 3: 1, 4: 2, 5: 2}) == (2, 1)
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
    want = set(WORKED.multisets)
    brute = [
        e
        for e in combinations(range(1, n + 1), 3)
        if profile(e, partition, 3) in want
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
    assert all(row.error == abs(row.density - row.polynomial_value) for row in rows)
    with pytest.raises(TypeError):
        replace(rows[0], error=Fraction(0))
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
