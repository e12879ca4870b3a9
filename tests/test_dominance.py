"""Compositions, dominance, down-closed families, and the bunching identity."""

from fractions import Fraction
from math import comb

import pytest

from turangap import (
    DownSet,
    bunching_indices,
    bunching_verify,
    compositions,
    dominates,
    iter_down_sets,
)
from turangap.dominance import (
    down_closure,
    downset_from_dict,
    downset_to_dict,
    is_down_closed,
    linear_extension,
    pattern_of,
)

from oracles import bunching_sample_min_fractions, insert_sorted, restrict


def test_compositions_reverse_lex():
    assert compositions(3, 3) == ((3, 0, 0), (2, 1, 0), (1, 1, 1))
    assert compositions(2, 2) == ((2, 0), (1, 1))
    assert compositions(0, 3) == ((0, 0, 0),)
    assert compositions(4, 1) == ((4,),)
    with pytest.raises(ValueError):
        compositions(3, 0)


def test_compositions_counts_are_bounded_partitions():
    # partitions of r into at most s parts
    assert len(compositions(4, 4)) == 5
    assert len(compositions(5, 2)) == 3
    assert len(compositions(12, 12)) == 77


def test_dominates_examples():
    assert dominates((2, 1, 0), (1, 1, 1))
    assert not dominates((1, 1, 1), (2, 1, 0))
    assert dominates((2, 1, 0), (2, 1, 0))
    assert dominates((3, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        dominates((2, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        dominates((3, 1), (2, 1))


def test_dominance_is_a_partial_order():
    elems = compositions(6, 3)
    for x in elems:
        assert dominates(x, x)
        for y in elems:
            if dominates(x, y) and dominates(y, x):
                assert x == y
            for z in elems:
                if dominates(x, y) and dominates(y, z):
                    assert dominates(x, z)
    # first genuinely incomparable pair appears at r=6, s=3
    assert not dominates((4, 1, 1), (3, 3, 0))
    assert not dominates((3, 3, 0), (4, 1, 1))


def test_down_closure_and_membership():
    members = down_closure([(2, 1, 0)], 3, 3)
    assert members == frozenset({(2, 1, 0), (1, 1, 1)})
    assert is_down_closed(members, 3, 3)
    assert not is_down_closed({(2, 1, 0)}, 3, 3)
    assert is_down_closed(set(), 3, 3)
    with pytest.raises(ValueError):
        down_closure([(1, 2, 0)], 3, 3)  # not sorted non-increasing


def test_downset_validation_and_json():
    a = DownSet(3, 3, frozenset({(1, 1, 1), (2, 1, 0)}))
    obj = downset_to_dict(a)
    assert obj == {"r": 3, "s": 3, "members": [[1, 1, 1], [2, 1, 0]]}
    assert downset_from_dict(obj) == a
    with pytest.raises(ValueError):
        DownSet(3, 3, frozenset({(2, 1, 0)}))  # misses (1,1,1)
    assert DownSet.from_generators(3, 3, [(2, 1, 0)]).members == a.members


def test_linear_extension_r3_and_prefix_property():
    assert linear_extension(3) == ((1, 1, 1), (2, 1, 0), (3, 0, 0))
    for r in range(2, 13):
        order = linear_extension(r)
        assert set(order) == set(compositions(r, r))
        seen: set = set()
        for comp in order:
            # anything dominated by comp must already be listed
            for other in compositions(r, r):
                if other != comp and dominates(comp, other):
                    assert other in seen
            seen.add(comp)
            DownSet(r, r, frozenset(seen))  # prefixes stay down-closed


def test_iter_down_sets_complete_and_distinct():
    # the 3-element chain has exactly 4 down-closed families
    families = list(iter_down_sets(3, 3))
    assert len(families) == 4
    assert len({a.members for a in families}) == 4
    # brute force cross-check on a poset with incomparable pairs
    universe = compositions(6, 3)
    brute = 0
    for mask in range(1 << len(universe)):
        members = {c for i, c in enumerate(universe) if mask >> i & 1}
        if is_down_closed(members, 6, 3):
            brute += 1
    assert brute == len(list(iter_down_sets(6, 3)))


def test_pattern_of_sizes():
    # closing the middle composition yields 6 mixed-pair multisets + 1 triple
    full = DownSet.from_generators(3, 3, [(2, 1, 0)])
    p = pattern_of(full)
    assert len(p.multisets) == 7
    only_spread = DownSet(3, 3, frozenset({(1, 1, 1)}))
    assert len(pattern_of(only_spread).multisets) == 1
    empty = DownSet(3, 3, frozenset())
    assert pattern_of(empty).multisets == ()


def test_pattern_of_lists_every_profile_in_the_down_set():
    # direct oracle: every ordered tuple whose sorted profile is a member,
    # in the canonical order (descending tuples)
    for r in range(2, 6):
        for s in range(1, 5):
            for a in iter_down_sets(r, s):
                expected = [t for t in _ordered(r, s)
                            if tuple(sorted(t, reverse=True)) in a.members]
                p = pattern_of(a)
                assert (p.r, p.m) == (r, s)
                assert p.multisets == tuple(sorted(expected, reverse=True)), (r, s, a)


def test_insert_sorted():
    assert insert_sorted((2, 0), 1) == (2, 1, 0)
    assert insert_sorted((1, 1), 3) == (3, 1, 1)
    assert insert_sorted((), 2) == (2,)
    with pytest.raises(ValueError):
        insert_sorted((1, 1), -1)


def test_restrict_worked_cases():
    a = DownSet(3, 3, frozenset({(1, 1, 1), (2, 1, 0)}))
    assert restrict(a, 1).members == frozenset({(1, 1), (2, 0)})
    assert restrict(a, 2).members == frozenset({(1, 0)})
    assert restrict(a, 3).members == frozenset()
    top = DownSet.from_generators(3, 3, [(3, 0, 0)])
    assert restrict(top, 3).members == frozenset({(0, 0)})
    with pytest.raises(ValueError):
        restrict(a, 4)


def test_restrict_preserves_down_closure_exhaustively():
    # DownSet construction re-validates closure, so this sweep is the check
    for r in range(2, 6):
        for s in range(2, 5):
            for a in iter_down_sets(r, s):
                for j in range(r + 1):
                    restrict(a, j)


def test_restriction_coefficient_identity():
    # grouping the pattern polynomial by the exponent of the last variable
    # gives C(r, j) times the restricted pattern's polynomial
    for r in range(2, 6):
        for s in range(2, 5):
            for a in iter_down_sets(r, s):
                p = pattern_of(a) if a.members else None
                for j in range(r + 1):
                    sub = restrict(a, j)
                    collected = {}
                    if p is not None:
                        for exps, coeff in p.monomials:
                            if exps[-1] == j:
                                collected[exps[:-1]] = coeff
                    expected = {}
                    if sub.r >= 2 and sub.members:
                        for exps, coeff in pattern_of(sub).monomials:
                            expected[exps] = coeff * comb(r, j)
                    elif sub.r in (0, 1) and sub.members:
                        # degenerate restrictions: build the comparison by hand
                        from math import factorial

                        for mult in _ordered(sub.r, sub.s):
                            if tuple(sorted(mult, reverse=True)) in sub.members:
                                c = Fraction(factorial(sub.r))
                                for v in mult:
                                    c /= factorial(v)
                                expected[mult] = c * comb(r, j)
                    assert collected == expected, (r, s, sorted(a.members), j)


def _ordered(r, s):
    if s == 1:
        yield (r,)
        return
    for first in range(r + 1):
        for rest in _ordered(r - first, s - 1):
            yield (first,) + rest


def test_bunching_worked_case_r2():
    rep = bunching_verify(2, 0, samples=50)
    coeffs = dict(rep.coefficients)
    assert coeffs[0] == -1
    assert coeffs[2] == Fraction(1, 2)
    assert coeffs[-2] == Fraction(1, 2)
    assert rep.zero_sum_ok and rep.inside_ok and rep.outside_ok
    assert rep.sample_min >= 0


def test_bunching_full_window_vanishes():
    # h = k makes the two sides identical, so every coefficient is zero
    rep = bunching_verify(4, 2, samples=20)
    assert all(c == 0 for _, c in rep.coefficients)
    rep = bunching_verify(5, Fraction(5, 2), samples=20)
    assert all(c == 0 for _, c in rep.coefficients)


def test_bunching_indices_and_validation():
    assert bunching_indices(4) == (0, 2, 4)
    assert bunching_indices(5) == (1, 3, 5)
    with pytest.raises(ValueError):
        bunching_verify(4, Fraction(1, 2))  # off-lattice for even r
    with pytest.raises(ValueError):
        bunching_verify(5, 1)  # off-lattice for odd r
    with pytest.raises(ValueError):
        bunching_verify(4, 3)  # beyond k


def test_bunching_rejects_empty_sample():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        bunching_verify(4, 1, samples=0)


@pytest.mark.parametrize("seed", [0, 1])
def test_bunching_sample_min_matches_fraction_oracle(seed):
    for r in range(2, 17):
        for h2 in bunching_indices(r):
            rep = bunching_verify(r, Fraction(h2, 2), samples=200, seed=seed)
            assert rep.sample_min == bunching_sample_min_fractions(r, h2, 200, seed), (r, h2)


def test_bunching_sign_structure_everywhere():
    for r in range(2, 11):
        for h2 in bunching_indices(r):
            rep = bunching_verify(r, Fraction(h2, 2), samples=100, seed=1)
            assert rep.passed, (r, h2)
            total = sum((c for _, c in rep.coefficients), Fraction(0))
            assert total == 0
