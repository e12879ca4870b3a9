"""Enumeration oracles for the occupancy closed form, shared by the tests."""

from itertools import product
from math import factorial


def brute_occupancy_counts(r: int, s: int) -> dict:
    """Tally all s^r functions by sorted occupancy vector."""
    counts: dict = {}
    for func in product(range(s), repeat=r):
        occ = [0] * s
        for v in func:
            occ[v] += 1
        key = tuple(sorted(occ, reverse=True))
        counts[key] = counts.get(key, 0) + 1
    return counts


def enumerated_occupancy_counts(r: int, s: int) -> dict:
    """Functions [r] -> [s] per sorted fiber-size vector, by enumeration.

    Walks all C(r+s-1, r) ordered occupancy vectors depth-first, adds the
    multinomial weight r!/prod(e_i!) of each to its sorted vector.  An
    oracle for the closed form that shares none of its arithmetic.
    """
    buckets: dict = {}
    rf = factorial(r)

    def rec(slot: int, remaining: int, denom: int, prefix: tuple) -> None:
        if slot == s - 1:
            key = tuple(sorted(prefix + (remaining,), reverse=True))
            buckets[key] = buckets.get(key, 0) + rf // (denom * factorial(remaining))
            return
        for e in range(remaining + 1):
            rec(slot + 1, remaining - e, denom * factorial(e), prefix + (e,))

    rec(0, r, 1, ())
    return buckets
