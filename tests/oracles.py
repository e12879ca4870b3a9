"""Second routes kept as oracles for the library's one route per quantity.

The enumerations check the occupancy closed form; the uniform value through
the coefficient sum checks `uniform_value_exact`; the part-intersection
profile of a vertex set checks the edge lists of `blow_up`.
"""

from fractions import Fraction
from itertools import product
from math import factorial
from typing import Iterable, Mapping, Sequence

from turangap.patterns import LagrangePolynomial, RMultiset


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


def eval_uniform_exact(poly: LagrangePolynomial, s: int) -> Fraction:
    """Exact value at the uniform point (1/s, ..., 1/s) with s >= m parts.

    Every monomial has total degree r, so the value is the coefficient sum
    divided by s**r.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if poly.m > s:
        raise ValueError(f"polynomial has {poly.m} variables, more than s={s}")
    return poly.coefficient_sum() / Fraction(s**poly.r)


def profile(
    x_set: Iterable[int],
    partition: Sequence[int] | Mapping[int, int],
    m: int | None = None,
) -> RMultiset:
    """Part-intersection multiset of a vertex set under a partition.

    partition maps 1-based vertex ids to 1-based part ids, either as a
    mapping or as a sequence indexed by vertex - 1.
    """
    xs = tuple(x_set)
    if len(set(xs)) != len(xs):
        raise ValueError("vertex set repeats a vertex")

    def part_of(v: int) -> int:
        if isinstance(partition, Mapping):
            if v not in partition:
                raise ValueError(f"vertex {v} outside partition")
            return partition[v]
        if not 1 <= v <= len(partition):
            raise ValueError(f"vertex {v} outside partition")
        return partition[v - 1]

    parts = [part_of(v) for v in xs]
    if m is None:
        m = max(parts)
    mult = [0] * m
    for p in parts:
        if not 1 <= p <= m:
            raise ValueError(f"part id {p} outside [1, {m}]")
        mult[p - 1] += 1
    return RMultiset(m, tuple(mult))
