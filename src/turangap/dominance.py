"""Sorted compositions, the dominance order, and down-closed families.

A sorted composition is a non-increasing tuple of s non-negative integers
summing to r.  Dominance compares prefix sums.  Down-closed families of
compositions index the patterns whose simplex maximum sits at the uniform
point; this module also carries the exact audit of the binomial bunching
identity used to certify that.

Half-integer indices in the bunching computation are stored doubled, so
everything stays in exact integer and Fraction arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Mapping

import numpy as np

from .patterns import Pattern, _multisets, json_int
from .simplex import _check_seed

Composition = tuple[int, ...]

_SAMPLES = 1000  # sample points of a bunching audit's spot check


def compositions(r: int, s: int) -> tuple[Composition, ...]:
    """All non-increasing s-tuples of non-negative integers summing to r.

    Reverse lexicographic order: (r, 0, ..., 0) first, the most balanced
    tuple last.  r = 0 gives the single all-zero tuple.
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    out: list[Composition] = []

    def rec(remaining: int, slots: int, cap: int, prefix: tuple[int, ...]) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(prefix)
            return
        lo = -(-remaining // slots)  # parts below this cannot reach the sum
        for p in range(min(remaining, cap), lo - 1, -1):
            rec(remaining - p, slots - 1, p, prefix + (p,))

    rec(r, s, r, ())
    return tuple(out)


def _check_shape(x: Composition, y: Composition) -> None:
    if len(x) != len(y):
        raise ValueError(f"shape mismatch: {x} vs {y}")
    if sum(x) != sum(y):
        raise ValueError(f"sum mismatch: {x} vs {y}")


def dominates(x: Composition, y: Composition) -> bool:
    """True iff every prefix sum of x is >= the matching prefix sum of y."""
    _check_shape(x, y)
    ax = 0
    ay = 0
    for xi, yi in zip(x, y):
        ax += xi
        ay += yi
        if ax < ay:
            return False
    return True


def down_closure(
    members: Iterable[Composition], r: int, s: int
) -> frozenset[Composition]:
    """All compositions dominated by some member."""
    gens = set(members)
    universe = compositions(r, s)
    for g in gens:
        if g not in universe:
            raise ValueError(f"{g} is not a sorted composition of {r} into {s} parts")
    return frozenset(y for y in universe if any(dominates(g, y) for g in gens))


def is_down_closed(members: Iterable[Composition], r: int, s: int) -> bool:
    """Full-enumeration check that members is closed under going down."""
    got = set(members)
    return got == set(down_closure(got, r, s)) if got else True


@dataclass(frozen=True)
class DownSet:
    """A down-closed family of sorted compositions of r into s parts."""

    r: int
    s: int
    members: frozenset[Composition]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if not is_down_closed(self.members, self.r, self.s):
            raise ValueError("member set is not down-closed")

    @classmethod
    def from_generators(
        cls, r: int, s: int, generators: Iterable[Composition]
    ) -> "DownSet":
        return cls(r, s, down_closure(generators, r, s))

    def sorted_members(self) -> tuple[Composition, ...]:
        return tuple(sorted(self.members))


def downset_to_dict(a: DownSet) -> dict:
    return {"r": a.r, "s": a.s, "members": [list(c) for c in a.sorted_members()]}


def downset_from_dict(obj: Mapping) -> DownSet:
    try:
        r = json_int(obj["r"])
        s = json_int(obj["s"])
        members = [tuple(json_int(v) for v in c) for c in obj["members"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed down-set object: {exc}") from exc
    return DownSet(r, s, frozenset(members))


def load_downset(path: str) -> DownSet:
    with open(path, "r", encoding="utf-8") as fh:
        return downset_from_dict(json.load(fh))


def _prefix_total(c: Composition) -> int:
    total = 0
    acc = 0
    for v in c:
        acc += v
        total += acc
    return total


def _linear_order(r: int, s: int) -> tuple[Composition, ...]:
    """Linear extension of dominance: strictly dominating means strictly
    larger prefix-sum total, so ascending total (ties by lex) lists any
    dominator after everything it dominates."""
    return tuple(sorted(compositions(r, s), key=lambda c: (_prefix_total(c), c)))


def linear_extension(r: int) -> tuple[Composition, ...]:
    """Dominance-respecting enumeration of the compositions of r into r parts."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return _linear_order(r, r)


def iter_down_sets(r: int, s: int) -> Iterator[DownSet]:
    """Every down-closed family, each exactly once, deterministic order."""
    elems = _linear_order(r, s)
    n = len(elems)
    below = [
        frozenset(j for j in range(i) if dominates(elems[i], elems[j]))
        for i in range(n)
    ]

    def rec(i: int, chosen: frozenset[int]) -> Iterator[frozenset[int]]:
        if i == n:
            yield chosen
            return
        yield from rec(i + 1, chosen)
        if below[i] <= chosen:
            yield from rec(i + 1, chosen | {i})

    for idx_set in rec(0, frozenset()):
        yield DownSet(r, s, frozenset(elems[i] for i in idx_set))


def pattern_of(a: DownSet) -> Pattern:
    """Pattern on [s] of all r-multisets whose sorted profile lies in a."""
    if a.r < 2:
        raise ValueError(f"patterns need r >= 2, got r={a.r}")
    ms = [mult for mult in map(tuple, _multisets(a.r, a.s).tolist())
          if tuple(sorted(mult, reverse=True)) in a.members]
    return Pattern(a.r, a.s, tuple(ms))


# ---------------------------------------------------------------------------
# The bunching identity behind the uniform-maximizer lemma


def _doubled_index(value, name: str) -> int:
    """Coerce an int, float, or Fraction index to its exact double."""
    f = Fraction(value)
    d = f * 2
    if d.denominator != 1:
        raise ValueError(f"{name} must be an integer or half-integer, got {value}")
    return int(d)


@dataclass(frozen=True)
class BunchingReport:
    """Exact coefficient audit of the two-class averaging inequality.

    Averaging the top h layers of binomial terms against the same layers of
    split monomials gives a polynomial identity whose grouped coefficients
    must be <= 0 inside the layer window and >= 0 outside, with total sum
    exactly zero.  The sampled minimum is a spot check, not a proof.
    """

    r: int
    h2: int
    coefficients: tuple[tuple[int, Fraction], ...]  # (doubled index j2, coeff)
    inside_ok: bool
    outside_ok: bool
    zero_sum_ok: bool
    sample_min: Fraction
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return (
            self.inside_ok
            and self.outside_ok
            and self.zero_sum_ok
            and self.sample_min >= Fraction(-1, 10**10)
        )


def bunching_indices(r: int) -> tuple[int, ...]:
    """Valid doubled layer bounds h2 for uniformity r: r mod 2, ..., r."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    return tuple(range(r % 2, r + 1, 2))


def bunching_verify(r: int, h, seed: int = 0) -> BunchingReport:
    """Audit the averaging inequality at layer bound h (possibly half-integer).

    With k = r/2 and translate set I_h = (Z + k) intersected with [-h, h],
    the inequality is sum over i in I_h of C(2k, k+i) (((x+y)/2)^(2k)
    - x^(k+i) y^(k-i)) >= 0 for x, y >= 0.  All indices are doubled
    internally; coefficients are exact Fractions.  The _SAMPLES (1000)
    sample points (px/1000, py/1000) are drawn from the seed, px and py
    uniform in 0..5000; at each, the left side times 2^r * 1000^r is the
    integer L (px+py)^r - 2^r sum over the window of C(2k, k+i)
    px^(k+i) py^(k-i), with L the window's binomial sum, so the sampled
    minimum is exact.
    """
    seed = _check_seed(seed)
    h2 = _doubled_index(h, "h")
    valid = bunching_indices(r)
    if h2 not in valid:
        raise ValueError(
            f"h={h} invalid for r={r}: doubled h must be one of {valid}"
        )
    all_j2 = tuple(range(-r, r + 1, 2))  # doubled translates of k = r/2
    window = {j2 for j2 in all_j2 if abs(j2) <= h2}
    layer_sum = sum(comb(r, (r + i2) // 2) for i2 in window)

    coeffs: list[tuple[int, Fraction]] = []
    inside_ok = True
    outside_ok = True
    total = Fraction(0)
    for j2 in all_j2:
        c = Fraction(comb(r, (r + j2) // 2) * layer_sum, 2**r)
        if j2 in window:
            c -= comb(r, (r + j2) // 2)
            if j2 >= 0 and c > 0:
                inside_ok = False
        elif j2 >= 0 and c < 0:
            outside_ok = False
        coeffs.append((j2, c))
        total += c

    # val * 2^r * 1000^r at x = px/1000, y = py/1000, an exact integer
    terms = [(comb(r, (r + i2) // 2), (r + i2) // 2) for i2 in window]
    grid = np.random.default_rng(seed).integers(0, 5001, size=(_SAMPLES, 2))
    scaled_min = min(
        layer_sum * (px + py) ** r - 2**r * sum(b * px**a * py ** (r - a) for b, a in terms)
        for px, py in grid.tolist()
    )
    return BunchingReport(
        r=r,
        h2=h2,
        coefficients=tuple(coeffs),
        inside_ok=inside_ok,
        outside_ok=outside_ok,
        zero_sum_ok=(total == 0),
        sample_min=Fraction(scaled_min, 2**r * 1000**r),
        samples=_SAMPLES,
        seed=seed,
    )
