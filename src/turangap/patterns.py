"""Multiset patterns and their Lagrange polynomials.

An r-pattern is a finite collection of r-multisets over a ground set
{1, ..., m}.  Multisets are stored as dense multiplicity vectors, the
canonical form used throughout the package.  The associated Lagrange
polynomial carries one monomial per multiset with an exact rational
coefficient r!/prod(d_i!), so every exact quantity downstream (uniform
values, density ladders) is computed with integers and Fractions and only
converted to float at evaluation time.

Two second routes live in tests/oracles.py rather than here: the uniform
value through the coefficient sum, and the part-intersection profile of a
vertex set, against which blow-up edge lists are checked.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial
from typing import Iterable, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class RMultiset:
    """An r-multiset on {1, ..., m}, stored as a multiplicity vector.

    The uniformity r is implied: it is the sum of the multiplicities.
    """

    m: int
    mult: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"ground set size must be >= 1, got {self.m}")
        if len(self.mult) != self.m:
            raise ValueError("multiplicity vector length must equal m")
        if any(c < 0 for c in self.mult):
            raise ValueError("multiplicities must be non-negative")
        if sum(self.mult) < 2:
            raise ValueError("multiset size must be >= 2")

    @property
    def r(self) -> int:
        return sum(self.mult)

    @classmethod
    def from_elements(cls, elements: Iterable[int], m: int) -> "RMultiset":
        """Build from a 1-based element list such as [1, 1, 2]."""
        mult = [0] * m
        for e in elements:
            if not 1 <= e <= m:
                raise ValueError(f"element {e} outside ground set [1, {m}]")
            mult[e - 1] += 1
        return cls(m, tuple(mult))

    def elements(self) -> tuple[int, ...]:
        """Sorted 1-based element list, the inverse of from_elements."""
        out: list[int] = []
        for i, c in enumerate(self.mult, start=1):
            out.extend([i] * c)
        return tuple(out)


@dataclass(frozen=True)
class Pattern:
    """A duplicate-free collection of r-multisets on a common ground set."""

    r: int
    m: int
    multisets: tuple[RMultiset, ...]

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError(f"uniformity must be >= 2, got {self.r}")
        if self.m < 1:
            raise ValueError(f"ground set size must be >= 1, got {self.m}")
        seen: set[tuple[int, ...]] = set()
        for d in self.multisets:
            if d.m != self.m:
                raise ValueError("multiset ground set differs from pattern")
            if d.r != self.r:
                raise ValueError("multiset size differs from pattern uniformity")
            if d.mult in seen:
                raise ValueError(f"duplicate multiset {d.mult}")
            seen.add(d.mult)

    @classmethod
    def from_element_lists(
        cls, r: int, m: int, element_lists: Iterable[Iterable[int]]
    ) -> "Pattern":
        """Build from 1-based element lists such as [[1, 1, 2], [1, 2, 3]]."""
        return cls(r, m, tuple(RMultiset.from_elements(es, m) for es in element_lists))


def simple_pattern(r: int, m: int, edges: Iterable[Iterable[int]]) -> Pattern:
    """Pattern whose multisets are plain r-sets (no repeated vertices)."""
    ms = []
    for edge in edges:
        edge = tuple(edge)
        if len(set(edge)) != len(edge):
            raise ValueError(f"edge {edge} repeats a vertex")
        ms.append(RMultiset.from_elements(edge, m))
    return Pattern(r, m, tuple(ms))


def complete_pattern(r: int, m: int) -> Pattern:
    """All C(m, r) plain r-sets on {1, ..., m}."""
    return simple_pattern(r, m, combinations(range(1, m + 1), r))


# ---------------------------------------------------------------------------
# JSON wire format


def pattern_to_dict(p: Pattern) -> dict:
    """Dict form: {"r": ..., "m": ..., "multisets": [[1, 1, 2], ...]}."""
    return {
        "r": p.r,
        "m": p.m,
        "multisets": [list(d.elements()) for d in p.multisets],
    }


def pattern_from_dict(obj: Mapping) -> Pattern:
    try:
        r = int(obj["r"])
        m = int(obj["m"])
        lists = [[operator.index(v) for v in es] for es in obj["multisets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed pattern object: {exc}") from exc
    for es in lists:
        if len(es) != r:
            raise ValueError(f"multiset {es} does not have length r={r}")
        if es != sorted(es):
            raise ValueError(f"multiset {es} is not sorted non-decreasing")
    return Pattern.from_element_lists(r, m, lists)


def load_pattern(path: str) -> Pattern:
    with open(path, "r", encoding="utf-8") as fh:
        return pattern_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Lagrange polynomial


@dataclass(frozen=True)
class LagrangePolynomial:
    """Homogeneous degree-r polynomial with positive exact coefficients.

    Monomials are (exponent vector, coefficient) pairs with exact Fraction
    coefficients.  Read-only float tables for numeric work are built once at
    construction.  Monomial a is coefs[a] times the product of x over the
    coordinates ``factors[a]`` (coordinate i repeated e_ai times).  Gradient
    term a * r + t is that product without position t, weighted coefs[a]
    into column factors[a, t] of ``grad_weights``; the e_ai copies of i sum
    to the partial derivative, and at x_i = 0 only monomials linear in x_i
    keep a nonzero term in column i.
    """

    r: int
    m: int
    monomials: tuple[tuple[tuple[int, ...], Fraction], ...]
    factors: np.ndarray = field(init=False, repr=False, compare=False)
    coefs: np.ndarray = field(init=False, repr=False, compare=False)
    grad_factors: np.ndarray = field(init=False, repr=False, compare=False)
    grad_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen: set[tuple[int, ...]] = set()
        for exps, coeff in self.monomials:
            if len(exps) != self.m:
                raise ValueError("exponent vector length must equal m")
            if sum(exps) != self.r:
                raise ValueError("monomial degree must equal r")
            if coeff <= 0:
                raise ValueError("coefficients must be positive")
            if exps in seen:
                raise ValueError(f"duplicate exponent vector {exps}")
            seen.add(exps)
        n, m, r = len(self.monomials), self.m, self.r
        exps = np.array([e for e, _ in self.monomials], dtype=np.int64).reshape(n * m)
        factors = np.repeat(np.tile(np.arange(m), n), exps).reshape(n, r)
        coefs = np.array([float(c) for _, c in self.monomials])
        drop = np.array([[j for j in range(r) if j != k] for k in range(r)])
        grad_weights = np.zeros((n * r, m))
        grad_weights[np.arange(n * r), factors.ravel()] = np.repeat(coefs, r)
        for name, arr in (("factors", factors), ("coefs", coefs),
                          ("grad_factors", factors[:, drop].reshape(n * r, r - 1)),
                          ("grad_weights", grad_weights)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def coefficient_sum(self) -> Fraction:
        return sum((c for _, c in self.monomials), Fraction(0))


def lagrange_polynomial(p: Pattern) -> LagrangePolynomial:
    """One monomial per multiset, coefficient r!/prod(d_i!), exact."""
    rf = factorial(p.r)
    monos = []
    for d in p.multisets:
        denom = 1
        for c in d.mult:
            denom *= factorial(c)
        monos.append((d.mult, Fraction(rf, denom)))
    monos.sort(key=lambda t: t[0])
    return LagrangePolynomial(p.r, p.m, tuple(monos))


def evaluate(poly: LagrangePolynomial, x: Sequence[float]) -> float | np.ndarray:
    """Numeric value at x of shape (m,), or the values at each row of a (k, m) batch."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim not in (1, 2) or xv.shape[-1] != poly.m:
        raise ValueError(f"point has shape {xv.shape}, expected ({poly.m},) or (k, {poly.m})")
    values = _values(poly, xv)
    return float(values) if xv.ndim == 1 else values


def evaluate_batch(poly: LagrangePolynomial, xs: np.ndarray) -> np.ndarray:
    """Numeric values at each row of xs, shape (k, m)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != poly.m:
        raise ValueError(f"batch has shape {xs.shape}, expected (k, {poly.m})")
    return _values(poly, xs)


def _values(poly: LagrangePolynomial, xv: np.ndarray) -> np.ndarray:
    return xv[..., poly.factors].prod(axis=-1) @ poly.coefs


def evaluate_exact(poly: LagrangePolynomial, x: Sequence[Fraction]) -> Fraction:
    """Exact value at a rational point."""
    if len(x) != poly.m:
        raise ValueError(f"point has length {len(x)}, expected {poly.m}")
    total = Fraction(0)
    for exps, coeff in poly.monomials:
        term = coeff
        for xi, e in zip(x, exps):
            if e:
                term *= Fraction(xi) ** e
        total += term
    return total


# ---------------------------------------------------------------------------
# Blow-ups


@dataclass(frozen=True)
class BlowupSpec:
    """A pattern together with the sizes of the m vertex classes."""

    pattern: Pattern
    part_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.part_sizes) != self.pattern.m:
            raise ValueError("need one part size per ground element")
        if any(s < 0 for s in self.part_sizes):
            raise ValueError("part sizes must be non-negative")

    @property
    def n(self) -> int:
        return sum(self.part_sizes)

    def part_ranges(self) -> tuple[range, ...]:
        """Parts occupy consecutive 1-based vertex ranges in part order."""
        out = []
        start = 1
        for size in self.part_sizes:
            out.append(range(start, start + size))
            start += size
        return tuple(out)


def blow_up(spec: BlowupSpec) -> list[tuple[int, ...]]:
    """All r-sets of vertices whose profile lies in the pattern.

    Returns the edges as sorted tuples, sorted lexicographically.  Distinct
    multisets contribute disjoint edge families, so no dedup is needed.
    """
    ranges = spec.part_ranges()
    edges: list[tuple[int, ...]] = []
    for d in spec.pattern.multisets:
        pools = [combinations(ranges[i], d.mult[i]) for i in range(spec.pattern.m) if d.mult[i] > 0]
        for pick in product(*pools):
            edge = tuple(sorted(v for grp in pick for v in grp))
            edges.append(edge)
    edges.sort()
    return edges


def blowup_edge_count(spec: BlowupSpec) -> int:
    """Exact edge count: sum over multisets of prod C(size_i, d_i)."""
    total = 0
    for d in spec.pattern.multisets:
        term = 1
        for size, c in zip(spec.part_sizes, d.mult):
            term *= comb(size, c)
        total += term
    return total


def largest_remainder_sizes(n: int, fractions: Sequence[float]) -> tuple[int, ...]:
    """Round n * fractions to integers summing to n, largest remainder first.

    Ties go to the lowest index so the rounding is deterministic.
    """
    quotas = [n * float(f) for f in fractions]
    base = [int(q) for q in quotas]
    leftover = n - sum(base)
    order = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return tuple(base)


@dataclass(frozen=True)
class DensityRow:
    """One row of a blow-up density comparison table."""

    n: int
    part_sizes: tuple[int, ...]
    edge_count: int
    density: Fraction
    polynomial_value: Fraction
    error: Fraction


def blowup_density_check(
    p: Pattern, part_fractions: Sequence[float], n_values: Iterable[int]
) -> list[DensityRow]:
    """Compare blow-up edge densities with the polynomial at realized fractions.

    For each n the class sizes are the largest-remainder rounding of
    n * part_fractions; the reported error is |count / C(n, r) - value| with
    the polynomial evaluated exactly at the realized fractions size_i / n.
    The errors decay like O(1/n).
    """
    if len(part_fractions) != p.m:
        raise ValueError("need one fraction per ground element")
    if any(f < 0 for f in part_fractions):
        raise ValueError("fractions must be non-negative")
    if abs(sum(float(f) for f in part_fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    poly = lagrange_polynomial(p)
    rows = []
    for n in n_values:
        if n < p.r:
            raise ValueError(f"n={n} too small to realize fractions (need n >= r)")
        sizes = largest_remainder_sizes(n, part_fractions)
        count = blowup_edge_count(BlowupSpec(p, sizes))
        density = Fraction(count, comb(n, p.r))
        value = evaluate_exact(poly, [Fraction(s, n) for s in sizes])
        rows.append(DensityRow(n, sizes, count, density, value, abs(density - value)))
    return rows
