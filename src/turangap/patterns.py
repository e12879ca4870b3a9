"""Multiset patterns and their Lagrange polynomials.

An r-pattern is a finite set of r-multisets over a ground set
{1, ..., m}.  A multiset is a plain tuple of m multiplicities, so
(2, 1, 0) is {1, 1, 2}; ``Pattern`` validates it and sorts the set once,
and the JSON wire format spells it as the sorted element list [1, 1, 2].
A ``Pattern`` also carries its Lagrange polynomial, one monomial per
multiset with the exact coefficient r!/prod(d_i!) (``Pattern.monomials``),
and the float tables that ``evaluate`` and the simplex gradient read,
built once when the pattern is.  Every exact quantity downstream (uniform
values, density ladders) is computed with integers and Fractions; only
evaluation goes through floats.

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
from math import comb, factorial, prod
from typing import Iterable, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class Pattern:
    """A duplicate-free collection of r-multisets on {1, ..., m}, each a
    multiplicity tuple such as (2, 1, 0) for {1, 1, 2}, together with its
    Lagrange polynomial.  The one place a multiset is validated; r, m and
    the entries are normalized to plain ints, and ``multisets`` is sorted
    in descending tuple order (ascending element lists), so equal sets of
    multisets make equal patterns whatever order they were given in.

    Read-only float tables for numeric work are built once, after
    validation, in the order of ``monomials``.  Monomial a is coefs[a]
    times the product of x over the coordinates ``factors[a]`` (coordinate
    i repeated d_ai times).  Gradient term a * r + t is that product
    without position t, weighted coefs[a] into column factors[a, t] of
    ``grad_weights``; the d_ai copies of i sum to the partial derivative,
    and at x_i = 0 only monomials linear in x_i keep a nonzero term in
    column i.
    """

    r: int
    m: int
    multisets: tuple[tuple[int, ...], ...]
    factors: np.ndarray = field(init=False, repr=False, compare=False)
    coefs: np.ndarray = field(init=False, repr=False, compare=False)
    grad_factors: np.ndarray = field(init=False, repr=False, compare=False)
    grad_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            r, m = operator.index(self.r), operator.index(self.m)
            ms = tuple(tuple(map(operator.index, d)) for d in self.multisets)
        except TypeError as exc:
            raise ValueError(f"r, m and multiplicities must be integers: {exc}") from exc
        if r < 2:
            raise ValueError(f"uniformity must be >= 2, got {r}")
        if m < 1:
            raise ValueError(f"ground set size must be >= 1, got {m}")
        seen: set[tuple[int, ...]] = set()
        for d in ms:
            if len(d) != m:
                raise ValueError(f"multiplicity vector {d} does not have length m={m}")
            if min(d) < 0:
                raise ValueError(f"multiplicity vector {d} has a negative entry")
            if sum(d) != r:
                raise ValueError(f"multiset {d} does not have size r={r}")
            if d in seen:
                raise ValueError(f"duplicate multiset {d}")
            seen.add(d)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "multisets", tuple(sorted(ms, reverse=True)))
        monos = self.monomials
        n = len(monos)
        exps = np.array([d for d, _ in monos], dtype=np.int64).reshape(n * m)
        factors = np.repeat(np.tile(np.arange(m), n), exps).reshape(n, r)
        coefs = np.array([float(c) for _, c in monos])
        drop = np.array([[j for j in range(r) if j != k] for k in range(r)])
        grad_weights = np.zeros((n * r, m))
        grad_weights[np.arange(n * r), factors.ravel()] = np.repeat(coefs, r)
        for name, arr in (("factors", factors), ("coefs", coefs),
                          ("grad_factors", factors[:, drop].reshape(n * r, r - 1)),
                          ("grad_weights", grad_weights)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def monomials(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """One (multiplicity tuple, r!/prod(d_i!)) pair per multiset, in
        ascending tuple order; the coefficients are exact."""
        rf = factorial(self.r)
        # ascending, the order every float table and sum has always used
        return tuple((d, Fraction(rf, prod(map(factorial, d))))
                     for d in reversed(self.multisets))

    def coefficient_sum(self) -> Fraction:
        return sum((c for _, c in self.monomials), Fraction(0))

    @classmethod
    def from_element_lists(
        cls, r: int, m: int, element_lists: Iterable[Iterable[int]]
    ) -> "Pattern":
        """Build from 1-based element lists such as [[1, 1, 2], [1, 2, 3]]."""
        return cls(r, m, tuple(_multiplicities(m, es) for es in element_lists))


def _multiplicities(m: int, elements: Iterable[int]) -> tuple[int, ...]:
    """Multiplicity tuple of a 1-based element list such as [1, 1, 2]."""
    mult = [0] * m
    for e in elements:
        if not 1 <= e <= m:
            raise ValueError(f"element {e} outside ground set [1, {m}]")
        mult[e - 1] += 1
    return tuple(mult)


def _multisets(r: int, m: int) -> np.ndarray:
    """Every r-multiset on [m] as a row of m multiplicities: the
    C(r + m - 1, m - 1) compositions of r into m parts, built whole as one
    int32 array in lexicographic order (the stars-and-bars order of the bar
    positions).  Each round appends every value a part can still take to
    every row; nothing is cached."""
    rows = np.zeros((1, 0), dtype=np.int32)
    left = np.array([r], dtype=np.int32)  # not yet given to a part
    for _ in range(m - 1):
        counts = left + 1
        part = np.arange(counts.sum(), dtype=np.int32)
        part -= np.repeat(part[np.cumsum(counts) - counts], counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), part])
        left = np.repeat(left, counts) - part
    return np.column_stack([rows, left])


def simple_pattern(r: int, m: int, edges: Iterable[Iterable[int]]) -> Pattern:
    """Pattern whose multisets are plain r-sets (no repeated vertices)."""
    ms = []
    for edge in edges:
        edge = tuple(edge)
        if len(set(edge)) != len(edge):
            raise ValueError(f"edge {edge} repeats a vertex")
        ms.append(_multiplicities(m, edge))
    return Pattern(r, m, tuple(ms))


# ---------------------------------------------------------------------------
# JSON wire format


def pattern_to_dict(p: Pattern) -> dict:
    """Dict form: {"r": ..., "m": ..., "multisets": [[1, 1, 2], ...]}."""
    return {
        "r": p.r,
        "m": p.m,
        "multisets": [[i for i, c in enumerate(d, start=1) for _ in range(c)]
                      for d in p.multisets],
    }


def json_int(v: object) -> int:
    """An integer read from a JSON file: ``operator.index``, except that
    true and false, which Python counts as 1 and 0, raise TypeError."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is a boolean, not an integer")
    return operator.index(v)


def pattern_from_dict(obj: Mapping) -> Pattern:
    try:
        r = json_int(obj["r"])
        m = json_int(obj["m"])
        lists = [[json_int(v) for v in es] for es in obj["multisets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed pattern object: {exc}") from exc
    for es in lists:
        if es != sorted(es):
            raise ValueError(f"multiset {es} is not sorted non-decreasing")
    return Pattern.from_element_lists(r, m, lists)


def load_pattern(path: str) -> Pattern:
    with open(path, "r", encoding="utf-8") as fh:
        return pattern_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(p: Pattern, x: Sequence[float]) -> float | np.ndarray:
    """The pattern's value at x of shape (m,), or at each row of a (k, m) batch."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim not in (1, 2) or xv.shape[-1] != p.m:
        raise ValueError(f"point has shape {xv.shape}, expected ({p.m},) or (k, {p.m})")
    values = _values(p, xv)
    return float(values) if xv.ndim == 1 else values


def evaluate_batch(p: Pattern, xs: np.ndarray) -> np.ndarray:
    """The pattern's values at each row of xs, shape (k, m)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != p.m:
        raise ValueError(f"batch has shape {xs.shape}, expected (k, {p.m})")
    return _values(p, xs)


def _values(p: Pattern, xv: np.ndarray) -> np.ndarray:
    return xv[..., p.factors].prod(axis=-1) @ p.coefs


def evaluate_exact(p: Pattern, x: Sequence[Fraction]) -> Fraction:
    """The pattern's exact value at a rational point."""
    if len(x) != p.m:
        raise ValueError(f"point has length {len(x)}, expected {p.m}")
    total = Fraction(0)
    for exps, coeff in p.monomials:
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
        pools = [combinations(ranges[i], c) for i, c in enumerate(d) if c > 0]
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
        for size, c in zip(spec.part_sizes, d):
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
    rows = []
    for n in n_values:
        if n < p.r:
            raise ValueError(f"n={n} too small to realize fractions (need n >= r)")
        sizes = largest_remainder_sizes(n, part_fractions)
        count = blowup_edge_count(BlowupSpec(p, sizes))
        density = Fraction(count, comb(n, p.r))
        value = evaluate_exact(p, [Fraction(s, n) for s in sizes])
        rows.append(DensityRow(n, sizes, count, density, value, abs(density - value)))
    return rows
