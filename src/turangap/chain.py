"""One-edge-at-a-time chains of simple patterns and their value ladders.

Adding a single r-set to a pattern raises the simplex maximum by at most
r!/r^r (the product of r simplex coordinates never exceeds r^-r), while
the complete pattern on enough vertices pushes the top of the ladder above
1 - r!/r^r.  Certified ladders over such chains therefore sweep value axes
with no gap longer than r!/r^r between consecutive rungs.

Many rungs have a closed form, decided from the rung's own edge set.  On t
covered vertices, K_t has lambda = r! C(t, r) / t^r at its uniform point.
A rung that contains K_{t-1} and leaves some vertex pair in no edge has
lambda(K_{t-1}) exactly: one weight of an uncovered pair can be set to zero
(Frankl and Rodl, Combinatorica 1984), leaving t - 1 vertices.  Along colex
most rungs are of these two kinds; only the others run the optimizer.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Sequence

from .patterns import Pattern, RMultiset, lagrange_polynomial
from .simplex import OptimizerConfig, kkt_residual, maximize

_STEP_SLACK = 1e-6  # float slack of the r!/r^r step check
_COVER_SLACK = 2e-6  # float slack of the value-axis cover check
_NEAR_EPS = 0.01  # steps this close to r!/r^r are audited ...
_NEAR_DELTA = 0.01  # ... and must start from a value below this


def minimal_m(r: int) -> int:
    """Smallest m with r! C(m, r) / m^r > 1 - r!/r^r, decided exactly."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    target = 1 - Fraction(factorial(r), r**r)
    m = r
    while Fraction(factorial(r) * comb(m, r), m**r) <= target:
        m += 1
    return m


def edge_enumeration(
    m: int, r: int, rule: str = "colex", seed: int = 0
) -> tuple[tuple[int, ...], ...]:
    """All r-sets on {1, ..., m} in colex, lex, or seeded random order."""
    if not 2 <= r <= m:
        raise ValueError(f"need 2 <= r <= m, got r={r}, m={m}")
    edges = list(combinations(range(1, m + 1), r))
    if rule == "lex":
        pass  # combinations already emits lex order
    elif rule == "colex":
        edges.sort(key=lambda e: tuple(reversed(e)))
    elif rule == "random":
        random.Random(seed).shuffle(edges)
    else:
        raise ValueError(f"unknown enumeration rule {rule!r}")
    return tuple(edges)


@dataclass(frozen=True)
class ChainConfig:
    r: int
    m: int
    edge_order: str = "colex"
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        if not 2 <= self.r <= self.m:
            raise ValueError(f"need 2 <= r <= m, got r={self.r}, m={self.m}")


@dataclass(frozen=True)
class ChainLadder:
    """Certified values along one chain, index i holding the i-edge pattern.

    ``exact_values[i]`` is the closed-form value, 0 at rung 0, None where
    the optimizer ran."""

    config: ChainConfig
    edges: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]
    exact_values: tuple[Fraction | None, ...]
    points: tuple[tuple[float, ...], ...]
    kkt_residuals: tuple[float, ...]

    @property
    def closed_form_rungs(self) -> tuple[int, ...]:
        """Indices of the rungs with edges whose value came from a closed form."""
        return tuple(i for i, v in enumerate(self.exact_values) if i and v is not None)

    @property
    def steps(self) -> tuple[float, ...]:
        return tuple(
            b - a for a, b in zip(self.values[:-1], self.values[1:])
        )

    @property
    def max_step(self) -> float:
        return max(self.steps)

    @property
    def max_step_index(self) -> int:
        steps = self.steps
        return 1 + steps.index(max(steps))


def _closed_form(
    r: int, m: int, edges: Sequence[tuple[int, ...]]
) -> tuple[Fraction, tuple[float, ...]] | None:
    """(lambda, uniform maximizer) of a rung that is K_t on its t vertices V,
    or that holds K_{t-1} on V - v and leaves a pair of V in no edge; None
    for every other rung."""
    degree = Counter(v for e in edges for v in e)
    t = len(degree)
    support = set(degree) if len(edges) == comb(t, r) else None
    if support is None and len({p for e in edges for p in combinations(e, 2)}) < comb(t, 2):
        # the edges avoiding v are all r-sets of V - v iff they number C(t-1, r)
        support = next((set(degree) - {v} for v in sorted(degree)
                        if len(edges) - degree[v] == comb(t - 1, r)), None)
    if support is None:
        return None
    s = len(support)
    point = tuple(1.0 / s if i in support else 0.0 for i in range(1, m + 1))
    return Fraction(factorial(r) * comb(s, r), s**r), point


def build_chain_ladder(config: ChainConfig) -> ChainLadder:
    """Value of every prefix pattern: a closed form where one applies, else
    ``maximize`` warm-started from the previous rung's point, which keeps the
    values monotone up to float rounding.  Rung 1 (one r-set, so K_r) is
    always closed-form.  Every KKT residual is computed at the rung's point.
    """
    r, m = config.r, config.m
    edges = edge_enumeration(m, r, config.edge_order, config.opt.seed)
    multisets: list[RMultiset] = []
    values = [0.0]
    exact: list[Fraction | None] = [Fraction(0)]
    points = [tuple([1.0 / m] * m)]
    kkts = [0.0]
    for k, edge in enumerate(edges, start=1):
        multisets.append(RMultiset.from_elements(edge, m))
        pattern = Pattern(r, m, tuple(multisets))
        closed = _closed_form(r, m, edges[:k])
        if closed is None:
            res = maximize(pattern, config.opt, extra_starts=[points[-1]])
            value, point, kkt = res.value, tuple(res.point.tolist()), res.kkt_residual
        else:
            value, point = float(closed[0]), closed[1]
            kkt = kkt_residual(lagrange_polynomial(pattern), point)
        values.append(value)
        exact.append(None if closed is None else closed[0])
        points.append(point)
        kkts.append(kkt)
    return ChainLadder(
        config=config,
        edges=edges,
        values=tuple(values),
        exact_values=tuple(exact),
        points=tuple(points),
        kkt_residuals=tuple(kkts),
    )


@dataclass(frozen=True)
class GapReport:
    """Step-bound audit of a chain ladder."""

    r: int
    m: int
    bound: float  # r!/r^r
    max_step: float
    max_step_index: int
    step_violations: tuple[int, ...]
    monotone_violations: tuple[int, ...]
    top_value: float
    top_threshold: float
    top_checked: bool  # only meaningful once m >= minimal_m(r)
    top_ok: bool

    @property
    def ok(self) -> bool:
        return (
            not self.step_violations
            and not self.monotone_violations
            and (self.top_ok or not self.top_checked)
        )


def verify_gap_bound(lad: ChainLadder) -> GapReport:
    """Check every step against r!/r^r and the top rung against 1 - r!/r^r.

    The top check only applies once the ground set is at least minimal_m(r).
    Monotonicity is checked with 1e-9 slack; violating indices are reported
    rather than raised.
    """
    r = lad.config.r
    bound = factorial(r) / r**r
    steps = lad.steps
    step_viol = tuple(i + 1 for i, s in enumerate(steps) if s > bound + _STEP_SLACK)
    mono_viol = tuple(i + 1 for i, s in enumerate(steps) if s < -1e-9)
    top_checked = lad.config.m >= minimal_m(r)
    threshold = 1.0 - bound
    top_ok = lad.values[-1] > threshold
    return GapReport(
        r=r,
        m=lad.config.m,
        bound=bound,
        max_step=lad.max_step,
        max_step_index=lad.max_step_index,
        step_violations=step_viol,
        monotone_violations=mono_viol,
        top_value=lad.values[-1],
        top_threshold=threshold,
        top_checked=top_checked,
        top_ok=top_ok,
    )


@dataclass(frozen=True)
class NearEqualityReport:
    """Audit of the rungs whose step comes close to the bound.

    A step within _NEAR_EPS of r!/r^r forces the previous rung to sit near 0:
    equality needs all r coordinates of the new edge at exactly 1/r, which
    starves every earlier edge of weight.
    """

    r: int
    triggered: tuple[int, ...]
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def near_equality_check(lad: ChainLadder) -> NearEqualityReport:
    """Every step above r!/r^r - _NEAR_EPS must start below _NEAR_DELTA."""
    r = lad.config.r
    bound = factorial(r) / r**r
    triggered = []
    violations = []
    for i, s in enumerate(lad.steps, start=1):
        if s > bound - _NEAR_EPS:
            triggered.append(i)
            if lad.values[i - 1] >= _NEAR_DELTA:
                violations.append(i)
    return NearEqualityReport(
        r=r,
        triggered=tuple(triggered),
        violations=tuple(violations),
    )


def value_axis_cover_ok(lad: ChainLadder) -> bool:
    """No sub-interval of [0, top] longer than r!/r^r + _COVER_SLACK misses all rungs."""
    r = lad.config.r
    bound = factorial(r) / r**r
    vals = sorted(lad.values)
    return all(b - a <= bound + _COVER_SLACK for a, b in zip(vals[:-1], vals[1:]))
