"""One-edge-at-a-time chains of simple patterns and their value ladders.

Adding a single r-set to a pattern raises the simplex maximum by at most
r!/r^r (the product of r simplex coordinates never exceeds r^-r), while
the top rung, always the complete pattern K_m, lies above 1 - r!/r^r
exactly when m >= minimal_m(r).  ``verify_gap_bound`` is the one audit of
a ladder's steps; a ladder that passes it sweeps the value axis with no gap
longer than r!/r^r.

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

from .patterns import simple_pattern
from .simplex import OptimizerConfig, kkt_residual, maximize

_STEP_SLACK = 1e-6  # float slack of the r!/r^r step check
_KKT_BOUND = 1e-6  # largest first-order residual an optimizer rung may keep
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
    values = [0.0]
    exact: list[Fraction | None] = [Fraction(0)]
    points = [tuple([1.0 / m] * m)]
    kkts = [0.0]
    for k in range(1, len(edges) + 1):
        pattern = simple_pattern(r, m, edges[:k])
        closed = _closed_form(r, m, edges[:k])
        if closed is None:
            res = maximize(pattern, config.opt, extra_starts=[points[-1]])
            value, point, kkt = res.value, tuple(res.point.tolist()), res.kkt_residual
        else:
            value, point = float(closed[0]), closed[1]
            kkt = kkt_residual(pattern, point)
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
    """Step audit of a chain ladder: step i runs from rung i - 1 to rung i."""

    r: int
    m: int
    bound: float  # r!/r^r
    step_violations: tuple[int, ...]
    monotone_violations: tuple[int, ...]
    near_triggered: tuple[int, ...]
    near_violations: tuple[int, ...]
    kkt_violations: tuple[int, ...]

    @property
    def steps_ok(self) -> bool:
        return not self.step_violations and not self.monotone_violations

    @property
    def ok(self) -> bool:
        return self.steps_ok and not self.near_violations and not self.kkt_violations


def verify_gap_bound(lad: ChainLadder) -> GapReport:
    """Check every step against r!/r^r, monotonicity and near equality, and
    every optimizer rung's KKT residual against _KKT_BOUND.

    A step above r!/r^r + _STEP_SLACK or below -1e-9 is reported, not
    raised.  A step above r!/r^r - _NEAR_EPS must start below _NEAR_DELTA:
    equality needs all r coordinates of the new edge at exactly 1/r, which
    starves every earlier edge of weight.  A larger KKT residual means the
    optimizer stopped short of a stationary point, so its value may sit
    below the rung's maximum.

    Cover corollary: rung 0 holds the least value 0, so for neighbours a < b
    among the sorted values the first rung i reaching b has a rung i - 1 at
    most a, and b - a is at most step i.  Once ``steps_ok`` holds, no gap on
    the value axis exceeds r!/r^r + _STEP_SLACK.
    """
    r = lad.config.r
    bound = factorial(r) / r**r
    step_viol, mono_viol, triggered, near_viol = [], [], [], []
    for i, s in enumerate(lad.steps, start=1):
        if s > bound + _STEP_SLACK:
            step_viol.append(i)
        if s < -1e-9:
            mono_viol.append(i)
        if s > bound - _NEAR_EPS:
            triggered.append(i)
            if lad.values[i - 1] >= _NEAR_DELTA:
                near_viol.append(i)
    return GapReport(
        r=r,
        m=lad.config.m,
        bound=bound,
        step_violations=tuple(step_viol),
        monotone_violations=tuple(mono_viol),
        near_triggered=tuple(triggered),
        near_violations=tuple(near_viol),
        kkt_violations=tuple(
            i for i, (exact, kkt) in enumerate(zip(lad.exact_values, lad.kkt_residuals))
            if exact is None and kkt > _KKT_BOUND),
    )
