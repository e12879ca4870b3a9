"""One-edge-at-a-time chains of simple patterns and their value ladders.

Adding a single r-set to a pattern never lowers the simplex maximum and
raises it by at most r!/r^r (the product of r simplex coordinates never
exceeds r^-r), so every step of a chain lies in [0, r!/r^r].  The top rung,
always the complete pattern K_m, lies above 1 - r!/r^r exactly when
m >= minimal_m(r).  ``verify_gap_bound`` is the one audit of a ladder's
steps; once its ``step_violations`` is empty, the ladder sweeps the value
axis with no gap longer than r!/r^r.

Many rungs have a closed form, decided from the rung's own edge set.  On t
covered vertices, K_t has lambda(K_t) = r! C(t, r) / t^r at its uniform
point.  A rung that contains K_{t-1} and leaves some vertex pair in no edge
has lambda(K_{t-1}) exactly: one weight of an uncovered pair can be set to
zero (Frankl and Rodl, Combinatorica 1984), leaving t - 1 vertices.  Along
colex most rungs are of these two kinds; only the others run the optimizer.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Sequence

from .patterns import simple_pattern
from .simplex import _check_seed, kkt_residual, maximize

_STEP_SLACK = 1e-6  # float slack of the r!/r^r step check
_KKT_BOUND = 1e-6  # largest first-order residual an optimizer rung may keep
_NEAR_EPS = 0.01  # steps this close to r!/r^r are audited ...
_NEAR_DELTA = 0.01  # ... and must start from a value below this


def _clique_value(r: int, t: int) -> Fraction:
    """lambda(K_t), exact: the value at the uniform point of its t vertices."""
    return Fraction(factorial(r) * comb(t, r), t**r)


def minimal_m(r: int) -> int:
    """Smallest m with lambda(K_m) > 1 - r!/r^r, decided exactly."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    target = 1 - _clique_value(r, r)
    m = r
    while _clique_value(r, m) <= target:
        m += 1
    return m


def edge_enumeration(
    r: int, m: int, order: str = "colex", seed: int = 0
) -> tuple[tuple[int, ...], ...]:
    """All r-sets on {1, ..., m} in colex, lex, or seeded random order.
    A bad seed raises for every order."""
    seed = _check_seed(seed)
    if not 2 <= r <= m:
        raise ValueError(f"need 2 <= r <= m, got r={r}, m={m}")
    edges = list(combinations(range(1, m + 1), r))
    if order == "lex":
        pass  # combinations already emits lex order
    elif order == "colex":
        edges.sort(key=lambda e: tuple(reversed(e)))
    elif order == "random":
        random.Random(seed).shuffle(edges)
    else:
        raise ValueError(f"unknown enumeration order {order!r}")
    return tuple(edges)


@dataclass(frozen=True)
class ChainLadder:
    """Certified values along one chain of r-sets on m vertices, index i
    holding the i-edge pattern.  ``exact_values[i]`` is the closed-form
    value, 0 at rung 0, None where the optimizer ran."""

    r: int
    m: int
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
    return _clique_value(r, s), point


def build_chain_ladder(r: int, m: int, order: str = "colex", seed: int = 0) -> ChainLadder:
    """Value of every prefix pattern of the r-sets on m vertices, in
    ``edge_enumeration`` order: a closed form where one applies, else
    ``maximize`` from the seed, warm-started from the previous rung's point,
    which keeps the values monotone up to float rounding.  Rung 1 (one
    r-set, so K_r) is always closed-form.  Every KKT residual is computed at
    the rung's point.  A bad argument raises before any rung is built.
    """
    edges = edge_enumeration(r, m, order, seed)
    values = [0.0]
    exact: list[Fraction | None] = [Fraction(0)]
    points = [tuple([1.0 / m] * m)]
    kkts = [0.0]
    for k in range(1, len(edges) + 1):
        pattern = simple_pattern(r, m, edges[:k])
        closed = _closed_form(r, m, edges[:k])
        if closed is None:
            res = maximize(pattern, seed, extra_starts=[points[-1]])
            value, point, kkt = res.value, tuple(res.point.tolist()), res.kkt_residual
        else:
            value, point = float(closed[0]), closed[1]
            kkt = kkt_residual(pattern, point)
        values.append(value)
        exact.append(None if closed is None else closed[0])
        points.append(point)
        kkts.append(kkt)
    return ChainLadder(
        r=r,
        m=m,
        edges=edges,
        values=tuple(values),
        exact_values=tuple(exact),
        points=tuple(points),
        kkt_residuals=tuple(kkts),
    )


@dataclass(frozen=True)
class GapReport:
    """Step audit of a chain ladder: step i runs from rung i - 1 to rung i."""

    bound: float  # r!/r^r
    step_violations: tuple[int, ...]
    near_triggered: tuple[int, ...]
    near_violations: tuple[int, ...]
    kkt_violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not (self.step_violations or self.near_violations or self.kkt_violations)


def verify_gap_bound(lad: ChainLadder) -> GapReport:
    """Check every step against [0, r!/r^r] and near equality, and every
    optimizer rung's KKT residual against _KKT_BOUND.

    A step outside [-1e-9, r!/r^r + _STEP_SLACK] is reported, not raised:
    adding an r-set never lowers the maximum and raises it by at most
    r!/r^r.  A step above r!/r^r - _NEAR_EPS must start below _NEAR_DELTA:
    equality needs all r coordinates of the new edge at exactly 1/r, which
    starves every earlier edge of weight.  A larger KKT residual means the
    optimizer stopped short of a stationary point, so its value may sit
    below the rung's maximum.

    Cover corollary: rung 0 holds the least value 0, so for neighbours a < b
    among the sorted values the first rung i reaching b has a rung i - 1 at
    most a, and b - a is at most step i.  Once ``step_violations`` is empty,
    no gap on the value axis exceeds r!/r^r + _STEP_SLACK.
    """
    bound = float(_clique_value(lad.r, lad.r))
    step_viol, triggered, near_viol = [], [], []
    for i, s in enumerate(lad.steps, start=1):
        if not -1e-9 <= s <= bound + _STEP_SLACK:
            step_viol.append(i)
        if s > bound - _NEAR_EPS:
            triggered.append(i)
            if lad.values[i - 1] >= _NEAR_DELTA:
                near_viol.append(i)
    return GapReport(
        bound=bound,
        step_violations=tuple(step_viol),
        near_triggered=tuple(triggered),
        near_violations=tuple(near_viol),
        kkt_violations=tuple(
            i for i, (exact, kkt) in enumerate(zip(lad.exact_values, lad.kkt_residuals))
            if exact is None and kkt > _KKT_BOUND),
    )
