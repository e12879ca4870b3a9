"""One-edge-at-a-time chains of simple patterns and their value ladders.

Adding a single r-set to a pattern never lowers the simplex maximum and
raises it by at most r!/r^r (the product of r simplex coordinates never
exceeds r^-r), so every step of a chain lies in [0, r!/r^r].  The top rung,
always the complete pattern K_m, has lambda(K_m) = prod_{i<r} (1 - i/m),
which grows with m and lies above 1 - r!/r^r exactly when m >= minimal_m(r).
By Weierstrass's product inequality lambda(K_m) >= 1 - C(r, 2)/m, so
m = floor(C(r, 2) r^r / r!) + 1 already crosses.  ``verify_gap_bound`` is
the one audit of a ladder, its steps and its top rung; once it is ok, the
ladder sweeps the value axis with no gap longer than r!/r^r.

A step is bounded further by where it starts.  Let x maximize rung i, which
adds the edge e, let b = r!/r^r, and let w be the weight x puts on e.  Then
step_i <= b w^r: rung i - 1 reaches at least lambda_i minus e's monomial at
x, which is at most b w^r.  And lambda_i <= 1 - (1 - b) w^r: (sum x)^r = 1
sums x over all r-tuples, the tuples inside e weigh w^r, and of these only
e's own monomial counts in lambda_i.  As w^r >= step_i / b,
lambda_{i-1} = lambda_i - step_i <= 1 - step_i / b, that is
step_i <= b (1 - lambda_{i-1}): a step of b can only start from 0.

Each rung takes one of three routes, decided from its own edge set.

- Closed form.  On t covered vertices, K_t has lambda(K_t) = r! C(t, r) / t^r
  at its uniform point.  A rung that contains K_{t-1} and leaves some vertex
  pair in no edge has lambda(K_{t-1}) exactly: one weight of an uncovered
  pair can be set to zero (Frankl and Rodl, Combinatorica 1984), leaving
  t - 1 vertices.
- Segment.  Vertices u and v are twins when swapping them fixes the edge
  set.  Along x + t(e_u - e_v), lambda is concave in t and symmetric about
  x_u = x_v, so averaging twins never lowers it (the argument behind
  Frankl and Rodl, and Talbot's colex Lagrangians, CPC 2002), and some
  maximizer is constant on each twin class.  An uncovered vertex takes
  weight 0, as lambda is homogeneous with non-negative coefficients.  A
  rung whose covered vertices form two twin classes A and B therefore
  peaks on the segment s/|A| on A, (1 - s)/|B| on B, where lambda is the
  degree-r Bernstein polynomial with coefficients
  beta_j = r! N_j / (C(r, j) |A|^j |B|^(r-j)), N_j counting the edges that
  meet A in j vertices.  De Casteljau halving of [0, 1] finds its maximum
  with no starts or step sizes.
- Optimizer.  Every other rung runs ``maximize``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Sequence

from .patterns import evaluate, simple_pattern
from .simplex import _check_seed, kkt_residual, maximize

_STEP_SLACK = 1e-6  # float slack of the r!/r^r step checks
_KKT_BOUND = 1e-6  # largest first-order residual a rung with no closed form may keep


def _clique_value(r: int, t: int) -> Fraction:
    """lambda(K_t), exact: the value at the uniform point of its t vertices."""
    return Fraction(factorial(r) * comb(t, r), t**r)


def minimal_m(r: int) -> int:
    """Smallest m with lambda(K_m) > 1 - r!/r^r, decided exactly: from the
    Weierstrass bound down, while m - 1 still crosses."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    target = 1 - _clique_value(r, r)
    m = comb(r, 2) * r**r // factorial(r) + 1
    while _clique_value(r, m - 1) > target:
        m -= 1
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
    value, 0 at rung 0, None where the segment or the optimizer ran;
    ``segment_rungs`` lists the rungs solved on a segment."""

    r: int
    m: int
    edges: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]
    exact_values: tuple[Fraction | None, ...]
    points: tuple[tuple[float, ...], ...]
    kkt_residuals: tuple[float, ...]
    segment_rungs: tuple[int, ...]

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


def _twin_classes(edges: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """The covered vertices in twin classes, each in vertex order.

    u and v are twins when swapping them fixes the edge set, that is when
    u's link without v equals v's link without u, as sets of (r-1)-tuples.
    Twinhood is an equivalence, so each vertex is compared with the first
    vertex of each class only.
    """
    links: dict[int, set[tuple[int, ...]]] = {}
    for e in edges:
        for v in e:
            links.setdefault(v, set()).add(tuple(u for u in e if u != v))
    classes: list[list[int]] = []
    for v in sorted(links):
        for cls in classes:
            u = cls[0]
            if {f for f in links[u] if v not in f} == {f for f in links[v] if u not in f}:
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def _segment_argmax(beta: Sequence[float]) -> float:
    """A maximizer on [0, 1] of the Bernstein polynomial with coefficients beta.

    The largest coefficient of a piece bounds the polynomial there, and
    halving a piece by de Casteljau gives both halves' coefficients and the
    midpoint value, the left half's last coefficient.  Starting from the
    endpoint values, a piece is dropped once its largest coefficient is at
    most best (1 + 4e-16), and no piece narrower than 2^-40 is split.
    """
    best, arg = (beta[-1], 1.0) if beta[-1] > beta[0] else (beta[0], 0.0)
    pieces = [(0.0, 1.0, list(beta))]
    while pieces:
        lo, width, c = pieces.pop()
        if max(c) <= best * (1 + 4e-16) or width < 2.0**-40:
            continue
        left, right = [c[0]], [c[-1]]
        while len(c) > 1:
            c = [(a + b) / 2 for a, b in zip(c, c[1:])]
            left.append(c[0])
            right.append(c[-1])
        mid = lo + width / 2
        if left[-1] > best:
            best, arg = left[-1], mid
        pieces += [(lo, width / 2, left), (mid, width / 2, right[::-1])]
    return arg


def _segment_point(
    r: int, m: int, edges: Sequence[tuple[int, ...]], a: list[int], b: list[int]
) -> tuple[float, ...]:
    """Maximizer of a rung whose covered vertices form the twin classes a, b:
    s/|a| on a, (1 - s)/|b| on b and 0 elsewhere, s maximizing the rung's
    Bernstein polynomial on [0, 1]."""
    in_a = set(a)
    meets = Counter(len(in_a.intersection(e)) for e in edges)
    beta = [factorial(r) * meets[j] / (comb(r, j) * len(a)**j * len(b)**(r - j))
            for j in range(r + 1)]
    s = _segment_argmax(beta)
    point = [0.0] * m
    for v in a:
        point[v - 1] = s / len(a)
    for v in b:
        point[v - 1] = (1 - s) / len(b)
    return tuple(point)


def build_chain_ladder(r: int, m: int, order: str = "colex", seed: int = 0) -> ChainLadder:
    """Value of every prefix pattern of the r-sets on m vertices, in
    ``edge_enumeration`` order, each rung by the first route that applies:
    a closed form; the segment, when the rung's covered vertices form two
    twin classes; else ``maximize`` from the seed, warm-started from the
    previous rung's point, which keeps the values monotone up to float
    rounding.  Rung 1 (one r-set, so K_r) is always closed-form.  A segment
    rung's value is the pattern at its point; every KKT residual is
    computed at the rung's point, on the full pattern.  A bad argument
    raises before any rung is built.
    """
    edges = edge_enumeration(r, m, order, seed)
    values = [0.0]
    exact: list[Fraction | None] = [Fraction(0)]
    points = [tuple([1.0 / m] * m)]
    kkts = [0.0]
    segment = []
    for k in range(1, len(edges) + 1):
        rung = edges[:k]
        pattern = simple_pattern(r, m, rung)
        closed = _closed_form(r, m, rung)
        if closed is not None:
            value, point = float(closed[0]), closed[1]
        elif len(classes := _twin_classes(rung)) == 2:
            point = _segment_point(r, m, rung, *classes)
            value = evaluate(pattern, point)
            segment.append(k)
        else:
            res = maximize(pattern, seed, extra_starts=[points[-1]])
            value, point = res.value, tuple(res.point.tolist())
        values.append(value)
        exact.append(None if closed is None else closed[0])
        points.append(point)
        kkts.append(kkt_residual(pattern, point))
    return ChainLadder(
        r=r,
        m=m,
        edges=edges,
        values=tuple(values),
        exact_values=tuple(exact),
        points=tuple(points),
        kkt_residuals=tuple(kkts),
        segment_rungs=tuple(segment),
    )


@dataclass(frozen=True)
class GapReport:
    """Audit of a chain ladder: step i runs from rung i - 1 to rung i, and
    ``top_ok`` is None while lambda(K_m) <= 1 - r!/r^r, which claims nothing."""

    bound: float  # r!/r^r
    step_violations: tuple[int, ...]
    near_violations: tuple[int, ...]
    kkt_violations: tuple[int, ...]
    top_ok: bool | None

    @property
    def ok(self) -> bool:
        return not (self.step_violations or self.near_violations or self.kkt_violations
                    or self.top_ok is False)


def verify_gap_bound(lad: ChainLadder) -> GapReport:
    """Check every step against [0, r!/r^r] and against where it starts,
    the KKT residual of every rung with no closed form against _KKT_BOUND,
    and, once lambda(K_m) > 1 - r!/r^r, that the top rung has an exact value above it.

    A step outside [-1e-9, r!/r^r + _STEP_SLACK] is reported, not raised:
    adding an r-set never lowers the maximum and raises it by at most
    r!/r^r.  Any other step i above r!/r^r (1 - values[i - 1]) + _STEP_SLACK
    is a near-equality violation: the bound of the module docstring, under
    which a step of r!/r^r can only start from 0.  A larger KKT residual
    means the rung's point is not stationary, so its value may sit below
    the rung's maximum.

    Cover corollary: rung 0 holds the least value 0, so for neighbours a < b
    among the sorted values the first rung i reaching b has a rung i - 1 at
    most a, and b - a is at most step i.  Once ``step_violations`` is empty,
    no gap on the value axis exceeds r!/r^r + _STEP_SLACK.
    """
    target, top = 1 - _clique_value(lad.r, lad.r), lad.exact_values[-1]
    bound = float(1 - target)
    step_viol, near_viol = [], []
    for i, s in enumerate(lad.steps, start=1):
        if not -1e-9 <= s <= bound + _STEP_SLACK:
            step_viol.append(i)
        elif s > bound * (1 - lad.values[i - 1]) + _STEP_SLACK:
            near_viol.append(i)
    return GapReport(
        bound=bound,
        step_violations=tuple(step_viol),
        near_violations=tuple(near_viol),
        kkt_violations=tuple(
            i for i, (exact, kkt) in enumerate(zip(lad.exact_values, lad.kkt_residuals))
            if exact is None and kkt > _KKT_BOUND),
        top_ok=None if _clique_value(lad.r, lad.m) <= target
        else top is not None and top > target,
    )
