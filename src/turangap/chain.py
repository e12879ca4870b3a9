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

Each rung takes one of three routes, read from one link table (v's link: the
(r-1)-tuples completing v to an edge) that grows by r links per rung, and
that route alone gives its value, point and KKT residual.  ``ROUTES`` names
them, Bernstein by its simplex: a ladder's ``routes[i]`` is rung i's.

- Closed form.  On t covered vertices, K_t has lambda(K_t) = r! C(t, r) / t^r
  at its uniform point.  A rung that contains K_{t-1} and leaves some vertex
  pair in no edge has lambda(K_{t-1}) exactly: one weight of an uncovered
  pair can be set to zero (Frankl and Rodl, Combinatorica 1984), leaving
  t - 1 vertices.  The rung builds no pattern, and its KKT residual is 0:
  at the uniform point of its s-vertex support every partial there is
  r lambda by symmetry, and a dropped vertex misses some u, so its link
  holds at most C(s - 1, r - 1) of the support's (r-1)-sets: its partial
  is at most r lambda.
- Bernstein.  Vertices u and v are twins when swapping them fixes the
  edge set.  Along x + t(e_u - e_v), lambda is concave in t and symmetric
  about x_u = x_v, so averaging twins never lowers it (the argument behind
  Frankl and Rodl, and Talbot's colex Lagrangians, CPC 2002), and some
  maximizer is constant on each twin class.  An uncovered vertex takes
  weight 0, as lambda is homogeneous with non-negative coefficients.  A
  rung whose covered vertices form k = 2, 3 or 4 twin classes therefore
  peaks at y_c/|c| on each class c, y on the segment, triangle or
  tetrahedron of class weights, where lambda is the degree-r Bernstein
  polynomial with coefficients beta_alpha = N_alpha prod_c alpha_c! /
  |c|^alpha_c, N_alpha counting the edges with alpha_c vertices in each
  class c.  The largest coefficient of a piece bounds it there (Farin, CAGD
  1986), and a corner coefficient is its value.  Branch and bound splits
  each live piece into Freudenthal's 2^(k-1) children by k - 1 edge
  bisections, drops it once its largest coefficient is at most
  best (1 + 4e-16), and keeps at most _MAX_PIECES pieces for _MAX_DEPTH
  levels; it takes no starts or step sizes.
- Optimizer.  Every other rung, five or more twin classes, runs ``maximize``.
  Beyond four, one split costs more than the ascent: 126 x 2016 at r = 5.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod
from typing import Sequence

import numpy as np

from .patterns import _multisets, evaluate, simple_pattern
from .simplex import _check_seed, kkt_residual, maximize

_STEP_SLACK = 1e-6  # float slack of the r!/r^r step checks
_KKT_BOUND = 1e-6  # largest first-order residual a rung may keep
_MAX_DEPTH = 26  # levels of Bernstein subdivision; deeper, rounding keeps pieces alive
_MAX_PIECES = 256  # live pieces per level, for maxima along a line or a face
ROUTES = ("empty", "closed-form", "segment", "triangle", "tetrahedron", "optimizer")
_SIMPLICES = {2: "segment", 3: "triangle", 4: "tetrahedron"}  # Bernstein route by twin classes


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
    holding the i-edge pattern.  ``routes[i]`` names the one route, from
    ROUTES, that gave rung i its value, point and KKT residual;
    ``exact_values[i]`` is the closed-form value, 0 at rung 0, None where
    Bernstein or the optimizer ran, so it is None exactly where ``routes[i]``
    is neither "empty" nor "closed-form"; a hand-built ladder keeps both so."""

    r: int
    m: int
    edges: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]
    exact_values: tuple[Fraction | None, ...]
    points: tuple[tuple[float, ...], ...]
    kkt_residuals: tuple[float, ...]
    routes: tuple[str, ...]

    def rungs(self, route: str) -> tuple[int, ...]:
        """Indices of the rungs that ``route``, one of ROUTES, solved."""
        if route not in ROUTES:
            raise ValueError(f"unknown route {route!r}, expected one of {ROUTES}")
        return tuple(i for i, x in enumerate(self.routes) if x == route)

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
    r: int, m: int, size: int, links: dict[int, set[tuple[int, ...]]]
) -> tuple[Fraction, tuple[float, ...]] | None:
    """(lambda, uniform maximizer) of a rung of ``size`` edges that is K_t on
    its t vertices V, or holds K_{t-1} on V - v and leaves a pair of V in no
    edge; None for every other rung.  v's degree is the size of its link;
    the edges avoiding v are all r-sets of V - v iff they number C(t-1, r),
    and then an uncovered pair holds v: v's link misses some u."""
    t = len(links)
    if size == comb(t, r):
        support = set(links)
    else:
        rest = size - comb(t - 1, r)
        support = next((set(links) - {v} for v in sorted(links) if len(links[v]) == rest
                        and len({u for f in links[v] for u in f}) < t - 1), None)
    if support is None:
        return None
    s = len(support)
    point = tuple(1.0 / s if i in support else 0.0 for i in range(1, m + 1))
    return _clique_value(r, s), point


def _twin_classes(links: dict[int, set[tuple[int, ...]]]) -> list[list[int]]:
    """The covered vertices in twin classes, each in vertex order, from links.

    u and v are twins when swapping them fixes the edge set, that is when
    u's link without v equals v's link without u, as sets of (r-1)-tuples.
    Twins have equal degrees, and twinhood is an equivalence, so each
    vertex is compared with the first vertex of each class of its degree.
    """
    classes: list[list[int]] = []
    for v in sorted(links):
        for cls in classes:
            u = cls[0]
            if len(links[u]) == len(links[v]) and (
                    {f for f in links[u] if v not in f} == {f for f in links[v] if u not in f}):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


@lru_cache(maxsize=None)
def _subdivision(r: int, k: int) -> tuple[list, list[int], np.ndarray, np.ndarray]:
    """Freudenthal's subdivision of the (k - 1)-simplex into 2^(k-1)
    congruent children: the multi-indices alpha of degree r, the positions
    of the corner coefficients, each child's vertices in parent barycentric
    coordinates, and the matrix taking a piece's coefficients to its
    children's.

    It composes k - 1 bisections of edge (v_0, v_t) at its midpoint z, for
    t = k - 1 down to 1, into children (v_0, .., v_{t-1}, z, v_{t+1}, ..)
    and (v_1, .., v_t, z, v_{t+1}, ..) (Maubach, SIAM J. Sci. Comput. 1995),
    so every child keeps its vertices in path order and the same matrix
    splits it again.  A coefficient with gamma_t copies of z averages beta
    over the copies sent to v_0, with binomial weights over 2^gamma_t: the
    weights are dyadic, exact in floats, and each column sums to 1.
    """
    alphas = list(map(tuple, _multisets(r, k).tolist()))
    index = {a: i for i, a in enumerate(alphas)}
    n = len(alphas)
    split, vertices = np.eye(n), np.eye(k)[None]
    for t in range(k - 1, 0, -1):
        bisect = np.zeros((n, 2 * n))
        for j, g in enumerate(alphas):
            for i in range(g[t] + 1):  # copies of z sent to v_0
                w = comb(g[t], i) / 2**g[t]
                bisect[index[(g[0] + i, *g[1:t], g[t] - i, *g[t + 1:])], j] = w
                bisect[index[(i, *g[:t - 1], g[t - 1] + g[t] - i, *g[t + 1:])], n + j] = w
        split = (split.reshape(n, -1, n) @ bisect).reshape(n, -1)
        z, rest = (vertices[:, :1] + vertices[:, t:t + 1]) / 2, vertices[:, t + 1:]
        vertices = np.stack([np.concatenate([vertices[:, :t], z, rest], 1),
                             np.concatenate([vertices[:, 1:t + 1], z, rest], 1)], 1)
        vertices = vertices.reshape(-1, k, k)
    corners = [index[tuple(r * (j == c) for j in range(k))] for c in range(k)]
    return alphas, corners, vertices, split


def _bernstein_argmax(r: int, k: int, beta: np.ndarray) -> np.ndarray:
    """A maximizer on the (k - 1)-simplex of the Bernstein polynomial with
    coefficients beta, ordered as ``_subdivision(r, k)``'s multi-indices,
    by the module docstring's branch and bound from the simplex's corners.
    One product splits all live pieces of a level; past _MAX_PIECES, those
    with the largest bounds are kept.  Each level records which pieces it
    split, and only the winning piece's vertices are rebuilt, by walking
    those records back to the simplex."""
    _, corners, children, split = _subdivision(r, k)
    pieces, splits = beta[None], []  # splits[l]: the level-l pieces split at level l + 1
    best, depth, won = beta[corners].max(), 0, beta[corners].argmax()  # won: flat index in values
    for _ in range(_MAX_DEPTH):
        bounds = pieces.max(axis=1)
        live = (bounds > best * (1 + 4e-16)).nonzero()[0]
        if not len(live):
            break
        if len(live) > _MAX_PIECES:
            live = np.argsort(-bounds, kind="stable")[:_MAX_PIECES]
        splits.append(live)
        pieces = (pieces[live] @ split).reshape(-1, len(beta))
        values = pieces[:, corners]
        if (top := values.max()) > best:
            best, depth, won = top, len(splits), values.argmax()
    piece, path = won // k, []  # the winner's piece at level depth, then its child indices
    for live in reversed(splits[:depth]):
        path.append(piece % len(children))
        piece = live[piece // len(children)]
    vertices = np.eye(k)
    for child in reversed(path):
        vertices = children[child] @ vertices
    return vertices[won % k]


def _class_point(
    r: int, m: int, edges: Sequence[tuple[int, ...]], classes: list[list[int]]
) -> tuple[float, ...]:
    """Maximizer of a rung whose covered vertices form two to four twin
    classes: y_c/|c| on class c and 0 elsewhere, y maximizing the rung's
    Bernstein polynomial on the simplex of class weights."""
    k = len(classes)
    label = {v: c for c, cls in enumerate(classes) for v in cls}
    profiles: Counter[tuple[int, ...]] = Counter()
    for e in edges:
        profile = [0] * k
        for v in e:
            profile[label[v]] += 1
        profiles[tuple(profile)] += 1
    beta = np.array([profiles[a] * prod(map(factorial, a))
                     / prod(len(cls)**j for cls, j in zip(classes, a))
                     for a in _subdivision(r, k)[0]])
    y = _bernstein_argmax(r, k, beta)
    weight = {v: w / len(cls) for cls, w in zip(classes, y.tolist()) for v in cls}
    return tuple(weight.get(v, 0.0) for v in range(1, m + 1))


def build_chain_ladder(r: int, m: int, order: str = "colex", seed: int = 0) -> ChainLadder:
    """Value of every prefix pattern of the r-sets on m vertices, in
    ``edge_enumeration`` order, each rung by the first route that applies:
    a closed form; Bernstein, when the rung's covered vertices form two to
    four twin classes; else ``maximize`` from the seed, warm-started from
    the previous rung's point, which keeps the values monotone up to float
    rounding.  Rung 1 (one r-set, so K_r) is always closed-form.  The route
    that solves a rung, recorded in ``routes``, also gives its KKT residual:
    0 for a closed form, the pattern's at a Bernstein point, ``maximize``'s
    own for the optimizer.  Only these two build the rung's pattern.  A bad
    argument raises before any rung is built.
    """
    edges = edge_enumeration(r, m, order, seed)
    # one row per rung: value, exact value, point, KKT residual, route
    rows = [(0.0, Fraction(0), tuple([1.0 / m] * m), 0.0, "empty")]
    links: dict[int, set[tuple[int, ...]]] = {}  # covered vertex -> its link
    for k, edge in enumerate(edges, start=1):
        for v in edge:
            links.setdefault(v, set()).add(tuple(u for u in edge if u != v))
        if (closed := _closed_form(r, m, k, links)) is not None:
            rows.append((float(closed[0]), closed[0], closed[1], 0.0, "closed-form"))
            continue
        pattern = simple_pattern(r, m, edges[:k])
        if len(classes := _twin_classes(links)) <= 4:
            point = _class_point(r, m, edges[:k], classes)
            rows.append((evaluate(pattern, point), None, point, kkt_residual(pattern, point),
                         _SIMPLICES[len(classes)]))
        else:
            res = maximize(pattern, seed, extra_starts=[rows[-1][2]])  # previous rung's point
            rows.append((res.value, None, tuple(res.point.tolist()), res.kkt_residual,
                         "optimizer"))
    values, exact, points, kkts, routes = zip(*rows)
    return ChainLadder(r=r, m=m, edges=edges, values=values, exact_values=exact,
                       points=points, kkt_residuals=kkts, routes=routes)


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
    the KKT residual of every rung against _KKT_BOUND, and, once
    lambda(K_m) > 1 - r!/r^r, that the top rung has an exact value above it.

    A step outside [-1e-9, r!/r^r + _STEP_SLACK] is reported, not raised:
    adding an r-set never lowers the maximum and raises it by at most
    r!/r^r.  Any other step i above r!/r^r (1 - values[i - 1]) + _STEP_SLACK
    is a near-equality violation: the bound of the module docstring, under
    which a step of r!/r^r can only start from 0.  A larger KKT residual
    means the rung's point is not stationary, so its value may sit below
    the rung's maximum.  The KKT gate is first-order: a rung stuck at a
    zero of lambda, where the gradient vanishes too, passes it, and the
    step audit is what reports that rung.

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
        kkt_violations=tuple(i for i, kkt in enumerate(lad.kkt_residuals) if kkt > _KKT_BOUND),
        top_ok=None if _clique_value(lad.r, lad.m) <= target
        else top is not None and top > target,
    )
