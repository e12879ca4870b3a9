"""Second routes kept as oracles for the library's one route per quantity.

The enumerations check the occupancy closed form; the uniform value through
a pattern's coefficient sum (`Pattern.coefficient_sum`) checks
`uniform_value_exact`; the part-intersection profile of a vertex set checks
the edge lists of `blow_up`; the widest gap between sorted chain values
checks the cover corollary of `verify_gap_bound`; walking m up from r
checks `minimal_m`, which walks down from the Weierstrass bound; swapping
each vertex pair checks the twin classes of a chain rung, read from a link
table built here from the rung's whole edge list.  Restriction of a
down-set, the variable deletion behind the uniform-point lemma, is used only
by tests that check down-closure survives it.  The complete pattern K_m,
random patterns with repeated elements and chain ladders with given rung
values are test fixtures.  The tuple-by-tuple simplex grid checks the numpy
grid of `certify_max_upper`, and the Fraction sampling loop checks the
integer-numerator minimum of `bunching_verify`.  The full-size batched ascent, with its own projection,
checks `maximize` bit for bit.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from turangap.chain import ChainLadder, edge_enumeration
from turangap.dominance import Composition, DownSet, compositions
from turangap.patterns import Pattern, simple_pattern
import turangap.simplex as sx


def complete_pattern(r: int, m: int) -> Pattern:
    """All C(m, r) plain r-sets on {1, ..., m}."""
    return simple_pattern(r, m, combinations(range(1, m + 1), r))


def random_pattern(rng: random.Random, r_max=5, m_max=6) -> Pattern:
    """Up to six r-multisets on [m], repeated elements allowed."""
    r = rng.randint(2, r_max)
    m = rng.randint(2, m_max)
    mults = set()
    for _ in range(rng.randint(1, 6)):
        counts = [0] * m
        for _ in range(r):
            counts[rng.randrange(m)] += 1
        mults.add(tuple(counts))
    return Pattern(r, m, tuple(sorted(mults)))


def fabricated_ladder(*values: float, m: int = 8) -> ChainLadder:
    """An r=3 ladder on m vertices with the given rung values, no optimizer
    run; the top rung is closed-form, as in every built ladder."""
    edges = edge_enumeration(3, m)[: len(values) - 1]
    exact = (Fraction(0),) + (None,) * (len(values) - 2) + (Fraction(values[-1]),)
    return ChainLadder(3, m, edges, values, exact,
                       ((1 / m,) * m,) * len(values), (0.0,) * len(values), (), (), ())


def minimal_m_by_walk(r: int) -> int:
    """Smallest m with lambda(K_m) > 1 - r!/r^r, walking m up from r."""
    target = 1 - Fraction(factorial(r), r**r)
    m = r
    while Fraction(factorial(r) * comb(m, r), m**r) <= target:
        m += 1
    return m


def max_value_gap(values: Sequence[float]) -> float:
    """Widest gap between neighbours among the sorted values."""
    ordered = sorted(values)
    return max(b - a for a, b in zip(ordered[:-1], ordered[1:]))


def swap_twin_classes(edges: Iterable[tuple[int, ...]]) -> list[list[int]]:
    """The covered vertices grouped by swap invariance: v's class is every
    u whose exchange with v maps the edge set onto itself."""
    have = set(edges)
    vertices = sorted({v for e in have for v in e})

    def fixed_by_swap(u: int, v: int) -> bool:
        swap = {u: v, v: u}
        return {tuple(sorted(swap.get(w, w) for w in e)) for e in have} == have

    classes = {tuple(u for u in vertices if fixed_by_swap(u, v)) for v in vertices}
    return sorted(map(list, classes))


def link_table(edges: Iterable[tuple[int, ...]]) -> dict[int, set[tuple[int, ...]]]:
    """Each covered vertex's link: the (r-1)-tuples completing it to an edge."""
    links: dict[int, set[tuple[int, ...]]] = {}
    for e in edges:
        for v in e:
            links.setdefault(v, set()).add(tuple(u for u in e if u != v))
    return links


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


def eval_uniform_exact(p: Pattern, s: int) -> Fraction:
    """The pattern's exact value at the uniform point (1/s, ..., 1/s), s >= m.

    Every monomial has total degree r, so the value is the coefficient sum
    divided by s**r.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if p.m > s:
        raise ValueError(f"pattern has {p.m} variables, more than s={s}")
    return p.coefficient_sum() / Fraction(s**p.r)


def profile(
    x_set: Iterable[int],
    partition: Sequence[int] | Mapping[int, int],
    m: int | None = None,
) -> tuple[int, ...]:
    """Part-intersection multiset of a vertex set under a partition, as a
    multiplicity tuple.

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
    return tuple(mult)


def insert_sorted(y: Composition, j: int) -> Composition:
    """Insert j into a sorted composition, keeping it non-increasing."""
    if j < 0:
        raise ValueError(f"inserted part must be >= 0, got {j}")
    return tuple(sorted(y + (j,), reverse=True))


def restrict(a: DownSet, j: int) -> DownSet:
    """Compositions of r - j into s - 1 parts that land in a once j is added."""
    if a.s < 2:
        raise ValueError("restriction needs s >= 2")
    if not 0 <= j <= a.r:
        raise ValueError(f"j must lie in [0, {a.r}], got {j}")
    members = frozenset(
        y for y in compositions(a.r - j, a.s - 1) if insert_sorted(y, j) in a.members
    )
    return DownSet(a.r - j, a.s - 1, members)


def grid_points_by_tuples(resolution: int, m: int) -> Iterator[np.ndarray]:
    """Simplex grid {k / resolution} in float64 batches of the library's
    `_GRID_BLOCK` rows, one Python tuple per point, in the stars-and-bars
    order of the bar positions."""
    batch: list[tuple[int, ...]] = []
    for bars in combinations(range(resolution + m - 1), m - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(resolution + m - 2 - prev)
        batch.append(tuple(parts))
        if len(batch) == sx._GRID_BLOCK:
            yield np.asarray(batch, dtype=np.float64) / resolution
            batch = []
    if batch:
        yield np.asarray(batch, dtype=np.float64) / resolution


def bunching_sample_min_fractions(r: int, h2: int, samples: int, seed: int) -> Fraction:
    """Sampled minimum of the averaging inequality at doubled layer bound h2,
    one Fraction per term, on the same draw as `bunching_verify`."""
    window = [i2 for i2 in range(-r, r + 1, 2) if abs(i2) <= h2]
    grid = np.random.default_rng(seed).integers(0, 5001, size=(samples, 2))
    sample_min: Fraction | None = None
    for px, py in grid:
        x = Fraction(int(px), 1000)
        y = Fraction(int(py), 1000)
        avg_pow = ((x + y) / 2) ** r
        val = Fraction(0)
        for i2 in window:
            b = comb(r, (r + i2) // 2)
            val += b * (avg_pow - x ** ((r + i2) // 2) * y ** ((r - i2) // 2))
        if sample_min is None or val < sample_min:
            sample_min = val
    assert sample_min is not None
    return sample_min


def project_rows(rows: np.ndarray) -> np.ndarray:
    """Sort-based simplex projection of each row of a (k, m) batch, with
    integer divisors and the threshold test u - css / k > 0."""
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    positive = u - css / np.arange(1, rows.shape[1] + 1) > 0
    rho = rows.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    tau = css[np.arange(len(rows)), rho] / (rho + 1.0)
    return np.maximum(rows - tau[:, None], 0.0)


def full_size_maximize(p: Pattern, seed: int, extra_starts=()) -> sx.OptResult:
    """`maximize` over full-size (starts x m) arrays: every pass gathers the
    live rows by index and scatters their new state back.

    It hands `sx.gradient` the live rows that just stepped and `sx.evaluate`
    every live row's window of step sizes, in start order and in the same
    batch shapes as the library's compact loop, so under the same BLAS every
    float of the result must be the same.  It reads the start and iteration
    budgets and the window from the simplex module, as `maximize` does.
    """
    starts, kinds = sx._start_points(p.m, seed, extra_starts)
    x = project_rows(starts)
    f = sx.evaluate(p, x)
    g = sx.gradient(p, x)
    eta = np.ones(len(x))
    iterations = np.ones(len(x), dtype=np.int64)
    live = np.arange(len(x))
    while live.size:
        etas = eta[live, None] * 0.5 ** np.arange(sx._WINDOW)
        xr, gr = x[live, None, :], g[live, None, :]
        y = project_rows((xr + etas[..., None] * gr).reshape(-1, p.m)).reshape(
            len(live), sx._WINDOW, p.m)
        step = y - xr
        moved = np.abs(step).max(axis=2)
        fy = sx.evaluate(p, y.reshape(-1, p.m)).reshape(moved.shape)
        armijo = fy - f[live, None] >= 1e-4 * (step * gr).sum(axis=2)
        stop = ((moved < sx._TOLERANCE) | armijo) & (etas >= 1e-16)
        hit = stop.any(axis=1)
        pick = (np.arange(len(live)), stop.argmax(axis=1))
        took = hit & (moved[pick] >= sx._TOLERANCE)
        eta[live] = np.where(took, np.minimum(etas[pick] * 2.0, 1e6), etas[:, -1] * 0.5)
        x[live[took]] = y[pick][took]
        f[live[took]] = fy[pick][took]
        fresh = took & (iterations[live] < sx._MAX_ITERATIONS)
        resume = ~hit & (eta[live] >= 1e-16)
        if fresh.any():
            g[live[fresh]] = sx.gradient(p, x[live[fresh]])
            iterations[live[fresh]] += 1
        live = live[fresh | resume]
    x[x < sx.SUPPORT_EPS] = 0.0
    x = project_rows(np.where(x > 0.0, x, -1.0))
    f = sx.evaluate(p, x)
    best = int(np.argmax(f))
    return sx.OptResult(
        value=float(f[best]),
        point=x[best],
        kkt_residual=sx.kkt_residual(p, x[best]),
        starts_used=len(x),
        seed=seed,
        start_index=best,
        start_kind=kinds[best],
        iterations=tuple(iterations.tolist()),
    )
