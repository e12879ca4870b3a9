"""Exact density ladders from balls-in-urns occupancy counts.

For a down-closed family A the simplex maximum of its pattern equals the
uniform-point value, which is a plain probability: throw r balls into s
urns uniformly and ask whether the sorted occupancy vector lands in A.
Walking a dominance-respecting enumeration of the compositions of r into
r parts therefore yields a ladder of exact values from 0 to 1 whose steps
are single occupancy probabilities.

Every occupancy count comes from one closed form, `occupancy_count`,
which multiplies a ball-assignment factor by an urn-arrangement factor and
so needs only the partitions of r, not the ordered occupancy vectors; an
occupancy probability is occupancy_count(c, s) / s**r.  The oracles in
tests/oracles.py check it independently: brute-force enumeration of all s^r
functions, a multinomial sum over ordered occupancy vectors, and the
uniform value through the pattern polynomial's coefficient sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log
from typing import NamedTuple

import numpy as np

from .dominance import Composition, DownSet, linear_extension, pattern_of
from .simplex import _check_seed, certify_max_upper, maximize

_MC_BLOCK = 1 << 12  # Monte Carlo rows drawn and tallied at a time
_MC_ALPHA = 1e-6  # false-alarm rate of one mc_verdict, over all its shapes
_MC_MAX_R = 35  # largest r whose Monte Carlo shape keys fit in int64


def uniform_value_exact(a: DownSet) -> Fraction:
    """Probability that the sorted occupancy of r balls in s urns lies in a.

    Sums the closed-form occupancy counts of the members; equals the
    uniform-point value of the pattern's polynomial.
    """
    hits = sum(occupancy_count(c, a.s) for c in a.members)
    return Fraction(hits, a.s**a.r)


def occupancy_count(rr: Composition, s: int) -> int:
    """Closed form: functions [r] -> [s] with sorted fiber sizes rr.

    The first factor places the balls for one fixed assignment of counts to
    urns; the second counts the distinct ways to assign the multiset of
    counts to the s labeled urns.
    """
    if len(rr) > s:
        raise ValueError(f"composition {rr} has more than s={s} parts")
    if any(v < 0 for v in rr):
        raise ValueError(f"composition {rr} has a negative part")
    padded = tuple(rr) + (0,) * (s - len(rr))
    if list(padded) != sorted(padded, reverse=True):
        raise ValueError(f"composition {rr} is not sorted non-increasing")
    r = sum(padded)
    balls = factorial(r)
    for v in padded:
        balls //= factorial(v)
    counts: dict[int, int] = {}
    for v in padded:
        counts[v] = counts.get(v, 0) + 1
    urns = factorial(s)
    for mult in counts.values():
        urns //= factorial(mult)
    return balls * urns


class MCVerdict(NamedTuple):
    """A Monte Carlo table's scores; ``worst`` is the largest, ``limit`` is
    log(2K/alpha) for K shapes, and ``ok`` is worst <= limit."""

    scores: dict[Composition, float]  # n*KL(f||p) of each shape

    @property
    def worst(self) -> float:
        return max(self.scores.values())

    @property
    def limit(self) -> float:
        return log(2 * len(self.scores) / _MC_ALPHA)

    @property
    def ok(self) -> bool:
        return self.worst <= self.limit


@dataclass(frozen=True)
class LadderEntry:
    """One rung of an exact ladder; rung i is entry i of ``ladder(r)``.  Its
    ``step`` is its composition's occupancy probability, 0 for the empty rung."""

    composition: Composition | None  # None for the empty starting rung
    value: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError(f"ladder value {self.value} outside [0, 1]")
        comp = self.composition
        if comp is not None and sum(comp) != len(comp):
            raise ValueError(f"ladder composition {comp} does not split r into r parts")

    @property
    def step(self) -> Fraction:
        if self.composition is None:
            return Fraction(0)
        r = len(self.composition)
        return Fraction(occupancy_count(self.composition, r), r**r)


def ladder(r: int) -> tuple[LadderEntry, ...]:
    """Exact value ladder over the prefixes of the dominance enumeration.

    Entry i is rung i: entry 0 is the empty family with value 0, entry i
    adds the i-th composition, and the final value is exactly 1.
    """
    order = linear_extension(r)
    denom = r**r
    entries = [LadderEntry(None, Fraction(0))]
    acc = 0
    for comp in order:
        acc += occupancy_count(comp, r)
        entries.append(LadderEntry(comp, Fraction(acc, denom)))
    if entries[-1].value != 1:
        raise AssertionError("ladder must end at exactly 1")
    return tuple(entries)


def max_step(r: int) -> tuple[Fraction, Composition]:
    """Largest ladder step and its composition; ties to the lowest index."""
    best = max(ladder(r)[1:], key=lambda e: e.step)  # max keeps the first of equals
    assert best.composition is not None
    return best.step, best.composition


def monte_carlo_urns(
    r: int, trials: int, seed: int = 0
) -> dict[Composition, float]:
    """Empirical frequencies of sorted occupancy vectors, seeded.

    Every composition of r into r parts appears as a key, unseen ones with
    frequency 0, in linear_extension order.  Identical seeds give identical
    output.  Raises ValueError for trials < 1 or for r outside 1..35
    (_MC_MAX_R) before anything is drawn.  Trials are drawn and tallied in
    blocks of _MC_BLOCK rows, so memory is O(_MC_BLOCK * r) whatever the
    trial count; the blocks consume the random stream exactly as one draw
    of all the trials would.

    A throw's shape is fixed by its histogram h, where h[k] urns hold k
    balls, and h[k] <= r // k; so the mixed-radix key sum_k h[k] * w[k],
    with w[1] = 1 and w[k+1] = w[k] * (r // k + 1), is injective on the
    shapes and needs no sort.  Its largest value, w[r+1] - 1, fits in
    int64 up to r = 35.  One bincount of a block's urn-major indices urn * n
    + row gives an (r, n) table whose rows sum to the keys, counted exactly.

    Keys become slots among the sorted shape keys by a flat table, indexed
    by key, when its largest key + 1 entries fit in _MC_BLOCK * r; that
    holds for r <= 10 (38017 entries at r = 10) and keeps the memory bound.
    For 11 <= r <= 35 the table would outgrow it (524161 entries at r = 12),
    so a binary search over the sorted shape keys finds the slots instead.
    """
    seed = _check_seed(seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if r > _MC_MAX_R:
        raise ValueError(f"r must be <= {_MC_MAX_R} for Monte Carlo, got {r}")
    order = linear_extension(r)
    w = [0, 1]  # w[0] = 0: empty urns add nothing to the key
    for k in range(1, r):
        w.append(w[-1] * (r // k + 1))
    weights = np.array(w, dtype=np.int64)
    shape_keys = np.array([sum(w[v] for v in comp) for comp in order], dtype=np.int64)
    rank = np.argsort(shape_keys)
    sorted_keys = shape_keys[rank]
    if sorted_keys[-1] < _MC_BLOCK * r:  # the key -> slot table fits the bound
        table = np.zeros(sorted_keys[-1] + 1, dtype=np.intp)
        table[sorted_keys] = np.arange(len(order))
        slots = table.take
    else:
        slots = sorted_keys.searchsorted
    counts = np.zeros(len(order), dtype=np.int64)  # indexed like sorted_keys
    rng = np.random.default_rng(seed)
    row = np.arange(_MC_BLOCK)[:, None]
    for start in range(0, trials, _MC_BLOCK):
        n = min(_MC_BLOCK, trials - start)
        throws = rng.integers(0, r, size=(n, r))
        throws *= n
        throws += row[:n]
        occ = np.bincount(throws.ravel(), minlength=r * n).reshape(r, n)
        keys = weights.take(occ).sum(axis=0)
        counts += np.bincount(slots(keys), minlength=len(order))
    tally = np.empty_like(counts)
    tally[rank] = counts
    return {comp: c / trials for comp, c in zip(order, tally.tolist())}


def mc_verdict(freq: dict[Composition, float], trials: int, r: int) -> MCVerdict:
    """Judge a Monte Carlo table against the exact occupancy probabilities.

    For each of the K shapes the Chernoff-Hoeffding bound (Hoeffding 1963)
    gives P(n*KL(F||p) >= t) <= 2*exp(-t) over both tails, so a union bound
    over the shapes makes a correct sampler exceed log(2K/alpha) with
    probability at most _MC_ALPHA.  Each shape's n*KL score is kept; the
    verdict's ``worst``, ``limit`` and ``ok`` are read from the scores.
    Raises ValueError unless trials >= 1, the keys of freq are exactly
    the K = len(linear_extension(r)) shapes (a table missing shapes would
    shrink K and with it the limit), and every frequency lies in [0, 1]
    (a NaN one would score 0, as kl skips it).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if freq.keys() != set(linear_extension(r)):
        raise ValueError(f"frequency table keys are not the compositions of r={r}")
    if not all(0 <= f <= 1 for f in freq.values()):  # also false for NaN
        raise ValueError("frequencies must be finite and in [0, 1]")

    def kl(f: float, p: float) -> float:  # Bernoulli relative entropy, 0 log 0 = 0
        return sum(a * log(a / b) for a, b in ((f, p), (1 - f, 1 - p)) if a > 0)

    scores = {c: trials * kl(f, occupancy_count(c, r) / r**r) for c, f in freq.items()}
    return MCVerdict(scores)


@dataclass(frozen=True)
class LemmaReport:
    """Cross-check that a down-closed pattern peaks at the uniform point:
    ``passed`` is the window u - 1e-9 <= opt_value <= u + 1e-6, read from
    these fields; ``grid_bound`` is reported beside it and gates nothing."""

    down_set: DownSet
    uniform_value: Fraction
    opt_value: float
    kkt_residual: float
    grid_bound: float | None

    @property
    def passed(self) -> bool:
        u = float(self.uniform_value)
        return u - 1e-9 <= self.opt_value <= u + 1e-6


# grid resolution by urn count s: denser grids in low dimension, where they
# are cheap and the additive Lipschitz term would otherwise drown the bound
_GRID_RESOLUTION = {1: 800, 2: 800, 3: 200, 4: 60}


def verify_lemma(a: DownSet, seed: int = 0) -> LemmaReport:
    """Optimize the pattern of a from the seed and compare with the exact
    uniform value.

    The verdict is the window [u - 1e-9, u + 1e-6] on the optimizer value,
    whose lower side is unconditional as the uniform point is always a start.
    For s <= 4 a grid sweep reports an upper bound on the maximum, never below
    the optimizer value, so it gates nothing; it is coarse and can exceed the
    trivial bound 1 (1.75, 2.52 and 2.62 at r=4 s=3), showing nothing then.
    """
    p = pattern_of(a)
    res = maximize(p, seed)
    return LemmaReport(
        down_set=a,
        uniform_value=uniform_value_exact(a),
        opt_value=res.value,
        kkt_residual=res.kkt_residual,
        grid_bound=certify_max_upper(p, _GRID_RESOLUTION[a.s]) if a.s <= 4 else None,
    )
