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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log
from typing import NamedTuple

import numpy as np

from .dominance import Composition, DownSet, linear_extension, pattern_of
from .simplex import OptResult, OptimizerConfig, certify_max_upper, maximize

_MC_BLOCK = 1 << 12  # Monte Carlo rows drawn and tallied at a time
_MC_ALPHA = 1e-6  # false-alarm rate of one mc_verdict, over all its shapes


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
    ok: bool
    worst: float  # largest n*KL(f||p) over the shapes
    limit: float  # log(2K/alpha) for K shapes
    scores: dict[Composition, float]  # n*KL(f||p) of each shape


@dataclass(frozen=True)
class LadderEntry:
    index: int
    composition: Composition | None  # None for the empty starting rung
    value: Fraction
    step: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError(f"ladder value {self.value} outside [0, 1]")
        if self.step < 0:
            raise ValueError(f"ladder step {self.step} is negative")


def ladder(r: int) -> tuple[LadderEntry, ...]:
    """Exact value ladder over the prefixes of the dominance enumeration.

    Entry 0 is the empty family with value 0; entry i adds the i-th
    composition, and the final value is exactly 1.
    """
    order = linear_extension(r)
    denom = r**r
    entries = [LadderEntry(0, None, Fraction(0), Fraction(0))]
    acc = 0
    for i, comp in enumerate(order, start=1):
        w = occupancy_count(comp, r)
        acc += w
        entries.append(
            LadderEntry(i, comp, Fraction(acc, denom), Fraction(w, denom))
        )
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
    frequency 0.  Identical seeds give identical output.  Raises
    ValueError for trials < 1 or r < 1 before anything is drawn.  Trials
    are drawn and tallied in blocks of _MC_BLOCK rows, so memory is
    O(_MC_BLOCK * r) whatever the trial count; the blocks consume the
    random stream exactly as one draw of all the trials would.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    order = linear_extension(r)
    rng = np.random.default_rng(seed)
    tally: Counter[bytes] = Counter()
    for start in range(0, trials, _MC_BLOCK):
        n = min(_MC_BLOCK, trials - start)
        throws = rng.integers(0, r, size=(n, r))
        flat = (throws + np.arange(0, n * r, r)[:, None]).ravel()
        occ = np.bincount(flat, minlength=n * r).reshape(n, r)
        occ = -np.sort(-occ, axis=1)
        # each row as one r-byte void scalar, which tolist() turns into bytes;
        # one byte per urn holds every count up to r = 255, far beyond any r
        # whose linear_extension can be listed
        tally.update(occ.astype(np.uint8).view(f"V{r}").ravel().tolist())
    return {comp: tally[bytes(comp)] / trials for comp in order}


def mc_verdict(freq: dict[Composition, float], trials: int, r: int) -> MCVerdict:
    """Judge a Monte Carlo table against the exact occupancy probabilities.

    For each of the K shapes the Chernoff-Hoeffding bound (Hoeffding 1963)
    gives P(n*KL(F||p) >= t) <= 2*exp(-t) over both tails, so a union bound
    over the shapes makes a correct sampler exceed log(2K/alpha) with
    probability at most _MC_ALPHA.  Each shape's n*KL score is kept.
    """

    def kl(f: float, p: float) -> float:  # Bernoulli relative entropy, 0 log 0 = 0
        return sum(a * log(a / b) for a, b in ((f, p), (1 - f, 1 - p)) if a > 0)

    scores = {c: trials * kl(f, occupancy_count(c, r) / r**r) for c, f in freq.items()}
    worst = max(scores.values())
    limit = log(2 * len(freq) / _MC_ALPHA)
    return MCVerdict(worst <= limit, worst, limit, scores)


@dataclass(frozen=True)
class LemmaReport:
    """Cross-check that a down-closed pattern peaks at the uniform point."""

    down_set: DownSet
    uniform_value: Fraction
    opt_value: float
    kkt_residual: float
    lower_ok: bool
    upper_ok: bool
    grid_bound: float | None

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok


# grid resolution by urn count s: denser grids in low dimension, where they
# are cheap and the additive Lipschitz term would otherwise drown the bound
_GRID_RESOLUTION = {1: 800, 2: 800, 3: 200, 4: 60}


def verify_lemma(a: DownSet, opt: OptimizerConfig | None = None) -> LemmaReport:
    """Optimize the pattern of a and compare with the exact uniform value.

    The optimizer value must land in [u - 1e-9, u + 1e-6]; the lower side
    is unconditional because the uniform point is always among the starts.
    For s <= 4 a grid sweep additionally certifies an upper bound >= u.
    """
    u = uniform_value_exact(a)
    p = pattern_of(a)
    res: OptResult = maximize(p, opt)
    lower_ok = res.value >= float(u) - 1e-9
    upper_ok = res.value <= float(u) + 1e-6
    grid_bound = None
    if a.s <= 4:
        grid_bound = certify_max_upper(p, _GRID_RESOLUTION[a.s])
        upper_ok = upper_ok and grid_bound >= float(u) - 1e-9
    return LemmaReport(
        down_set=a,
        uniform_value=u,
        opt_value=res.value,
        kkt_residual=res.kkt_residual,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        grid_bound=grid_bound,
    )
