"""Maximization of Lagrange polynomials over the probability simplex.

Multi-start projected gradient ascent, with all starts ascending together as
one (starts x m) array, provides lower bounds on the maximum.  A first-order
residual quantifies stationarity of the best point, and a simplex-grid sweep
provides a rigorous upper bound in small dimension, so lower and upper
routes can be cross-checked.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence
import warnings

import numpy as np

from .patterns import (
    LagrangePolynomial,
    Pattern,
    evaluate,
    evaluate_batch,
    lagrange_polynomial,
    pattern_to_dict,
)

SUPPORT_EPS = 1e-14
_TOLERANCE = 1e-12  # a start whose accepted move is shorter than this stops


def project_to_simplex(v: Sequence[float]) -> np.ndarray:
    """Euclidean projection onto the standard simplex, of a vector or of each
    row of a (k, m) batch (sort-based; Condat, Math. Prog. 2016)."""
    vv = np.asarray(v, dtype=np.float64)
    if vv.ndim not in (1, 2) or vv.shape[-1] < 1:
        raise ValueError("expected a non-empty 1-d vector or a (k, m) batch")
    rows = vv.reshape(-1, vv.shape[-1])
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    positive = u - css / np.arange(1, rows.shape[1] + 1) > 0
    # rho is the last index where the threshold condition holds
    rho = rows.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    tau = css[np.arange(len(rows)), rho] / (rho + 1.0)
    return np.maximum(vv - tau.reshape(vv.shape[:-1] + (1,)), 0.0)


def gradient(poly: LagrangePolynomial, x: Sequence[float]) -> np.ndarray:
    """Gradient at x of shape (m,), or at each row of a (k, m) batch.

    Uses the polynomial's derivative table, so a zero coordinate x_i needs
    no special case: only monomials linear in x_i contribute to column i.
    """
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim not in (1, 2) or xv.shape[-1] != poly.m:
        raise ValueError(f"point has shape {xv.shape}, expected ({poly.m},) or (k, {poly.m})")
    return xv[..., poly.grad_factors].prod(axis=-1) @ poly.grad_weights


def kkt_residual(poly: LagrangePolynomial, x: Sequence[float]) -> float:
    """First-order stationarity residual at a simplex point.

    By homogeneity the common on-support partial value is r * lambda(x); the
    residual adds the worst on-support deviation from it and the worst
    off-support overshoot above it.
    """
    xv = np.asarray(x, dtype=np.float64)
    g = gradient(poly, xv)
    target = poly.r * evaluate(poly, xv)
    supp = xv > 0.0
    on = float(np.max(np.abs(g[supp] - target))) if supp.any() else 0.0
    off = float(np.max(np.maximum(g[~supp] - target, 0.0))) if (~supp).any() else 0.0
    return on + off


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 50
    max_iterations: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class OptResult:
    """Best point over all starts, with which start won and how long each ran.

    ``start_kind`` is "uniform", "vertex", "random" or "warm";
    ``iterations[i]`` counts the gradient steps of start i.
    """

    value: float
    point: np.ndarray
    kkt_residual: float
    starts_used: int
    seed: int
    start_index: int
    start_kind: str
    iterations: tuple[int, ...]


def _start_points(
    m: int, config: OptimizerConfig, extra_starts: Sequence[Sequence[float]]
) -> tuple[np.ndarray, list[str]]:
    """Uniform point, vertices, then seeded random draws; warm starts last.

    The uniform point is always kept.  Random start i draws from its own
    generator seeded [seed, i], so seeds and start indices never share a
    stream.  Returns the start rows (not yet projected) and their kinds.
    """
    fixed = np.vstack([np.full(m, 1.0 / m), np.eye(m)])[: config.starts]
    draws = np.array([
        np.random.default_rng([config.seed, i]).exponential(1.0, m)
        for i in range(len(fixed), config.starts)
    ]).reshape(-1, m)
    warm = np.asarray(extra_starts, dtype=np.float64).reshape(-1, m)
    if len(warm) != len(extra_starts):
        raise ValueError(f"warm starts must have length m={m}")
    kinds = (["uniform"] + ["vertex"] * m)[: len(fixed)]
    kinds += ["random"] * len(draws) + ["warm"] * len(warm)
    return np.vstack([fixed, draws / draws.sum(axis=1, keepdims=True), warm]), kinds


def maximize(
    p: Pattern,
    config: OptimizerConfig | None = None,
    extra_starts: Sequence[Sequence[float]] = (),
) -> OptResult:
    """Best simplex point over all starts; ties go to the lowest start index.

    Every start runs projected gradient ascent with its own Armijo step size
    eta (halved down to 1e-16 on a failed step, doubled up to 1e6 after an
    accepted one).  A start stops at a projection fixed point, after a move
    below _TOLERANCE, or after max_iterations steps.  Its point is then
    cleaned: coordinates below SUPPORT_EPS are zeroed and the rest
    re-projected inside that support face.
    """
    config = config or OptimizerConfig()
    poly = lagrange_polynomial(p)
    starts, kinds = _start_points(p.m, config, extra_starts)
    x = project_to_simplex(starts)
    f = evaluate(poly, x)
    eta = np.ones(len(x))
    iterations = np.zeros(len(x), dtype=np.int64)
    live = np.arange(len(x))  # rows still ascending
    for _ in range(config.max_iterations):
        if not live.size:
            break
        g = gradient(poly, x[live])
        iterations[live] += 1
        go_on = np.zeros(live.size, dtype=bool)
        trying = np.arange(live.size)  # positions in live still backtracking
        tries = 2
        while trying.size:
            # try the next step sizes eta, eta/2, ... of every backtracking
            # row at once, doubling the count each round; a row takes its
            # first candidate that is a projection fixed point or passes
            # Armijo, exactly as a one-at-a-time search would
            rows = live[trying]
            etas = eta[rows, None] * 0.5 ** np.arange(tries)
            xr = x[rows, None, :]
            cand = (xr + etas[..., None] * g[trying, None, :]).reshape(-1, p.m)
            y = project_to_simplex(cand).reshape(len(rows), tries, p.m)
            step = y - xr
            moved = np.abs(step).max(axis=2)
            fy = evaluate(poly, y.reshape(-1, p.m)).reshape(moved.shape)
            # Armijo condition on the projection arc; the inner product is
            # positive whenever the projected step moves
            armijo = fy - f[rows, None] >= 1e-4 * (step * g[trying, None, :]).sum(axis=2)
            stop = ((moved == 0.0) | armijo) & (etas >= 1e-16)
            hit = stop.any(axis=1)
            pick = (np.arange(len(rows)), stop.argmax(axis=1))
            eta[rows] = np.where(hit, etas[pick], etas[:, -1] * 0.5)
            took = hit & (moved[pick] > 0.0)
            x[rows[took]] = y[pick][took]
            f[rows[took]] = fy[pick][took]
            go_on[trying[took]] = moved[pick][took] >= _TOLERANCE
            trying = trying[~hit & (eta[rows] >= 1e-16)]
            tries *= 2
        live = live[go_on]
        eta[live] = np.minimum(eta[live] * 2.0, 1e6)
    x[x < SUPPORT_EPS] = 0.0
    # re-project inside each support face, not the full simplex, which would
    # smear the removed mass back onto the zeroed coordinates: entered as -1,
    # below the threshold tau (about 0), they stay 0 and drop out of tau
    x = project_to_simplex(np.where(x > 0.0, x, -1.0))
    f = evaluate(poly, x)
    best = int(np.argmax(f))  # argmax takes the first, lowest-index maximum
    return OptResult(
        value=float(f[best]),
        point=x[best],
        kkt_residual=kkt_residual(poly, x[best]),
        starts_used=len(x),
        seed=config.seed,
        start_index=best,
        start_kind=kinds[best],
        iterations=tuple(iterations.tolist()),
    )


def certificate(p: Pattern, result: OptResult) -> dict:
    """JSON-ready maximization certificate."""
    return {
        "pattern": pattern_to_dict(p),
        "value": result.value,
        "point": [float(v) for v in result.point],
        "kkt_residual": result.kkt_residual,
        "starts": result.starts_used,
        "seed": result.seed,
    }


def _grid_points(resolution: int, m: int) -> Iterable[np.ndarray]:
    """Simplex grid {k / resolution} in batches, stars-and-bars order."""
    batch: list[tuple[int, ...]] = []
    for bars in combinations(range(resolution + m - 1), m - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(resolution + m - 2 - prev)
        batch.append(tuple(parts))
        if len(batch) == 8192:
            yield np.asarray(batch, dtype=np.float64) / resolution
            batch = []
    if batch:
        yield np.asarray(batch, dtype=np.float64) / resolution


def certify_max_upper(p: Pattern, resolution: int) -> float:
    """Rigorous upper bound on the simplex maximum via a grid sweep.

    On the simplex every partial derivative is non-negative and they sum to
    at most r * coefficient_sum =: L: a monomial yields r derivative terms
    (with multiplicity), each at most its coefficient there.  (Euler's
    identity gives the x-weighted sum: sum_i x_i d_i lambda = r * lambda.)
    So the gradient has l1 norm at most L.  Largest-remainder rounding moves
    any point to a grid point changing each coordinate by at most
    1/resolution, hence lambda drops by at most L/resolution: grid max +
    L/resolution is an upper bound on the true maximum.
    """
    if p.m > 6:
        raise ValueError(f"grid certification supports m <= 6, got m={p.m}")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    poly = lagrange_polynomial(p)
    grid_max = 0.0
    for xs in _grid_points(resolution, p.m):
        grid_max = max(grid_max, float(evaluate_batch(poly, xs).max()))
    lip = poly.r * float(poly.coefficient_sum())
    bound = grid_max + lip / resolution
    if bound > 1.25:
        # every Lagrange polynomial is at most (sum x_i)^r = 1 on the simplex
        warnings.warn(
            f"grid resolution {resolution} too coarse: bound {bound:.4f} "
            "far exceeds the trivial bound 1",
            stacklevel=2,
        )
    return bound
