"""Maximization of Lagrange polynomials over the probability simplex.

Multi-start projected gradient ascent provides lower bounds on the maximum.
The live starts ascend together as one compact array, but each runs its own
backtracking search: a pass tries a window of step sizes for every start, and
a start whose window has no acceptable step resumes below it in the next pass
while the others take fresh gradient steps.  A first-order residual quantifies
stationarity of the best point, and a simplex-grid sweep provides a rigorous
upper bound in small dimension, so lower and upper routes can be cross-checked.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence
import operator
import warnings

import numpy as np

from .patterns import Pattern, _multisets, evaluate, evaluate_batch, pattern_to_dict

SUPPORT_EPS = 1e-14
_TOLERANCE = 1e-12  # a candidate step moving less than this ends its start, untaken
_STARTS = 50  # starts per maximize: the uniform point, the m vertices, random draws
_MAX_ITERATIONS = 5000  # gradient steps a start may take
_WINDOW = 3  # step sizes eta, eta/2, eta/4 a start tries per pass
_GRID_BLOCK = 1024  # grid rows per evaluate_batch call in certify_max_upper


def project_to_simplex(v: Sequence[float]) -> np.ndarray:
    """Euclidean projection onto the standard simplex, of a vector or of each
    row of a (k, m) batch (sort-based; Condat, Math. Prog. 2016)."""
    vv = np.asarray(v, dtype=np.float64)
    if vv.ndim not in (1, 2) or vv.shape[-1] < 1:
        raise ValueError("expected a non-empty 1-d vector or a (k, m) batch")
    rows = vv.reshape(-1, vv.shape[-1])
    u = np.sort(rows, axis=1)[:, ::-1]
    q = (np.add.accumulate(u, axis=1) - 1.0) / np.arange(1.0, rows.shape[1] + 1)
    # rho is the last index where u exceeds its threshold (cumsum - 1) / k; tau is q there
    rho = (u > q)[:, ::-1].argmax(axis=1)
    tau = q.ravel()[np.arange(rows.shape[1] - 1, q.size, rows.shape[1]) - rho]
    out = vv - tau.reshape(vv.shape[:-1] + (1,))
    return np.maximum(out, 0.0, out=out)


def gradient(p: Pattern, x: Sequence[float]) -> np.ndarray:
    """The pattern's gradient at x of shape (m,), or at each row of a (k, m) batch.

    Uses the pattern's derivative table, so a zero coordinate x_i needs
    no special case: only monomials linear in x_i contribute to column i.
    """
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim not in (1, 2) or xv.shape[-1] != p.m:
        raise ValueError(f"point has shape {xv.shape}, expected ({p.m},) or (k, {p.m})")
    return xv[..., p.grad_factors].prod(axis=-1) @ p.grad_weights


def kkt_residual(p: Pattern, x: Sequence[float]) -> float:
    """First-order stationarity residual of the pattern at a simplex point.

    By homogeneity the common on-support partial value is r * lambda(x); the
    residual adds the worst on-support deviation from it and the worst
    off-support overshoot above it.
    """
    xv = np.asarray(x, dtype=np.float64)
    g = gradient(p, xv)
    target = p.r * evaluate(p, xv)
    supp = xv > 0.0
    on = float(np.max(np.abs(g[supp] - target))) if supp.any() else 0.0
    off = float(np.max(np.maximum(g[~supp] - target, 0.0))) if (~supp).any() else 0.0
    return on + off


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


@lru_cache(maxsize=64)
def _random_rows(m: int, first: int, starts: int, seed: int) -> np.ndarray:
    """Random start rows first, ..., starts - 1 on the simplex, read-only.

    Row i draws from its own generator seeded [seed, i], so seeds and start
    indices never share a stream.  Cached: every maximize with the same m,
    start count and seed (each rung of a chain, each family of a lemma
    check) reuses one set of draws.
    """
    draws = np.array([
        np.random.default_rng([seed, i]).exponential(1.0, m) for i in range(first, starts)
    ]).reshape(-1, m)
    rows = draws / draws.sum(axis=1, keepdims=True)
    rows.flags.writeable = False
    return rows


def _check_seed(seed) -> int:
    """The seed as a plain int; ValueError unless it is a non-negative integer."""
    try:
        value = operator.index(seed)
    except TypeError as exc:
        raise ValueError(f"seed must be an integer: {exc}") from exc
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    return value


def _start_points(
    m: int, seed: int, extra_starts: Sequence[Sequence[float]]
) -> tuple[np.ndarray, list[str]]:
    """Uniform point, vertices, then seeded random draws, _STARTS rows in
    all; warm starts last.

    The uniform point is always kept.  Returns the start rows (not yet
    projected) and their kinds.
    """
    fixed = np.vstack([np.full(m, 1.0 / m), np.eye(m)])[:_STARTS]
    draws = _random_rows(m, len(fixed), _STARTS, seed)
    warm = np.asarray(extra_starts, dtype=np.float64).reshape(-1, m)
    if len(warm) != len(extra_starts) or not np.isfinite(warm).all():
        raise ValueError(f"warm starts must be finite points of length m={m}")
    kinds = (["uniform"] + ["vertex"] * m)[: len(fixed)]
    kinds += ["random"] * len(draws) + ["warm"] * len(warm)
    return np.vstack([fixed, draws, warm]), kinds


def maximize(
    p: Pattern, seed: int = 0, extra_starts: Sequence[Sequence[float]] = ()
) -> OptResult:
    """Best simplex point over all starts; ties go to the lowest start index.

    The _STARTS (50) starts are the uniform point, the vertices and random
    points drawn from the seed, a non-negative integer (else ValueError);
    extra_starts follow them.  Every start runs projected gradient ascent
    with its own Armijo step size eta (halved down to 1e-16 on a failed
    step, doubled up to 1e6 after an accepted one).  A start takes its first
    step size that passes Armijo or moves no coordinate by _TOLERANCE; in
    the second case, a projection fixed point included, it stops without
    taking that step.  It also stops when no step size down to 1e-16
    qualifies, or after _MAX_ITERATIONS (5000) steps.  Its point is then
    cleaned: coordinates below SUPPORT_EPS are zeroed and the rest
    re-projected inside that support face.  Each pass, every live start
    tries a window of _WINDOW (3) step sizes eta, eta/2, eta/4 from its own
    state; a start with no hit keeps its point and gradient and resumes at
    eta/8 in the next pass, while the others go on, so gradient runs only on
    starts that just stepped.  Live rows stay compact, each stopped one
    written back once; gradient and evaluate get a full-size loop's batches
    row for row (BLAS rounding follows shape).
    """
    seed = _check_seed(seed)
    starts, kinds = _start_points(p.m, seed, extra_starts)
    x = project_to_simplex(starts)  # rows still ascending
    f, g = evaluate(p, x), gradient(p, x)
    eta = np.ones(len(x))  # the next step size each row tries
    steps = np.ones(len(x), dtype=np.int64)  # gradients taken, per row
    live = np.arange(len(x))  # start index of each row of x
    done = np.empty_like(x)  # final points, by start index
    iterations = np.empty(len(x), dtype=np.int64)
    halvings = 0.5 ** np.arange(_WINDOW)
    offsets = np.arange(0, len(x) * _WINDOW, _WINDOW)  # each row's first candidate
    while live.size:
        # every row tries its next _WINDOW step sizes eta, eta/2, ... and
        # takes the first that moves less than _TOLERANCE or passes Armijo,
        # exactly as a one-at-a-time search would.  The projected step only
        # lengthens as eta grows (Calamai and More, Math. Prog. 1987), so
        # after a short one every smaller step size would barely move either:
        # the start has converged.  A row with no hit keeps its point and
        # gradient and goes on below the window in the next pass
        etas = eta[:, None] * halvings
        cand = x[:, None, :] + etas[..., None] * g[:, None, :]
        y = project_to_simplex(cand.reshape(-1, p.m))
        step = y.reshape(cand.shape) - x[:, None, :]
        moved = np.abs(step).max(axis=2)
        fy = evaluate(p, y).reshape(moved.shape)
        # Armijo condition on the projection arc; the inner product is
        # positive whenever the projected step moves
        armijo = fy - f[:, None] >= 1e-4 * (step * g[:, None, :]).sum(axis=2)
        stop = (armijo | (moved < _TOLERANCE)) & (etas >= 1e-16)
        pick = offsets[: len(x)] + stop.argmax(axis=1)  # flat index
        hit = stop.ravel()[pick]
        took = hit & (moved.ravel()[pick] >= _TOLERANCE)
        # a taken step size doubles; with no hit, pick is the row's eta, and
        # it resumes at eta/8
        eta = np.minimum(etas.ravel()[pick] * np.where(took, 2.0, 0.125), 1e6)
        x[took], f[took] = y[pick[took]], fy.ravel()[pick[took]]
        fresh = took & (steps < _MAX_ITERATIONS)  # rows that take a new gradient
        if fresh.all():  # no gathers while every row steps
            g = gradient(p, x)
        else:
            go_on = fresh | (~hit & (eta >= 1e-16))
            if not go_on.all():
                done[live[~go_on]], iterations[live[~go_on]] = x[~go_on], steps[~go_on]
                x, f, g, eta, steps, live, fresh = (
                    a[go_on] for a in (x, f, g, eta, steps, live, fresh))
            if fresh.any():
                g[fresh] = gradient(p, x[fresh])
        steps += fresh
    done[done < SUPPORT_EPS] = 0.0
    # re-project inside each support face, not the full simplex, which would
    # smear the removed mass back onto the zeroed coordinates: entered as -1,
    # below the threshold tau (about 0), they stay 0 and drop out of tau
    x = project_to_simplex(np.where(done > 0.0, done, -1.0))
    f = evaluate(p, x)
    best = int(np.argmax(f))  # argmax takes the first, lowest-index maximum
    return OptResult(
        value=float(f[best]),
        point=x[best],
        kkt_residual=kkt_residual(p, x[best]),
        starts_used=len(x),
        seed=seed,
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
    """Simplex grid {k / resolution} in float64 batches of _GRID_BLOCK rows,
    the points in ``_multisets(resolution, m)`` order.

    Only one block is converted at a time, so evaluate_batch's (rows x
    monomials x r) gather stays small and in cache.  The block size must
    stay a multiple of the BLAS unroll: BLAS rounds the trailing rows of a
    block whose length is not one differently (blocks of 1 or 3 rows change
    last bits), and then the grid maximum, and the bound, would depend on
    where a block ends.  Only the grid's own last block is shorter.
    """
    rows = _multisets(resolution, m)
    for i in range(0, len(rows), _GRID_BLOCK):
        yield rows[i:i + _GRID_BLOCK].astype(np.float64) / resolution


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
    grid_max = 0.0
    for xs in _grid_points(resolution, p.m):
        grid_max = max(grid_max, float(evaluate_batch(p, xs).max()))
    lip = p.r * float(p.coefficient_sum())
    bound = grid_max + lip / resolution
    if bound > 1.25:
        # every Lagrange polynomial is at most (sum x_i)^r = 1 on the simplex
        warnings.warn(
            f"grid resolution {resolution} too coarse: bound {bound:.4f} "
            "far exceeds the trivial bound 1",
            stacklevel=2,
        )
    return bound
