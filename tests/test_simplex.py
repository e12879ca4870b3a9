"""Projection, gradients, the multi-start optimizer, and grid bounds."""

import json
import random
import tracemalloc
import warnings
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from turangap import (
    DownSet,
    Pattern,
    build_chain_ladder,
    bunching_verify,
    certificate,
    evaluate,
    maximize,
    monte_carlo_urns,
    simple_pattern,
)
import turangap.chain as chain_module
from turangap.chain import edge_enumeration
import turangap.simplex as sx
from turangap.dominance import compositions, iter_down_sets, pattern_of
from turangap.exact_ladder import _GRID_RESOLUTION
from turangap.patterns import evaluate_batch
from turangap.simplex import (
    _TOLERANCE,
    SUPPORT_EPS,
    _start_points,
    certify_max_upper,
    gradient,
    kkt_residual,
    project_to_simplex,
)

from oracles import complete_pattern, full_size_maximize, grid_points_by_tuples, random_pattern

SINGLE_EDGE_3 = simple_pattern(3, 3, [[1, 2, 3]])


@contextmanager
def _budget(starts: int, max_iterations: int = sx._MAX_ITERATIONS):
    """Inside, maximize runs this many starts of at most this many steps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sx, "_STARTS", starts)
        mp.setattr(sx, "_MAX_ITERATIONS", max_iterations)
        yield


def test_projection_examples():
    assert np.allclose(project_to_simplex([0.5, 0.7]), [0.4, 0.6])
    assert np.allclose(project_to_simplex([10.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
    assert np.allclose(project_to_simplex([-1.0, -2.0]), [1.0, 0.0])


def test_projection_properties():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = rng.integers(1, 9)
        v = rng.normal(0, 2, m)
        x = project_to_simplex(v)
        assert abs(x.sum() - 1.0) < 1e-12
        assert (x >= 0).all()
        # projecting a simplex point is the identity
        assert np.allclose(project_to_simplex(x), x, atol=1e-12)


def test_gradient_matches_central_differences():
    rng = random.Random(17)
    nprng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(30):
        p = random_pattern(rng)
        x = nprng.dirichlet(np.ones(p.m))
        g = gradient(p, x)
        for i in range(p.m):
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (evaluate(p, xp) - evaluate(p, xm)) / (2 * h)
            scale = max(1.0, abs(fd))
            assert abs(g[i] - fd) / scale < 1e-5


def test_gradient_at_boundary_points():
    p = SINGLE_EDGE_3  # 6 x y z
    g = gradient(p, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(g, [0.0, 0.0, 0.0])
    g = gradient(p, np.array([0.5, 0.5, 0.0]))
    assert np.allclose(g, [0.0, 0.0, 1.5])


def test_kkt_residual_zero_at_uniform_max():
    p = SINGLE_EDGE_3
    assert kkt_residual(p, np.full(3, 1 / 3)) < 1e-14
    # vertex of the simplex is stationary for x*y*z but not the max
    assert kkt_residual(p, np.array([1.0, 0.0, 0.0])) < 1e-14
    # interior non-critical point has a visible residual
    assert kkt_residual(p, np.array([0.6, 0.3, 0.1])) > 1e-3


def test_maximize_single_edge_hits_uniform():
    for r in (3, 4, 5):
        p = simple_pattern(r, r, [list(range(1, r + 1))])
        res = maximize(p)
        assert res.value == pytest.approx(factorial(r) / r**r, abs=1e-12)
        assert np.max(np.abs(res.point - 1 / r)) < 1e-6
        assert res.kkt_residual < 1e-6


def test_maximize_empty_pattern_is_zero():
    p = Pattern(3, 4, ())
    res = maximize(p)
    assert res.value == 0.0
    assert res.kkt_residual == 0.0


def test_maximize_deterministic_and_seed_sensitive():
    p = complete_pattern(2, 5)
    a = maximize(p, 123)
    b = maximize(p, 123)
    assert a.value == b.value
    assert np.array_equal(a.point, b.point)
    assert a.starts_used == b.starts_used == sx._STARTS == 50
    # neighbouring seeds draw disjoint random starts, not shifted copies
    for seed in (0, 123):
        mine, kinds = _start_points(5, seed, ())
        other, _ = _start_points(5, seed + 1, ())
        rand = [i for i, k in enumerate(kinds) if k == "random"]
        assert len(rand) == 44
        assert np.array_equal(mine[:6], other[:6])
        assert not any(np.allclose(mine[i], other[j]) for i in rand for j in rand)


def test_random_starts_are_drawn_once_and_read_only():
    starts, _ = _start_points(5, 7, ())
    draws = sx._random_rows(5, 6, 50, 7)
    assert sx._random_rows(5, 6, 50, 7) is draws  # every maximize shares them
    with pytest.raises(ValueError, match="read-only"):
        draws[0, 0] = 1.0
    first = np.random.default_rng([7, 6]).exponential(1.0, 5)
    assert np.array_equal(draws[0], first / first.sum())
    assert np.array_equal(starts[6:], draws)
    starts[6:] = 0.0  # the caller's rows are its own copy
    assert np.array_equal(_start_points(5, 7, ())[0][6:], draws)
    assert not np.array_equal(sx._random_rows(5, 6, 50, 8), draws)


def test_maximize_reports_value_at_point():
    rng = random.Random(23)
    for _ in range(10):
        p = random_pattern(rng, r_max=4, m_max=5)
        res = maximize(p)
        assert res.value == pytest.approx(evaluate(p, res.point), abs=1e-12)
        assert res.kkt_residual <= 1e-6
        assert res.value >= 0.0


def test_warm_start_is_honored():
    # the result can never fall below the value at a supplied warm start
    rng = np.random.default_rng(31)
    p = complete_pattern(2, 4)
    with _budget(1):  # the uniform point and the warm start
        for _ in range(5):
            warm = rng.dirichlet(np.ones(4))
            res = maximize(p, extra_starts=[warm])
            assert res.value >= evaluate(p, warm) - 1e-12
        res = maximize(p, extra_starts=[np.full(4, 0.25)])
    assert res.value == pytest.approx(0.75, abs=1e-12)


def test_certificate_shape():
    res = maximize(SINGLE_EDGE_3, 9)
    cert = certificate(SINGLE_EDGE_3, res)
    assert cert["pattern"]["multisets"] == [[1, 2, 3]]
    assert cert["seed"] == 9
    assert cert["starts"] == sx._STARTS
    assert len(cert["point"]) == 3
    assert cert["value"] == pytest.approx(6 / 27, abs=1e-12)


def test_certify_max_upper_bounds_known_maxima():
    ub = certify_max_upper(SINGLE_EDGE_3, 60)
    # additive term is (r * coefficient sum) / resolution = 18/60
    assert 6 / 27 <= ub <= 6 / 27 + 18 / 60 + 1e-12
    p2 = complete_pattern(2, 2)
    assert certify_max_upper(p2, 100) >= 0.5
    # grid bound caps the optimizer value for random small patterns
    rng = random.Random(5)
    for _ in range(8):
        p = random_pattern(rng, r_max=3, m_max=4)
        res = maximize(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert certify_max_upper(p, 80) >= res.value - 1e-12


def test_certify_max_upper_warns_when_coarse():
    p = complete_pattern(3, 6)
    with pytest.raises(ValueError):
        certify_max_upper(complete_pattern(2, 7), 10)  # m > 6 unsupported
    with pytest.warns(UserWarning):
        certify_max_upper(p, 2)


@pytest.mark.parametrize("resolution, m", [(800, 1), (800, 2), (200, 3), (60, 4), (7, 5), (5, 6)])
def test_grid_points_match_tuple_oracle(resolution, m):
    got = list(sx._grid_points(resolution, m))
    want = list(grid_points_by_tuples(resolution, m))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def test_certify_max_upper_same_bound_over_tuple_grid(monkeypatch):
    patterns = [
        (SINGLE_EDGE_3, 60),
        (complete_pattern(2, 4), 60),
        (pattern_of(DownSet(3, 3, frozenset({(1, 1, 1)}))), 200),
        (pattern_of(DownSet(4, 4, frozenset({(2, 1, 1, 0), (1, 1, 1, 1)}))), 60),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bounds = [certify_max_upper(p, res) for p, res in patterns]
        monkeypatch.setattr(sx, "_grid_points", grid_points_by_tuples)
        assert [certify_max_upper(p, res) for p, res in patterns] == bounds


# the (r, s) cases of the benchmark's lemma workload: 36 down-set families,
# all with s <= 4
BENCH_LEMMA_CASES = ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3))


def test_blocked_grid_bound_equals_whole_grid_bound():
    # the blocked sweep must give the very float of one evaluation over the
    # whole grid, for every family a lemma check certifies; and it warns
    # exactly when its bound exceeds 1.25
    for r, s in BENCH_LEMMA_CASES:
        res = _GRID_RESOLUTION[s]
        whole_grid = np.vstack(list(grid_points_by_tuples(res, s)))
        for a in iter_down_sets(r, s):
            p = pattern_of(a)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                bound = certify_max_upper(p, res)
            want = (float(evaluate_batch(p, whole_grid).max())
                    + p.r * float(p.coefficient_sum()) / res)
            assert bound == want, (r, s, sorted(a.members))
            assert len(caught) == (bound > 1.25)


def test_grid_sweep_peak_memory_stays_small():
    # a noise-free memory guard: the sweep converts and evaluates one block
    # at a time, and numpy buffers are traced; the peak is about 2.3 MB
    # here, against 12.1 MB for 8192-row blocks
    p = pattern_of(DownSet(4, 4, frozenset(compositions(4, 4))))
    assert len(p.monomials) == 35
    with pytest.warns(UserWarning, match="too coarse"):
        tracemalloc.start()
        try:
            certify_max_upper(p, 60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**20


def test_entry_points_reject_bad_seeds(monkeypatch):
    # a non-integer or negative seed fails at the call, wherever it would
    # seed a generator: None would draw from OS entropy, and an order other
    # than random must not leave the seed unchecked; a chain fails before it
    # builds a rung
    def no_rung(*args):
        raise AssertionError("rung built before the seed was checked")

    monkeypatch.setattr(chain_module, "simple_pattern", no_rung)
    for bad in (-1, 2.5, 3.0, "3", None):
        for call in (lambda: maximize(SINGLE_EDGE_3, bad),
                     lambda: build_chain_ladder(3, 5, "random", bad),
                     lambda: edge_enumeration(3, 5, "random", bad),
                     lambda: edge_enumeration(3, 5, "colex", bad),
                     lambda: bunching_verify(4, 1, bad),
                     lambda: monte_carlo_urns(4, 10, bad)):
            with pytest.raises(ValueError, match="seed must be"):
                call()


def test_numpy_integer_seeds_become_plain_ints():
    res = maximize(SINGLE_EDGE_3, np.int32(7))
    assert type(res.seed) is int
    assert _fields(res) == _fields(maximize(SINGLE_EDGE_3, 7))
    json.dumps(certificate(SINGLE_EDGE_3, res))
    lad = build_chain_ladder(3, 4, "random", np.uint8(4))
    assert lad == build_chain_ladder(3, 4, "random", 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_warm_start_is_rejected(bad):
    warm = [0.5, bad, 0.5]
    with pytest.raises(ValueError, match="finite"):
        _start_points(3, 0, [warm])
    with pytest.raises(ValueError, match="finite"):
        maximize(SINGLE_EDGE_3, extra_starts=[[1 / 3] * 3, warm])


# ---------------------------------------------------------------------------
# batched primitives against per-vector and exact references


def _project_vector(v: np.ndarray) -> np.ndarray:
    """Reference: sort-based projection of one vector."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, v.size + 1) > 0)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 9)),
              elements=st.floats(-4, 4, allow_nan=False)))
def test_projection_rows_match_vector_projection(batch):
    feasible = np.random.default_rng(batch.shape[1]).dirichlet(np.ones(batch.shape[1]))
    rows = np.vstack([
        batch,
        np.round(batch),             # ties
        -np.abs(batch) - 1.0,        # all negative
        feasible,                    # already on the simplex
    ])
    got = project_to_simplex(rows)
    for v, x in zip(rows, got):
        assert np.array_equal(x, _project_vector(v))
        assert np.array_equal(project_to_simplex(v), x)


def _exact_gradient(p: Pattern, x) -> list[Fraction]:
    """Reference: differentiate each monomial in exact arithmetic."""
    g = [Fraction(0)] * p.m
    for exps, coef in p.monomials:
        for i, e in enumerate(exps):
            if e:
                term = coef * e
                for j, (xj, ej) in enumerate(zip(x, exps)):
                    term *= Fraction(xj) ** (ej - (j == i))
                g[i] += term
    return g


def _dyadic_points(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """Simplex points with coordinates in (1/8)Z, zeros included: every
    product and sum in evaluate and gradient is exact in floats."""
    return np.array([np.bincount(rng.integers(0, m, 8), minlength=m) / 8 for _ in range(k)])


def test_batched_gradient_matches_vector_and_exact_derivative():
    rng = random.Random(41)
    nprng = np.random.default_rng(41)
    for _ in range(40):
        p = random_pattern(rng)
        xs = np.vstack([nprng.dirichlet(np.ones(p.m), 5), _dyadic_points(nprng, p.m, 5)])
        g = gradient(p, xs)
        assert g.shape == xs.shape
        for x, gx in zip(xs, g):
            assert np.allclose(gradient(p, x), gx, rtol=1e-14, atol=0)
        # at dyadic points (zero coordinates included) the float gradient is
        # exact, so the zero-coordinate rule holds with no rounding
        for x, gx in zip(xs[5:], g[5:]):
            assert gx.tolist() == [float(v) for v in _exact_gradient(p, x)]
    with pytest.raises(ValueError):
        gradient(p, np.ones((2, 3, p.m)))


def test_gradient_at_zero_coordinate_keeps_only_linear_monomials():
    # lambda = 3 x^2 y + 6 x y z + 3 y^2 z: at y = 0, d/dy = 3 x^2 + 6 x z;
    # the y^2 z monomial is not linear in y and contributes nothing
    p = Pattern.from_element_lists(3, 3, [(1, 1, 2), (1, 2, 3), (2, 2, 3)])
    xs = np.array([[0.5, 0.0, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    g = gradient(p, xs)
    assert g[:, 1].tolist() == [3 * 0.25 + 6 * 0.25, 3.0, 0.0]
    assert g[:, [0, 2]].tolist() == [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_batched_evaluate_matches_evaluate_batch():
    rng = random.Random(43)
    nprng = np.random.default_rng(43)
    for _ in range(30):
        p = random_pattern(rng)
        xs = nprng.dirichlet(np.ones(p.m), 7)
        vals = evaluate(p, xs)
        assert np.array_equal(vals, evaluate_batch(p, xs))
        assert np.allclose([evaluate(p, x) for x in xs], vals, rtol=1e-14, atol=0)
    empty = Pattern(3, 4, ())
    assert evaluate(empty, np.full((2, 4), 0.25)).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        evaluate(empty, np.ones((2, 3)))


# ---------------------------------------------------------------------------
# batched maximize against a per-start oracle


def _ascend(p, x0, max_iterations: int, tolerance: float):
    """Reference: projected gradient ascent with backtracking from one start.

    Returns the cleaned point, its value and the number of gradient steps.
    Calls the primitives through the simplex module, so a test can swap them.
    """
    x = sx.project_to_simplex(x0)
    f = sx.evaluate(p, x)
    eta = 1.0
    iterations = 0
    for _ in range(max_iterations):
        g = sx.gradient(p, x)
        iterations += 1
        accepted = False
        while eta >= 1e-16:
            y = sx.project_to_simplex(x + eta * g)
            step = y - x
            if float(np.max(np.abs(step))) < tolerance:
                break  # converged: this step is not taken
            fy = sx.evaluate(p, y)
            if fy - f >= 1e-4 * float((g * step).sum()):
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        x, f = y, fy
        eta = min(eta * 2.0, 1e6)
    x = x.copy()
    x[x < SUPPORT_EPS] = 0.0
    supp = x > 0.0
    x[supp] = sx.project_to_simplex(x[supp])
    return x, sx.evaluate(p, x), iterations


DEGENERATE = pattern_of(DownSet(4, 3, frozenset({(2, 1, 1), (2, 2, 0)})))


def _oracle_cases():
    """(pattern, seed, (starts, max_iterations), warm starts): random
    patterns, the empty pattern, the degenerate r=4 s=3 family {(2,1,1),
    (2,2,0)} (thousands of steps per start), that family again stopped at 7
    steps while its starts still ascend, a warm-started chain rung, and the
    symmetric K_5 pattern, whose starts all climb to the same maximum 4/5."""
    rng = random.Random(47)
    cases = [(random_pattern(rng, r_max=4, m_max=6), s, (12, 5000), ()) for s in range(10)]
    cases.append((Pattern(3, 4, ()), 0, (6, 5000), ()))
    cases.append((DEGENERATE, 1, (6, 5000), ()))
    cases.append((DEGENERATE, 1, (6, 7), ()))
    edges = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5)]
    with _budget(10):
        prev = maximize(simple_pattern(3, 5, edges[:-1]))
    cases.append((simple_pattern(3, 5, edges), 0, (10, 5000), [prev.point]))
    cases.append((complete_pattern(2, 5), 3, (20, 5000), ()))
    return cases


def _row_gradient(p, x):
    terms = np.asarray(x, dtype=np.float64)[..., p.grad_factors].prod(axis=-1)
    return (terms[..., None] * p.grad_weights).sum(axis=-2)


def _row_evaluate(p, x):
    xv = np.asarray(x, dtype=np.float64)
    values = (xv[..., p.factors].prod(axis=-1) * p.coefs).sum(axis=-1)
    return float(values) if xv.ndim == 1 else values


def test_maximize_follows_each_start_like_the_oracle(monkeypatch):
    # the library sums gradient and value terms with BLAS, whose rounding
    # depends on the batch size; with row-wise sums every batched row must
    # take exactly the oracle's steps, stop where it stops and clean up the
    # same way
    monkeypatch.setattr(sx, "gradient", _row_gradient)
    monkeypatch.setattr(sx, "evaluate", _row_evaluate)
    for p, seed, budget, extra in _oracle_cases():
        with _budget(*budget):
            res = maximize(p, seed, extra_starts=extra)
            starts, kinds = _start_points(p.m, seed, extra)
        runs = [_ascend(p, x0, budget[1], _TOLERANCE) for x0 in starts]
        assert res.iterations == tuple(n for _, _, n in runs)
        values = [f for _, f, _ in runs]
        # ties go to the lowest start index
        assert res.start_index == values.index(max(values))
        assert res.start_kind == kinds[res.start_index]
        assert res.value == max(values)
        assert np.array_equal(res.point, runs[res.start_index][0])
        if extra:
            assert res.value >= evaluate(p, extra[0]) - 1e-12
        if p == DEGENERATE and budget[1] == 7:
            # the cap, not convergence, stops these rows: they take an 8th step
            capped = [x0 for x0, n in zip(starts, res.iterations) if n == 7]
            assert len(capped) > 1
            assert all(_ascend(p, x0, 8, _TOLERANCE)[2] == 8 for x0 in capped)
        elif p == DEGENERATE:
            assert max(res.iterations) > 1000
    # the K_5 case really has tied starts for the tie-break to settle
    assert values.count(max(values)) > 1


def test_maximize_matches_best_oracle_value():
    for p, seed, budget, extra in _oracle_cases():
        with _budget(*budget):
            res = maximize(p, seed, extra_starts=extra)
            starts, _ = _start_points(p.m, seed, extra)
        best = max(_ascend(p, x0, budget[1], _TOLERANCE)[1] for x0 in starts)
        assert abs(res.value - best) <= 1e-12
        assert res.value == pytest.approx(evaluate(p, res.point), abs=1e-15)


def _fields(res):
    return (res.value, res.point.tobytes(), res.kkt_residual, res.starts_used,
            res.seed, res.start_index, res.start_kind, res.iterations)


def test_maximize_equals_the_full_size_loop_bit_for_bit(monkeypatch):
    # with the real primitives, whose BLAS sums round by batch shape: the
    # compact flat loop must hand gradient and evaluate the very batches of
    # the full-size one, pass by pass, so every field of every result is
    # the same
    families = [pattern_of(a) for r, s in BENCH_LEMMA_CASES for a in iter_down_sets(r, s)]
    assert len(families) == 36
    default = (sx._STARTS, sx._MAX_ITERATIONS)
    calls = [(p, seed, default, ()) for seed in (0, 7) for p in families]
    calls += _oracle_cases()
    results = []
    for p, seed, budget, extra in calls:
        with _budget(*budget):
            results.append(maximize(p, seed, extra))

    def record(p, seed, extra_starts):
        calls.append((p, seed, default, extra_starts))
        results.append(maximize(p, seed, extra_starts))
        return results[-1]

    monkeypatch.setattr(chain_module, "maximize", record)
    for r, m, order in ((3, 7, "colex"), (4, 6, "colex"), (5, 8, "colex"), (3, 6, "random")):
        build_chain_ladder(r, m, order)  # every optimizer rung, warm-started
    # one warm-started oracle case, then 0, 0, 4 and 14 optimizer rungs
    assert sum(1 for *_, extra in calls if len(extra)) == 1 + 0 + 0 + 4 + 14
    for (p, seed, budget, extra), res in zip(calls, results):
        with _budget(*budget):
            assert _fields(res) == _fields(full_size_maximize(p, seed, extra))


def test_bench_chains_stay_within_their_projection_budget(monkeypatch):
    # a noise-free cost guard: maximize projects once per pass, plus once for
    # the starts and once for the cleanup.  The two benchmark chains make no
    # maximize call and no projection: every rung with no closed form has two
    # to four twin classes.  They took 37 projections in 1 call while the
    # four-class rung ran the optimizer, 344 in 9 calls while the three-class
    # rungs did too,
    # 598 in 17 calls while the two-class rungs did too, and 941 with
    # lockstep backtracking rounds (a few straggling starts holding up all
    # the others)
    calls, rungs = [], []
    real = sx.project_to_simplex
    monkeypatch.setattr(sx, "project_to_simplex", lambda v: calls.append(1) or real(v))
    monkeypatch.setattr(chain_module, "maximize",
                        lambda *args, **kw: rungs.append(1) or maximize(*args, **kw))
    for r, m in ((3, 7), (4, 6)):
        build_chain_ladder(r, m)
    assert len(rungs) == 0
    assert len(calls) == 0


def test_a_resumed_search_reuses_its_gradient(monkeypatch):
    # a start whose window of step sizes has no hit keeps its point and
    # gradient for the next pass, so maximize takes one gradient row per
    # iteration, and some passes hand gradient fewer rows than are live
    log = []  # (primitive, rows) of each batched call inside one maximize

    def logged(name, real):
        def call(p, x):
            if np.ndim(x) == 2:
                log.append((name, len(x)))
            return real(p, x)
        return call

    monkeypatch.setattr(sx, "gradient", logged("gradient", sx.gradient))
    monkeypatch.setattr(sx, "evaluate", logged("evaluate", sx.evaluate))
    fewer = []

    def counted(p, seed=0, extra_starts=()):
        log.clear()
        res = maximize(p, seed, extra_starts)
        assert sum(n for name, n in log if name == "gradient") == sum(res.iterations)
        # the pass after a gradient call evaluates a window for every live row
        fewer.extend(n < after // sx._WINDOW
                     for (name, n), (_, after) in zip(log, log[1:]) if name == "gradient")
        return res

    for r, s in BENCH_LEMMA_CASES:
        for a in iter_down_sets(r, s):
            counted(pattern_of(a))
    monkeypatch.setattr(chain_module, "maximize", counted)
    for r, m in ((3, 7), (4, 6)):
        build_chain_ladder(r, m)
    assert len(fewer) > 36 + 17 and any(fewer)


def test_lemma_families_keep_their_batched_iteration_counts():
    # the slowest start's iteration count, for each r=3 s=3 family and for
    # the degenerate family; the 1063 and the 2498 are starts that zig-zag at
    # eta = 2/L (the Armijo constant is left as it is)
    batched = [max(maximize(pattern_of(a)).iterations) for a in iter_down_sets(3, 3)]
    assert sorted(batched, reverse=True) == [1063, 163, 1, 1]
    assert max(maximize(DEGENERATE).iterations) == 2498


def test_cleanup_returns_tiny_mass_to_the_support():
    # 2xy + 2xz is flat along y + z = 1/2, so this warm start barely moves;
    # its z below SUPPORT_EPS is zeroed and the mass goes back to x and y,
    # not smeared over the zeroed coordinate by a full-simplex projection
    p = simple_pattern(2, 3, [(1, 2), (1, 3)])
    warm = [0.5, 0.5 - 4e-15, 4e-15]
    with _budget(1, max_iterations=1):
        res = maximize(p, extra_starts=[warm])
    assert res.start_kind == "warm"
    assert res.point[2] == 0.0 and res.point[1] > warm[1]
    assert res.point.sum() == pytest.approx(1.0, abs=1e-15)


def test_opt_result_reports_winning_start():
    p = simple_pattern(3, 4, [(1, 2, 3)])
    with _budget(8):
        res = maximize(p, 5)
    kinds = ["uniform"] + ["vertex"] * 4 + ["random"] * 3
    assert res.start_kind == kinds[res.start_index]
    assert len(res.iterations) == 8 and min(res.iterations) >= 1
    assert res.iterations[1] == 1  # a vertex is a projection fixed point
    # one step from the uniform point of x^3 does not reach the vertex
    cube = Pattern.from_element_lists(3, 3, [(1, 1, 1)])
    with _budget(1, max_iterations=1):
        warm = maximize(cube, extra_starts=[[1, 0, 0]])
    assert (warm.start_index, warm.start_kind, warm.value) == (1, "warm", 1.0)
    # diagnostics stay out of the certificate, so artifacts do not change
    assert set(certificate(p, res)) == {"pattern", "value", "point", "kkt_residual",
                                        "starts", "seed"}
    with pytest.raises(ValueError):
        maximize(p, extra_starts=[[0.5, 0.5]])
