"""Span tracer that wraps the turangap library from outside the package.

Every public function of the library modules (plus ``cli.dispatch``) is
replaced, at every module attribute that binds it, by a wrapper that opens a
span on entry and closes it on exit.  The wrapper passes arguments, return
values and exceptions through untouched, so traced runs write the same
artifacts as untraced ones.

Spans nest per thread.  A span opened on a thread with no open span of its
own (an optimizer pool worker) attaches to the innermost open span of the
thread that installed the tracer, which is the ``maximize`` call waiting on
the pool.  Self time is a span's duration minus the union of its children's
intervals, so overlapping children from several threads are not counted
twice.

Only aggregates are kept: per-name call counts, summed and self time, call
counts per (parent, child) edge, durations of the few spans whose
percentiles are reported, and layer counters taken from arguments and
results.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import tracemalloc
import warnings
from collections import defaultdict
from time import perf_counter

LIBRARY_LAYERS = ("patterns", "simplex", "chain", "exact_ladder", "dominance")
# cli's own helpers (parser, artifact writer) are the dispatch self time
CLI_FUNCTIONS = ("dispatch",)
# spans whose duration distribution is reported
KEEP_DURATIONS = ("simplex.maximize", "exact_ladder.verify_lemma")


class _Span:
    __slots__ = ("name", "parent", "start", "children")

    def __init__(self, name: str, parent: "_Span | None") -> None:
        self.name = name
        self.parent = parent
        self.children: list[tuple[float, float]] = []
        self.start = 0.0


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it (max if n <= 10)."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11] if n > 10 else ordered[-1]


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[_Span] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str | None, str], int] = defaultdict(int)
        self.durations: dict[tuple[str | None, str], list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._owner_stack if threading.get_ident() == self._owner else []
            self._local.stack = stack
        return stack

    def _open(self, name: str) -> _Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        span = _Span(name, parent)
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: _Span) -> None:
        end = perf_counter()
        self._stack().pop()
        dur = end - span.start
        own = dur - covered(span.children, span.start, end)
        parent = span.parent
        key = (parent.name if parent else None, span.name)
        with self._lock:
            self.calls[span.name] += 1
            self.total_s[span.name] += dur
            self.self_s[span.name] += own
            self.edges[key] += 1
            if span.name in KEEP_DURATIONS:
                self.durations[key].append(dur)
            if parent is not None:
                parent.children.append((span.start, end))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, args, kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_generator(self, name: str, fn):
        # each resume is one segment of the span, so the consumer's work
        # between items is not charged to the generator
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                with self._lock:
                    self.counters[name + ".items"] += 1
                yield item

        return traced

    def _observe_simplex_maximize(self, fn, args, kwargs):
        res = fn(*args, **kwargs)
        with self._lock:
            self.counters["simplex.maximize.starts"] += res.starts_used
        return res

    def _observe_simplex_certify_max_upper(self, fn, args, kwargs):
        # record the coarse-grid warnings instead of letting them reach
        # stderr; "always" defeats the once-per-location registry so every
        # warning is counted
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = fn(*args, **kwargs)
        with self._lock:
            self.counters["simplex.certify_max_upper.coarse_warnings"] += sum(
                issubclass(w.category, UserWarning) for w in caught
            )
        return res

    def _observe_patterns_evaluate_batch(self, fn, args, kwargs):
        res = fn(*args, **kwargs)
        with self._lock:
            self.counters["patterns.evaluate_batch.rows"] += len(res)
        return res

    def _observe_exact_ladder_monte_carlo_urns(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            res = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started_here:
                tracemalloc.stop()
        with self._lock:
            cnt = self.counters
            cnt["exact_ladder.monte_carlo_urns.trials"] += bound.arguments["trials"]
            cnt["exact_ladder.monte_carlo_urns.peak_mb"] = max(
                cnt["exact_ladder.monte_carlo_urns.peak_mb"], peak / 2**20)
        return res

    def _observe_exact_ladder_verify_lemma(self, fn, args, kwargs):
        rep = fn(*args, **kwargs)
        if rep.grid_bound is not None:
            with self._lock:
                self.counters["lemma.grid_bounds"] += 1
                if rep.grid_bound - float(rep.uniform_value) <= 0.01:
                    self.counters["lemma.tight_grid_bounds"] += 1
        return rep

    def _observe_dominance_bunching_verify(self, fn, args, kwargs):
        rep = fn(*args, **kwargs)
        with self._lock:
            self.counters["dominance.bunching_verify.samples"] += rep.samples
        return rep

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions at every binding in the loaded package."""
        wrapped = {}
        for layer in LIBRARY_LAYERS + ("cli",):
            mod = sys.modules[f"turangap.{layer}"]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr in CLI_FUNCTIONS if layer == "cli" else not attr.startswith("_"):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "turangap" and not name.startswith("turangap."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    # -- report --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures named in the benchmark definition."""
        c, s, own, edge, cnt = self.calls, self.total_s, self.self_s, self.edges, self.counters
        out: dict[str, float] = {}

        def calls_s(name: str) -> None:
            out[name + ".calls"] = c[name]
            out[name + ".s"] = s[name]

        for name in ("simplex.project_to_simplex", "simplex.gradient",
                     "patterns.evaluate", "patterns.lagrange_polynomial",
                     "exact_ladder.ladder", "exact_ladder.urn_probability_exact",
                     "exact_ladder.uniform_value_exact", "dominance.pattern_of",
                     "dominance.linear_extension"):
            calls_s(name)

        calls_s("simplex.maximize")
        out["simplex.maximize.self_s"] = own["simplex.maximize"]
        starts = cnt["simplex.maximize.starts"]
        out["simplex.maximize.starts"] = starts
        ascent_grad = edge[("simplex.maximize", "simplex.gradient")]
        ascent_eval = edge[("simplex.maximize", "patterns.evaluate")]
        out["simplex.ascent.iters_per_start"] = ascent_grad / starts if starts else 0.0
        out["simplex.evaluate_per_gradient"] = ascent_eval / ascent_grad if ascent_grad else 0.0
        out["simplex.kkt_residual.s"] = s["simplex.kkt_residual"]

        calls_s("simplex.certify_max_upper")
        out["simplex.certify_max_upper.grid_points"] = cnt["patterns.evaluate_batch.rows"]
        out["simplex.certify_max_upper.coarse_warnings"] = cnt[
            "simplex.certify_max_upper.coarse_warnings"]
        bounds = cnt["lemma.grid_bounds"]
        out["simplex.certify_max_upper.tight_ratio"] = (
            cnt["lemma.tight_grid_bounds"] / bounds if bounds else 0.0)
        calls_s("patterns.evaluate_batch")
        out["patterns.evaluate_batch.rows"] = cnt["patterns.evaluate_batch.rows"]

        rungs = self.durations[("chain.build_chain_ladder", "simplex.maximize")]
        out["chain.build_chain_ladder.s"] = s["chain.build_chain_ladder"]
        out["chain.rungs"] = len(rungs)
        out["chain.rung_p50_s"] = statistics.median(rungs) if rungs else 0.0
        out["chain.rung_tail_s"] = tail(rungs) if rungs else 0.0
        out["chain.verify_gap_bound.s"] = s["chain.verify_gap_bound"]

        out["exact_ladder.monte_carlo_urns.s"] = s["exact_ladder.monte_carlo_urns"]
        out["exact_ladder.monte_carlo_urns.trials"] = cnt["exact_ladder.monte_carlo_urns.trials"]
        out["exact_ladder.monte_carlo_urns.peak_mb"] = cnt["exact_ladder.monte_carlo_urns.peak_mb"]
        out["exact_ladder.max_step.s"] = s["exact_ladder.max_step"]

        lemmas = [d for (_, n), ds in self.durations.items()
                  if n == "exact_ladder.verify_lemma" for d in ds]
        calls_s("exact_ladder.verify_lemma")
        out["exact_ladder.verify_lemma.p50_s"] = statistics.median(lemmas) if lemmas else 0.0
        out["exact_ladder.verify_lemma.tail_s"] = tail(lemmas) if lemmas else 0.0

        out["dominance.iter_down_sets.families"] = cnt["dominance.iter_down_sets.items"]
        out["dominance.iter_down_sets.s"] = s["dominance.iter_down_sets"]
        calls_s("dominance.bunching_verify")
        out["dominance.bunching_verify.samples"] = cnt["dominance.bunching_verify.samples"]

        out["cli.dispatch.calls"] = c["cli.dispatch"]
        out["cli.dispatch.self_s"] = own["cli.dispatch"]
        return out
