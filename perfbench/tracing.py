"""Layer spans recorded from outside the package.

``mcmpricer.pricer`` looks its layer functions up in its own module namespace
at call time, so swapping those names for timed wrappers traces every call a
serial (``n_workers=1``) pricing run makes, without touching the package.
Spawn workers import fresh modules and are never traced.

Spans are kept in memory as (name, start, end, parent).  A span's self time
is its duration minus the durations of its direct children.  Bookkeeping the
benchmark itself does inside a traced call (counting ITM paths, reading a
plan) runs in ``bench`` spans so it is charged to no layer.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# pricer-namespace function -> layer span name
LAYER_FUNCTIONS = {
    "simulate_paths": "market_model.simulate",
    "path_weights": "weights.path_weights",
    "query_features": "kernels.features",
    "sample_features": "kernels.features",
    "denominator_closed_form": "kernels.closed_form",
    "kernel_second_moment": "kernels.closed_form",
    "denominator_factors": "kernels.closed_form",
    "pooled_plan": "ratio.pooled_plan",
}
ROOT = "pricer"
BOOKKEEPING = "bench"


class Tracer:
    """In-memory spans plus the counts and values observed at layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.path_bytes = 0
        self.itm_queries = 0
        self.kernel_evals = 0
        self.itm_slots = 0
        self.lams: list[float] = []
        self.regimes: list[str] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def root_wall(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent is None)

    def _span_selfs(self, first: int) -> list[float]:
        spans = self.spans[first:]
        out = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent is not None:
                out[parent - first] -= end - start
        return out

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name, over the spans recorded from index ``first`` on."""
        out: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans[first:], self._span_selfs(first)):
            out[name] += t
        return dict(out)

    def nesting_ok(self) -> bool:
        """Every span closed inside its parent, and no span has a negative self time."""
        for _, start, end, parent in self.spans:
            if end is None or end < start:
                return False
            if parent is not None:
                _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    return False
        return min(self._span_selfs(0), default=0.0) >= -1e-9


@contextmanager
def traced_layers(tracer: Tracer, payoff):
    """Swap the pricer's layer functions for span-recording wrappers."""
    from mcmpricer import pricer
    from workloads import itm_counts

    def observe_paths(paths):
        tracer.path_bytes += sum(a.nbytes for a in (paths.w, paths.s, paths.y) if a is not None)
        n = paths.n_paths
        for n_itm in itm_counts(payoff, paths):
            tracer.itm_queries += n_itm
            tracer.kernel_evals += n_itm * n
            tracer.itm_slots += n

    def observe_plan(plan):
        tracer.lams.append(plan.lam)
        tracer.regimes.append(plan.regime)

    observers = {"simulate_paths": observe_paths, "pooled_plan": observe_plan}

    def wrap(attr, fn):
        name = LAYER_FUNCTIONS[attr]
        observe = observers.get(attr)

        def traced(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            tracer.calls[attr] += 1
            if observe is not None:
                with tracer.span(BOOKKEEPING):
                    observe(out)
            return out

        return traced

    saved = {attr: getattr(pricer, attr) for attr in LAYER_FUNCTIONS}
    try:
        for attr, fn in saved.items():
            setattr(pricer, attr, wrap(attr, fn))
        yield tracer
    finally:
        for attr, fn in saved.items():
            setattr(pricer, attr, fn)
