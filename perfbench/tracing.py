"""Per-module spans taken from outside the program.

``install`` replaces functions and methods of ``certilind`` with timed
wrappers.  ``solver`` and ``estimators`` import their callees by name,
so a wrapper replaces the name in every module that looks it up.  Each
call records a span (category, start, end, parent); spans stay in
memory and are aggregated into the per-module metrics at the end.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [category, start, end, parent index]
        self._open: list[int] = []

    def _begin(self, category: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([category, perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self._open.pop()
        self.spans[index][2] = perf_counter()

    def wrap(self, category: str, fn, cache=None):
        """Timed wrapper of ``fn``.  With ``cache`` (the ``lru_cache``
        function that ``fn`` calls), calls answered from the cache get
        the category ``<category>.hit``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache.cache_info().misses if cache else None
            index = self._begin(category)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)
                if cache and cache.cache_info().misses == misses:
                    self.spans[index][0] = category + ".hit"

        return traced

    def summary(self, start: int = 0):
        """Per category: (calls, inclusive seconds, self seconds), and the
        seconds covered by top-level spans, over spans[start:]."""
        spans = self.spans[start:]
        child_time = [0.0] * len(self.spans)
        for category, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        stats: dict[str, list[float]] = {}
        top_level = 0.0
        for offset, (category, t0, t1, parent) in enumerate(spans):
            entry = stats.setdefault(category, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - child_time[start + offset]
            if parent < 0:
                top_level += t1 - t0
        return stats, top_level


def install(tracer: Tracer) -> None:
    """Wrap the certilind entry points the per-module metrics count."""
    from certilind import estimators, fockspace, lindblad, operators, solver

    materialize = operators.materialize_poly
    for module in (operators, lindblad, estimators):
        module.materialize_poly = tracer.wrap(
            "operators.materialize", module.materialize_poly, cache=materialize
        )

    gen = lindblad._ShapedGenerator
    gen.__init__ = tracer.wrap("lindblad.generator_build", gen.__init__)
    gen.apply = tracer.wrap("lindblad.apply", gen.apply)

    for ctx in (estimators._DefectContext, estimators._GkpContext):
        ctx.__init__ = tracer.wrap("estimators.context_build", ctx.__init__)
    estimators._hermitian_trace_norm = tracer.wrap(
        "estimators.full_eig", estimators._hermitian_trace_norm
    )
    defect = tracer.wrap("estimators.defect", estimators.model_space_defect)
    estimators.model_space_defect = defect
    solver.model_space_defect = defect
    ledger = estimators.EstimatorLedger
    ledger.record = tracer.wrap("estimators.ledger", ledger.record)

    for name in ("adaptive_solve_one_step", "rk4_stepper", "euler_stepper", "taylor_stepper"):
        setattr(solver, name, tracer.wrap("solver.step", getattr(solver, name)))
    for name in ("embed", "project"):
        wrapped = tracer.wrap(f"fockspace.{name}", getattr(fockspace, name))
        setattr(fockspace, name, wrapped)
        setattr(solver, name, wrapped)
