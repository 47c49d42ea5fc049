"""Span tracing of rnp's layers from outside the program.

Each traced function is replaced, for the length of a traced round, at the
module attribute its caller looks it up by (``rnp.markov.run_two_level``
is what ``optimize_schedule`` calls, ``rnp.backend.chain_scan`` what
``solve_budget`` calls, and so on).  A wrapper records one span: name,
start, end, parent span and thread, plus a few work counts read from the
call's arguments or result.  Spans stay in memory until the benchmark
writes them out; the originals are put back when tracing stops.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


def _chain_scan_steps(args, kwargs, result):
    budget = result[0]
    return {"steps": budget if budget >= 0 else args[7]}


def _chain_evolve_steps(args, kwargs, result):
    return {"steps": int(args[5])}


def _chain_size(args, kwargs, result):
    return {"states": result.n_states, "transitions": len(result.trans_p)}


def _budget(args, kwargs, result):
    return {"budget": int(result)}


def _mc_work(args, kwargs, result):
    return {"trials": int(args[3]), "raw_pairs": int(result.sum())}


#: (module, attribute its caller looks up, span name, work-count extractor).
#: The span name is the layer and function that does the work.
SITES = (
    ("rnp.cli", "optimal_m", "measurement.optimal_m", None),
    ("rnp.cli", "plan", "markov.plan", None),
    ("rnp.markov", "optimize_schedule", "markov.optimize_schedule", None),
    ("rnp.markov", "run_two_level", "pumping.run_two_level", None),
    ("rnp.markov", "build_chain", "markov.build_chain", _chain_size),
    ("rnp.markov", "solve_budget", "markov.solve_budget", _budget),
    ("rnp.markov", "failure_probability", "markov.failure_probability", None),
    ("rnp.markov", "expected_pairs", "markov.expected_pairs", None),
    ("rnp.pumping", "pump_step", "pumping.pump_step", None),
    ("rnp.pumping", "run_two_level", "pumping.run_two_level", None),
    ("rnp.oracle", "simulate_pump_step", "oracle.simulate_pump_step", None),
    ("rnp.oracle", "monte_carlo_pumping", "oracle.monte_carlo_pumping", None),
    ("rnp.backend", "chain_scan", "backend.chain_scan", _chain_scan_steps),
    ("rnp.backend", "chain_evolve", "backend.chain_evolve", _chain_evolve_steps),
    ("rnp.backend", "mc_consumed_pairs", "backend.mc_consumed_pairs", _mc_work),
)


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict | None = None


class Tracer:
    """Collects spans while installed; ``install``/``restore`` swap the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # A pool thread has no span of its own open: its work belongs to the op.
        parent = stack[-1] if stack else self._op
        span = Span(next(self._ids), parent, name, threading.get_ident(), time.perf_counter())
        stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, name: str):
        """The benchmark's own span around one operation."""
        span = self._open(name)
        self._op = span.id
        try:
            yield span
        finally:
            self._op = None
            self._close(span)

    def _wrap(self, fn, name, extract):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs = {"error": 1}
                raise
            finally:
                tracer._close(span)
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, extract in SITES:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                continue  # a site the program no longer has: its metrics read 0
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, extract))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive ms, self ms and summed work counts."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["ms"] += (s.end - s.start) * 1e3
        row["self_ms"] += selfs[s.id] * 1e3
        for key, value in (s.attrs or {}).items():
            row[key] += value
    return {name: dict(row) for name, row in table.items()}


def write_spans(path: str, spans: list[Span]) -> None:
    """One tab-separated line per span, times in seconds from the first span."""
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tthread\tstart_s\tend_s\tattrs\n")
        for s in sorted(spans, key=lambda s: s.start):
            attrs = ",".join(f"{k}={v}" for k, v in sorted((s.attrs or {}).items()))
            fh.write(
                f"{s.id}\t{s.parent or ''}\t{s.name}\t{s.thread}\t"
                f"{s.start - t0:.9f}\t{s.end - t0:.9f}\t{attrs}\n"
            )
