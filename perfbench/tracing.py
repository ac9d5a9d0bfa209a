"""Spans around bandedge's public functions, recorded from outside the library.

Nothing under ``src/`` knows about tracing: the functions are replaced by
timing wrappers for the length of one traced pass and restored afterwards.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable

# Assumed floating-point work of one dense complex Hermitian eigendecomposition
# with eigenvectors: 9 n^3 real operations for symmetric QR with accumulated
# vectors (Golub & Van Loan, Matrix Computations, sec. 8.3), times 4 for
# complex arithmetic.  A computed count, not a measured one.
DENSE_EIGH_FLOPS_PER_N3 = 36.0


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # sid of the enclosing span, -1 at top level
    thread: int
    counters: dict = field(default_factory=dict)


def _scan_counters(arguments: dict, result) -> dict:
    # every refinement round halves the spacing, which starts at
    # (2 pi / N) / grid_per_dim
    start = 2.0 * math.pi / arguments["hopping"].geometry.N / arguments["grid_per_dim"]
    return {
        "floquet.scan.rounds": round(math.log2(start / result.resolution)),
        "floquet.scan.minimizers": len(result.minimizers),
    }


def _torus_counters(arguments: dict, result) -> dict:
    return {"verification.torus.sites": result.shape[0]}


def _box_counters(arguments: dict, result) -> dict:
    geometry = arguments["hopping"].geometry
    n = (arguments["L"] * geometry.N) ** geometry.d
    if n <= arguments["dense_cutoff"]:
        return {
            "verification.box_min_eig.dense.calls": 1,
            "verification.box_min_eig.dense_flops_computed": DENSE_EIGH_FLOPS_PER_N3 * n**3,
        }
    return {"verification.box_min_eig.sparse.calls": 1}


# (module, attribute path, counters taken from the call's arguments and
# result) for every traced public function; a span is named
# "<module>.<attribute path>"
TRACED: tuple[tuple[str, str, Callable | None], ...] = (
    ("model", "HoppingOperator.fiber", None),
    ("model", "shift_to_zero", None),
    ("model", "validate_hypotheses", None),
    ("floquet", "scan_theta_set", _scan_counters),
    ("floquet", "build_floquet", None),
    ("floquet", "fiber_eigh", None),
    ("floquet", "ground_space", None),
    ("perturbation", "edge_coefficients", None),
    ("verification", "fiber_bound_sandwich", None),
    ("verification", "fiber_min_over_q", None),
    ("verification", "assemble_torus", _torus_counters),
    ("verification", "box_min_eig", _box_counters),
    ("verification", "torus_dual_minimum", None),
    ("verification", "kirsch_simon_sandwich", None),
    ("verification", "quasiperiodic_rayleigh", None),
    ("pipeline", "montecarlo_minima", None),
    ("pipeline", "run_pipeline", None),
)


@contextmanager
def patched(module: str, path: str, make_wrapper: Callable[[Callable], Callable]):
    """Replace ``bandedge.<module>.<path>`` by ``make_wrapper(function)``.

    ``from .floquet import build_floquet`` copies the binding into the
    importing module, so every loaded bandedge module that binds the same
    function object gets the wrapper too.  All bindings are restored on exit.
    """
    owner = sys.modules[f"bandedge.{module}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    current = vars(owner)[attr]
    wrapper = make_wrapper(current)
    holders = [owner] + [
        mod
        for name, mod in list(sys.modules.items())
        if (name == "bandedge" or name.startswith("bandedge.")) and mod is not owner
    ]
    replaced = []
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is current:
                setattr(holder, key, wrapper)
                replaced.append((holder, key))
    try:
        yield wrapper
    finally:
        for holder, key in reversed(replaced):
            setattr(holder, key, current)


class Tracer:
    """Collects spans in memory; one tracer per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main_thread else []
            self._local.stack = stack
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to the span that submitted
        # the work; only the main thread submits work here
        try:
            return self._main_stack[-1]
        except IndexError:
            return -1

    def wrapper_for(self, name: str, counters: Callable | None) -> Callable[[Callable], Callable]:
        def make(function: Callable) -> Callable:
            signature = inspect.signature(function) if counters else None

            @functools.wraps(function)
            def traced(*args, **kwargs):
                stack = self._stack()
                parent = self._parent(stack)
                sid = next(self._ids)
                stack.append(sid)
                start = time.perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                extra = {}
                if counters:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = counters(bound.arguments, result)
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), extra)
                )
                return result

            return traced

        return make

    @contextmanager
    def installed(self):
        """Trace every function in TRACED for the duration of the block."""
        with ExitStack() as stack:
            for module, path, counters in TRACED:
                stack.enter_context(
                    patched(module, path, self.wrapper_for(f"{module}.{path}", counters))
                )
            yield self


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children on several threads may overlap each other; the overlap is
    counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return {
        s.sid: (s.end - s.start) - covered_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def busy_ratio(spans: list[Span], workers: int) -> float:
    """Worker time in box_min_eig over the time the Monte-Carlo pool had.

    Sum of box_min_eig span durations under montecarlo_minima, divided by
    montecarlo_minima wall time times the worker count.  0 without sampling.
    """
    mc = {s.sid: s for s in spans if s.name == "pipeline.montecarlo_minima"}
    if not mc:
        return 0.0
    busy = sum(
        s.end - s.start for s in spans if s.name == "verification.box_min_eig" and s.parent in mc
    )
    capacity = sum(s.end - s.start for s in mc.values()) * workers
    return busy / capacity if capacity > 0 else 0.0


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer totals of one pass: ``<span>.s`` self time, ``<span>.calls``,
    the call counters, and the Monte-Carlo busy ratio."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[f"{span.name}.s"] += selfs[span.sid]
        out[f"{span.name}.calls"] += 1
        for key, value in span.counters.items():
            out[key] += value
    out["pipeline.montecarlo_minima.busy_ratio"] = busy_ratio(spans, workers)
    return dict(out)


def top_level_time(spans: list[Span]) -> float:
    """Time covered by spans that have no enclosing span."""
    return covered_length([(s.start, s.end) for s in spans if s.parent < 0], -math.inf, math.inf)
