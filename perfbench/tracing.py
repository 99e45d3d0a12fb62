"""Spans and counts recorded from outside the library.

A :class:`Tracer` wraps public tomoreg functions at the names their callers
reach them by (for example ``warp_scalar_with_gradient`` as bound in
``tomoreg.losses``), so the library itself is not modified.  Each call of a
wrapped function becomes one span with a name, start, end, parent span and
the identifier of the registration it belongs to.  Spans stay in memory
until the run ends; self times are derived from the span tree afterwards.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import tomoreg.geometry
import tomoreg.losses
import tomoreg.registration

# (owner object, attribute, span name): the boundaries the traced run wraps
WRAPPED = (
    (tomoreg.losses, "warp_scalar_with_gradient", "grids.warp"),
    (tomoreg.geometry.DrrOperator, "forward", "geometry.forward"),
    (tomoreg.geometry.DrrOperator, "adjoint", "geometry.adjoint"),
    (tomoreg.registration, "reconstruct", "subspace.reconstruct"),
    (tomoreg.losses.LossContext, "loss", "losses.loss"),
    (tomoreg.losses.LossContext, "loss_and_grad", "losses.loss_and_grad"),
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    trace_id: int
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, trace_id: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else -1
        sp = Span(len(self.spans), None if parent is None else parent.span_id,
                  trace_id, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary in ``WRAPPED`` for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in WRAPPED]
        try:
            for owner, attr, name in WRAPPED:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def summary(self, trace_id: int) -> dict:
        """Per span name: call count, total time and self time in one trace."""
        spans = [s for s in self.spans if s.trace_id == trace_id]
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s in spans:
            row = out[s.name]
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - child_time[s.span_id]
        return dict(out)

    def to_json(self) -> list:
        return [[s.span_id, s.parent, s.trace_id, s.name, s.start, s.end]
                for s in self.spans]
