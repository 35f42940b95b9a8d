"""Span recording for the benchmark's traced run.

Spans are taken from outside the library.  The workloads open spans around
their own calls into each layer (graph build, matching, result assembly),
and for the traced run only :func:`install` replaces a few public methods
with timing wrappers: DFS read resolution and replica placement, the
engine's ``run``/``schedule``/``start_flow``/``cancel_flow``, the dynamic
dispatch policies' ``next_task`` and the two runners.  Every callback
handed to the engine is wrapped too, so the engine's own time can be told
apart from the runner callbacks it calls.  Nothing under ``src/`` changes.

Spans stay in memory (name, start, end, parent) and are reduced to
per-name self times when the run ends: a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

clock = time.perf_counter

#: Layer of every span name; the layers' self times plus the residual sum
#: to the measured wall time.
LAYER_OF = {
    "dfs.resolve_read": "dfs",
    "dfs.place_chunk": "dfs",
    "core.graph_build": "core",
    "core.match": "core",
    "core.plan": "core",
    "core.next_task": "core",
    "engine.run": "engine",
    "engine.api": "engine",
    "runner.callback": "runner",
    "runner.run": "runner",
    "assemble": "assemble",
}


class NullTracer:
    """The untraced run: every span is a shared no-op context."""

    _null = nullcontext()

    def span(self, name: str) -> Any:
        return self._null


class Tracer:
    """Records nested spans in memory; see the module docstring."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]`` per span, in opening order
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._restore: list[tuple[type, str, Any]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        open_, close = self.open, self.close

        def timed(*args: Any, **kwargs: Any) -> Any:
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return timed

    def patch(self, cls: type, attr: str, replacement: Callable[..., Any]) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def patch_timed(self, cls: type, attr: str, name: str) -> None:
        self.patch(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._restore:
            cls, attr, original = self._restore.pop()
            setattr(cls, attr, original)

    def layer_times(self) -> tuple[dict[str, dict[str, float]], float]:
        """Per span name its summed ``self_s`` and its ``calls``, and the
        summed duration of the outermost spans."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        roots_s = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            if parent < 0:
                roots_s += dur
            agg = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            agg["self_s"] += dur - child_s[i]
            agg["calls"] += 1
        return out, roots_s


def install(tracer: Tracer, fs: Any) -> None:
    """Wrap the public layer entry points for the traced run."""
    from repro.core import DefaultDynamicPolicy, DynamicPlan
    from repro.dfs import DistributedFileSystem
    from repro.simulate import DatasetIngest, ParallelReadRun
    from repro.simulate.engine import Simulation

    tracer.patch_timed(DistributedFileSystem, "resolve_read", "dfs.resolve_read")
    tracer.patch_timed(type(fs.placement), "place_chunk", "dfs.place_chunk")
    tracer.patch_timed(DynamicPlan, "next_task", "core.next_task")
    tracer.patch_timed(DefaultDynamicPolicy, "next_task", "core.next_task")
    for runner in (ParallelReadRun, DatasetIngest):
        tracer.patch_timed(runner, "__init__", "runner.run")
        tracer.patch_timed(runner, "run", "runner.run")
    tracer.patch_timed(Simulation, "run", "engine.run")

    open_, close, wrap = tracer.open, tracer.close, tracer.wrap
    schedule = Simulation.__dict__["schedule"]
    start_flow = Simulation.__dict__["start_flow"]
    cancel_flow = Simulation.__dict__["cancel_flow"]

    def traced_schedule(sim: Any, delay: float, callback: Any) -> None:
        idx = open_("engine.api")
        try:
            schedule(sim, delay, wrap("runner.callback", callback))
        finally:
            close(idx)

    def traced_start_flow(
        sim: Any, size: float, path: Any, on_complete: Any, *args: Any, **kwargs: Any
    ) -> Any:
        idx = open_("engine.api")
        try:
            return start_flow(
                sim, size, path, wrap("runner.callback", on_complete), *args, **kwargs
            )
        finally:
            close(idx)

    tracer.patch(Simulation, "schedule", traced_schedule)
    tracer.patch(Simulation, "start_flow", traced_start_flow)
    tracer.patch(Simulation, "cancel_flow", wrap("engine.api", cancel_flow))
