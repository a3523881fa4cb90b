"""Spans and counters recorded from outside the program, around layer entry points.

A :class:`Tracer` replaces each layer's public entry point (a module-level
function wherever a ``repro`` module bound it by name, or a method on its
class) with a wrapper that times the call, and restores the originals
afterwards.  Two kinds of wrapper:

* a *span* nests on the tracer's stack and becomes a Chrome trace event;
  its self time is its duration minus the spans and leaf calls inside it;
* a *leaf* is a fine-grained call that calls no other traced entry point
  (a relation's ``route``, one cycle's traffic draw).  It is aggregated
  into a count and a total only and charged to the enclosing span, which
  keeps the trace small and the per-call overhead low: ``route`` runs
  millions of times per checker pass.

Nothing under ``src/`` knows about this module.  ``waiting_channels`` is
deliberately not wrapped: ``DestinationTransitions`` and ``RouteTable``
compare its identity against the base class to skip a second relation call,
and a wrapper would defeat that shortcut and change the work measured.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro.analyze.screens import triage
from repro.core.cwg import ChannelWaitingGraph
from repro.core.cycles import find_cycles, find_one_cycle
from repro.core.deadlock_search import AnyWaitConfigSearch, TrueCycleSearch
from repro.core.reduction import CWGReducer
from repro.core.transitions import DestinationTransitions
from repro.deps.cdg import ChannelDependencyGraph
from repro.deps.ecdg import ExtendedChannelDependencyGraph
from repro.incremental import IncrementalSession
from repro.pipeline import run_job
from repro.routing.relation import RoutingAlgorithm
from repro.sim import BernoulliTraffic, DeadlockDetector
from repro.verify import dally_seitz, search_escape, verify

OnResult = Callable[["Tracer", tuple, Any], None]


def _count_triage(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("analyze.triage_decided", int(result.decided))


def _count_cwg(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.cwg.edges", len(args[0]))


def _count_search(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.deadlock_search.nodes", result.nodes_explored)
    tracer.count("core.deadlock_search.budget_exhausted", int(not result.exhaustive))


def _count_messages(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("sim.traffic.messages", len(result))


#: (name, module-level function, leaf, result hook) -- patched wherever a
#: ``repro`` module bound it, so callers reach it through a module attribute
#: (``pipeline.run_job``), never through a name bound outside ``repro``
FUNCTIONS: list[tuple[str, Callable[..., Any], bool, OnResult | None]] = [
    ("pipeline.run_job", run_job, False, None),
    ("analyze.triage", triage, False, _count_triage),
    ("verify.necsuf", verify, False, None),
    ("verify.duato", search_escape, False, None),
    ("verify.dally_seitz", dally_seitz, False, None),
    ("core.cycles", find_cycles, True, None),
    ("core.cycles", find_one_cycle, True, None),
]

#: (name, class, attribute, leaf, result hook) -- patched on the class
METHODS: list[tuple[str, type, str, bool, OnResult | None]] = [
    ("core.cwg", ChannelWaitingGraph, "__init__", False, _count_cwg),
    ("core.transitions", DestinationTransitions, "__init__", False, None),
    ("deps.cdg", ChannelDependencyGraph, "__init__", False, None),
    ("deps.ecdg", ExtendedChannelDependencyGraph, "__init__", False, None),
    ("core.deadlock_search", TrueCycleSearch, "search", False, _count_search),
    ("core.deadlock_search", AnyWaitConfigSearch, "search", False, _count_search),
    ("core.reduction", CWGReducer, "run", False, None),
    ("incremental.apply", IncrementalSession, "apply", False, None),
    ("incremental.check", IncrementalSession, "check", False, None),
    ("sim.traffic", BernoulliTraffic, "messages_for_cycle", True, _count_messages),
    ("sim.deadlock", DeadlockDetector, "check", True, None),
]

ROUTE = "routing.relation.route"


def _relation_classes() -> Iterator[type]:
    """Every loaded relation class that defines its own concrete ``route``."""
    todo = [RoutingAlgorithm]
    seen: set[type] = set()
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
                fn = sub.__dict__.get("route")
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    yield sub


class Tracer:
    """Span stack, per-name totals, counters and the Chrome trace events."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        #: spans as (name, start, duration), perf_counter seconds
        self.events: list[tuple[str, float, float]] = []
        #: open spans as [name, seconds spent in their children]
        self._stack: list[list[Any]] = []
        #: leaf name -> [inside a call]: a wrapper relation delegating to its
        #: inner relation's route is one call, not two
        self._busy: dict[str, list[bool]] = {}
        self._origin = time.perf_counter()
        self._patches: list[tuple[Any, str, Any]] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _total(self, name: str) -> list[float]:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def _close(self, frame: list[Any], start: float) -> None:
        dur = time.perf_counter() - start
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += dur
        tot = self._total(frame[0])
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame[1]
        self.events.append((frame[0], start, dur))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own code."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start)

    def _wrap_span(self, name: str, fn: Callable[..., Any],
                   on_result: OnResult | None) -> Callable[..., Any]:
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, start)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def _wrap_leaf(self, name: str, fn: Callable[..., Any],
                   on_result: OnResult | None) -> Callable[..., Any]:
        stack = self._stack
        tot = self._total(name)
        busy = self._busy.setdefault(name, [False])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                busy[0] = False
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Wrap every entry point for the duration of the block."""
        try:
            for name, fn, leaf, on_result in FUNCTIONS:
                wrapper = (self._wrap_leaf if leaf else self._wrap_span)(name, fn, on_result)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
            methods = list(METHODS)
            methods += [(ROUTE, cls, "route", True, None) for cls in _relation_classes()]
            for name, cls, attr, leaf, on_result in methods:
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                wrap = self._wrap_leaf if leaf else self._wrap_span
                setattr(cls, attr, wrap(name, original, on_result))
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # ------------------------------------------------------------------
    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, [0, 0.0, 0.0])[0])

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of one traced pass."""
        c = self.counters
        triage_calls = self.calls("analyze.triage")
        return {
            "analyze.triage_s": self.total_s("analyze.triage"),
            "analyze.triage_decided_ratio":
                c.get("analyze.triage_decided", 0) / triage_calls if triage_calls else 0.0,
            "verify.necsuf.self_s": self.self_s("verify.necsuf"),
            "verify.duato.self_s": self.self_s("verify.duato"),
            "verify.dally_seitz.self_s": self.self_s("verify.dally_seitz"),
            "deps.ecdg.self_s": self.self_s("deps.ecdg"),
            "deps.cdg.self_s": self.self_s("deps.cdg"),
            "core.cwg.self_s": self.self_s("core.cwg"),
            "core.cwg.edges": c.get("core.cwg.edges", 0),
            "core.transitions.self_s": self.self_s("core.transitions"),
            "core.transitions.dest_builds": self.calls("core.transitions"),
            "core.deadlock_search.self_s": self.self_s("core.deadlock_search"),
            "core.deadlock_search.nodes": c.get("core.deadlock_search.nodes", 0),
            "core.deadlock_search.budget_exhausted":
                c.get("core.deadlock_search.budget_exhausted", 0),
            "core.reduction.self_s": self.self_s("core.reduction"),
            "core.cycles.self_s": self.self_s("core.cycles"),
            "routing.relation.route_calls": self.calls(ROUTE),
            "routing.relation.route_s": self.total_s(ROUTE),
            "incremental.apply_s": self.total_s("incremental.apply"),
            "incremental.check_s": self.total_s("incremental.check"),
            "sim.engine.self_s": self.self_s("sim.engine"),
            "sim.deadlock.self_s": self.self_s("sim.deadlock"),
            "sim.deadlock.checks": self.calls("sim.deadlock"),
            "sim.traffic.self_s": self.self_s("sim.traffic"),
            "sim.traffic.messages": c.get("sim.traffic.messages", 0),
        }

    def write_chrome_trace(self, path: Path, metadata: dict[str, Any]) -> None:
        """Chrome trace-event JSON (opens in Perfetto and chrome://tracing)."""
        events: list[dict[str, Any]] = [
            {"name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - self._origin) * 1e6, "dur": dur * 1e6}
            for name, start, dur in self.events
        ]
        events.append({"name": "process_name", "ph": "M", "pid": 1,
                       "args": {"name": f"bench {metadata.get('workload', '')}"}})
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                **metadata,
                "calls": {
                    name: {"calls": int(t[0]), "total_s": t[1], "self_s": t[2]}
                    for name, t in sorted(self.totals.items())
                },
                "counters": dict(sorted(self.counters.items())),
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")


@contextmanager
def traced(tracer: Tracer | None) -> Iterator[None]:
    """Install ``tracer``, if any, around the loop of a pass's operations.

    Work a pass does before its loop (building a simulator, restoring
    sessions) stays outside.
    """
    if tracer is None:
        yield
        return
    with tracer.installed():
        yield
