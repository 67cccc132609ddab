"""The process-wide collector: typed metrics plus the structured stream.

One :class:`Collector` is created per container run (before the kernel
boots) and shared by every layer — kernel dispatch, the DetTrace tracer,
the reproducible scheduler, the fault injector.  It has two tiers:

* **aggregates** (counters, gauges, histograms, the phase profile) —
  always on; cheap, bounded memory, and deterministic, so every
  :class:`~repro.core.container.ContainerResult` carries metrics;

* **the event stream** (structured :class:`~repro.obs.events.ObsEvent`
  instants and tracer :class:`~repro.obs.trace.Span` records) — gated by
  ``ContainerConfig.observe`` (or ``debug`` for the compatibility debug
  log), because it grows with the run.

The collector is passive: it never reads clocks, never seeds randomness,
and never charges virtual time, so enabling or disabling it cannot
perturb the observed run (the observer-effect invariant, enforced by
``tests/obs`` and ``tests/properties/test_obs_props.py``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from .events import DEBUG, ObsEvent
from .profiler import PhaseProfile
from .trace import Span, TraceLog

#: Counter keys are tuples of strings, e.g. ("syscall", "read",
#: "passthrough") or ("fault", "eio").
CounterKey = Union[str, Tuple[str, ...]]


def _key(key: CounterKey) -> Tuple[str, ...]:
    return (key,) if isinstance(key, str) else tuple(key)


def _bucket(value: float) -> int:
    """Deterministic power-of-two histogram bucket (ceiling exponent)."""
    if value <= 0:
        return 0
    exp = 0
    bound = 1
    while bound < value:
        bound <<= 1
        exp += 1
    return exp


class Collector:
    """Typed counters, gauges, histograms, spans and events for one run."""

    def __init__(self, trace: bool = False, debug: int = 0):
        #: Record the structured event stream (spans + instants)?
        self.trace_enabled = bool(trace)
        #: Debug verbosity for the rendered-string compatibility view.
        self.debug_level = int(debug)
        self.counters: Dict[Tuple[str, ...], int] = {}
        #: Peak-tracked gauges (e.g. scheduler queue occupancy).
        self.gauges: Dict[str, float] = {}
        #: name -> {power-of-two bucket exponent -> count}.
        self.histograms: Dict[str, Dict[int, int]] = {}
        self.profile = PhaseProfile()
        self.events: List[ObsEvent] = []
        self.spans: List[Span] = []
        self.debug_events: List[ObsEvent] = []

    # -- aggregates (always on) ----------------------------------------

    def count(self, key: CounterKey, n: int = 1) -> None:
        k = key if type(key) is tuple else _key(key)
        self.counters[k] = self.counters.get(k, 0) + n

    def gauge_max(self, name: str, value: float) -> None:
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.setdefault(name, {})
        bucket = _bucket(value)
        hist[bucket] = hist.get(bucket, 0) + 1

    def charge(self, phase: str, seconds: float) -> None:
        self.profile.charge(phase, seconds)

    # -- the event stream (gated) --------------------------------------

    def record(self, event: ObsEvent) -> None:
        if self.trace_enabled:
            self.events.append(event)

    def span(self, span: Span) -> None:
        if self.trace_enabled:
            self.spans.append(span)

    def debug(self, level: int, event: ObsEvent) -> None:
        """Record a debug-gated event (the --debug N compatibility view)."""
        if self.debug_level >= level:
            self.debug_events.append(event)

    # -- views ---------------------------------------------------------

    def render_debug(self) -> List[str]:
        """The historical ``--debug`` string lines, rendered on demand."""
        return ["[pid %d] %s" % (ev.pid, ev.detail or ev.name)
                for ev in self.debug_events]

    def trace_log(self) -> TraceLog:
        return TraceLog(self.events, self.spans)

    def tail_events(self, limit: int = 32) -> List[ObsEvent]:
        """The newest *limit* structured events (crash forensics)."""
        return self.events[-limit:]


#: A shared do-nothing-visible collector for components created outside a
#: container run (aggregates still accumulate but are never surfaced).
def null_collector() -> Collector:
    return Collector(trace=False, debug=0)


# Re-export for collector-centric call sites.
DEBUG_KIND = DEBUG
