"""The ptrace analog: base class for tracers over the simulated kernel.

The kernel delivers stops by calling the ``on_*`` hooks; a tracer services
stops through the kernel's ``tracer_execute``/``tracer_resume`` surface.
Like the real ptrace tracer, this object is a *single-threaded process*:
every event it services occupies its serial timeline, which is what makes
interception overhead proportional to event rate.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..kernel.costs import TRACER_MEMORY_OP_COST
from ..kernel.ops import Syscall
from ..kernel.process import Process, Thread
from ..obs.collector import Collector
from ..obs.profiler import INTERCEPTION
from .events import TraceCounters
from .seccomp import SeccompFilter


class TracerBase:
    """Common machinery for DetTrace and the record-and-replay baseline."""

    def __init__(self, seccomp: Optional[SeccompFilter] = None):
        self.kernel = None
        self.seccomp = seccomp or SeccompFilter(enabled=False)
        self.counters = TraceCounters()
        #: Serial tracer timeline: we are busy until this virtual time.
        self.busy_until = 0.0
        #: Observability collector; replaced by the kernel's on attach.
        self.obs = Collector()
        #: Deterministic cost accrued since the current span began (sums
        #: only fixed cost constants, so it is jitter-free).
        self._span_cost = 0.0

    # -- lifecycle ---------------------------------------------------------

    def attach(self, kernel) -> None:
        self.kernel = kernel
        kernel.attach_tracer(self)
        self.obs = kernel.obs

    # -- serial timeline -----------------------------------------------------

    def charge(self, cost: float, phase: Optional[str] = None) -> float:
        """Occupy the tracer for *cost* seconds; returns the finish time.

        *phase* attributes the cost in the virtual-time profiler
        (interception/handler/scheduler/fs — repro.obs.profiler).  The
        profile total is accumulated here directly, exactly as
        ``Collector.charge`` would: this runs several times per syscall.
        """
        now = self.kernel.clock.now
        busy = self.busy_until
        self.busy_until = busy = (busy if busy > now else now) + cost
        self._span_cost += cost
        if phase is not None:
            totals = self.obs.profile.totals
            totals[phase] = totals.get(phase, 0.0) + cost
        return busy

    def begin_span(self) -> None:
        """Reset the deterministic cost accumulator for a new span."""
        self._span_cost = 0.0

    def peek_memory(self, words: int = 1) -> float:
        """Account for reading tracee memory; returns the time cost."""
        self.counters.memory_reads += words
        self.obs.charge(INTERCEPTION, words * TRACER_MEMORY_OP_COST)
        return words * TRACER_MEMORY_OP_COST

    def poke_memory(self, words: int = 1) -> float:
        self.counters.memory_writes += words
        self.obs.charge(INTERCEPTION, words * TRACER_MEMORY_OP_COST)
        return words * TRACER_MEMORY_OP_COST

    # -- kernel-facing hooks (defaults) -----------------------------------------

    def intercepts(self, thread: Thread, call: Syscall) -> bool:
        return self.seccomp.intercepts(call.name)

    def traps_instruction(self, thread: Thread, name: str) -> bool:
        return False

    def on_instruction(self, thread: Thread, name: str) -> Tuple[Any, float]:
        raise NotImplementedError

    def on_trace_stop(self, thread: Thread) -> None:
        raise NotImplementedError

    def on_process_spawn(self, proc: Process) -> None:
        self.counters.process_spawns += 1

    def on_thread_spawn(self, thread: Thread) -> None:
        pass

    def on_thread_exit(self, thread: Thread) -> None:
        pass

    def on_thread_killed(self, thread: Thread) -> None:
        """A sibling thread was torn down by execve: it is dead, but no
        ``on_thread_exit``/``on_process_exit`` will report it."""
        pass

    def on_thread_progress(self, thread: Thread) -> None:
        """A running thread committed to more compute (its deterministic
        lower bound rose); schedulers that gate on bounds re-evaluate."""
        pass

    def on_token_granted(self, thread: Thread) -> None:
        """The thread-serialization step token passed to *thread*: it is
        about to run again after queueing (§5.7).  Schedulers that keep
        an incremental index of the running set re-admit it here."""
        pass

    def on_process_exit(self, proc: Process) -> None:
        pass

    def on_execve(self, proc: Process) -> None:
        pass

    def on_busy_wait(self, thread: Thread) -> None:
        """Called when a thread exceeds the busy-wait compute budget."""
        raise NotImplementedError

    def on_quiescent(self) -> bool:
        """The kernel ran out of events; return True if we made progress."""
        return False
