"""The DetTrace tracer: determinization driven by the reproducible scheduler.

This object is the shaded box of the paper's Figure 2: it sits between
the unmodified guest processes and the unmodified kernel, intercepting
syscalls (via the ptrace analog, filtered by seccomp) and irreproducible
instructions (via hardware trap support), and servicing them in the
deterministic order chosen by the three-queue scheduler of §5.6.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..cpu import instructions as insn
from ..kernel.costs import (
    EXECVE_TRACER_COST,
    INSTR_TRAP_COST,
    TRACEE_WAKEUP_LATENCY,
    TRACER_HANDLER_COST,
    TRACER_REPLAY_COST,
    TRACER_SCHED_COST,
)
from ..kernel.process import Process, Thread
from ..kernel.types import CpuidResult
from ..obs.collector import _bucket
from ..obs.events import DEBUG, TRAP, ObsEvent
from ..obs.profiler import HANDLER, INTERCEPTION, SCHEDULER
from ..obs.trace import Span
from ..tracer.ptrace import TracerBase
from ..tracer.seccomp import SeccompFilter
from .config import ContainerConfig
from .errors import BusyWaitError
from .handlers import HandlerContext, build_handler_table, passthrough
from .inode_table import InodeTable
from .logical_time import LogicalClock
from .namespaces import UidGidMap
from .prng import Lfsr
from .scheduler import SERVICE, WAIT, make_scheduler

_NEG_INF = float("-inf")

#: What cpuid reports inside the container: a canonical uniprocessor with
#: no TSX and no hardware randomness (§5.8).
CANONICAL_CPUID = CpuidResult(
    vendor="GenuineIntel",
    brand="DetTrace Virtual CPU @ 1.00GHz",
    family=6,
    model=0,
    cores=1,
    features=["avx"],
)


class DetTraceTracer(TracerBase):
    """Determinizing tracer over one simulated kernel."""

    def __init__(self, config: ContainerConfig, uidmap: UidGidMap):
        super().__init__()
        self.config = config
        self.uidmap = uidmap
        self.prng = Lfsr(config.prng_seed)
        self.logical = LogicalClock(config.epoch)
        self.inodes = InodeTable()
        self.handlers = build_handler_table()
        #: Cross-retry handler scratch (partial IO accumulation).
        self.io_state: Dict[Tuple[str, int], Any] = {}
        self._pumping = False
        self._last_proc: Process = None
        self.sched = None  # set in attach
        #: Hot-path dispatch caches.  The handler table is frozen after
        #: construction, so name -> handler (with the passthrough default
        #: applied) memoizes the two-step lookup; HandlerContext binds
        #: only (tracer, thread), so one context per thread is reused
        #: across every service instead of allocated per syscall.
        self._handler_cache: Dict[str, Any] = {}
        self._ctx_cache: Dict[Thread, HandlerContext] = {}
        #: Threads whose service or probe failed since the current
        #: pump's last success (None until the first failure).
        self._failed = None
        #: The known-fail hook handed to every ``next_action``.
        self._known_fail_hook = None

    @property
    def debug_log(self) -> list:
        """--debug N trace lines, rendered from the structured events
        (see ContainerConfig.debug and repro.obs)."""
        return self.obs.render_debug()

    def attach(self, kernel) -> None:
        super().attach(kernel)
        self.seccomp = SeccompFilter(
            enabled=self.config.use_seccomp,
            kernel_version=kernel.host.machine.kernel_version)
        self.sched = make_scheduler(self.config.scheduler)
        self._known_fail_hook = self._known_fail

    # ------------------------------------------------------------------
    # instruction interception (§5.8)
    # ------------------------------------------------------------------

    def traps_instruction(self, thread: Thread, name: str) -> bool:
        machine = self.kernel.host.machine
        if name in (insn.RDTSC, insn.RDTSCP):
            return self.config.trap_rdtsc
        if name == insn.CPUID:
            return (self.config.mask_cpuid and machine.cpuid_faulting
                    and machine.kernel_version_at_least(4, 12))
        if name == insn.RDPMC:
            return True
        return False

    def on_instruction(self, thread: Thread, name: str) -> Tuple[Any, float]:
        finish = self.charge(INSTR_TRAP_COST, INTERCEPTION)
        nspid = thread.process.nspid
        obs = self.obs
        obs.count(("trap", name))
        if obs.trace_enabled:
            obs.record(ObsEvent(vts=thread.det_clock, pid=nspid, index=-1,
                                kind=TRAP, name=name))
        if obs.debug_level >= 2:
            obs.debug(2, ObsEvent(vts=thread.det_clock, pid=nspid, index=-1,
                                  kind=DEBUG, name=name,
                                  detail="trap %s" % name))
        if name in (insn.RDTSC, insn.RDTSCP):
            self.counters.rdtsc_intercepted += 1
            return (self.logical.next_rdtsc(thread.process.pid), finish)
        if name == insn.CPUID:
            self.counters.cpuid_intercepted += 1
            return (CANONICAL_CPUID, finish)
        if name == insn.RDPMC:
            return (0, finish)
        raise AssertionError("trapped un-trappable instruction %r" % name)

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    def on_process_spawn(self, proc: Process) -> None:
        self.counters.process_spawns += 1
        self.sched.add(proc.main_thread)

    def on_thread_spawn(self, thread: Thread) -> None:
        self.sched.add(thread)

    def on_thread_exit(self, thread: Thread) -> None:
        self.sched.remove(thread)
        self._ctx_cache.pop(thread, None)

    def on_thread_killed(self, thread: Thread) -> None:
        self.sched.note_killed(thread)
        self._ctx_cache.pop(thread, None)

    def on_process_exit(self, proc: Process) -> None:
        for thread in proc.threads:
            self.sched.remove(thread)
            self._ctx_cache.pop(thread, None)
        self.logical.forget_process(proc.pid)

    def on_execve(self, proc: Process) -> None:
        """Rewrite the fresh image's vDSO and allocate the scratch page
        (§5.3, §5.10)."""
        if self.config.patch_vdso:
            proc.vdso_patched = True
            self.counters.vdso_patches += 1
            self.charge(EXECVE_TRACER_COST, HANDLER)
            self.charge(self.poke_memory(8))

    def on_busy_wait(self, thread: Thread) -> None:
        raise BusyWaitError(thread.process.nspid, thread.tid)

    # ------------------------------------------------------------------
    # the scheduling pump (§5.6)
    # ------------------------------------------------------------------

    def on_trace_stop(self, thread: Thread) -> None:
        self.counters.syscall_events += 1
        self.sched.notify_stop(thread)
        self._pump()

    def on_thread_progress(self, thread: Thread) -> None:
        # A running thread raised its deterministic bound; a stopped
        # candidate may have become eligible — unless the scheduler
        # knows its last WAIT verdict still holds.
        if not self.sched.notify_bound(thread):
            self._pump()

    def on_token_granted(self, thread: Thread) -> None:
        # The thread re-enters the running set *now*; incremental
        # schedulers must see its bound again before the next decision
        # (its next stop/progress hook may come only after unintercepted
        # work has already advanced the clock).
        self.sched.notify_running(thread)

    def on_quiescent(self) -> bool:
        return self._pump()

    def _pump(self) -> bool:
        """Service/probe stopped threads in the deterministic order.

        A thread offered again after failing in this pump (an epoch bump
        without a success re-armed it) ends the pump; probes settled by
        the known-fail hook count as failures too (``_failed``)."""
        if self._pumping:
            return False
        self._pumping = True
        self._failed = None
        progress = False
        next_action = self.sched.next_action
        known_fail = self._known_fail_hook
        try:
            while True:
                action, thread = next_action(known_fail)
                if action == WAIT:
                    break
                failed = self._failed
                if failed is not None and thread in failed:
                    break
                if action == SERVICE:
                    ok = self._service(thread)
                else:
                    ok = self._probe(thread)
                if ok:
                    progress = True
                    self._failed = None
                elif failed is None:
                    self._failed = {thread}
                else:
                    failed.add(thread)
        finally:
            self._pumping = False
        return progress

    # ------------------------------------------------------------------
    # servicing one syscall
    # ------------------------------------------------------------------

    def _run_handler(self, thread: Thread):
        call = thread.current_syscall
        handler = self._handler_cache.get(call.name)
        if handler is None:
            handler = self.handlers.get(call.name, passthrough)
            self._handler_cache[call.name] = handler
        ctx = self._ctx_cache.get(thread)
        if ctx is None:
            ctx = HandlerContext(self, thread)
            self._ctx_cache[thread] = ctx
        return handler(ctx, thread, call)

    def _service(self, thread: Thread) -> bool:
        # The context-switch, stop and handler charges, inlined: the
        # same float additions in the same order as three ``charge``
        # calls (the clock cannot move in between, and after the first
        # addition ``busy`` is already past ``now``).
        now = self.kernel.clock.now
        busy = self.busy_until
        if busy <= now:
            busy = now
        span = 0.0
        totals = self.obs.profile.totals
        if thread.process is not self._last_proc:
            self.counters.sched_requests += 1
            self.obs.count(("sched", "context_switch"))
            busy += TRACER_SCHED_COST
            span += TRACER_SCHED_COST
            totals[SCHEDULER] = totals.get(SCHEDULER, 0.0) + TRACER_SCHED_COST
            self._last_proc = thread.process
        stop_cost = self.seccomp.stop_cost
        self.busy_until = busy + stop_cost + TRACER_HANDLER_COST
        self._span_cost = span + stop_cost + TRACER_HANDLER_COST
        totals[INTERCEPTION] = totals.get(INTERCEPTION, 0.0) + stop_cost
        totals[HANDLER] = totals.get(HANDLER, 0.0) + TRACER_HANDLER_COST
        thread.obs_attempt += 1
        outcome, payload = self._run_handler(thread)
        if self.config.debug:
            self._debug_line(thread, outcome, payload)
        if outcome == "block":
            self.counters.replays_blocking += 1
            self.charge(TRACER_REPLAY_COST, SCHEDULER)
            self._emit_span(thread, outcome)
            self.sched.still_blocked(thread)
            self.kernel.release_step_token(thread)
            return False
        self._emit_span(thread, outcome)
        self._complete(thread, outcome, payload)
        return True

    def _debug_line(self, thread: Thread, outcome: str, payload) -> None:
        call = thread.current_syscall
        args = ", ".join("%s=%.40r" % kv for kv in sorted(call.args.items()))
        shown = payload
        if isinstance(shown, bytes) and len(shown) > 24:
            shown = shown[:24] + b"..."
        self.obs.debug(1, ObsEvent(
            vts=thread.det_clock, pid=thread.process.nspid,
            index=thread.current_syscall_index, kind=DEBUG, name=call.name,
            detail="%s(%s) -> %s %.60r" % (call.name, args, outcome, shown)))

    def _disposition(self, thread: Thread, call) -> str:
        """Classify how this completed instance was determinized
        (repro.obs)."""
        if thread.obs_faulted:
            return "injected"
        return "rewritten" if call.name in self.handlers else "passthrough"

    def _emit_span(self, thread: Thread, outcome: str) -> None:
        """One trace span per service/probe, keyed only on deterministic
        coordinates: det_clock, nspid, per-process index, attempt.  The
        span object is built only when the trace is recorded."""
        call = thread.current_syscall
        if call is None:
            return
        obs = self.obs
        if outcome == "block":
            if obs.trace_enabled:
                self._record_span(thread, call, "blocked")
            return
        disposition = self._disposition(thread, call)
        if obs.trace_enabled:
            self._record_span(thread, call, disposition)
        # Count each instance once, at its completing attempt (straight
        # into the counter dict: this runs once per serviced syscall).
        key = ("syscall", call.name, disposition)
        counters = obs.counters
        counters[key] = counters.get(key, 0) + 1
        thread.obs_faulted = False

    def _record_span(self, thread: Thread, call, disposition: str) -> None:
        self.obs.span(Span(
            name=call.name, cat=disposition, pid=thread.process.nspid,
            tid=self.kernel.det_tid(thread), vts=thread.det_clock,
            dur=self._span_cost, index=thread.current_syscall_index,
            attempt=thread.obs_attempt))

    def _known_fail(self, thread: Thread) -> bool:
        """Settle a probe of *thread* known to fail; True if settled.

        Known to fail: ``--debug`` is off, the handler is ``passthrough``
        (it adds nothing around the body) and the block stamp still
        holds (``Kernel.unchanged_block``, called through the kernel
        object).  A step-token holder is declined, which makes the
        skipped token release a no-op; so is a thread that already
        failed in this pump, which then ends the pump.  Settling does a
        re-run probe's bookkeeping in its order — span reset,
        ``TRACER_REPLAY_COST``, attempt, ``replays_blocking``, blocked
        span — and leaves the caller only ``still_blocked``.
        ``next_action`` calls this as its hook; ``_probe`` calls it for
        schedulers that ignore the hook.
        """
        failed = self._failed
        call = thread.current_syscall
        if (thread.block_stamp is None or self.config.debug
                or (failed is not None and thread in failed)
                or self._handler_cache.get(call.name) is not passthrough
                or getattr(thread.process, "_step_token", None) is thread
                or self.kernel.unchanged_block(thread, call) is None):
            return False
        # A fresh span charged TRACER_REPLAY_COST, inlined as in _service.
        now = self.kernel.clock.now
        busy = self.busy_until
        self.busy_until = (busy if busy > now else now) + TRACER_REPLAY_COST
        self._span_cost = TRACER_REPLAY_COST
        totals = self.obs.profile.totals
        totals[SCHEDULER] = totals.get(SCHEDULER, 0.0) + TRACER_REPLAY_COST
        thread.obs_attempt += 1
        self.counters.replays_blocking += 1
        if self.obs.trace_enabled:
            self._record_span(thread, call, "blocked")
        if failed is None:
            self._failed = {thread}
        else:
            failed.add(thread)
        return True

    def _probe(self, thread: Thread) -> bool:
        """Re-try a blocked thread's syscall; True if it completed."""
        if self._known_fail(thread):
            self.sched.still_blocked(thread)
            return False
        self.begin_span()
        self.charge(TRACER_REPLAY_COST, SCHEDULER)
        thread.obs_attempt += 1
        outcome, payload = self._run_handler(thread)
        if outcome != "block":
            self._emit_span(thread, outcome)
            self._complete(thread, outcome, payload)
            return True
        self.counters.replays_blocking += 1
        self._emit_span(thread, outcome)
        self.sched.still_blocked(thread)
        self.kernel.release_step_token(thread)
        return False

    def _complete(self, thread: Thread, outcome: str, payload) -> None:
        # Advance the scheduler's service epoch even for exits: an exit is
        # a state change that can unblock wait4 probes.
        sched = self.sched
        sched.completed(thread)
        # Collector.observe and gauge_max, inlined (once per completed
        # syscall).  Read through self.obs, never cached: a restore
        # replaces the collector.
        obs = self.obs
        blocked = sched.blocked_count()
        hist = obs.histograms.get("sched/blocked")
        if hist is None:
            hist = obs.histograms["sched/blocked"] = {}
        bucket = _bucket(blocked)
        hist[bucket] = hist.get(bucket, 0) + 1
        gauges = obs.gauges
        if blocked > gauges.get("sched/blocked_peak", _NEG_INF):
            gauges["sched/blocked_peak"] = blocked
        live = sched.live_count()
        if live > gauges.get("sched/threads_peak", _NEG_INF):
            gauges["sched/threads_peak"] = live
        if outcome == "exited":
            # terminate_process already removed the thread from the
            # scheduler via the exit hooks; nothing to resume.
            return
        # Resume eagerly at the tracer's finish time so the thread's next
        # operation (and hence its deterministic bound) is committed
        # immediately; the context-switch-back latency is owed as wall
        # time on its next compute segment instead.  Without this, the
        # deterministic service order would convoy on wakeup latency.
        thread.pending_latency += TRACEE_WAKEUP_LATENCY
        if outcome == "value":
            self.kernel.tracer_resume(thread, self.busy_until, value=payload)
        elif outcome == "error":
            self.kernel.tracer_resume(thread, self.busy_until, exc=payload)
        elif outcome == "execve":
            self.kernel.tracer_execve(thread, payload, at=self.busy_until)
        elif outcome == "sleep":
            # Timer emulation disabled: let virtual time pass, then return.
            at = max(self.busy_until, self.kernel.clock.now + payload)
            self.kernel.tracer_resume(thread, at, value=0)
        else:
            raise AssertionError("unknown outcome %r" % outcome)
