"""The deterministic fault injector.

One :class:`FaultInjector` is installed per kernel boot (see
:meth:`repro.kernel.kernel.Kernel.install_faults`).  The kernel consults
it at exactly two choke points:

* **syscall dispatch** (:meth:`on_dispatch`) — called once per syscall
  *instance*, at the moment the per-process syscall index is assigned.
  The injector decides then and there — from the deterministic
  coordinates only — whether this instance is faulted, and arms the
  decision on the thread.  The syscall table consumes the armed decision
  on the instance's first execution (:meth:`consume`), so tracer probes
  and partial-IO retries of the *same* instance never re-fire it.

* **the filesystem** (:meth:`disk_charge`) — ``charge_disk`` asks the
  injector for the active ``disk_full`` cap, keyed on cumulative bytes
  written: a deterministic coordinate, unlike real free-space probes.

Every firing is appended to :attr:`trace` (the "fault trace" of crash
reports) and counted on the attached :class:`TraceCounters`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..kernel.errors import Errno, SyscallError
from ..obs.events import FAULT, NO_VTS, ObsEvent
from .plan import (
    DISK_FULL_FAULT,
    ERRNO_FAULTS,
    KILL_FAULT,
    SHORT_IO_FAULTS,
    SIGNAL_FAULT,
    FaultPlan,
    FaultRule,
)

#: args keys that name container paths (for path_prefix matching).
_PATH_ARGS = ("path", "old", "new", "target", "linkpath")


class KilledAtTick(RuntimeError):
    """An injected ``kill`` fault crashed the run at a fixed event tick
    (the deterministic stand-in for an OOM-kill or host preemption)."""

    def __init__(self, tick: int):
        super().__init__("run killed at event tick %d (injected)" % tick)
        self.tick = tick


class ArmedFault:
    """A fault decision bound to one specific syscall instance."""

    __slots__ = ("rule", "pid", "index", "syscall")

    def __init__(self, rule: FaultRule, pid: int, index: int, syscall: str):
        self.rule = rule
        self.pid = pid
        self.index = index
        self.syscall = syscall


class FaultInjector:
    """Consults a :class:`FaultPlan` at deterministic coordinates."""

    def __init__(self, plan: FaultPlan, attempt: int = 0):
        self.plan = plan
        self.attempt = attempt
        #: Per-(rule position, container pid) firing counts.
        self._fired: Dict[Tuple[int, int], int] = {}
        #: Chronological record of every injection: the fault trace.
        self.trace: List[Dict[str, Any]] = []
        #: Did any transient-classified rule fire this run?
        self.transient_fired = False
        #: TraceCounters of the attached tracer (None under NativeRunner).
        self.counters = None
        #: The run's observability collector (repro.obs); None until the
        #: container wires it in.
        self.obs = None

    # ------------------------------------------------------------------
    # syscall dispatch consult
    # ------------------------------------------------------------------

    def on_dispatch(self, kernel, thread, call, index: int,
                    vts: float = NO_VTS) -> None:
        """Arm any fault for the syscall instance at coordinate
        (process, *index*); deliver signal-storm rules immediately.

        *vts* is the instance's deterministic timestamp, threaded through
        to the structured fault events so crash forensics and traces
        share coordinates.
        """
        proc = thread.process
        thread.armed_fault = None
        thread.obs_faulted = False
        for pos, rule in enumerate(self.plan):
            if rule.fault in (DISK_FULL_FAULT, KILL_FAULT):
                # Consulted elsewhere: disk_full by the filesystem,
                # kill by the event loop.
                continue
            if not self._matches(rule, pos, proc, call, index):
                continue
            if rule.fault == SIGNAL_FAULT:
                # Signal storms fire independently of (and in addition
                # to) any syscall-level fault.
                self._record(rule, pos, proc.nspid, index, call.name, vts=vts)
                kernel.deliver_signal(proc, rule.signum)
                continue
            if thread.armed_fault is None:
                self._record(rule, pos, proc.nspid, index, call.name, vts=vts)
                thread.armed_fault = ArmedFault(rule, proc.nspid, index, call.name)
                thread.obs_faulted = True

    def _matches(self, rule: FaultRule, pos: int, proc, call, index: int) -> bool:
        if not rule.active_on_attempt(self.attempt):
            return False
        if rule.pid is not None and rule.pid != proc.nspid:
            return False
        names = rule.names()
        if names is not None and call.name not in names:
            return False
        if not rule.in_window(index, self._fired.get((pos, proc.nspid), 0)):
            return False
        if rule.path_prefix is not None and not self._path_matches(rule, proc, call):
            return False
        return True

    def _path_matches(self, rule: FaultRule, proc, call) -> bool:
        """Match the rule's path prefix against the call's path arguments
        (lexically, against the process's cwd) or, for fd-based calls,
        against the path the descriptor was opened with."""
        from ..kernel.filesystem import normalize

        prefix = rule.path_prefix
        for key in _PATH_ARGS:
            path = call.args.get(key)
            if not isinstance(path, str):
                continue
            abspath = normalize(path if path.startswith("/")
                                else proc.cwd_path + "/" + path)
            if abspath.startswith(prefix):
                return True
        fd = call.args.get("fd")
        if isinstance(fd, int) and proc.fdtable.has(fd):
            of_path = proc.fdtable.get(fd).path
            if of_path and of_path.startswith(prefix):
                return True
        return False

    def _record(self, rule: FaultRule, pos: int, nspid: int, index: int,
                syscall: str, vts: float = NO_VTS) -> None:
        key = (pos, nspid)
        self._fired[key] = self._fired.get(key, 0) + 1
        if rule.transient:
            self.transient_fired = True
        self.trace.append({
            "pid": nspid,
            "index": index,
            "syscall": syscall,
            "fault": rule.fault,
            "rule": pos,
        })
        if self.counters is not None:
            self.counters.faults_injected += 1
            if rule.fault == SIGNAL_FAULT:
                self.counters.signals_injected += 1
            elif rule.fault in SHORT_IO_FAULTS:
                self.counters.short_io_injected += 1
        if self.obs is not None:
            self.obs.count(("fault", rule.fault))
            if self.obs.trace_enabled:
                self.obs.record(ObsEvent(vts=vts, pid=nspid, index=index,
                                         kind=FAULT, name=rule.fault,
                                         detail="%s rule=%d" % (syscall, pos)))

    # ------------------------------------------------------------------
    # syscall execution consult (the armed decision)
    # ------------------------------------------------------------------

    def consume(self, thread, call):
        """Apply any fault armed for this syscall instance.

        Returns the (possibly rewritten) call.  Raises
        :class:`SyscallError` for errno faults.  Consuming clears the
        armed slot, so retries of the same instance run unfaulted.
        """
        armed: Optional[ArmedFault] = getattr(thread, "armed_fault", None)
        if armed is None:
            return call
        thread.armed_fault = None
        rule = armed.rule
        err = rule.errno
        if err is not None:
            raise SyscallError(err, call.name, "fault injected at #%d" % armed.index)
        if rule.fault == "short_read":
            count = call.args.get("count")
            if isinstance(count, int) and count > rule.keep_bytes:
                args = dict(call.args)
                args["count"] = max(1, rule.keep_bytes)
                return type(call)(call.name, args)
            return call
        if rule.fault == "short_write":
            data = call.args.get("data")
            if isinstance(data, str):
                data = data.encode()
            if isinstance(data, (bytes, bytearray)) and len(data) > rule.keep_bytes:
                args = dict(call.args)
                args["data"] = bytes(data[:max(1, rule.keep_bytes)])
                return type(call)(call.name, args)
            return call
        return call

    # ------------------------------------------------------------------
    # event-loop consult (kill faults)
    # ------------------------------------------------------------------

    def next_kill_tick(self) -> Optional[int]:
        """The event tick at which an active kill rule crashes this
        attempt, or None."""
        return self.plan.kill_tick(self.attempt)

    def record_kill(self, tick: int) -> None:
        """Bookkeeping for a kill firing (the kernel raises the crash)."""
        for pos, rule in enumerate(self.plan):
            if (rule.fault == KILL_FAULT and rule.at_tick == tick
                    and rule.active_on_attempt(self.attempt)):
                self._record(rule, pos, 0, tick, "<event-loop>")
                break

    # ------------------------------------------------------------------
    # filesystem consult
    # ------------------------------------------------------------------

    def disk_charge(self, bytes_written: int) -> None:
        """Filesystem hook: raise ENOSPC past any active disk_full cap."""
        cap = self.plan.disk_cap(self.attempt)
        if cap is None or bytes_written <= cap:
            return
        for pos, rule in enumerate(self.plan):
            if rule.fault == DISK_FULL_FAULT and rule.active_on_attempt(self.attempt):
                # Bound trace growth: a busy guest may hit the cap on
                # every subsequent write; log only the first `count`.
                if self._fired.get((pos, 0), 0) < rule.count:
                    self._record(rule, pos, 0, bytes_written, "write")
                break
        raise SyscallError(Errno.ENOSPC, "write",
                           "fault injected past %d bytes" % cap)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def injected(self) -> int:
        return len(self.trace)
