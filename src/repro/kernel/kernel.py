"""The simulated kernel: a discrete-event executive for guest programs.

Guest threads are Python generators yielding operations
(:mod:`repro.kernel.ops`).  The kernel schedules them over ``ncores``
simulated cores with virtual time, executes syscalls against the VFS and
process table, and — when a tracer is attached — delivers ptrace-style
stops exactly where the real kernel would.

Nothing in this module determinizes anything: the kernel is the *unshaded
box* of the paper's Figure 2.  All reproducibility logic lives in the
tracer layers above.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..cpu.machine import HostEnvironment
from ..obs.collector import Collector
from ..obs.events import EXIT, SPAWN, EventRing, ObsEvent
from .clock import SimClock
from .costs import (
    COMPUTE_JITTER_FRAC,
    SYSCALL_TICK,
    IO_BANDWIDTH,
    SYSCALL_BASE_COST,
    SYSCALL_COSTS,
)
from .devices import ConsoleStream, install_standard_devices
from .errors import DeadlockError, Errno, GuestCrash, KernelPanic, SimTimeout, SyscallError
from .filesystem import Filesystem
from .fds import OpenFile, FdKind
from .ops import Compute, Instr, Syscall, VdsoCall, VvarRead
from .process import Process, Thread, ThreadState
from .syscalls import ExecveReplace, ExitProcess, ExitThread, Sleep, SyscallTable
from .signals import Disposition, classify
from .sockets import SocketRegistry
from .timers import TimerTable
from .types import make_exit_status, make_signal_status, SIGCHLD, CLOCK_MONOTONIC
from .vdso import Vdso
from .waiting import BlockStamp, Channel, WouldBlock

#: Reference clock rate the Compute.work unit is defined against.
REFERENCE_GHZ = 2.2

#: Delay between spawn syscall completion and the child's first step.
CHILD_START_DELAY = 20e-6

DEFAULT_MAX_EVENTS = 50_000_000


#: How many trailing syscall dispatches the kernel remembers for crash
#: reports ("last N syscalls" — repro.faults.report).
RECENT_SYSCALL_WINDOW = 32


class KernelStats:
    """Aggregate counters for one kernel run (Figure 5's x-axis, etc.)."""

    def __init__(self):
        self.syscalls = 0
        self.syscalls_by_name: Counter = Counter()
        self.instructions: Counter = Counter()
        self.vdso_calls = 0
        self.processes_spawned = 0
        self.threads_spawned = 0
        self.events_processed = 0
        #: The shared recent-events ring (repro.obs.events.EventRing) of
        #: ``(vts, nspid, index, name)`` tuples: forensics for the crash
        #: report's "last N syscalls" and the divergence differ's
        #: context windows.  Entries stay compact because this append
        #: sits on the per-syscall fast path; they materialize into the
        #: shared :class:`repro.obs.events.ObsEvent` schema on demand
        #: via :meth:`recent_syscall_events`, so crash reports, traces
        #: and divergence reports all agree on coordinates.
        self.recent_syscalls: EventRing = EventRing(RECENT_SYSCALL_WINDOW)

    def count_syscall(self, name: str) -> None:
        self.syscalls += 1
        self.syscalls_by_name[name] += 1

    def recent_syscall_events(self) -> List[ObsEvent]:
        """The ring as structured events (the crash-forensics view)."""
        return self.recent_syscalls.events()

    def count_instr(self, name: str) -> None:
        self.instructions[name] += 1


class Kernel:
    """One booted instance of the simulated OS."""

    def __init__(self, host: HostEnvironment):
        from ..cpu.instructions import Cpu  # deferred: breaks the kernel<->cpu import cycle

        self.host = host
        self.clock = SimClock(host)
        self.cpu = Cpu(host)
        self.fs = Filesystem(host)
        self.vdso = Vdso(self.clock)
        self.timers = TimerTable()
        self.stdout = ConsoleStream("stdout")
        self.stderr = ConsoleStream("stderr")
        install_standard_devices(self.fs, host, self.stdout, self.stderr)
        from .procfs import install_procfs
        install_procfs(self)
        self.table = SyscallTable(self)
        #: Per-container socket namespace: listeners, bound addresses and
        #: the deterministic ephemeral-port counter (repro.kernel.sockets).
        self.sockets = SocketRegistry()
        #: Registry of executable paths -> program factories.
        self.binaries: Dict[str, Callable] = {}
        #: The simulated internet: url -> body bytes (set by images).
        self.network: Dict[str, bytes] = {}
        self.processes: List[Process] = []
        self.stats = KernelStats()
        #: The run's observability collector (repro.obs).  Containers
        #: install their own before boot; the default collects aggregates
        #: that are simply never surfaced.  Purely passive either way.
        self.obs = Collector()

        self._events: List[Tuple[float, int, Callable[[], None], Any]] = []
        self._seq = 0
        #: Per-name caches for the syscall fast path: the resolved base
        #: cost and the interned counter key for untraced dispatches
        #: (avoids a dict-miss default and a tuple allocation per call).
        self._cost_cache: Dict[str, float] = {}
        self._untraced_key_cache: Dict[str, Tuple[str, str, str]] = {}
        self._pid_next = host.pid_start
        self._tid_next = host.pid_start + 50_000

        #: Container PID namespace: when set, children get sequential
        #: namespace PIDs starting at this counter (DetTrace, §5.1).
        self._nspid_next: Optional[int] = None

        self.tracer = None
        #: Deterministic fault injector (repro.faults); None = no plane.
        self.faults = None
        #: Checkpoint manager (repro.ckpt); None = checkpointing off and
        #: every hook below compiles down to one attribute test.
        self.ckpt = None
        #: Event tick at which an injected KILL_AT_TICK fault crashes
        #: the run (None = never).
        self._kill_at: Optional[int] = None
        self.cores_busy = 0
        self._core_queue: List[Tuple[Thread, float]] = []
        self._parked: Dict[Channel, List[Thread]] = {}
        #: Notifies so far, over every channel (host-only, like the
        #: channels' own versions): lets an unchanged block stamp be
        #: confirmed without comparing each channel.
        self.wake_count = 0

        #: DetTrace thread serialization (§5.7).
        self.serialize_threads = False
        #: Busy-wait detection budget in Compute-work seconds (§5.9).
        self.busy_wait_budget: Optional[float] = None
        #: Fixed ASLR base (container disables ASLR).
        self.aslr_override: Optional[int] = None
        #: Default uid for the init process.
        self.default_uid = 1000

    # ------------------------------------------------------------------
    # configuration hooks (used by containers/tracers before boot)
    # ------------------------------------------------------------------

    def register_binary(self, path: str, factory: Callable) -> None:
        """Register a guest program at *path*; creates a stub file too."""
        self.binaries[path] = factory
        if not self.fs.exists(path):
            self.fs.write_file(path, b"#!ELF %s" % path.encode(), mode=0o755,
                               now=self.host.boot_epoch)

    def attach_tracer(self, tracer) -> None:
        if self.tracer is not None:
            raise KernelPanic("a tracer is already attached")
        self.tracer = tracer

    def enable_pid_namespace(self, first_pid: int = 1) -> None:
        self._nspid_next = first_pid

    def install_faults(self, plan, attempt: int = 0):
        """Install the deterministic fault plane for this boot.

        Wires one :class:`repro.faults.FaultInjector` into both consult
        points (syscall dispatch and the filesystem) and returns it.
        """
        from ..faults.injector import FaultInjector

        injector = FaultInjector(plan, attempt=attempt)
        self.faults = injector
        self.fs.fault_injector = injector
        self._kill_at = injector.next_kill_tick()
        return injector

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------

    def schedule(self, time: float, fn: Callable[[], None],
                 desc: Any = None) -> None:
        # *desc* is a picklable descriptor of *fn* for checkpointing;
        # (time, seq) is unique so fn/desc never participate in heap
        # comparisons.
        heapq.heappush(self._events,
                       (max(time, self.clock.now), self._seq, fn, desc))
        self._seq += 1

    def live_processes(self) -> List[Process]:
        return [p for p in self.processes if p.alive]

    def run(self, deadline: Optional[float] = None,
            max_events: int = DEFAULT_MAX_EVENTS) -> None:
        """Drive the simulation until all processes exit.

        Raises :class:`SimTimeout` past *deadline* virtual seconds and
        :class:`DeadlockError` if live threads remain with no possible
        progress.
        """
        clock = self.clock
        while True:
            if not self._events:
                if not self.live_processes():
                    return
                if self.tracer is not None and self.tracer.on_quiescent():
                    continue
                raise DeadlockError(
                    "no progress possible; live pids=%s"
                    % [p.pid for p in self.live_processes()])
            if (self._kill_at is not None
                    and self.stats.events_processed >= self._kill_at):
                # Injected crash (KILL_AT_TICK): fires *between* events,
                # exactly where a checkpoint barrier sits, so a resumed
                # run continues from event tick N as if nothing happened.
                from ..faults.injector import KilledAtTick

                tick = self.stats.events_processed
                if self.faults is not None:
                    self.faults.record_kill(tick)
                self._kill_at = None
                raise KilledAtTick(tick)
            t, _seq, fn, _desc = heapq.heappop(self._events)
            if deadline is not None and t > deadline:
                raise SimTimeout(deadline)
            # SimClock.advance_to, inlined: this runs once per event.
            now = clock.now
            if t < now - 1e-12:
                raise ValueError("clock moved backwards: %r -> %r" % (now, t))
            if t > now:
                clock.now = t
            self.stats.events_processed += 1
            if self.stats.events_processed > max_events:
                raise KernelPanic("event budget exhausted (%d)" % max_events)
            fn()
            if self.ckpt is not None:
                self.ckpt.maybe_barrier(self)

    # ------------------------------------------------------------------
    # process / thread creation
    # ------------------------------------------------------------------

    def make_sys(self, thread: Thread):
        from ..guest.runtime import Sys  # lazy: guest layer sits above us

        return Sys(thread)

    def _alloc_nspid(self) -> int:
        if self._nspid_next is None:
            return 0
        nspid = self._nspid_next
        self._nspid_next += 1
        return nspid

    def boot(self, path: str, argv: Optional[List[str]] = None,
             env: Optional[Dict[str, str]] = None, uid: Optional[int] = None,
             cwd_path: str = "/") -> Process:
        """Create the init process (does not run it; call :meth:`run`)."""
        factory = self.binaries.get(path)
        if factory is None:
            raise KernelPanic("no binary registered at %r" % path)
        pid = self._pid_next
        self._pid_next += 1
        nspid = pid if self._nspid_next is None else self._alloc_nspid()
        cwd = self.fs.resolve(self.fs.root, self.fs.root, cwd_path)
        proc = Process(
            pid=pid, nspid=nspid, parent=None, root=self.fs.root, cwd=cwd,
            cwd_path=cwd_path, env=env if env is not None else dict(self.host.env),
            argv=argv or [path], uid=self.default_uid if uid is None else uid,
            gid=0, aslr_base=self._aslr_base())
        self._wire_standard_fds(proc)
        self.processes.append(proc)
        self.stats.processes_spawned += 1
        self.obs.count(("process", "spawn"))
        if self.obs.trace_enabled:
            self.obs.record(ObsEvent(vts=0.0, pid=proc.nspid, index=-1,
                                     kind=SPAWN, name=path))
        thread = self._make_thread(proc, factory)
        if self.ckpt is not None:
            self.ckpt.record_spawn(thread.tid, path, proc.argv, proc.env)
        if self.tracer is not None:
            self.tracer.on_process_spawn(proc)
            self.tracer.on_execve(proc)
        self.schedule(self.clock.now,
                      lambda: self._step_or_wait(thread, None, None),
                      ("step", thread.tid, None, None))
        return proc

    def _aslr_base(self) -> int:
        if self.aslr_override is not None:
            return self.aslr_override
        return self.host.aslr_base()

    def _wire_standard_fds(self, proc: Process) -> None:
        stdin = OpenFile(kind=FdKind.DEVICE, path="/dev/null",
                         inode=self.fs.resolve(self.fs.root, self.fs.root, "/dev/null"))
        out = OpenFile(kind=FdKind.DEVICE, path="/dev/stdout",
                       inode=self.fs.resolve(self.fs.root, self.fs.root, "/dev/stdout"))
        err = OpenFile(kind=FdKind.DEVICE, path="/dev/stderr",
                       inode=self.fs.resolve(self.fs.root, self.fs.root, "/dev/stderr"))
        proc.fdtable.install_at(0, stdin)
        proc.fdtable.install_at(1, out)
        proc.fdtable.install_at(2, err)

    def _make_thread(self, proc: Process, factory: Callable) -> Thread:
        import inspect

        thread = Thread(tid=self._tid_next, process=proc, gen=None)
        self._tid_next += 1
        proc.threads.append(thread)
        gen = factory(self.make_sys(thread))
        if not inspect.isgenerator(gen):
            raise KernelPanic(
                "guest program %r must be a generator function (did it "
                "forget to yield?)" % getattr(factory, "__name__", factory))
        thread.gen_stack = [gen]
        return thread

    def spawn_child(self, parent: Process, path: str,
                    argv: Optional[List[str]] = None,
                    env: Optional[Dict[str, str]] = None,
                    stdio: Optional[Dict[int, Optional[int]]] = None,
                    close_fds: Optional[List[int]] = None,
                    caller: Optional[Thread] = None) -> int:
        """fork + execve: create a child of *parent* running *path*."""
        factory = self.binaries.get(path)
        if factory is None:
            raise SyscallError(Errno.ENOENT, "spawn_process", path)
        pid = self._pid_next
        self._pid_next += 1
        nspid = pid if self._nspid_next is None else self._alloc_nspid()
        child = Process(
            pid=pid, nspid=nspid, parent=parent, root=parent.root,
            cwd=parent.cwd, cwd_path=parent.cwd_path,
            env=env if env is not None else dict(parent.env),
            argv=argv or [path], uid=parent.uid, gid=parent.gid,
            aslr_base=self._aslr_base())
        child.umask = parent.umask
        child.fdtable = parent.fdtable.fork_copy()
        for target_fd, parent_fd in (stdio or {}).items():
            if parent_fd is not None:
                child.fdtable.dup2(parent_fd, target_fd, self.drop_open_file)
        for fd in close_fds or []:
            if child.fdtable.has(fd):
                self.drop_open_file(child.fdtable.remove(fd))
        parent.children.append(child)
        self.notify(parent.spawn_channel)
        self.processes.append(child)
        self.stats.processes_spawned += 1
        self.obs.count(("process", "spawn"))
        if self.obs.trace_enabled:
            self.obs.record(ObsEvent(
                vts=caller.det_clock if caller is not None else 0.0,
                pid=child.nspid, index=-1, kind=SPAWN, name=path))
        thread = self._make_thread(child, factory)
        if self.ckpt is not None:
            self.ckpt.record_spawn(thread.tid, path, child.argv, child.env)
        if caller is not None:
            # The spawn happens-before everything the child does: start
            # the child's deterministic clock at its creator's, so the
            # reproducible scheduler never has to drain the child's whole
            # logical history before servicing the parent again.
            thread.det_clock = caller.det_clock
            thread.det_bound = caller.det_clock
        if self.tracer is not None:
            self.tracer.on_process_spawn(child)
            self.tracer.on_execve(child)
        start = self.clock.now + CHILD_START_DELAY * (1 + self.host.sched_jitter())
        self.schedule(start, lambda: self._step_or_wait(thread, None, None),
                      ("step", thread.tid, None, None))
        return child.nspid

    def spawn_thread(self, proc: Process, func: Callable,
                     caller: Optional[Thread] = None) -> int:
        thread = Thread(tid=self._tid_next, process=proc, gen=None)
        self._tid_next += 1
        proc.threads.append(thread)
        thread.gen_stack = [func(self.make_sys(thread))]
        if self.ckpt is not None and caller is not None:
            self.ckpt.record_tspawn(thread.tid, caller.tid)
        if caller is not None:
            thread.det_clock = caller.det_clock
            thread.det_bound = caller.det_clock
        self.stats.threads_spawned += 1
        if self.tracer is not None:
            self.tracer.on_thread_spawn(thread)
        if self.serialize_threads and caller is not None:
            # Deterministic thread serialization (§5.7): the new thread
            # begins life at the back of the step queue; the spawner keeps
            # running until it blocks or exits.  Enqueueing here — during
            # the serialized spawn syscall — keeps the queue order a pure
            # function of guest behaviour (a timed start event would race
            # with jittered compute).
            if getattr(proc, "_step_token", None) is None:
                proc._step_token = caller
            proc.memory.setdefault("_step_queue", []).append((thread, None, None))
            thread.state = ThreadState.RUNNABLE
            thread.token_queued = True
            return thread.tid
        start = self.clock.now + CHILD_START_DELAY * (1 + self.host.sched_jitter())
        self.schedule(start, lambda: self._step_or_wait(thread, None, None),
                      ("step", thread.tid, None, None))
        return thread.tid

    # ------------------------------------------------------------------
    # the generator trampoline
    # ------------------------------------------------------------------

    def _step_or_wait(self, thread: Thread, value: Any, exc: Optional[BaseException]) -> None:
        """Execute the thread's next step, honouring thread serialization."""
        if not thread.alive:
            return
        proc = thread.process
        if (self.serialize_threads and len(proc.threads) > 1
                and len(proc.live_threads()) > 1):
            holder = getattr(proc, "_step_token", None)
            if holder is not None and holder is not thread and holder.alive:
                queue = proc.memory.setdefault("_step_queue", [])
                queue.append((thread, value, exc))
                thread.state = ThreadState.RUNNABLE
                thread.token_queued = True
                return
            proc._step_token = thread
        self._step(thread, value, exc)

    def _release_token(self, thread: Thread) -> None:
        proc = thread.process
        if getattr(proc, "_step_token", None) is not thread:
            return
        proc._step_token = None
        queue = proc.memory.get("_step_queue") or []
        while queue:
            nxt, value, exc = queue.pop(0)
            if nxt.alive:
                proc._step_token = nxt
                nxt.token_queued = False
                if self.tracer is not None:
                    # The grantee re-enters the running set here — the
                    # only place token_queued flips back — so schedulers
                    # with an incremental running-set index are told
                    # before the thread takes another step.
                    self.tracer.on_token_granted(nxt)
                self._step(nxt, value, exc)
                return

    def _step(self, thread: Thread, value: Any, exc: Optional[BaseException]) -> None:
        """Advance the top generator frame and dispatch the yielded op."""
        while True:
            if not thread.alive:
                return
            # Deliver queued signals by pushing handler frames (§5.4).
            if thread.pending_signals:
                signum = thread.pending_signals.pop(0)
                action = thread.process.signal_handlers.get(signum, "default")
                if callable(action):
                    handler_gen = action(self.make_sys(thread), signum)
                    saved = thread.process.memory.setdefault("_saved_%d" % thread.tid, [])
                    saved.append((value, exc))
                    thread.gen_stack.append(handler_gen)
                    if self.ckpt is not None:
                        self.ckpt.record_push(thread.tid, signum, value, exc)
                    value, exc = None, None
            gen = thread.gen_stack[-1]
            thread.state = ThreadState.DISPATCH
            if self.ckpt is not None:
                # Every value/exception a guest frame ever receives flows
                # through this one send/throw below — the resume tape
                # records them all (repro.ckpt).
                self.ckpt.record_step(thread.tid, value, exc)
            try:
                if exc is not None:
                    op = gen.throw(exc)
                else:
                    op = gen.send(value)
            except StopIteration as stop:
                saved_key = "_saved_%d" % thread.tid
                saved = thread.process.memory.get(saved_key) or []
                if len(thread.gen_stack) > 1:
                    thread.gen_stack.pop()
                    if saved:
                        value, exc = saved.pop()
                    else:
                        value, exc = None, None
                    continue
                code = stop.value if isinstance(stop.value, int) else 0
                self._thread_finished(thread, code)
                return
            except GuestCrash as crash:
                self.terminate_process(thread.process, make_signal_status(crash.signum))
                return
            except SyscallError as err:
                self.stderr.write(("pid %d: uncaught %s\n" % (thread.process.nspid, err)).encode())
                self.terminate_process(thread.process, make_exit_status(1))
                return
            value, exc = None, None
            # Dispatch the yielded operation.
            if isinstance(op, Instr):
                result = self._execute_instr(thread, op)
                if result is _SUSPENDED:
                    return
                value = result
                continue
            if isinstance(op, VdsoCall):
                if thread.process.vdso_patched:
                    self._dispatch_syscall(thread, Syscall(op.name, op.args))
                    return
                self.stats.vdso_calls += 1
                value = self.vdso.call(op.name, op.args)
                continue
            if isinstance(op, VvarRead):
                if thread.process.vdso_patched:
                    # DetTrace made the vvar page unreadable: the load
                    # faults at a well-defined point (a precise exception,
                    # naturally reproducible — §5.4).
                    self.terminate_process(thread.process,
                                           make_signal_status(11))
                    return
                value = self.vdso.read_vvar()
                continue
            if isinstance(op, Compute):
                self._dispatch_compute(thread, op)
                return
            if isinstance(op, Syscall):
                self._dispatch_syscall(thread, op)
                return
            raise KernelPanic("guest yielded %r" % (op,))

    def _thread_finished(self, thread: Thread, code: int) -> None:
        """A guest generator ran to completion."""
        proc = thread.process
        if thread is proc.main_thread:
            self.terminate_process(proc, make_exit_status(code))
            return
        thread.state = ThreadState.EXITED
        self._release_token(thread)
        if self.tracer is not None:
            self.tracer.on_thread_exit(thread)
        if not proc.live_threads():
            self.terminate_process(proc, make_exit_status(0))

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------

    def _dispatch_compute(self, thread: Thread, op: Compute) -> None:
        thread.compute_since_syscall += op.work
        if (self.busy_wait_budget is not None
                and thread.compute_since_syscall > self.busy_wait_budget):
            if self.tracer is not None:
                self.tracer.on_busy_wait(thread)
                return
        # Commit the work to the deterministic clock's lower bound before
        # any jitter is applied: the reproducible scheduler may now let
        # earlier-stopped threads proceed past this thread.
        thread.det_bound = thread.det_clock + op.work
        scale = REFERENCE_GHZ / self.host.machine.freq_ghz
        duration = op.work * scale * (1.0 + self.host.sched_jitter(COMPUTE_JITTER_FRAC))
        duration += thread.pending_latency
        thread.pending_latency = 0.0
        self._start_compute(thread, duration)
        if self.tracer is not None:
            self.tracer.on_thread_progress(thread)

    def _start_compute(self, thread: Thread, duration: float) -> None:
        if self.cores_busy < self.host.ncores:
            self.cores_busy += 1
            thread.state = ThreadState.RUNNING
            thread._on_core = True
            thread.cpu_time += duration
            self.schedule(self.clock.now + duration,
                          lambda: self._finish_compute(thread),
                          ("finish_compute", thread.tid))
        else:
            thread.state = ThreadState.RUNNABLE
            self._core_queue.append((thread, duration))

    def _finish_compute(self, thread: Thread) -> None:
        if not getattr(thread, "_on_core", False):
            return  # torn down mid-compute; the core was already released
        self.cores_busy -= 1
        thread._on_core = False
        self._pump_core_queue()
        if not thread.alive:
            return
        thread.det_clock = max(thread.det_clock, thread.det_bound)
        self._step(thread, None, None)

    def _pump_core_queue(self) -> None:
        while self._core_queue and self.cores_busy < self.host.ncores:
            # Native schedulers pick "randomly" among waiters: host jitter.
            idx = self.host.sched_choice_index(min(len(self._core_queue), 4))
            thread, duration = self._core_queue.pop(idx)
            if not thread.alive:
                continue
            self.cores_busy += 1
            thread.state = ThreadState.RUNNING
            thread._on_core = True
            thread.cpu_time += duration
            self.schedule(self.clock.now + duration,
                          lambda t=thread: self._finish_compute(t),
                          ("finish_compute", thread.tid))

    # ------------------------------------------------------------------
    # instructions & vDSO
    # ------------------------------------------------------------------

    def _execute_instr(self, thread: Thread, op: Instr) -> Any:
        self.stats.count_instr(op.name)
        if self.tracer is not None and self.tracer.traps_instruction(thread, op.name):
            value, resume_at = self.tracer.on_instruction(thread, op.name)
            if resume_at <= self.clock.now:
                return value
            thread.state = ThreadState.TRACE_STOP
            self.schedule(resume_at,
                          lambda: self._step_or_wait(thread, value, None),
                          ("step", thread.tid, value, None))
            return _SUSPENDED
        return self.cpu.execute(op.name, self.clock.now)

    # ------------------------------------------------------------------
    # syscalls
    # ------------------------------------------------------------------

    def syscall_cost(self, thread: Thread, name: str) -> float:
        base = self._cost_cache.get(name)
        if base is None:
            base = SYSCALL_COSTS.get(name, SYSCALL_BASE_COST)
            self._cost_cache[name] = base
        extra = getattr(thread, "_io_cost", 0.0)
        thread._io_cost = 0.0
        return base + extra

    def charge_io(self, thread: Thread, nbytes: int) -> None:
        cost = nbytes / IO_BANDWIDTH
        thread._io_cost = getattr(thread, "_io_cost", 0.0) + cost
        self.obs.charge("fs", cost)

    def det_tid(self, thread: Thread) -> int:
        """Deterministic thread ordinal (tids are host-pid-base offset)."""
        return thread.tid - self.host.pid_start - 50_000

    def _dispatch_syscall(self, thread: Thread, call: Syscall) -> None:
        self.stats.count_syscall(call.name)
        proc = thread.process
        index = proc.syscall_index
        proc.syscall_index = index + 1
        # The instance's deterministic timestamp: where det_clock will
        # advance to below.  Computed up front so the structured event
        # carries it even when an injected signal storm kills the thread
        # before the advance happens.
        det_ts = max(thread.det_clock, thread.det_bound) + SYSCALL_TICK
        self.stats.recent_syscalls.push(det_ts, proc.nspid, index, call.name)
        if self.faults is not None:
            self.faults.on_dispatch(self, thread, call, index, vts=det_ts)
            if not thread.alive:
                # An injected signal storm terminated the process at the
                # dispatch point; there is nothing left to execute.
                return
        thread.compute_since_syscall = 0.0
        thread.det_clock = det_ts
        thread.det_bound = thread.det_clock
        thread.current_syscall = call
        thread.current_syscall_index = index
        thread.obs_attempt = 0
        if self.tracer is not None and self.tracer.intercepts(thread, call):
            # Note: the step token is retained across the stop; the tracer
            # releases it only when the syscall would block (§5.7's
            # "context switch at blocking syscalls").
            thread.state = ThreadState.TRACE_STOP
            self.tracer.on_trace_stop(thread)
            return
        # Not intercepted: seccomp classified it naturally reproducible
        # ("skipped"), or there is no tracer at all ("native").
        key = self._untraced_key_cache.get(call.name)
        if key is None:
            key = ("syscall", call.name,
                   "skipped" if self.tracer is not None else "native")
            self._untraced_key_cache[call.name] = key
        self.obs.count(key)
        if self.obs.trace_enabled:
            # The structured event is only materialized when someone is
            # listening: the untraced path is the seccomp-optimized
            # common case and must stay allocation-light.
            self.obs.record(ObsEvent(vts=det_ts, pid=proc.nspid, index=index,
                                     kind="syscall", name=call.name))
        self._execute_untraced(thread, call)

    def _execute_untraced(self, thread: Thread, call: Syscall) -> None:
        try:
            result = self.table.execute(thread, call)
        except WouldBlock as wb:
            self._park(thread, call, wb.channels)
            return
        except Sleep as s:
            thread.state = ThreadState.BLOCKED
            self._release_token(thread)
            self.schedule(self.clock.now + s.seconds,
                          lambda: self._step_or_wait(thread, 0, None),
                          ("step", thread.tid, 0, None))
            return
        except SyscallError as err:
            self._resume_after(thread, self.syscall_cost(thread, call.name), exc=err)
            return
        except ExitProcess as ex:
            self.terminate_process(thread.process, make_exit_status(ex.code))
            return
        except ExitThread:
            self._thread_finished(thread, 0)
            return
        except ExecveReplace as ex:
            self._do_execve(thread, ex)
            return
        self._resume_after(thread, self.syscall_cost(thread, call.name), value=result)

    def _resume_after(self, thread: Thread, delay: float, value: Any = None,
                      exc: Optional[BaseException] = None) -> None:
        thread.state = ThreadState.DISPATCH
        self.schedule(self.clock.now + delay,
                      lambda: self._step_or_wait(thread, value, exc),
                      ("step", thread.tid, value, exc))

    # -- blocking ------------------------------------------------------------

    def _park(self, thread: Thread, call: Syscall, channels: List[Channel]) -> None:
        thread.state = ThreadState.BLOCKED
        thread.wait_channels = list(channels)
        thread._parked_call = call
        self._release_token(thread)
        for ch in channels:
            self._parked.setdefault(ch, []).append(thread)

    def notify(self, channel: Channel) -> int:
        """Wake every thread parked on *channel*; returns the count.

        The single wake point: every state change a blocked syscall can
        observe is announced here, so the channel's version (and the
        global wake count) move exactly when a blocked answer may."""
        channel.version += 1
        self.wake_count += 1
        woken = self._parked.pop(channel, None)
        if not woken:
            return 0
        count = 0
        for thread in woken:
            if not thread.alive or thread.state is not ThreadState.BLOCKED:
                continue
            for ch in thread.wait_channels:
                if ch is not channel and thread in self._parked.get(ch, []):
                    self._parked[ch].remove(thread)
            thread.wait_channels = []
            count += 1
            self.schedule(self.clock.now, lambda t=thread: self._retry_parked(t),
                          ("retry_parked", thread.tid))
        return count

    def _retry_parked(self, thread: Thread) -> None:
        if not thread.alive:
            return
        call = getattr(thread, "_parked_call", None)
        if call is None:
            return
        thread.state = ThreadState.DISPATCH
        self._execute_untraced(thread, call)

    # -- execve -------------------------------------------------------------------

    def _do_execve(self, thread: Thread, ex: ExecveReplace,
                   resume_at: Optional[float] = None) -> None:
        factory = self.binaries.get(ex.path)
        if factory is None:
            self._resume_after(thread, self.syscall_cost(thread, "execve"),
                               exc=SyscallError(Errno.ENOENT, "execve", ex.path))
            return
        proc = thread.process
        for sibling in proc.threads:
            if sibling is not thread and sibling.alive:
                sibling.state = ThreadState.EXITED
                self._teardown_thread(sibling)
                if self.tracer is not None:
                    self.tracer.on_thread_killed(sibling)
        proc.threads = [thread]
        proc.argv = list(ex.argv)
        proc.exe_path = ex.path
        if ex.env is not None:
            proc.env = dict(ex.env)
        proc.vdso_patched = False
        thread.gen_stack = [factory(self.make_sys(thread))]
        proc.memory.pop("_saved_%d" % thread.tid, None)
        if self.ckpt is not None:
            self.ckpt.record_exec(thread.tid, ex.path, proc.argv, proc.env)
        if self.tracer is not None:
            self.tracer.on_execve(proc)
        at = resume_at if resume_at is not None else (
            self.clock.now + self.syscall_cost(thread, "execve"))
        thread.state = ThreadState.DISPATCH
        self.schedule(at, lambda: self._step_or_wait(thread, None, None),
                      ("step", thread.tid, None, None))

    # ------------------------------------------------------------------
    # signals & alarms
    # ------------------------------------------------------------------

    def deliver_signal(self, proc: Process, signum: int) -> None:
        if not proc.alive:
            return
        disposition = classify(proc.signal_handlers, signum)
        if disposition is Disposition.IGNORE:
            return
        if disposition is Disposition.TERMINATE:
            self.terminate_process(proc, make_signal_status(signum))
            return
        live = proc.live_threads()
        if not live:
            return
        target = live[0]
        target.pending_signals.append(signum)
        target.signal_interrupted = True
        proc._signals_delivered = getattr(proc, "_signals_delivered", 0) + 1
        self.notify(proc.signal_channel)
        # A blocked thread with no channel connection still gets the
        # handler at its next step; pause/interruptible sleeps listen on
        # signal_channel and wake above.

    def register_alarm(self, proc: Process, seconds: float, signum: int) -> float:
        """Arm the process's timer; returns the seconds that remained on
        any previously armed timer (the alarm(2) contract)."""
        remaining = self.timers.remaining(proc.pid, self.clock.now)
        if seconds <= 0:
            self.timers.cancel(proc.pid)
            return remaining
        generation = self.timers.arm(proc.pid, self.clock.now + seconds, signum)
        self.schedule(self.clock.now + seconds,
                      lambda: self._fire_timer(proc, generation),
                      ("timer", proc.pid, generation))
        return remaining

    def _fire_timer(self, proc: Process, generation: int) -> None:
        signum = self.timers.should_fire(proc.pid, generation)
        if signum is not None and proc.alive:
            self.deliver_signal(proc, signum)

    # ------------------------------------------------------------------
    # process teardown
    # ------------------------------------------------------------------

    def drop_open_file(self, of: OpenFile) -> None:
        self.table._drop_open_file(of)

    def _teardown_thread(self, thread: Thread) -> None:
        thread.state = ThreadState.EXITED
        if getattr(thread, "_on_core", False):
            self.cores_busy -= 1
            thread._on_core = False
            self._pump_core_queue()
        self._release_token(thread)

    def terminate_process(self, proc: Process, status: int) -> None:
        if proc.exit_status is not None:
            return
        proc.exit_status = status
        self.obs.count(("process", "exit"))
        if self.obs.trace_enabled:
            self.obs.record(ObsEvent(
                vts=max((t.det_clock for t in proc.threads), default=0.0),
                pid=proc.nspid, index=-1, kind=EXIT,
                name=proc.exe_path or "", detail="status=%d" % status))
        for thread in proc.threads:
            if thread.alive:
                self._teardown_thread(thread)
        for fd, of in proc.fdtable.items():
            proc.fdtable.remove(fd)
            self.drop_open_file(of)
        self.notify(proc.exit_channel)
        if proc.parent is not None and proc.parent.alive:
            self.deliver_signal(proc.parent, SIGCHLD)
        if self.tracer is not None:
            self.tracer.on_process_exit(proc)

    # ------------------------------------------------------------------
    # tracer services (the "ptrace" surface the tracer layer builds on)
    # ------------------------------------------------------------------

    def tracer_execute(self, thread: Thread, call: Syscall,
                       nonblocking: bool = True) -> Tuple[str, Any]:
        """Execute *call* on behalf of the tracer.

        Returns an outcome tag: ``("ok", value)``, ``("err", SyscallError)``,
        ``("block", channels)``, ``("sleep", seconds)``, ``("exit", None)``
        or ``("execve", ExecveReplace)``.  A would-block probe leaves a
        :class:`BlockStamp` on the thread for :meth:`unchanged_block`.
        """
        thread.block_stamp = None
        unfaulted = thread.armed_fault is None
        try:
            value = self.table.execute(thread, call)
        except WouldBlock as wb:
            if not nonblocking:
                self._park(thread, call, wb.channels)
                return ("parked", None)
            if wb.stampable and unfaulted:
                thread.block_stamp = BlockStamp(
                    call, wb.channels, self.wake_count,
                    thread.process.fdtable.epoch)
            return ("block", wb.channels)
        except Sleep as s:
            return ("sleep", s.seconds)
        except SyscallError as err:
            return ("err", err)
        except ExitProcess as ex:
            self.terminate_process(thread.process, make_exit_status(ex.code))
            return ("exit", None)
        except ExitThread:
            self._thread_finished(thread, 0)
            return ("exit", None)
        except ExecveReplace as ex:
            return ("execve", ex)
        return ("ok", value)

    def unchanged_block(self, thread: Thread, call: Syscall) -> Optional[List[Channel]]:
        """The channels *call* would block on again, or None.

        Non-None only when re-executing *call* is known to raise the same
        :class:`WouldBlock` as the thread's last probe: the call equals
        the stamped one, no fault is armed, no descriptor was unbound and
        no named channel has been notified since.  The tracer then skips
        the syscall body; everything around it (charges, counters, the
        scheduler's Blocked queue) runs as for a re-executed probe.
        """
        stamp = thread.block_stamp
        if (stamp is None or thread.armed_fault is not None
                or stamp.fd_epoch != thread.process.fdtable.epoch
                or not (stamp.call is call or stamp.call == call)):
            return None
        if stamp.wakes != self.wake_count:
            if [c.version for c in stamp.channels] != stamp.versions:
                return None
            stamp.wakes = self.wake_count
        return stamp.channels

    def release_step_token(self, thread: Thread) -> None:
        """Tracer hook: the thread's syscall would block; hand the thread
        serialization token to the next queued sibling."""
        self._release_token(thread)

    def tracer_resume(self, thread: Thread, at: float, value: Any = None,
                      exc: Optional[BaseException] = None) -> None:
        """Resume a trace-stopped thread at virtual time *at*.

        Under thread serialization, a serviced syscall is a context-switch
        point (§5.7): the resumed thread re-joins the back of its
        process's step queue and the front gets the token — a
        deterministic round-robin, because queue membership only changes
        at serviced events.
        """
        if not thread.alive:
            return
        thread.state = ThreadState.DISPATCH
        thread.current_syscall = None
        proc = thread.process
        if (self.serialize_threads and len(proc.threads) > 1
                and len(proc.live_threads()) > 1
                and getattr(proc, "_step_token", None) is thread):
            queue = proc.memory.setdefault("_step_queue", [])
            queue.append((thread, value, exc))
            thread.state = ThreadState.RUNNABLE
            thread.token_queued = True
            self.schedule(at, lambda: self._release_token(thread),
                          ("release_token", thread.tid))
            return
        self.schedule(at, lambda: self._step_or_wait(thread, value, exc),
                      ("step", thread.tid, value, exc))

    def tracer_execve(self, thread: Thread, ex: ExecveReplace, at: float) -> None:
        self._do_execve(thread, ex, resume_at=at)

    def find_process_by_nspid(self, nspid: int) -> Optional[Process]:
        for proc in self.processes:
            if proc.nspid == nspid:
                return proc
        return None


#: Sentinel: the instruction path suspended the thread (trap round trip).
_SUSPENDED = object()
