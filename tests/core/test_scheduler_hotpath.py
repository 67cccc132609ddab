"""Unit tests for the O(log n) scheduler's incremental structures.

The end-to-end schedule identity is covered by the differential suite
(tests/properties/test_sched_differential.py) and the bench loop
(repro.hotpath); these tests pin the *mechanisms* — lazy heap repair,
the probe stash, stamp refresh, O(1) removal — with hand-built states,
plus a randomized lockstep drive against the reference oracle.
"""
import random

from repro.core.scheduler import (
    PROBE,
    SERVICE,
    SYSCALL_TICK,
    WAIT,
    LogicalClockRefScheduler,
    LogicalClockScheduler,
    make_scheduler,
)
from repro.kernel.process import ThreadState
from tests.core.test_scheduler_repro import make_thread


def both_schedulers():
    return LogicalClockScheduler(), LogicalClockRefScheduler()


def test_make_scheduler_kinds():
    assert isinstance(make_scheduler("logical"), LogicalClockScheduler)
    assert isinstance(make_scheduler("logical-ref"), LogicalClockRefScheduler)


def test_notify_stop_inserts_candidate():
    s = LogicalClockScheduler()
    t = make_thread(1, clock=1.0, stopped=False)
    s.add(t)
    assert s.next_action() == (WAIT, None)
    from repro.kernel.ops import Syscall

    t.state = ThreadState.TRACE_STOP
    t.current_syscall = Syscall("write", {})
    s.notify_stop(t)
    assert s.next_action() == (SERVICE, t)


def test_stale_stop_entries_discarded():
    """A heap entry for an old (clock, thread) pairing must never be
    serviced once the thread has moved on."""
    s = LogicalClockScheduler()
    a = make_thread(1, clock=1.0, stopped=True)
    b = make_thread(2, clock=2.0, stopped=True)
    s.add(a)
    s.add(b)
    # a advances to a later stop without being serviced through the
    # scheduler (e.g. after a completed service): push the new stop.
    a.det_clock = a.det_bound = 5.0
    s.notify_stop(a)
    # b (clock 2.0) now outranks both of a's entries, the stale 1.0 one
    # included.
    assert s.next_action() == (SERVICE, b)


def test_remove_is_o1_and_rearms_blocked():
    s = LogicalClockScheduler()
    a = make_thread(1, clock=1.0, stopped=True)
    b = make_thread(2, clock=2.0, stopped=True)
    s.add(a)
    s.add(b)
    # b's probe fails in the current epoch: it parks in the stash.
    s.still_blocked(b)
    assert s.blocked_count() == 1
    assert s.next_action() == (SERVICE, a)
    # a exits; the epoch bump must re-arm b as a PROBE candidate even
    # though no service completed.
    a.state = ThreadState.EXITED
    s.remove(a)
    assert s.live_count() == 1
    assert s.next_action() == (PROBE, b)
    # Removal leaves no membership behind (heap entries die lazily).
    assert a not in s._index and a not in s._fail_seq


def test_stash_rearmed_after_service():
    s = LogicalClockScheduler()
    a = make_thread(1, clock=1.0, stopped=True)
    b = make_thread(2, clock=2.0, stopped=True)
    s.add(a)
    s.add(b)
    s.still_blocked(a)
    # a is parked: b is the only candidate this epoch.
    assert s.next_action() == (SERVICE, b)
    s.completed(b)
    b.state = ThreadState.RUNNING
    b.current_syscall = None
    # The completed service advanced the epoch: a is probe-eligible and
    # its retry is a PROBE (it still sits in _fail_seq until it lands).
    assert s.next_action() == (PROBE, a)
    s.completed(a)
    assert s.blocked_count() == 0


def test_bound_heap_refreshes_stale_stamps():
    """Seccomp-skipped syscalls advance det_bound silently; the heap
    entry must refresh in place and keep gating with the new bound."""
    s = LogicalClockScheduler()
    stopped = make_thread(1, clock=5.0, stopped=True)
    running = make_thread(2, clock=1.0, bound=1.0, stopped=False)
    s.add(stopped)
    s.add(running)
    assert s.next_action() == (WAIT, None)
    # The running thread commits more compute without any notify (the
    # no-stop fast path): once its bound passes the candidate's clock
    # the stale entry must not keep gating forever.
    running.det_bound = 9.0
    assert s.next_action() == (SERVICE, stopped)


def test_token_queued_thread_does_not_gate():
    s = LogicalClockScheduler()
    stopped = make_thread(1, clock=5.0, stopped=True)
    waiter = make_thread(2, clock=1.0, bound=1.0, stopped=False)
    waiter.token_queued = True
    s.add(stopped)
    s.add(waiter)
    # The token-queued sibling cannot stop before a grant, so it must
    # not hold up the candidate...
    assert s.next_action() == (SERVICE, stopped)
    # ...until the grant puts it back in the running set.
    waiter.token_queued = False
    s.notify_running(waiter)
    assert s.next_action() == (WAIT, None)


def test_notify_hooks_are_noops_on_reference_schedulers():
    """The hooks exist so the tracer can drive any scheduler uniformly;
    the scan-based implementations ignore them."""
    for kind in ("logical-ref", "strict"):
        s = make_scheduler(kind)
        t = make_thread(1, clock=1.0, stopped=True)
        s.add(t)
        s.notify_stop(t)
        s.notify_bound(t)
        s.notify_running(t)
        assert s.next_action() == (SERVICE, t)


def test_randomized_lockstep_against_reference():
    """Drive both implementations through the same randomized sequence
    of stops/services/blocks/exits and require identical decisions."""
    from repro.kernel.ops import Syscall

    rng = random.Random(1234)
    for trial in range(20):
        fast, ref = both_schedulers()
        threads = []
        for tid in range(1, 7):
            t = make_thread(tid, clock=float(rng.randint(0, 3)),
                            stopped=rng.random() < 0.5)
            t.det_bound = t.det_clock
            threads.append(t)
            fast.add(t)
            ref.add(t)
        for step in range(60):
            a_fast = fast.next_action()
            a_ref = ref.next_action()
            assert a_fast == a_ref, (trial, step, a_fast, a_ref)
            action, t = a_fast
            if action == WAIT:
                # Wake the lowest-bound running thread at a deterministic
                # later stop, mirroring the kernel resuming compute.
                running = [x for x in threads
                           if x.alive and x.state is ThreadState.RUNNING]
                if not running:
                    break
                nxt = min(running, key=lambda x: (x.det_bound, x.tid))
                nxt.det_clock = nxt.det_bound = nxt.det_bound + SYSCALL_TICK
                nxt.state = ThreadState.TRACE_STOP
                nxt.current_syscall = Syscall("write", {})
                fast.notify_stop(nxt)
                ref.notify_stop(nxt)
                continue
            roll = rng.random()
            if action == SERVICE and roll < 0.2:
                # Would-block verdict.
                fast.still_blocked(t)
                ref.still_blocked(t)
            elif roll < 0.3 and action == SERVICE:
                # The syscall was an exit.
                t.state = ThreadState.EXITED
                t.current_syscall = None
                fast.remove(t)
                ref.remove(t)
            else:
                t.current_syscall = None
                t.state = ThreadState.RUNNING
                t.det_clock = t.det_bound = t.det_clock + SYSCALL_TICK * (
                    1 + rng.randint(0, 3))
                fast.completed(t)
                ref.completed(t)
        assert fast.blocked_count() == ref.blocked_count()
        assert fast.live_count() == ref.live_count()


def _scanned_live(sched):
    """The membership scan live_count() replaced (the reference)."""
    return sum(1 for t in sched._index if t.alive)


def test_live_count_excludes_killed_members_in_o1():
    s = LogicalClockScheduler()
    a, b = make_thread(1, clock=1.0), make_thread(2, clock=2.0)
    s.add(a)
    s.add(b)
    b.state = ThreadState.EXITED
    s.note_killed(b)             # an execve tore b down; it stays a member
    assert s.live_count() == _scanned_live(s) == 1
    s.remove(b)
    assert s.live_count() == _scanned_live(s) == 1


def _execve_sibling_worker(sys):
    for _ in range(50):
        yield from sys.compute(1e-4)
        yield from sys.time()


def _execve_after(sys):
    yield from sys.write_file("after", b"ok")
    return 0


def _execve_main(sys):
    for _ in range(3):
        yield from sys.spawn_thread(_execve_sibling_worker)
    yield from sys.compute(1e-3)
    yield from sys.time()
    yield from sys.execve("/bin/after")


def test_live_count_equals_the_membership_scan_in_real_runs(monkeypatch):
    """threads_peak feeds the result digest: the O(1) count must equal
    the scan it replaced at every sample, including after an execve
    kills sibling threads without removing them."""
    import dataclasses

    from repro.core import ContainerConfig
    from repro.workloads import ml
    from tests.conftest import dettrace_run

    real = LogicalClockScheduler.live_count
    samples = []

    def checked(self):
        n = real(self)
        assert n == _scanned_live(self)
        samples.append(n)
        return n

    monkeypatch.setattr(LogicalClockScheduler, "live_count", checked)
    result = dettrace_run(_execve_main, config=ContainerConfig(),
                          extra_binaries={"/bin/after": _execve_after})
    assert result.exit_code == 0
    assert result.output_tree["after"] == b"ok"
    assert result.metrics.gauges["sched/threads_peak"] == 4
    assert samples[-1] == 1
    ml.run_dettrace(dataclasses.replace(ml.ALEXNET, threads=16))
    assert max(samples) >= 16
