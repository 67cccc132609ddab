"""Unit tests for the O(log n) scheduler's incremental structures.

The end-to-end schedule identity is covered by the differential suite
(tests/properties/test_sched_differential.py) and the bench loop
(repro.hotpath); these tests pin the *mechanisms* — lazy heap repair,
the probe stash, stamp refresh, O(1) removal — with hand-built states,
plus a randomized lockstep drive against the reference oracle.
"""
import random

import pytest

from repro.core.scheduler import (
    PROBE,
    SERVICE,
    SYSCALL_TICK,
    WAIT,
    LogicalClockRefScheduler,
    LogicalClockScheduler,
    make_scheduler,
)
from repro.kernel.ops import Syscall
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
    of stops/services/blocks/exits, bound commits (notified or silent)
    and token queueing, and require identical decisions.  A bound commit
    whose ``notify_bound`` says the last WAIT still holds skips the
    decision, as the tracer skips its pump: the reference must agree
    that nothing may be serviced at that point."""
    rng = random.Random(1234)
    gated = 0
    for trial in range(40):
        fast, ref = both_schedulers()
        threads = []
        for tid in range(1, 7):
            t = make_thread(tid, clock=float(rng.randint(0, 3)),
                            stopped=rng.random() < 0.5)
            t.det_bound = t.det_clock
            threads.append(t)
            fast.add(t)
            ref.add(t)
        for step in range(80):
            running = [x for x in threads
                       if x.alive and x.state is ThreadState.RUNNING]
            queued = [x for x in threads if x.alive and x.token_queued]
            roll = rng.random()
            if running and roll < 0.35:
                # A running thread commits more compute.  Below 0.05 it
                # happens through seccomp-skipped syscalls: no notify.
                t = rng.choice(running)
                t.det_bound += SYSCALL_TICK * rng.randint(1, 4)
                if roll >= 0.05 and fast.notify_bound(t):
                    assert ref.next_action() == (WAIT, None), (trial, step)
                    gated += 1
                    continue
            elif running and roll < 0.42:
                # Waits for the sibling token (no scheduler hook).
                t = rng.choice(running)
                t.state = ThreadState.RUNNABLE
                t.token_queued = True
            elif queued and roll < 0.5:
                t = rng.choice(queued)
                t.state = ThreadState.RUNNING
                t.token_queued = False
                fast.notify_running(t)
            a_fast = fast.next_action()
            a_ref = ref.next_action()
            assert a_fast == a_ref, (trial, step, a_fast, a_ref)
            action, t = a_fast
            if action == WAIT:
                if not running:
                    break
                if rng.random() < 0.5:
                    continue   # let bound commits arrive under the gate
                # Wake the lowest-bound running thread at a deterministic
                # later stop, mirroring the kernel resuming compute.
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
    # The gate is exercised, not vacuously sound.
    assert gated > 50


def _decision_state(s):
    return (list(s._stop_heap), list(s._stash), list(s._bound_heap),
            dict(s._fail_seq), s._service_seq, s._gated, s._gate_holder,
            s._gate_index, s._gate_bound)


def test_known_fail_hook_equals_probe_then_still_blocked():
    """A probe settled by ``next_action(known_fail)`` leaves the
    scheduler exactly as returning it, ``still_blocked`` and deciding
    again would: same decision, same heaps, stash, fail epochs and gate,
    after every step of a randomized drive (silent bound commits let a
    gated WAIT reach the next decision)."""
    rng = random.Random(4321)
    settled = 0
    for trial in range(60):
        fused, plain = LogicalClockScheduler(), LogicalClockScheduler()
        threads = []
        for tid in range(1, 7):
            t = make_thread(tid, clock=float(rng.randint(0, 3)),
                            stopped=rng.random() < 0.6)
            threads.append(t)
            fused.add(t)
            plain.add(t)
        for step in range(100):
            running = [x for x in threads
                       if x.alive and x.state is ThreadState.RUNNING]
            if running and rng.random() < 0.3:
                t = rng.choice(running)
                t.det_bound += SYSCALL_TICK * rng.randint(1, 4)
                if rng.random() < 0.5:   # else seccomp-skipped: silent
                    assert fused.notify_bound(t) == plain.notify_bound(t)
            known = {x for x in threads if rng.random() < 0.7}
            hits = []

            def hook(x):
                hits.append(x)
                return x in known

            a_fused = fused.next_action(hook)
            a_plain = plain.next_action()
            while a_plain[0] == PROBE and a_plain[1] in known:
                plain.still_blocked(a_plain[1])
                a_plain = plain.next_action()
            assert a_fused == a_plain, (trial, step)
            assert _decision_state(fused) == _decision_state(plain), (
                trial, step)
            settled += sum(x in known for x in hits)
            action, t = a_fused
            if action == WAIT:
                if not running or rng.random() < 0.5:
                    continue
                nxt = min(running, key=lambda x: (x.det_bound, x.tid))
                nxt.det_clock = nxt.det_bound = nxt.det_bound + SYSCALL_TICK
                nxt.state = ThreadState.TRACE_STOP
                nxt.current_syscall = Syscall("write", {})
                fused.notify_stop(nxt)
                plain.notify_stop(nxt)
                continue
            roll = rng.random()
            if roll < 0.4:
                fused.still_blocked(t)
                plain.still_blocked(t)
            elif roll < 0.45:
                t.state = ThreadState.EXITED
                t.current_syscall = None
                fused.remove(t)
                plain.remove(t)
            else:
                t.current_syscall = None
                t.state = ThreadState.RUNNING
                t.det_clock = t.det_bound = t.det_clock + SYSCALL_TICK * (
                    1 + rng.randint(0, 3))
                fused.completed(t)
                plain.completed(t)
    assert settled > 200


def test_settled_probe_clears_a_stale_gate():
    """A gated WAIT whose holder's bound then rose silently (seccomp-
    skipped syscalls): the next decision settles the probe at the top
    and services the one behind it, with the gate cleared exactly as
    ``still_blocked`` clears it."""
    schedulers = []
    for _ in range(2):
        s = LogicalClockScheduler()
        blocked = make_thread(1, clock=5.0, stopped=True)
        holder = make_thread(2, clock=1.0, stopped=False)
        behind = make_thread(3, clock=5.5, stopped=True)
        for t in (blocked, holder, behind):
            s.add(t)
        s._fail_seq[blocked] = s._service_seq - 1
        assert s.next_action() == (WAIT, None) and s._gated
        holder.det_bound = 9.0
        schedulers.append((s, blocked, behind))
    (fused, blocked, behind), (plain, blocked2, behind2) = schedulers
    assert fused.next_action(lambda t: t is blocked) == (SERVICE, behind)
    assert plain.next_action() == (PROBE, blocked2)
    plain.still_blocked(blocked2)
    assert plain.next_action() == (SERVICE, behind2)
    assert fused._gated is plain._gated is False
    assert fused._fail_seq[blocked] == plain._fail_seq[blocked2]
    assert [e[:2] for e in fused._stash] == [e[:2] for e in plain._stash]


def test_known_fail_hook_only_sees_probe_candidates():
    s = LogicalClockScheduler()
    a = make_thread(1, clock=1.0, stopped=True)
    b = make_thread(2, clock=2.0, stopped=True)
    s.add(a)
    s.add(b)
    assert s.next_action(lambda t: True) == (SERVICE, a)
    s.still_blocked(a)
    s.note_progress()
    seen = []
    assert s.next_action(lambda t: seen.append(t) or True) == (SERVICE, b)
    assert seen == [a] and s._stash == [(1.0, 0, a)]
    assert s._fail_seq[a] == s._service_seq
    # The reference and strict schedulers ignore the hook.
    for kind in ("logical-ref", "strict"):
        other = make_scheduler(kind)
        other.add(a)
        assert other.next_action(lambda t: 1 / 0)[0] in (SERVICE, PROBE)


def _gated_wait():
    """A WAIT held by *holder*'s bound: the candidate stopped at 5.0, the
    holder may still stop at 1.0 + tick, the bystander only past 6.0."""
    s = LogicalClockScheduler()
    candidate = make_thread(1, clock=5.0, stopped=True)
    holder = make_thread(2, clock=1.0, stopped=False)
    bystander = make_thread(3, clock=6.0, stopped=False)
    for t in (candidate, holder, bystander):
        s.add(t)
    assert s.next_action() == (WAIT, None)
    return s, candidate, holder, bystander


def _reference_of(s):
    """A reference scheduler over the same members, in spawn order."""
    ref = LogicalClockRefScheduler()
    for t in sorted(s._index, key=s._index.get):
        ref.add(t)
    ref._service_seq = s._service_seq
    ref._fail_seq = dict(s._fail_seq)
    return ref


def test_wait_gate_holds_while_only_bystanders_progress():
    s, candidate, holder, bystander = _gated_wait()
    for bound in (7.0, 8.0, 9.0):
        bystander.det_bound = bound
        assert s.notify_bound(bystander) is True
        assert _reference_of(s).next_action() == (WAIT, None)
    # The holder's own progress is the one that may release the
    # candidate: it always pumps, and the decision then services.
    holder.det_bound = 9.0
    assert s.notify_bound(holder) is False
    assert s.next_action() == (SERVICE, candidate)


def test_wait_gate_without_candidate_holds_until_a_stop():
    s = LogicalClockScheduler()
    a = make_thread(1, clock=1.0, stopped=False)
    s.add(a)
    assert s.next_action() == (WAIT, None)
    a.det_bound = 4.0
    assert s.notify_bound(a) is True   # no candidate: nothing to release
    a.state = ThreadState.TRACE_STOP
    a.current_syscall = Syscall("write", {})
    s.notify_stop(a)
    assert s.notify_bound(a) is False
    assert s.next_action() == (SERVICE, a)


def test_wait_gate_cleared_when_holder_queues_for_the_token():
    s, candidate, holder, bystander = _gated_wait()
    holder.state = ThreadState.RUNNABLE
    holder.token_queued = True          # no scheduler hook for this
    assert s.notify_bound(bystander) is False
    assert s.next_action() == (SERVICE, candidate)


def test_wait_gate_cleared_when_holder_stops_at_a_syscall():
    s, candidate, holder, bystander = _gated_wait()
    holder.det_clock = 1.0 + SYSCALL_TICK
    holder.state = ThreadState.TRACE_STOP
    holder.current_syscall = Syscall("write", {})
    # Checked even before the stop hook runs, bound unchanged...
    assert s.notify_bound(bystander) is False
    s.notify_stop(holder)
    assert s.next_action() == (SERVICE, holder)
    # ...and the stop hook itself clears the gate.
    s, candidate, holder, bystander = _gated_wait()
    holder.det_clock = holder.det_bound = 2.0
    holder.state = ThreadState.TRACE_STOP
    holder.current_syscall = Syscall("write", {})
    s.notify_stop(holder)
    assert s._gated is False
    assert s.next_action() == (SERVICE, holder)


def test_wait_gate_cleared_when_holder_exits_or_is_killed():
    s, candidate, holder, bystander = _gated_wait()
    holder.state = ThreadState.EXITED   # before the exit hook reports it
    assert s.notify_bound(bystander) is False
    assert s.next_action() == (SERVICE, candidate)

    s, candidate, holder, bystander = _gated_wait()
    holder.state = ThreadState.EXITED
    s.note_killed(holder)
    assert s._gated is False
    assert s.next_action() == (SERVICE, candidate)

    s, candidate, holder, bystander = _gated_wait()
    holder.state = ThreadState.EXITED
    s.remove(holder)
    assert s._gated is False
    assert s.next_action() == (SERVICE, candidate)


def test_wait_gate_cleared_when_holder_leaves_the_membership():
    """Membership rebuilt behind the hooks' back (as a checkpoint
    restore rebuilds it) must not leave a stale holder gating."""
    s, candidate, holder, bystander = _gated_wait()
    del s._index[holder]
    assert s.notify_bound(bystander) is False
    assert s.next_action() == (SERVICE, candidate)


def test_wait_gate_cleared_when_holder_bound_moves_silently():
    """Seccomp-skipped syscalls raise det_bound without a notify."""
    s, candidate, holder, bystander = _gated_wait()
    holder.det_bound = 9.0
    assert s.notify_bound(bystander) is False
    assert s.next_action() == (SERVICE, candidate)


def _stashed_wait():
    """A WAIT with no eligible candidate: the only stopped thread's
    probe failed in the current epoch."""
    s = LogicalClockScheduler()
    blocked = make_thread(1, clock=1.0, stopped=True)
    runner = make_thread(2, clock=9.0, stopped=False)
    other = make_thread(3, clock=9.0, stopped=False)
    for t in (blocked, runner, other):
        s.add(t)
    assert s.next_action() == (SERVICE, blocked)
    s.still_blocked(blocked)
    assert s.next_action() == (WAIT, None)
    runner.det_bound = 10.0
    assert s.notify_bound(runner) is True
    return s, blocked, runner, other


def test_wait_gate_cleared_by_an_epoch_bump():
    s, blocked, runner, other = _stashed_wait()
    other.state = ThreadState.EXITED
    s.remove(other)                     # an exit re-arms the stash
    assert s.notify_bound(runner) is False
    assert s.next_action() == (PROBE, blocked)


def test_wait_gate_cleared_by_note_progress():
    s, blocked, runner, other = _stashed_wait()
    s.note_progress()                   # partial IO moved guest state
    assert s.notify_bound(runner) is False
    assert s.next_action() == (PROBE, blocked)


def _add_stopped(s):
    s.add(make_thread(9, clock=0.5, stopped=True))


def _complete_candidate(s):
    candidate = next(t for t in s._index if t.tid == 1)
    candidate.state = ThreadState.RUNNING
    candidate.current_syscall = None
    s.completed(candidate)


@pytest.mark.parametrize("mutate", [
    _add_stopped,
    lambda s: s.remove(next(t for t in s._index if t.tid == 1)),
    lambda s: s.notify_stop(next(t for t in s._index if t.tid == 1)),
    lambda s: s.notify_running(next(t for t in s._index if t.tid == 3)),
    lambda s: s.note_killed(next(t for t in s._index if t.tid == 1)),
    _complete_candidate,
    lambda s: s.still_blocked(next(t for t in s._index if t.tid == 1)),
    lambda s: s.note_progress(),
], ids=["add", "remove", "notify_stop", "notify_running", "note_killed",
        "completed", "still_blocked", "note_progress"])
def test_every_other_mutation_clears_the_gate(mutate):
    """The gate only vouches for the exact state its WAIT saw: any
    scheduler mutation but a bystander's bound commit drops it."""
    s, candidate, holder, bystander = _gated_wait()
    mutate(s)
    bystander.det_bound += 1.0
    assert s.notify_bound(bystander) is False


def test_wait_gate_is_host_only():
    """Never captured in a snapshot; a restored scheduler starts
    without one.  The reference schedulers never gate."""
    from repro.ckpt.snapshot import _capture_sched, _restore_sched

    s, candidate, holder, bystander = _gated_wait()
    rec = _capture_sched(s)
    assert not any("gate" in key for key in rec)
    _restore_sched(s, rec, {t.tid: t for t in s._index})
    assert s.notify_bound(bystander) is False
    for kind in ("logical-ref", "strict"):
        other = make_scheduler(kind)
        t = make_thread(1, clock=1.0)
        other.add(t)
        assert other.next_action() == (WAIT, None)
        assert other.notify_bound(t) is None


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
