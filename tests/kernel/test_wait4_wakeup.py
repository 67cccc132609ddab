"""wait4(-1) must see a child that a sibling thread spawns while it waits.

The waiter parks on the exit channels of the children it has *now*; a
child spawned afterwards by another thread of the same process joins the
candidate set, so the spawn itself has to wake the waiter (the process's
``spawn_channel``).  Without that wake the native kernel misses the
quick child's exit and reaps the slow child first, about two virtual
seconds later, while DetTrace (which re-probes after every serviced
syscall) reaps the quick one.
"""

from repro.cpu.machine import HostEnvironment
from tests.conftest import dettrace_run, native_run


def _slow(sys):
    for _ in range(20):  # syscalls between slices: no busy-wait verdict
        yield from sys.compute(0.1)
        yield from sys.time()
    return 5


def _quick(sys):
    yield from sys.compute(1e-3)
    return 3


def _spawner(sys):
    yield from sys.compute(1e-2)
    # A serviced syscall hands the serialization token back (§5.7), so
    # under DetTrace the main thread is already waiting when we spawn.
    yield from sys.time()
    yield from sys.spawn("/bin/quick")
    return 0


def _main(sys):
    slow = yield from sys.spawn("/bin/slow")
    yield from sys.spawn_thread(_spawner)
    first = yield from sys.waitpid(-1)
    second = yield from sys.waitpid(-1)
    order = ["slow" if r.pid == slow else "quick" for r in (first, second)]
    yield from sys.write_file("order", " ".join(order))
    return 0


BINARIES = {"/bin/slow": _slow, "/bin/quick": _quick}


def test_native_waiter_wakes_for_a_sibling_spawned_child():
    result = native_run(_main, host=HostEnvironment(entropy_seed=3),
                        extra_binaries=BINARIES)
    assert result.exit_code == 0, (result.status, result.error)
    assert result.output_tree["order"] == b"quick slow"


def test_dettrace_reaps_the_quick_child_first():
    results = [dettrace_run(_main, host=HostEnvironment(entropy_seed=s),
                            extra_binaries=BINARIES) for s in (1, 2)]
    for result in results:
        assert result.exit_code == 0, (result.status, result.error)
        assert result.output_tree["order"] == b"quick slow"


def test_native_and_dettrace_agree():
    native = native_run(_main, extra_binaries=BINARIES)
    traced = dettrace_run(_main, extra_binaries=BINARIES)
    assert native.output_tree["order"] == traced.output_tree["order"]
