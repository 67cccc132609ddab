"""Differential test for skipping unchanged blocked probes.

A blocked probe whose stamp still holds (same call, no armed fault, no
descriptor unbound, no named channel notified) reports would-block
without re-running the syscall body (``Kernel.unchanged_block``).  That
may only change host time.  Every program below runs twice: with the
skip, under a shadow oracle that re-runs the body of every skipped probe
and demands the same would-block, and with the skip patched off.  Trace
JSON, Table 2, metrics, virtual time and output digests must be
byte-identical.
"""

import dataclasses
import json
import os
from collections import Counter

import pytest

from repro.core import ContainerConfig, DetTrace
from repro.cpu.machine import HASWELL_XEON, HostEnvironment
from repro.fuzz.corpus import load_corpus
from repro.fuzz.guest import build_image
from repro.fuzz.runner import Cell, _host_for
from repro.guest import libc
from repro.kernel import Kernel
from repro.kernel.errors import Errno
from repro.kernel.fds import FdKind, OpenFile
from repro.kernel.ops import Syscall
from repro.kernel.process import Process, Thread
from repro.kernel.types import FUTEX_WAIT, O_WRONLY
from repro.kernel.waiting import WouldBlock
from repro.repro_tools import first_build_host
from repro.repro_tools.hashing import tree_digest
from repro.workloads import bioinf, ml
from repro.workloads.debian import build_dettrace, generate_population
from tests.conftest import dettrace_run
from tests.kernel.test_wait4_wakeup import BINARIES as WAIT4_BINARIES
from tests.kernel.test_wait4_wakeup import _main as wait4_main

pytestmark = pytest.mark.obs

CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "fuzz", "corpus")
OBSERVE = ContainerConfig(observe=True)


def surface(result) -> dict:
    """Everything a run exposes that the skip must leave unchanged."""
    return {
        "status": result.status,
        "exit_code": result.exit_code,
        "stdout": result.stdout,
        "stderr": result.stderr,
        "tree": tree_digest(result.output_tree),
        "virtual_s": result.wall_time,
        "syscalls": result.syscall_count,
        "counters": dataclasses.asdict(result.counters),
        "metrics": result.metrics.to_dict(),
        "trace": json.dumps(result.trace.to_chrome(), sort_keys=True),
    }


@pytest.fixture
def differential(monkeypatch):
    """run(fn) -> (surface with the skip, surface without, skipped names).

    *fn* builds and runs one container and returns its result."""
    real = Kernel.unchanged_block

    def shadowed(self, thread, call):
        channels = real(self, thread, call)
        if channels is not None:
            skipped[call.name] += 1
            try:
                self.table.execute(thread, call)
            except WouldBlock as wb:
                assert wb.channels == channels, call
            else:  # pragma: no cover - the failure this test exists for
                raise AssertionError("skipped a probe that completes: %r"
                                     % (call,))
        return channels

    def run(fn):
        skipped.clear()
        monkeypatch.setattr(Kernel, "unchanged_block", shadowed)
        on = surface(fn())
        names = Counter(skipped)
        monkeypatch.setattr(Kernel, "unchanged_block",
                            lambda self, thread, call: None)
        off = surface(fn())
        monkeypatch.setattr(Kernel, "unchanged_block", real)
        return on, off, names

    skipped: Counter = Counter()
    return run


def _sci_host():
    return HostEnvironment(machine=HASWELL_XEON, entropy_seed=41)


@pytest.mark.parametrize("tool", ["clustal", "hmmer"])
def test_bioinformatics_at_16(differential, tool):
    image = bioinf.tools.tool_image(bioinf.ALL_TOOLS[tool])
    on, off, skipped = differential(lambda: bioinf.run_dettrace(
        image, tool, 16, host=_sci_host(), config=OBSERVE))
    assert on == off
    assert on["exit_code"] == 0
    # The parent's wait4 fails again after nearly every serviced syscall.
    assert skipped["wait4"] > 100


def test_cifar10_at_16(differential):
    cfg = dataclasses.replace(ml.CIFAR10, threads=16)
    on, off, _ = differential(lambda: ml.run_dettrace(
        cfg, host=_sci_host(), config=OBSERVE))
    assert on == off
    assert on["exit_code"] == 0


def test_package_builds(differential):
    specs = [s for s in generate_population(12, seed=33)
             if not s.expect_dt_unsupported and not s.syscall_storm][:3]
    assert len(specs) == 3
    for spec in specs:
        on, off, skipped = differential(lambda: build_dettrace(
            spec, config=OBSERVE, host=first_build_host()).result)
        assert on == off, spec.name
        assert skipped["wait4"] > 0, spec.name


def _fifo_main(sys):
    yield from sys.mkfifo("channel")
    yield from sys.spawn("/bin/producer")
    fd = yield from sys.open("channel")
    data = yield from sys.read(fd, 12)   # one read; DetTrace retries
    yield from sys.write_file("got", data)
    yield from sys.waitpid(-1)
    return 0


def _fifo_producer(sys):
    fd = yield from sys.open("channel", O_WRONLY)
    for i in range(6):
        yield from sys.write_all(fd, b"%02d" % i)
        yield from sys.compute(3e-4)
    yield from sys.close(fd)
    return 0


def _pipe_main(sys):
    """A writer larger than the pipe buffer against a slow reader: partial
    writes, partial reads and blocked retries on both ends."""
    rfd, wfd = yield from sys.pipe()
    pid = yield from sys.spawn("/bin/writer", stdout=wfd, close_fds=[rfd])
    yield from sys.close(wfd)
    got = b""
    while True:
        yield from sys.compute(2e-4)
        yield from sys.time()   # serviced, wakes nobody: the writer's
        yield from sys.time()   # blocked probe is skipped here
        chunk = yield from sys.read(rfd, 50_000)
        if not chunk:
            break
        got += chunk
    yield from sys.write_file("digest", b"%d %d" % (len(got), sum(got)))
    yield from sys.waitpid(pid)
    return 0


def _pipe_writer(sys):
    yield from sys.write(1, bytes(range(256)) * 600)
    return 0


def _socket_server(sys):
    lfd = yield from libc.sock_stream_server(sys, "127.0.0.1:8080", backlog=1)
    pid = yield from sys.spawn("/bin/client", close_fds=[lfd])
    conn, peer = yield from sys.accept(lfd)
    while True:
        head = yield from libc.recv_exact(sys, conn, 4)
        if not head:
            break
        body = yield from libc.recv_exact(sys, conn, int(head))
        yield from libc.send_all(sys, conn, body.upper())
    yield from sys.close(conn)
    yield from sys.close(lfd)
    res = yield from sys.waitpid(pid)
    yield from sys.write_file("server.log", b"%s %d" % (peer.encode(),
                                                        res.status))
    return 0


def _socket_client(sys):
    fd = yield from libc.sock_stream_client(sys, "127.0.0.1:8080")
    replies = []
    for i in range(4):
        yield from sys.compute(1e-4 * (i + 1))
        msg = b"round %d" % i
        yield from libc.send_all(sys, fd, b"%04d" % len(msg) + msg)
        replies.append((yield from libc.recv_exact(sys, fd, len(msg))))
    yield from sys.shutdown(fd)
    yield from sys.close(fd)
    yield from sys.write_file("client.log", b"\n".join(replies))
    return 0


@pytest.mark.parametrize("main, binaries, config", [
    (_fifo_main, {"/bin/producer": _fifo_producer}, OBSERVE),
    (_pipe_main, {"/bin/writer": _pipe_writer}, OBSERVE),
    (_socket_server, {"/bin/client": _socket_client},
     ContainerConfig(observe=True, deterministic_loopback=True)),
    (wait4_main, WAIT4_BINARIES, OBSERVE),
], ids=["fifo", "partial-pipe", "socket", "wait4-sibling-spawn"])
def test_ipc_programs(differential, main, binaries, config):
    on, off, skipped = differential(lambda: dettrace_run(
        main, host=HostEnvironment(entropy_seed=5), config=config,
        extra_binaries=binaries))
    assert on == off
    assert on["exit_code"] == 0, on["stderr"]
    assert sum(skipped.values()) > 0


def test_fuzz_corpus_replay(differential):
    entries = load_corpus(CORPUS_DIR)
    assert entries
    cell = Cell("observe", observe=True)
    for entry in entries:
        spec = entry.spec
        on, off, _ = differential(lambda: DetTrace(cell.config()).run(
            build_image(spec), "/bin/fuzz", host=_host_for(spec.seed, 0)))
        assert on == off, entry.name


def test_futex_probe_is_never_skipped():
    """FUTEX_WAIT reads the futex word, which guest code stores to with
    no notify (``lock_release``): an unchanged stamp would be stale."""
    kernel = Kernel(HostEnvironment(entropy_seed=1))
    proc = Process(pid=1, nspid=1, parent=None, root=kernel.fs.root,
                   cwd=kernel.fs.root, cwd_path="/", env={}, argv=["t"])
    thread = Thread(tid=1, process=proc, gen=None)
    proc.threads.append(thread)
    proc.memory["lock"] = 1
    call = Syscall("futex", {"op": FUTEX_WAIT, "addr": "lock", "val": 1})
    assert kernel.tracer_execute(thread, call)[0] == "block"
    assert thread.block_stamp is None
    assert kernel.unchanged_block(thread, call) is None
    proc.memory["lock"] = 0   # the holder's store; its wake comes later
    tag, err = kernel.tracer_execute(thread, call)
    assert tag == "err" and err.errno == Errno.EAGAIN


def test_futex_contention_reexecutes_every_probe(differential, monkeypatch):
    executed = Counter()
    real_execute = Kernel.tracer_execute

    def counting(self, thread, call, nonblocking=True):
        outcome = real_execute(self, thread, call, nonblocking)
        executed[call.name, outcome[0]] += 1
        return outcome

    monkeypatch.setattr(Kernel, "tracer_execute", counting)
    cfg = dataclasses.replace(ml.ALEXNET, threads=16)
    on, off, skipped = differential(lambda: ml.run_dettrace(
        cfg, host=_sci_host(), config=OBSERVE))
    assert on == off
    assert executed["futex", "block"] > 0
    assert skipped["futex"] == 0


def test_stamp_survives_unrelated_wakes_only():
    """A stamp holds across notifies of channels it does not name and
    fails once a named one moves or a descriptor is unbound."""
    kernel = Kernel(HostEnvironment(entropy_seed=1))
    parent = Process(pid=1, nspid=1, parent=None, root=kernel.fs.root,
                     cwd=kernel.fs.root, cwd_path="/", env={}, argv=["p"])
    thread = Thread(tid=1, process=parent, gen=None)
    parent.threads.append(thread)
    child = Process(pid=2, nspid=2, parent=parent, root=kernel.fs.root,
                    cwd=kernel.fs.root, cwd_path="/", env={}, argv=["c"])
    parent.children.append(child)
    call = Syscall("wait4", {"pid": -1, "options": 0})
    assert kernel.tracer_execute(thread, call)[0] == "block"
    assert kernel.unchanged_block(thread, call) == [child.exit_channel,
                                                     parent.spawn_channel]
    kernel.notify(child.signal_channel)
    assert kernel.unchanged_block(thread, call) is not None
    assert kernel.unchanged_block(thread, Syscall("wait4", {"pid": 2})) is None
    kernel.notify(parent.spawn_channel)
    assert kernel.unchanged_block(thread, call) is None
    assert kernel.tracer_execute(thread, call)[0] == "block"
    assert kernel.unchanged_block(thread, call) is not None
    # A sibling's close rebinds descriptors without any notify.
    fd = parent.fdtable.install(
        OpenFile(kind=FdKind.DEVICE, path="/dev/null"))
    parent.fdtable.remove(fd)
    assert kernel.unchanged_block(thread, call) is None
