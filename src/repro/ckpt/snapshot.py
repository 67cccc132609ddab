"""Capture and restore of the complete deterministic run state.

``capture(kernel)`` walks a quiescent kernel (between events, with the
tracer not pumping) and produces a picklable payload dict holding

* the host environment (with its RNG streams mid-state),
* the filesystem as a node-record table (hard links and unlinked-but-
  open inodes dedup through object identity; device nodes record their
  path so restore can graft the live read/write hooks from a freshly
  installed image),
* pipes, open file descriptions (shared across forked fd tables by
  identity) and per-process fd tables,
* process/thread records with every scheduler-visible scalar,
* the event heap (as descriptors, not closures), the parked-thread map
  and the serialization token state,
* the reproducible scheduler's heaps, the tracer's PRNG/logical-clock/
  inode-table state, fault-injector progress, obs collector, stats,
* and the resume tape (:mod:`repro.ckpt.tape`).

``restore(kernel, payload)`` inverts it into a freshly *prepared* kernel
(image installed, tracer attached, faults wired — the same code path a
normal run uses, so device closures and handler tables are live objects).
Guest generator frames are rebuilt by **fast-forward**: re-driving fresh
generators with the taped input sequence in global order.  Everything
else is overlaid directly.  Restore performs no host-RNG draws: the
host's entropy streams continue exactly from the barrier.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import pickle
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..kernel.errors import GuestCrash, SyscallError
from ..kernel.fds import FDTable, OpenFile
from ..kernel.inode import Inode
from ..kernel.ops import Syscall, VdsoCall
from ..kernel.pipes import Pipe
from ..kernel.process import Process, Thread, ThreadState
from ..kernel.waiting import Channel
from . import journal
from .tape import OPAQUE, decode_value, encode_tape, encode_value

PAYLOAD_KIND = "repro.ckpt.payload"
DELTA_KIND = "repro.ckpt.delta"

#: Every top-level payload key except the fs node table, the tape and the
#: kind marker.  These sections are rebuilt wholesale at every barrier (in
#: a deterministic discovery order, so an unchanged section is *pickle
#: byte-equal* to its previous capture); a delta snapshot carries only the
#: sections whose pickled hash moved since its base.
SECTION_KEYS = (
    "host", "clock_now", "stats", "obs", "network", "stdout", "stderr",
    "timers", "pid_next", "tid_next", "nspid_next", "seq", "cores_busy",
    "core_queue", "fs_meta", "pipes", "pipe_counter", "sockets",
    "of_records", "processes", "events", "parked", "sched", "tracer",
    "faults",
)

#: Sections that move at (virtually) every event — the clock, the event
#: heap, counters, scheduler bookkeeping, thread det-clocks.  Hashing
#: them per barrier to discover "changed" would burn a pickle only to
#: answer "yes", so deltas include them unconditionally and skip the
#: hash.  They are all small; the occasional genuinely-unchanged one
#: costs a few hundred redundant bytes, not correctness (delta sections
#: are wholesale replacements).
VOLATILE_KEYS = frozenset((
    "clock_now", "stats", "obs", "events", "sched", "tracer", "processes",
))

#: Fingerprint scopes (see :func:`state_fingerprint`).
GUEST_SCOPE = "guest"
FULL_SCOPE = "full"

#: Pickle protocol pinned for fingerprint stability: the digest of a
#: canonical state must not change when the interpreter's
#: HIGHEST_PROTOCOL does.
_FP_PROTOCOL = 4


class CheckpointUnsupported(RuntimeError):
    """The run holds state a snapshot cannot represent (e.g. open
    loopback sockets, which embed live kernel callbacks)."""


class RestoreError(RuntimeError):
    """A snapshot could not be faithfully rehydrated (divergent replay,
    missing binary, unknown descriptor)."""


class DeltaUnsupported(RuntimeError):
    """The dirty set cannot be encoded against the cached base (e.g. a
    dirty device inode with no cached path).  Internal signal: the
    manager falls back to a full snapshot, never an error to the run."""


# ----------------------------------------------------------------------
# small helpers shared by capture and restore
# ----------------------------------------------------------------------

def _procfs_pos(node: Inode) -> Optional[int]:
    """Extract the procfs read-offset dict hidden in a device closure."""
    fn = node.dev_read
    cells = getattr(fn, "__closure__", None) or ()
    for cell in cells:
        try:
            v = cell.cell_contents
        except ValueError:  # pragma: no cover - empty cell
            continue
        if isinstance(v, dict) and set(v) == {"pos"}:
            return v["pos"]
    return None


def _set_procfs_pos(node: Inode, pos: int) -> None:
    fn = node.dev_read
    cells = getattr(fn, "__closure__", None) or ()
    for cell in cells:
        try:
            v = cell.cell_contents
        except ValueError:  # pragma: no cover
            continue
        if isinstance(v, dict) and set(v) == {"pos"}:
            v["pos"] = pos
            return


def _encode_call(call: Optional[Syscall]) -> Optional[Tuple]:
    if call is None:
        return None
    return ("syscall", call.name, encode_value(dict(call.args)))


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------

def _node_record(node: Inode, path: Optional[str]) -> Dict[str, Any]:
    """One inode as a picklable record.

    ``path`` is recorded for device nodes only (restore grafts the live
    read/write hooks from a freshly installed image by path); everything
    else is path-free so a record never goes stale under rename.
    Directory entries reference children by ``(ino, generation)`` key.
    """
    is_device = node.dev_read is not None or node.dev_write is not None
    return {
        "ino": node.ino, "kind": node.kind, "mode": node.mode,
        "uid": node.uid, "gid": node.gid, "nlink": node.nlink,
        "atime": node.atime, "mtime": node.mtime, "ctime": node.ctime,
        "data": bytes(node.data), "symlink_target": node.symlink_target,
        "generation": node.generation, "open_count": node.open_count,
        "device": is_device, "path": path if is_device else None,
        "proc_pos": _procfs_pos(node) if is_device else None,
        "fifo": (node.fifo_pipe.pipe_id
                 if node.fifo_pipe is not None else None),
        "entries": ({name: (child.ino, child.generation)
                     for name, child in node.entries.items()}
                    if node.is_dir else None),
    }


def _capture_runtime(kernel) -> Tuple[
        Dict[str, Any], Dict[Tuple[int, int], Tuple[Inode, Optional[str]]]]:
    """Build every payload section except the fs node table and the tape.

    Returns ``(sections, referenced)`` where *referenced* maps the
    ``(ino, generation)`` key of every inode reachable through runtime
    references (open descriptions, process cwds) to the live object and
    a path hint — the capture paths use it to include unlinked-but-open
    inodes the root walk cannot see.

    Discovery order is deterministic (process list order, fd-table
    insertion order, pipe ids sorted), so an unchanged section pickles
    byte-identically barrier after barrier — the property the delta
    encoder's section-hash comparison rests on.
    """
    tracer = kernel.tracer
    fs = kernel.fs

    # -- channels & pipes ------------------------------------------------
    pipes: Dict[int, Pipe] = {}
    chan_desc: Dict[Channel, Tuple] = {}

    def note_pipe(pipe: Optional[Pipe]) -> None:
        if pipe is None or pipe.pipe_id in pipes:
            return
        pipes[pipe.pipe_id] = pipe
        for nm in ("readable", "writable", "reader_arrived", "writer_arrived"):
            chan_desc[getattr(pipe, nm)] = ("pipe", pipe.pipe_id, nm)

    for proc in kernel.processes:
        chan_desc[proc.exit_channel] = ("proc_exit", proc.pid)
        chan_desc[proc.signal_channel] = ("proc_signal", proc.pid)
        chan_desc[proc.spawn_channel] = ("proc_spawn", proc.pid)
        for addr, ch in proc.futex_channels.items():
            chan_desc[ch] = ("futex", proc.pid, addr)
    # FIFO-backing pipes are registered on the filesystem, so discovery
    # needs no tree walk (the delta path never walks the tree).
    for node in fs.fifo_inodes():
        note_pipe(node.fifo_pipe)
    # Socket listeners: rendezvous channels keyed by their deterministic
    # (family, address) identity, plus the pipes of queued-but-unaccepted
    # connections (reachable through no fd table yet).
    for (family, addr), listener in sorted(kernel.sockets.listeners.items()):
        chan_desc[listener.accept_ready] = ("sock", family, addr,
                                            "accept_ready")
        chan_desc[listener.accept_slot] = ("sock", family, addr,
                                           "accept_slot")
        for to_server, to_client, _peer in listener.pending:
            note_pipe(to_server)
            note_pipe(to_client)

    referenced: Dict[Tuple[int, int], Tuple[Inode, Optional[str]]] = {}

    # -- open file descriptions (shared by identity across fdtables) ----
    of_records: Dict[int, Dict[str, Any]] = {}

    def visit_of(of: OpenFile) -> int:
        key = id(of)
        if key not in of_records:
            if getattr(of, "socket", None) is not None:
                # In-guest loopback/unix sockets are plain pipe-backed
                # descriptions and snapshot fine; only the fake
                # *external* network peer carries live host state.
                raise CheckpointUnsupported(
                    "open external-network socket fds cannot cross a "
                    "snapshot (peer %r)" % (of.sock_peer or of.path))
            note_pipe(of.pipe)
            note_pipe(of.peer_pipe)
            inode_key = None
            if of.inode is not None:
                inode_key = (of.inode.ino, of.inode.generation)
                if inode_key not in referenced:
                    referenced[inode_key] = (of.inode, of.path or None)
            of_records[key] = {
                "kind": of.kind, "flags": of.flags, "offset": of.offset,
                "path": of.path,
                "inode": inode_key,
                "pipe": of.pipe.pipe_id if of.pipe is not None else None,
                "peer_pipe": (of.peer_pipe.pipe_id
                              if of.peer_pipe is not None else None),
                "refcount": of.refcount, "counts_inode": of.counts_inode,
                "sock_local": of.sock_local, "sock_peer": of.sock_peer,
                "sock_family": of.sock_family, "sock_bound": of.sock_bound,
                "listener": ((of.listener.family, of.listener.address)
                             if of.listener is not None else None),
                "shut_rd": of.shut_rd, "shut_wr": of.shut_wr,
            }
        return key

    # -- processes & threads --------------------------------------------
    def chan_ref(ch: Channel) -> Tuple:
        desc = chan_desc.get(ch)
        if desc is None:
            raise CheckpointUnsupported(
                "thread waits on unknown channel %r" % ch.name)
        return desc

    plan_rules = (tuple(kernel.faults.plan.rules)
                  if kernel.faults is not None else ())

    def armed_ref(armed) -> Optional[Tuple]:
        if armed is None:
            return None
        pos = next((i for i, r in enumerate(plan_rules) if r is armed.rule),
                   None)
        if pos is None:  # pragma: no cover - rule always from the plan
            pos = plan_rules.index(armed.rule)
        return (pos, armed.pid, armed.index, armed.syscall)

    proc_records: List[Dict[str, Any]] = []
    for proc in kernel.processes:
        fdt = {fd: visit_of(of) for fd, of in proc.fdtable.items()}
        cwd_key = (proc.cwd.ino, proc.cwd.generation)
        if cwd_key not in referenced:
            referenced[cwd_key] = (proc.cwd, proc.cwd_path)
        step_queue = None
        squeue = proc.memory.get("_step_queue")
        if squeue is not None:
            step_queue = [(t.tid, encode_value(v), encode_value(e))
                          for t, v, e in squeue]
        token = getattr(proc, "_step_token", None)
        threads = []
        for th in proc.threads:
            threads.append({
                "tid": th.tid, "state": th.state,
                "cpu_time": th.cpu_time,
                "compute_since_syscall": th.compute_since_syscall,
                "pending_signals": list(th.pending_signals),
                "det_clock": th.det_clock, "det_bound": th.det_bound,
                "pending_latency": th.pending_latency,
                "token_queued": th.token_queued,
                "current_syscall_index": th.current_syscall_index,
                "obs_attempt": th.obs_attempt, "obs_faulted": th.obs_faulted,
                "signal_interrupted": getattr(th, "signal_interrupted", False),
                "io_cost": getattr(th, "_io_cost", 0.0),
                "on_core": getattr(th, "_on_core", False),
                "wait_channels": [chan_ref(ch) for ch in th.wait_channels],
                "parked_call": _encode_call(getattr(th, "_parked_call", None)),
                "cs_none": th.current_syscall is None,
                "armed": armed_ref(th.armed_fault),
            })
        proc_records.append({
            "pid": proc.pid, "nspid": proc.nspid,
            "parent": proc.parent.pid if proc.parent is not None else None,
            "children": [c.pid for c in proc.children],
            "cwd": cwd_key,
            "cwd_path": proc.cwd_path,
            "uid": proc.uid, "gid": proc.gid, "umask": proc.umask,
            "aslr_base": proc.aslr_base,
            "exit_status": proc.exit_status, "reaped": proc.reaped,
            "exe_path": proc.exe_path, "vdso_patched": proc.vdso_patched,
            "syscall_index": proc.syscall_index,
            "argv": list(proc.argv), "env": dict(proc.env),
            "sigmask": proc.memory.get("_sigmask"),
            "step_queue": step_queue,
            "step_token": token.tid if token is not None else None,
            "signals_delivered": getattr(proc, "_signals_delivered", 0),
            "pause_acks": getattr(proc, "_pause_acks", 0),
            "fdtable": fdt,
            "threads": threads,
        })

    # -- event heap (descriptors, verbatim heap order) ------------------
    events = []
    for entry in kernel._events:
        t, seq, _fn, desc = entry
        if desc is None:
            raise CheckpointUnsupported(
                "scheduled event without a descriptor: %r" % (_fn,))
        if desc[0] == "step":
            desc = ("step", desc[1], encode_value(desc[2]),
                    encode_value(desc[3]))
        events.append((t, seq, desc))

    parked = [(chan_ref(ch), [t.tid for t in ts])
              for ch, ts in kernel._parked.items()]

    # -- pipes (sorted by id: deterministic regardless of discovery) ----
    pipe_records = {
        pid: {
            "capacity": pipes[pid].capacity,
            "buffer": bytes(pipes[pid].buffer),
            "readers": pipes[pid].readers, "writers": pipes[pid].writers,
            "ever_had_reader": pipes[pid].ever_had_reader,
            "ever_had_writer": pipes[pid].ever_had_writer,
        } for pid in sorted(pipes)}

    # -- scheduler -------------------------------------------------------
    sched_rec = _capture_sched(tracer.sched) if tracer is not None else None

    # -- tracer ----------------------------------------------------------
    tracer_rec = None
    if tracer is not None:
        tracer_rec = {
            "counters": tracer.counters,
            "busy_until": tracer.busy_until,
            "span_cost": tracer._span_cost,
            "prng_state": tracer.prng.state,
            "logical": tracer.logical,
            "inodes": tracer.inodes,
            "io_state": dict(tracer.io_state),
            "last_proc": (tracer._last_proc.pid
                          if tracer._last_proc is not None else None),
        }

    # -- faults ----------------------------------------------------------
    faults_rec = None
    if kernel.faults is not None:
        inj = kernel.faults
        faults_rec = {
            "attempt": inj.attempt,
            "fired": dict(inj._fired),
            "trace": list(inj.trace),
            "transient_fired": inj.transient_fired,
        }

    sections: Dict[str, Any] = {
        "host": kernel.host,
        "clock_now": kernel.clock.now,
        "stats": kernel.stats,
        "obs": kernel.obs,
        "network": dict(kernel.network),
        "stdout": list(kernel.stdout.chunks),
        "stderr": list(kernel.stderr.chunks),
        "timers": kernel.timers,
        "pid_next": kernel._pid_next,
        "tid_next": kernel._tid_next,
        "nspid_next": kernel._nspid_next,
        "seq": kernel._seq,
        "cores_busy": kernel.cores_busy,
        "core_queue": [(t.tid, d) for t, d in kernel._core_queue],
        "fs_meta": {
            "alloc_next": fs._alloc._next,
            "alloc_free": list(fs._alloc._free),
            "alloc_gens": dict(fs._alloc._gen),
            "device_id": fs.device_id,
            "bytes_written": fs._bytes_written,
            "resolve_hits": fs.resolve_hits,
            "resolve_misses": fs.resolve_misses,
            "dirent_hits": fs.dirent_hits,
            "dirent_misses": fs.dirent_misses,
        },
        "pipes": pipe_records,
        "pipe_counter": Pipe._counter,
        "sockets": _capture_sockets(kernel.sockets),
        "of_records": of_records,
        "processes": proc_records,
        "events": events,
        "parked": parked,
        "sched": sched_rec,
        "tracer": tracer_rec,
        "faults": faults_rec,
    }
    return sections, referenced


def capture(kernel, tape_encoded: Optional[List[Tuple]] = None,
            ) -> Dict[str, Any]:
    """Serialize the complete deterministic state of *kernel*.

    Must be called at a barrier: between events, tracer not mid-pump.
    Raises :class:`CheckpointUnsupported` for state that cannot cross a
    snapshot.  Pure reads — the running kernel is never mutated.

    The node table is keyed by ``(ino, generation)``: stable across
    number recycling, so delta snapshots can reference base records
    without positional coupling.

    *tape_encoded* is the manager's incrementally-maintained encoding of
    the whole tape (one ``encode_tape`` per entry ever, instead of
    re-encoding the full history at every full snapshot); it is used
    only when its length matches the live tape.
    """
    mgr = kernel.ckpt
    if mgr is None:
        raise CheckpointUnsupported(
            "capture requires tape recording enabled from boot "
            "(ContainerConfig.checkpoint)")
    sections, referenced = _capture_runtime(kernel)
    fs = kernel.fs
    nodes: Dict[Tuple[int, int], Dict[str, Any]] = {}

    def visit(node: Inode, path: str) -> None:
        key = (node.ino, node.generation)
        if key in nodes:
            return
        nodes[key] = _node_record(node, path)
        if node.is_dir:
            base = path.rstrip("/")
            for name, child in node.entries.items():
                visit(child, base + "/" + name)

    visit(fs.root, "/")
    for key, (node, path) in referenced.items():
        if key not in nodes:
            # Unlinked-but-open inodes (and rmdir'd cwds) are unreachable
            # from the root walk; runtime references discover them.
            visit(node, path or "?")

    if tape_encoded is not None and len(tape_encoded) == len(mgr.tape):
        tape = list(tape_encoded)
    else:
        tape = encode_tape(mgr.tape)
    payload: Dict[str, Any] = {
        "kind": PAYLOAD_KIND,
        "fs_nodes": nodes,
        "fs_root": (fs.root.ino, fs.root.generation),
        "tape": tape,
    }
    payload.update(sections)
    return payload


def _section_digest(key: str, value: Any) -> str:
    """Change-detection digest of one section value.

    The host environment gets an O(1) special case: its only run-time
    mutable state is its RNG streams, every draw bumps its
    ``_state_version``, and pickling Mersenne state every barrier was
    the single most expensive hash in a delta capture."""
    if key == "host":
        version = getattr(value, "_state_version", None)
        if version is not None:
            return "host-version-%d" % version
    if key == "sockets":
        # Same O(1) trick: the registry stamps a dirty epoch on every
        # mutation, so deltas stay O(changed) for socket-free stretches.
        return "sockets-version-%d" % value["version"]
    return hashlib.sha256(pickle.dumps(value, _FP_PROTOCOL)).hexdigest()


def section_hashes(payload: Dict[str, Any]) -> Dict[str, str]:
    """Per-section change-detection digests of *payload*'s sections.

    :data:`VOLATILE_KEYS` are excluded — deltas carry them
    unconditionally, so their hashes would never be consulted."""
    return {key: _section_digest(key, payload[key])
            for key in SECTION_KEYS if key not in VOLATILE_KEYS}


def capture_delta(kernel, base_section_hashes: Dict[str, str],
                  tape_base_len: int,
                  device_paths: Dict[Tuple[int, int], str],
                  tape_encoded: Optional[List[Tuple]] = None,
                  ) -> Tuple[Dict[str, Any], Dict[str, str], int]:
    """Serialize only the state changed since the last snapshot.

    Returns ``(delta, new_section_hashes, dirty_count)``.  The delta
    carries the sections whose pickled hash moved, the records of inodes
    stamped dirty since the filesystem's last ``clear_dirty()``, the
    keys of fully-released inodes, and the tape tail past
    *tape_base_len*.  Raises :class:`DeltaUnsupported` when the dirty
    set cannot be encoded against the base (the manager then takes a
    full snapshot instead).
    """
    mgr = kernel.ckpt
    if mgr is None:
        raise CheckpointUnsupported(
            "capture requires tape recording enabled from boot "
            "(ContainerConfig.checkpoint)")
    sections, referenced = _capture_runtime(kernel)
    new_hashes: Dict[str, str] = {}
    changed: Dict[str, Any] = {}
    for key in SECTION_KEYS:
        if key in VOLATILE_KEYS:
            changed[key] = sections[key]
            continue
        digest = _section_digest(key, sections[key])
        new_hashes[key] = digest
        if base_section_hashes.get(key) != digest:
            changed[key] = sections[key]

    fs = kernel.fs

    def delta_record(node: Inode, key: Tuple[int, int],
                     path_hint: Optional[str]) -> Dict[str, Any]:
        path = None
        if node.dev_read is not None or node.dev_write is not None:
            path = device_paths.get(key, path_hint)
            if path is None:
                raise DeltaUnsupported(
                    "dirty device inode %r has no cached path" % (key,))
        return _node_record(node, path)

    dirty: Dict[Tuple[int, int], Dict[str, Any]] = {}
    for key, node in fs.dirty_nodes().items():
        # Inclusion rule: a dirty record enters the delta iff the node is
        # still live — named, open, or held by a runtime reference (cwd /
        # open description).  This makes the materialized node set equal
        # to what a fresh full capture would enumerate.
        if node.nlink > 0 or node.open_count > 0 or key in referenced:
            dirty[key] = delta_record(node, key, None)
    dead: List[Tuple[int, int]] = []
    for key in fs.dead_keys():
        if key in referenced:
            # Released inode number, but a cwd/description still holds
            # the object (e.g. a process inside an rmdir'd directory):
            # resurrect the record instead of dropping it.
            node, path_hint = referenced[key]
            dirty[key] = delta_record(node, key, path_hint)
        elif key not in dirty:
            dead.append(key)

    if tape_encoded is not None and len(tape_encoded) == len(mgr.tape):
        tape_tail = list(tape_encoded[tape_base_len:])
    else:
        tape_tail = encode_tape(mgr.tape[tape_base_len:])
    delta: Dict[str, Any] = {
        "kind": DELTA_KIND,
        "sections": changed,
        "fs_dirty": dirty,
        "fs_dead": dead,
        "tape_from": tape_base_len,
        "tape_tail": tape_tail,
    }
    return delta, new_hashes, len(dirty) + len(dead)


def materialize_delta(base: Dict[str, Any],
                      delta: Dict[str, Any]) -> Dict[str, Any]:
    """Compose *delta* onto its materialized *base*.

    Returns a payload equivalent to a full capture at the delta's
    barrier: changed sections replace the base's wholesale, dead node
    records drop, dirty records overlay, and the tape tail extends the
    base tape.  The result feeds :func:`restore` unchanged.
    """
    if base.get("kind") != PAYLOAD_KIND:
        raise RestoreError("delta base is not a checkpoint payload")
    if delta.get("kind") != DELTA_KIND:
        raise RestoreError("not a delta snapshot record")
    if delta["tape_from"] != len(base["tape"]):
        raise RestoreError(
            "delta tape tail does not align with its base "
            "(%d != %d taped entries)"
            % (delta["tape_from"], len(base["tape"])))
    payload = dict(base)
    payload.update(delta["sections"])
    nodes = dict(base["fs_nodes"])
    for key in delta["fs_dead"]:
        nodes.pop(key, None)
    nodes.update(delta["fs_dirty"])
    payload["fs_nodes"] = nodes
    payload["tape"] = list(base["tape"]) + list(delta["tape_tail"])
    payload["kind"] = PAYLOAD_KIND
    return payload


def _capture_sockets(reg) -> Dict[str, Any]:
    """The socket registry as a plain section: addresses, the port
    counter and listener queues (pipes by id — their contents live in
    the ``pipes`` section).  Listener iteration is sorted by the
    deterministic (family, address) key, so an unchanged registry
    pickles byte-identically."""
    return {
        "version": reg.version,
        "port_next": reg.port_next,
        "bound": sorted(reg.bound),
        "listeners": [
            {"family": family, "address": addr, "backlog": l.backlog,
             "pending": [(ts.pipe_id, tc.pipe_id, peer)
                         for ts, tc, peer in l.pending]}
            for (family, addr), l in sorted(reg.listeners.items())],
    }


def _restore_sockets(srec: Optional[Dict[str, Any]],
                     pipes_by_id: Dict[int, Pipe]):
    from ..kernel.sockets import Listener, SocketRegistry

    reg = SocketRegistry()
    if srec is None:  # pre-sockets snapshot
        return reg
    reg.version = srec["version"]
    reg.port_next = srec["port_next"]
    reg.bound = {tuple(key): True for key in srec["bound"]}
    for lrec in srec["listeners"]:
        listener = Listener(lrec["family"], lrec["address"], lrec["backlog"])
        listener.pending = [(pipes_by_id[ts], pipes_by_id[tc], peer)
                            for ts, tc, peer in lrec["pending"]]
        reg.listeners[(lrec["family"], lrec["address"])] = listener
    return reg


def _capture_sched(sched) -> Optional[Dict[str, Any]]:
    from ..core.scheduler import (
        LogicalClockRefScheduler,
        LogicalClockScheduler,
        StrictQueueScheduler,
    )

    if sched is None:
        return None
    if isinstance(sched, LogicalClockScheduler):
        return {
            "kind": "logical",
            "index": [(t.tid, i) for t, i in sched._index.items()],
            "next_index": sched._next_index,
            "service_seq": sched._service_seq,
            "fail_seq": [(t.tid, s) for t, s in sched._fail_seq.items()],
            "stop_heap": [(c, i, t.tid) for c, i, t in sched._stop_heap],
            "stash": [(c, i, t.tid) for c, i, t in sched._stash],
            "bound_heap": [(b, i, t.tid, s)
                           for b, i, t, s in sched._bound_heap],
        }
    if isinstance(sched, LogicalClockRefScheduler):
        return {
            "kind": "logical-ref",
            "threads": [t.tid for t in sched._threads],
            "index": [(t.tid, i) for t, i in sched._index.items()],
            "next_index": sched._next_index,
            "service_seq": sched._service_seq,
            "fail_seq": [(t.tid, s) for t, s in sched._fail_seq.items()],
        }
    if isinstance(sched, StrictQueueScheduler):
        return {
            "kind": "strict",
            "parallel": [t.tid for t in sched.parallel],
            "runnable": [t.tid for t in sched.runnable],
            "blocked": [t.tid for t in sched.blocked],
            "probe_credit": sched._probe_credit,
        }
    raise CheckpointUnsupported(
        "unknown scheduler implementation %r" % type(sched).__name__)


# ----------------------------------------------------------------------
# fast-forward: rebuilding generator frames from the tape
# ----------------------------------------------------------------------

class _FastForward:
    """Re-drives fresh guest generators with the taped input sequence."""

    def __init__(self, kernel, threads_by_tid: Dict[int, Thread]):
        self.kernel = kernel
        self.threads = threads_by_tid
        #: Last op each tid yielded (live object, real callables intact).
        self.last_op: Dict[int, Any] = {}
        #: Last op that would have been *dispatched* as a syscall.
        self.last_dispatchable: Dict[int, Syscall] = {}
        #: Old-disposition value of the most recent sigaction per tid —
        #: the substitution source for OPAQUE tape values.
        self.pending_override: Dict[int, Any] = {}
        self.done: set = set()
        #: The tape in live (unencoded) form, to seed the resumed
        #: manager so later snapshots keep working.
        self.live_tape: List[Tuple] = []

    def _thread(self, tid: int) -> Thread:
        th = self.threads.get(tid)
        if th is None:
            raise RestoreError("tape references unknown tid %d" % tid)
        return th

    def _sub(self, tid: int) -> Callable[[], Any]:
        def sub():
            if tid not in self.pending_override:
                raise RestoreError(
                    "opaque tape value for tid %d with no sigaction "
                    "old-disposition to substitute" % tid)
            return self.pending_override[tid]
        return sub

    def _drive(self, th: Thread, value: Any, exc: Optional[BaseException]) -> None:
        tid = th.tid
        if tid in self.done:
            return
        if not th.gen_stack:
            raise RestoreError("send to tid %d before its spawn entry" % tid)
        gen = th.gen_stack[-1]
        try:
            if exc is not None:
                op = gen.throw(exc)
            else:
                op = gen.send(value)
        except StopIteration:
            if len(th.gen_stack) > 1:
                th.gen_stack.pop()
                saved = th.process.memory.get("_saved_%d" % tid) or []
                if saved:
                    saved.pop()
                return
            self.done.add(tid)
            return
        except (GuestCrash, SyscallError):
            self.done.add(tid)
            return
        except BaseException as err:
            raise RestoreError(
                "fast-forward diverged for tid %d: guest raised %s: %s"
                % (tid, type(err).__name__, err))
        self.last_op[tid] = op
        if isinstance(op, Syscall):
            self.last_dispatchable[tid] = op
        elif isinstance(op, VdsoCall):
            self.last_dispatchable[tid] = Syscall(op.name, dict(op.args))

    def run(self, tape: List[Tuple]) -> None:
        k = self.kernel
        for entry in tape:
            kind = entry[0]
            if kind == "send":
                _, tid, enc = entry
                th = self._thread(tid)
                value = decode_value(enc, self._sub(tid))
                self.live_tape.append(("send", tid, value))
                self._drive(th, value, None)
            elif kind == "throw":
                _, tid, enc = entry
                th = self._thread(tid)
                exc = decode_value(enc, self._sub(tid))
                self.live_tape.append(("throw", tid, exc))
                self._drive(th, None, exc)
            elif kind == "push":
                _, tid, signum, enc_v, enc_e = entry
                th = self._thread(tid)
                action = th.process.signal_handlers.get(signum)
                if not callable(action):
                    raise RestoreError(
                        "push of signal %d for tid %d but handler is %r"
                        % (signum, tid, action))
                v = decode_value(enc_v, self._sub(tid))
                e = decode_value(enc_e, self._sub(tid))
                th.process.memory.setdefault(
                    "_saved_%d" % tid, []).append((v, e))
                th.gen_stack.append(action(k.make_sys(th), signum))
                self.live_tape.append(("push", tid, signum, v, e))
            elif kind == "spawn":
                _, tid, path, argv, env = entry
                th = self._thread(tid)
                proc = th.process
                proc.argv = list(argv)
                proc.env = dict(env)
                proc.exe_path = path
                factory = k.binaries.get(path)
                if factory is None:
                    raise RestoreError("binary %r not in image" % path)
                th.gen_stack = [factory(k.make_sys(th))]
                self.live_tape.append(entry)
            elif kind == "exec":
                _, tid, path, argv, env = entry
                th = self._thread(tid)
                proc = th.process
                proc.argv = list(argv)
                proc.env = dict(env)
                proc.exe_path = path
                proc.memory.pop("_saved_%d" % tid, None)
                factory = k.binaries.get(path)
                if factory is None:
                    raise RestoreError("binary %r not in image" % path)
                th.gen_stack = [factory(k.make_sys(th))]
                self.done.discard(tid)
                self.live_tape.append(entry)
            elif kind == "tspawn":
                _, tid, caller_tid = entry
                th = self._thread(tid)
                op = self.last_op.get(caller_tid)
                if not isinstance(op, Syscall) or "func" not in op.args:
                    raise RestoreError(
                        "tspawn for tid %d: caller %d not suspended at "
                        "spawn_thread" % (tid, caller_tid))
                th.gen_stack = [op.args["func"](k.make_sys(th))]
                self.live_tape.append(entry)
            elif kind == "sigact":
                _, tid, signum = entry
                th = self._thread(tid)
                op = self.last_op.get(tid)
                if not isinstance(op, Syscall) or op.name != "sigaction":
                    raise RestoreError(
                        "sigact for tid %d but last op is %r" % (tid, op))
                proc = th.process
                old = proc.signal_handlers.get(signum, "default")
                proc.signal_handlers[signum] = op.args.get("action")
                self.pending_override[tid] = old
                self.live_tape.append(entry)
            else:
                raise RestoreError("unknown tape entry kind %r" % kind)


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------

def restore(kernel, payload: Dict[str, Any]) -> List[Tuple]:
    """Rehydrate *payload* into a freshly prepared *kernel*.

    The kernel must have been prepared exactly as for a normal run of
    the same config: image installed, tracer attached, fault plan
    wired.  Returns the live resume tape (for the resumed run's own
    checkpoint manager).  Raises :class:`RestoreError` on divergence.
    """
    if payload.get("kind") != PAYLOAD_KIND:
        raise RestoreError("not a checkpoint payload")
    tracer = kernel.tracer

    # -- plain overlays --------------------------------------------------
    kernel.clock.now = payload["clock_now"]
    kernel.stats = payload["stats"]
    kernel.obs = payload["obs"]
    if tracer is not None:
        tracer.obs = kernel.obs
    kernel.network = dict(payload["network"])
    kernel.stdout.chunks[:] = list(payload["stdout"])
    kernel.stderr.chunks[:] = list(payload["stderr"])
    kernel.timers = payload["timers"]
    kernel._pid_next = payload["pid_next"]
    kernel._tid_next = payload["tid_next"]
    kernel._nspid_next = payload["nspid_next"]
    kernel._seq = payload["seq"]

    # -- pipes -----------------------------------------------------------
    pipes_by_id: Dict[int, Pipe] = {}
    for pid_, rec in payload["pipes"].items():
        p = Pipe.__new__(Pipe)
        p.pipe_id = pid_
        p.capacity = rec["capacity"]
        p.buffer = bytearray(rec["buffer"])
        p.readers = rec["readers"]
        p.writers = rec["writers"]
        p.readable = Channel("pipe%d.readable" % pid_)
        p.writable = Channel("pipe%d.writable" % pid_)
        p.reader_arrived = Channel("pipe%d.reader_arrived" % pid_)
        p.writer_arrived = Channel("pipe%d.writer_arrived" % pid_)
        p.ever_had_reader = rec["ever_had_reader"]
        p.ever_had_writer = rec["ever_had_writer"]
        pipes_by_id[pid_] = p
    Pipe._counter = payload["pipe_counter"]

    # -- socket registry (before of_records: listener identity) ---------
    kernel.sockets = _restore_sockets(payload.get("sockets"), pipes_by_id)

    # -- filesystem ------------------------------------------------------
    fs = kernel.fs
    fresh_devices: Dict[str, Inode] = {}
    for path, node in fs.walk():
        if node.dev_read is not None or node.dev_write is not None:
            fresh_devices[path] = node
    recs = payload["fs_nodes"]
    objs: Dict[Tuple[int, int], Inode] = {}
    for key, rec in recs.items():
        node = Inode(ino=rec["ino"], kind=rec["kind"], mode=rec["mode"],
                     uid=rec["uid"], gid=rec["gid"], nlink=rec["nlink"],
                     atime=rec["atime"], mtime=rec["mtime"],
                     ctime=rec["ctime"], data=bytearray(rec["data"]),
                     symlink_target=rec["symlink_target"],
                     generation=rec["generation"])
        if rec["open_count"]:
            node.open_count = rec["open_count"]
        if rec["fifo"] is not None:
            node.fifo_pipe = pipes_by_id[rec["fifo"]]
        if rec["device"]:
            fresh = fresh_devices.get(rec["path"])
            if fresh is None:
                raise RestoreError(
                    "device %r in snapshot has no counterpart in the "
                    "freshly installed image" % rec["path"])
            node.dev_read = fresh.dev_read
            node.dev_write = fresh.dev_write
            if rec["proc_pos"] is not None:
                _set_procfs_pos(node, rec["proc_pos"])
        objs[key] = node
    for key, rec in recs.items():
        if rec["entries"] is not None:
            objs[key].entries = {name: objs[tuple(ckey)]
                                 for name, ckey in rec["entries"].items()}
    fs.root = objs[tuple(payload["fs_root"])]
    meta = payload["fs_meta"]
    fs._alloc._next = meta["alloc_next"]
    fs._alloc._free = list(meta["alloc_free"])
    fs._alloc._gen = dict(meta["alloc_gens"])
    fs.device_id = meta["device_id"]
    fs._bytes_written = meta["bytes_written"]
    fs.resolve_hits = meta["resolve_hits"]
    fs.resolve_misses = meta["resolve_misses"]
    fs.dirent_hits = meta["dirent_hits"]
    fs.dirent_misses = meta["dirent_misses"]
    # Identity-keyed caches cannot survive object replacement.
    fs._namei_cache.clear()
    fs._namei_epoch_seen = Inode.namei_epoch
    # Re-arm dirty tracking over the rebuilt objects: the resumed run's
    # checkpoint manager starts from a full snapshot anyway, so the
    # dirty set starts empty and FIFO registrations are rebuilt.
    fs.reset_dirty_state(objs.values())

    # -- open file descriptions -----------------------------------------
    ofs_by_id: Dict[int, OpenFile] = {}
    for ofid, rec in payload["of_records"].items():
        of = OpenFile(
            kind=rec["kind"], flags=rec["flags"], offset=rec["offset"],
            path=rec["path"],
            inode=(None if rec["inode"] is None
                   else objs[tuple(rec["inode"])]),
            pipe=None if rec["pipe"] is None else pipes_by_id[rec["pipe"]],
            refcount=rec["refcount"],
            peer_pipe=(None if rec["peer_pipe"] is None
                       else pipes_by_id[rec["peer_pipe"]]),
            counts_inode=rec["counts_inode"],
            sock_local=rec.get("sock_local", ""),
            sock_peer=rec.get("sock_peer", ""),
            sock_family=rec.get("sock_family", 0),
            sock_bound=rec.get("sock_bound", False),
            shut_rd=rec.get("shut_rd", False),
            shut_wr=rec.get("shut_wr", False))
        lkey = rec.get("listener")
        if lkey is not None:
            of.listener = kernel.sockets.lookup(lkey[0], lkey[1])
            if of.listener is None:
                raise RestoreError(
                    "listening fd %r has no registry entry" % rec["path"])
        ofs_by_id[ofid] = of

    # -- processes & threads (shells first; frames come from replay) ----
    procs_by_pid: Dict[int, Process] = {}
    threads_by_tid: Dict[int, Thread] = {}
    kernel.processes = []
    for prec in payload["processes"]:
        proc = Process(pid=prec["pid"], nspid=prec["nspid"], parent=None,
                       root=fs.root, cwd=objs[tuple(prec["cwd"])],
                       cwd_path=prec["cwd_path"], env={}, argv=[],
                       uid=prec["uid"], gid=prec["gid"],
                       aslr_base=prec["aslr_base"])
        proc.exit_status = prec["exit_status"]
        proc.reaped = prec["reaped"]
        proc.vdso_patched = prec["vdso_patched"]
        proc.syscall_index = prec["syscall_index"]
        # Pre-umask snapshots carry no mask; the kernel default matches
        # what every process effectively had then.
        proc.umask = prec.get("umask", 0o022)
        proc.fdtable = FDTable()
        for fd, ofid in prec["fdtable"].items():
            proc.fdtable._fds[fd] = ofs_by_id[ofid]
        if prec["signals_delivered"]:
            proc._signals_delivered = prec["signals_delivered"]
        if prec["pause_acks"]:
            proc._pause_acks = prec["pause_acks"]
        for trec in prec["threads"]:
            th = Thread(tid=trec["tid"], process=proc, gen=None)
            th.gen_stack = []
            proc.threads.append(th)
            threads_by_tid[trec["tid"]] = th
        procs_by_pid[proc.pid] = proc
        kernel.processes.append(proc)
    for prec in payload["processes"]:
        proc = procs_by_pid[prec["pid"]]
        if prec["parent"] is not None:
            proc.parent = procs_by_pid[prec["parent"]]
        proc.children = [procs_by_pid[c] for c in prec["children"]]

    # -- fault injector overlay (installed fresh by the caller) ---------
    inj = kernel.faults
    frec = payload["faults"]
    if (inj is None) != (frec is None):
        raise RestoreError("fault plane presence differs from snapshot")
    if inj is not None:
        if inj.attempt != frec["attempt"]:
            raise RestoreError(
                "resume attempt %d != snapshot attempt %d"
                % (inj.attempt, frec["attempt"]))
        inj._fired = dict(frec["fired"])
        inj.trace = list(frec["trace"])
        inj.transient_fired = frec["transient_fired"]
    # Never re-fire the crash that interrupted the original run.
    kernel._kill_at = None

    # -- fast-forward replay --------------------------------------------
    ff = _FastForward(kernel, threads_by_tid)
    ff.run(payload["tape"])

    # Divergence check: replayed guest state must agree with the barrier.
    for prec in payload["processes"]:
        proc = procs_by_pid[prec["pid"]]
        if list(proc.argv) != list(prec["argv"]) or \
                dict(proc.env) != dict(prec["env"]):
            raise RestoreError(
                "fast-forward diverged for pid %d: argv/env mismatch"
                % prec["pid"])
        proc.exe_path = prec["exe_path"]

    def chan_of(desc: Tuple) -> Channel:
        k0 = desc[0]
        if k0 == "proc_exit":
            return procs_by_pid[desc[1]].exit_channel
        if k0 == "proc_signal":
            return procs_by_pid[desc[1]].signal_channel
        if k0 == "proc_spawn":
            return procs_by_pid[desc[1]].spawn_channel
        if k0 == "futex":
            return procs_by_pid[desc[1]].futex_channel(desc[2])
        if k0 == "pipe":
            return getattr(pipes_by_id[desc[1]], desc[2])
        if k0 == "sock":
            listener = kernel.sockets.lookup(desc[1], desc[2])
            if listener is None:
                raise RestoreError("no restored listener for %r" % (desc,))
            return getattr(listener, desc[3])
        raise RestoreError("unknown channel descriptor %r" % (desc,))

    # -- thread scalar overlays -----------------------------------------
    for prec in payload["processes"]:
        proc = procs_by_pid[prec["pid"]]
        if prec["sigmask"] is not None:
            proc.memory["_sigmask"] = prec["sigmask"]
        for trec in prec["threads"]:
            th = threads_by_tid[trec["tid"]]
            tid = trec["tid"]
            th.state = trec["state"]
            th.cpu_time = trec["cpu_time"]
            th.compute_since_syscall = trec["compute_since_syscall"]
            th.pending_signals = list(trec["pending_signals"])
            th.det_clock = trec["det_clock"]
            th.det_bound = trec["det_bound"]
            th.pending_latency = trec["pending_latency"]
            th.token_queued = trec["token_queued"]
            th.current_syscall_index = trec["current_syscall_index"]
            th.obs_attempt = trec["obs_attempt"]
            th.obs_faulted = trec["obs_faulted"]
            if trec["signal_interrupted"]:
                th.signal_interrupted = True
            if trec["io_cost"]:
                th._io_cost = trec["io_cost"]
            if trec["on_core"]:
                th._on_core = True
            th.wait_channels = [chan_of(d) for d in trec["wait_channels"]]
            pc = trec["parked_call"]
            if pc is not None:
                call = Syscall(pc[1], decode_value(pc[2], ff._sub(tid)))
                th._parked_call = call
            if trec["cs_none"]:
                th.current_syscall = None
            else:
                lop = ff.last_op.get(tid)
                if isinstance(lop, Syscall):
                    # Genuinely stopped at (or stale from) this syscall;
                    # the live op keeps real callables (spawn_thread).
                    th.current_syscall = lop
                elif (isinstance(lop, VdsoCall)
                      and th.state is ThreadState.TRACE_STOP):
                    th.current_syscall = Syscall(lop.name, dict(lop.args))
                else:
                    # Stale value from an earlier dispatch: only its
                    # non-None-ness is scheduler-visible.
                    th.current_syscall = (
                        ff.last_dispatchable.get(tid)
                        or Syscall("restored-stale", {}))
            if trec["armed"] is not None:
                from ..faults.injector import ArmedFault
                pos, apid, aindex, asyscall = trec["armed"]
                th.armed_fault = ArmedFault(inj.plan.rules[pos], apid,
                                            aindex, asyscall)
        if prec["step_queue"] is not None:
            proc.memory["_step_queue"] = [
                (threads_by_tid[tid],
                 decode_value(v, ff._sub(tid)),
                 decode_value(e, ff._sub(tid)))
                for tid, v, e in prec["step_queue"]]
        if prec["step_token"] is not None:
            proc._step_token = threads_by_tid[prec["step_token"]]

    # -- event heap ------------------------------------------------------
    kernel._events = []
    for t, seq, desc in payload["events"]:
        kernel._events.append(
            (t, seq, _event_fn(kernel, desc, threads_by_tid, procs_by_pid, ff),
             _decode_desc(desc, ff)))
    # The captured array was a literal heap snapshot; order is preserved.

    kernel._parked = {}
    for desc, tids in payload["parked"]:
        kernel._parked[chan_of(desc)] = [threads_by_tid[t] for t in tids
                                         if t in threads_by_tid]

    kernel.cores_busy = payload["cores_busy"]
    kernel._core_queue = [(threads_by_tid[tid], d)
                          for tid, d in payload["core_queue"]
                          if tid in threads_by_tid]

    # -- scheduler -------------------------------------------------------
    if tracer is not None:
        _restore_sched(tracer.sched, payload["sched"], threads_by_tid)

    # -- tracer ----------------------------------------------------------
    trec = payload["tracer"]
    if (tracer is None) != (trec is None):
        raise RestoreError("tracer presence differs from snapshot")
    if tracer is not None:
        tracer.counters = trec["counters"]
        tracer.busy_until = trec["busy_until"]
        tracer._span_cost = trec["span_cost"]
        # In place: /dev/random's read hook is a bound method of this
        # exact Lfsr object (grafted above from the fresh image).
        tracer.prng.state = trec["prng_state"]
        tracer.logical = trec["logical"]
        tracer.inodes = trec["inodes"]
        tracer.io_state = dict(trec["io_state"])
        tracer._last_proc = (procs_by_pid[trec["last_proc"]]
                             if trec["last_proc"] is not None else None)
        tracer._pumping = False
        tracer._ctx_cache.clear()
        if inj is not None:
            inj.counters = tracer.counters
            inj.obs = kernel.obs

    return ff.live_tape


def _decode_desc(desc: Tuple, ff: _FastForward) -> Tuple:
    if desc[0] == "step":
        tid = desc[1]
        return ("step", tid, decode_value(desc[2], ff._sub(tid)),
                decode_value(desc[3], ff._sub(tid)))
    return desc


def _event_fn(kernel, desc: Tuple, threads: Dict[int, Thread],
              procs: Dict[int, Process], ff: _FastForward) -> Callable[[], None]:
    kind = desc[0]
    if kind == "timer":
        proc = procs[desc[1]]
        generation = desc[2]
        return lambda: kernel._fire_timer(proc, generation)
    th = threads.get(desc[1])
    if th is None:
        # The thread object was dropped (execve sibling teardown); the
        # live event would have been a no-op on the dead thread, but it
        # still consumes a tick and advances the clock.
        return lambda: None
    if kind == "step":
        tid = desc[1]
        value = decode_value(desc[2], ff._sub(tid))
        exc = decode_value(desc[3], ff._sub(tid))
        return lambda: kernel._step_or_wait(th, value, exc)
    if kind == "finish_compute":
        return lambda: kernel._finish_compute(th)
    if kind == "retry_parked":
        return lambda: kernel._retry_parked(th)
    if kind == "release_token":
        return lambda: kernel._release_token(th)
    raise RestoreError("unknown event descriptor %r" % (desc,))


def _restore_sched(sched, rec: Optional[Dict[str, Any]],
                   threads: Dict[int, Thread]) -> None:
    from ..core.scheduler import (
        LogicalClockRefScheduler,
        LogicalClockScheduler,
        StrictQueueScheduler,
    )

    if sched is None or rec is None:
        if (sched is None) != (rec is None):
            raise RestoreError("scheduler presence differs from snapshot")
        return

    def tmap(tid):
        return threads.get(tid)

    if rec["kind"] == "logical":
        if not isinstance(sched, LogicalClockScheduler):
            raise RestoreError("scheduler kind mismatch")
        sched._index = {threads[tid]: i for tid, i in rec["index"]
                        if tid in threads}
        sched._next_index = rec["next_index"]
        sched._service_seq = rec["service_seq"]
        sched._fail_seq = {threads[tid]: s for tid, s in rec["fail_seq"]
                           if tid in threads}
        # Entries for dropped thread objects were permanently stale (the
        # index check can never match again); with them filtered out the
        # remaining keys are unique, so heapify reproduces pop order.
        sched._stop_heap = [(c, i, threads[tid])
                            for c, i, tid in rec["stop_heap"]
                            if tid in threads]
        heapq.heapify(sched._stop_heap)
        sched._stash = [(c, i, threads[tid]) for c, i, tid in rec["stash"]
                        if tid in threads]
        sched._bound_heap = [(b, i, threads[tid], s)
                             for b, i, tid, s in rec["bound_heap"]
                             if tid in threads]
        heapq.heapify(sched._bound_heap)
        sched._killed = {t for t in sched._index if not t.alive}
        # The WAIT gate is host-only and never captured: start without.
        sched._gated = False
    elif rec["kind"] == "logical-ref":
        if not isinstance(sched, LogicalClockRefScheduler):
            raise RestoreError("scheduler kind mismatch")
        sched._threads = [threads[tid] for tid in rec["threads"]
                          if tid in threads]
        sched._index = {threads[tid]: i for tid, i in rec["index"]
                        if tid in threads}
        sched._next_index = rec["next_index"]
        sched._service_seq = rec["service_seq"]
        sched._fail_seq = {threads[tid]: s for tid, s in rec["fail_seq"]
                           if tid in threads}
    elif rec["kind"] == "strict":
        if not isinstance(sched, StrictQueueScheduler):
            raise RestoreError("scheduler kind mismatch")
        from collections import deque
        sched.parallel = deque(threads[tid] for tid in rec["parallel"]
                               if tid in threads)
        sched.runnable = deque(threads[tid] for tid in rec["runnable"]
                               if tid in threads)
        sched.blocked = deque(threads[tid] for tid in rec["blocked"]
                              if tid in threads)
        sched._probe_credit = rec["probe_credit"]
    else:
        raise RestoreError("unknown scheduler record %r" % rec["kind"])


# ----------------------------------------------------------------------
# deterministic state fingerprints (repro.diag bisection, ckpt verify)
# ----------------------------------------------------------------------

#: Payload keys whose values describe the *guest-visible machine* — the
#: surface two runs of the same program must agree on tick for tick.
_GUEST_KEYS = (
    "clock_now", "network", "stdout", "stderr", "timers",
    "pid_next", "tid_next", "nspid_next", "seq",
    "cores_busy", "core_queue", "fs_root", "events",
)

#: Additional keys for :data:`FULL_SCOPE`: determinization machinery
#: internals (tracer PRNG, scheduler heaps, host RNG streams, obs
#: counters, the resume tape).  Excluded from :data:`GUEST_SCOPE` so
#: that two runs whose *configs* legitimately differ (e.g. different
#: ``prng_seed``) fingerprint equal until the first tick where the
#: difference leaks into guest-visible state — which is exactly the
#: tick divergence bisection wants to find.
_FULL_KEYS = ("host", "stats", "obs", "fs_meta", "sched", "tracer",
              "faults", "tape")


def _canonical_maps(payload: Dict[str, Any],
                    ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Identity-erasing remaps for the two unstable namespaces.

    * pipe ids come from a *process-global* counter
      (``Pipe._counter``), so the Nth run in one interpreter hands out
      different ids than the first for identical state;
    * open-file-description keys are ``id(of)`` memory addresses.

    Both are remapped to dense, deterministic indices (pipes by sorted
    creation order, descriptions by capture order, which follows the
    deterministic process/fd walk).
    """
    pipe_map = {pid: i for i, pid in enumerate(sorted(payload["pipes"]))}
    of_map = {ofid: i for i, ofid in enumerate(payload["of_records"])}
    return pipe_map, of_map


def _canonical_chan(desc: Tuple, pipe_map: Dict[int, int]) -> Tuple:
    if desc and desc[0] == "pipe":
        return ("pipe", pipe_map.get(desc[1], -1), desc[2])
    return tuple(desc)


def _canonical_node(rec: Dict[str, Any],
                    pipe_map: Dict[int, int]) -> Dict[str, Any]:
    """One node record with unstable identifiers erased.

    Drops the device ``path`` hint (a restore-graft detail that a
    rename would make stale — the live name lives in the parent's
    ``entries``) and remaps the fifo pipe id.  Entries stay keyed by
    ``(ino, generation)``, which the deterministic allocator makes
    run-stable.
    """
    rec = dict(rec)
    rec.pop("path", None)
    if rec.get("fifo") is not None:
        rec["fifo"] = pipe_map.get(rec["fifo"], -1)
    return rec


def _canonical_pipes(payload: Dict[str, Any],
                     pipe_map: Dict[int, int]) -> List[Tuple]:
    return [(pipe_map[pid], payload["pipes"][pid])
            for pid in sorted(payload["pipes"])]


def _canonical_of_records(payload: Dict[str, Any],
                          pipe_map: Dict[int, int]) -> List[Dict[str, Any]]:
    of_records = []
    for rec in payload["of_records"].values():
        rec = dict(rec)
        for key in ("pipe", "peer_pipe"):
            if rec.get(key) is not None:
                rec[key] = pipe_map.get(rec[key], -1)
        of_records.append(rec)
    return of_records


def _canonical_processes(payload: Dict[str, Any], pipe_map: Dict[int, int],
                         of_map: Dict[int, int]) -> List[Dict[str, Any]]:
    processes = []
    for prec in payload["processes"]:
        prec = dict(prec)
        prec["fdtable"] = [(fd, of_map[ofid])
                           for fd, ofid in sorted(prec["fdtable"].items())]
        threads = []
        for trec in prec["threads"]:
            trec = dict(trec)
            trec["wait_channels"] = [_canonical_chan(d, pipe_map)
                                     for d in trec["wait_channels"]]
            threads.append(trec)
        prec["threads"] = threads
        processes.append(prec)
    return processes


def _canonical_parked(payload: Dict[str, Any],
                      pipe_map: Dict[int, int]) -> List[Tuple]:
    return [(_canonical_chan(d, pipe_map), list(tids))
            for d, tids in payload["parked"]]


def _canonical_sockets(payload: Dict[str, Any],
                       pipe_map: Dict[int, int]) -> Optional[Dict[str, Any]]:
    """The sockets section with unstable identifiers erased: pending
    pipe ids remapped, the internal dirty epoch dropped (it counts
    mutations, not guest-visible state)."""
    srec = payload.get("sockets")
    if srec is None:  # pre-sockets payload
        return None
    return {
        "port_next": srec["port_next"],
        "bound": [tuple(key) for key in srec["bound"]],
        "listeners": [
            {"family": lrec["family"], "address": lrec["address"],
             "backlog": lrec["backlog"],
             "pending": [(pipe_map.get(ts, -1), pipe_map.get(tc, -1), peer)
                         for ts, tc, peer in lrec["pending"]]}
            for lrec in srec["listeners"]],
    }


def canonical_state(payload: Dict[str, Any],
                    scope: str = GUEST_SCOPE) -> Dict[str, Any]:
    """Reduce a capture payload to a canonical, comparison-safe form.

    Every reference into the unstable namespaces (see
    :func:`_canonical_maps`) — fd tables, fifo inodes, pipe-channel
    descriptors in wait lists and the parked map — is rewritten to the
    dense deterministic index.  The node table is emitted sorted by
    ``(ino, generation)`` key so a payload materialized from a delta
    chain canonicalizes identically to a fresh full capture of the
    same state, whatever dict order composition produced.
    """
    if scope not in (GUEST_SCOPE, FULL_SCOPE):
        raise ValueError("unknown fingerprint scope %r" % scope)
    pipe_map, of_map = _canonical_maps(payload)

    fs_nodes = [(key, _canonical_node(payload["fs_nodes"][key], pipe_map))
                for key in sorted(payload["fs_nodes"])]

    state: Dict[str, Any] = {key: payload[key] for key in _GUEST_KEYS}
    state.update({
        "fs_nodes": fs_nodes,
        "pipes": _canonical_pipes(payload, pipe_map),
        "sockets": _canonical_sockets(payload, pipe_map),
        "of_records": _canonical_of_records(payload, pipe_map),
        "processes": _canonical_processes(payload, pipe_map, of_map),
        "parked": _canonical_parked(payload, pipe_map),
        "scope": scope,
    })
    if scope == FULL_SCOPE:
        state.update({key: payload[key] for key in _FULL_KEYS})
        # The tape is reduced to per-entry digests: pickling the list
        # wholesale memoizes objects shared *across* entries, so a tape
        # composed from delta-chain segments (where the journal
        # round-trip severed cross-entry sharing) would compare unequal
        # to a live capture of the very same entries.
        state["tape"] = tuple(
            hashlib.sha256(pickle.dumps(entry, _FP_PROTOCOL)).hexdigest()
            for entry in payload["tape"])
        state["pipe_counter"] = len(pipe_map)
    return state


def state_fingerprint(payload: Dict[str, Any],
                      scope: str = GUEST_SCOPE) -> str:
    """Merkle-root sha256 of the canonical state of *payload*.

    Deterministic within a pinned pickle protocol: equal captured
    states — regardless of interpreter object identities or how many
    runs preceded them in this process — hash equal, and any
    guest-visible difference hashes different.  The digest is the root
    of the Merkle tree :mod:`repro.ckpt.merkle` maintains incrementally
    across delta chains, so chain cursors and from-scratch computation
    agree byte-for-byte.
    """
    from .merkle import merkle_fingerprint
    return merkle_fingerprint(payload, scope=scope)


@dataclasses.dataclass
class Snapshot:
    """One loaded checkpoint: barrier coordinates plus the live payload.

    The object the diagnosis plane works with: :meth:`fingerprint`
    exposes the canonical state digest that checkpoint bisection
    compares across two runs, and ``repro ckpt verify`` prints.
    """

    barrier: int
    vclock: float
    payload: Dict[str, Any]
    path: str = ""

    @classmethod
    def load(cls, path: str,
             fingerprint: Optional[str] = None) -> "Snapshot":
        """Load (and validate) a journal snapshot file."""
        header, blob = journal.load_snapshot(path, fingerprint=fingerprint)
        return cls(barrier=int(header["barrier"]),
                   vclock=float(header["vclock"]),
                   payload=pickle.loads(blob), path=path)

    def fingerprint(self, scope: str = GUEST_SCOPE) -> str:
        """Deterministic sha256 of this snapshot's canonical state."""
        return state_fingerprint(self.payload, scope=scope)
