"""Per-layer spans for the traced run, recorded from outside the program.

``install(recorder)`` wraps the public entry points of each layer (see
``TARGETS``) at runtime; nothing under ``src/`` changes.  Every call
through a wrapper becomes a span — name, start, end, parent span, job id
— kept in memory (in forked pool workers too, shipped home with each
job's result) and written out when the run ends.  Self time is folded
online: a span's duration minus the time its child spans cover, summed
per ``(tag, span name)`` so the benchmark can split set-up, the first
pass and the rest of the timed passes.

The layer of a span is its name up to the first dot; ``bench.*`` spans
belong to the benchmark itself.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

_now = time.perf_counter_ns

#: (module, attribute, span name).  ``Class+.method`` wraps the method
#: on the class and on every subclass that defines its own copy; a plain
#: function is replaced in every ``repro`` module that imported it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.container", "DetTrace.run", "container.run"),
    ("repro.core.container", "DetTrace.resume", "container.resume"),
    ("repro.core.container", "DetTrace._prepare", "container.prepare"),
    ("repro.core.container", "_finish", "container.finish"),
    ("repro.kernel.kernel", "Kernel.run", "kernel.run"),
    ("repro.kernel.kernel", "Kernel.tracer_execute", "syscalls.exec"),
    ("repro.core.tracer", "DetTraceTracer.on_trace_stop", "tracer.hook"),
    ("repro.core.tracer", "DetTraceTracer.on_quiescent", "tracer.hook"),
    ("repro.core.tracer", "DetTraceTracer.on_thread_progress", "tracer.hook"),
    ("repro.tracer.ptrace", "TracerBase.charge", "tracer.charge"),
    ("repro.core.tracer", "DetTraceTracer._run_handler", "handlers.run"),
    ("repro.core.scheduler", "SchedulerBase+.next_action",
     "scheduler.next_action"),
    ("repro.core.scheduler", "SchedulerBase+.notify_stop", "scheduler.update"),
    ("repro.core.scheduler", "SchedulerBase+.notify_bound", "scheduler.update"),
    ("repro.core.scheduler", "SchedulerBase+.notify_running",
     "scheduler.update"),
    ("repro.core.scheduler", "SchedulerBase+.completed", "scheduler.update"),
    ("repro.core.scheduler", "SchedulerBase+.still_blocked",
     "scheduler.update"),
    ("repro.kernel.filesystem", "Filesystem.resolve", "fs.resolve"),
    ("repro.kernel.filesystem", "Filesystem.dirent_order", "fs.dirent"),
    ("repro.obs.collector", "Collector.span", "obs.span"),
    ("repro.obs.collector", "Collector.count", "obs.collector"),
    ("repro.obs.collector", "Collector.charge", "obs.collector"),
    ("repro.obs.collector", "Collector.record", "obs.collector"),
    ("repro.obs.collector", "Collector.observe", "obs.collector"),
    ("repro.obs.collector", "Collector.gauge_max", "obs.collector"),
    ("repro.obs.metrics", "Metrics.from_run", "obs.metrics"),
    ("repro.workloads.debian.builder", "package_image", "workloads.image"),
    ("repro.workloads.bioinf.tools", "tool_image", "workloads.image"),
    ("repro.workloads.ml.tensorflow", "tf_image", "workloads.image"),
    ("repro.workloads.debian.builder", "build_dettrace", "workloads.entry"),
    ("repro.workloads.bioinf.common", "run_dettrace", "workloads.entry"),
    ("repro.workloads.ml.tensorflow", "run_dettrace", "workloads.entry"),
    ("repro.cache", "RunCache.key_for", "cache.key"),
    ("repro.cache", "RunCache.lookup", "cache.lookup"),
    ("repro.cache", "RunCache.store_result", "cache.store"),
    ("repro.cache.outcome", "CachedOutcome.to_result", "cache.materialize"),
    ("repro.ckpt.manager", "CheckpointManager.snapshot", "ckpt.snapshot"),
    ("repro.ckpt.manager", "RecoveryManager.load", "ckpt.load"),
    ("repro.ckpt.snapshot", "restore", "ckpt.restore"),
    ("repro.diag.bisect", "bisect_divergence", "diag.bisect"),
    ("repro.diag.bisect", "_barrier_fingerprints", "diag.probe"),
    ("repro.parallel", "run_jobs", "parallel.run_jobs"),
)

#: The span that brackets one benchmark job; its self time is the
#: benchmark's own work, outside every named layer.
JOB_SPAN = "bench.job"

#: Spans kept per process (and merged into the parent) before further
#: spans are only counted; self times stay exact past the cap.
SPAN_CAP = 250_000

#: The recorder the wrappers report to.  Module state on purpose: forked
#: pool workers inherit the wrappers, and the job functions they run
#: must reach the same (copied) recorder.
ACTIVE: Optional["Recorder"] = None


class Recorder:
    """Span store plus online self-time accumulators for one process."""

    def __init__(self, cap: int = SPAN_CAP):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.cap = cap
        self.tag = "setup"
        self.job = -1
        self.missing: List[str] = []
        self.dropped = 0
        self._reset(os.getpid())

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self.stack: List[list] = []
        #: (tag, name id) -> [self ns, calls, inclusive ns]
        self.agg: Dict[Tuple[str, int], List[int]] = {}
        #: Spans merged from pool workers: (pid, name, start, end,
        #: parent, job) arrays with chunk-local parent indices.
        self.chunks: List[tuple] = []
        self.kept = 0
        self._new_arrays()

    def _new_arrays(self) -> None:
        self.s_name = array.array("i")
        self.s_start = array.array("q")
        self.s_end = array.array("q")
        self.s_parent = array.array("q")
        self.s_job = array.array("q")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- the hot path ----------------------------------------------------

    def enter(self, nid: int) -> None:
        stack = self.stack
        idx = -1
        if self.kept < self.cap:
            idx = len(self.s_name)
            self.s_name.append(nid)
            self.s_start.append(0)
            self.s_end.append(0)
            self.s_parent.append(stack[-1][3] if stack else -1)
            self.s_job.append(self.job)
            self.kept += 1
        else:
            self.dropped += 1
        stack.append([nid, _now(), 0, idx])
        if idx >= 0:
            self.s_start[idx] = stack[-1][1]

    def exit(self) -> None:
        end = _now()
        nid, start, child, idx = self.stack.pop()
        dur = end - start
        if idx >= 0:
            self.s_end[idx] = end
        if self.stack:
            self.stack[-1][2] += dur
        key = (self.tag, nid)
        acc = self.agg.get(key)
        if acc is None:
            self.agg[key] = [dur - child, 1, dur]
        else:
            acc[0] += dur - child
            acc[1] += 1
            acc[2] += dur

    # -- jobs and pool workers -------------------------------------------

    @contextlib.contextmanager
    def job_span(self, tag: str, job: int):
        """Bracket one benchmark job; in a freshly forked worker, first
        drop the state inherited from the parent."""
        if os.getpid() != self.pid:
            self._reset(os.getpid())
        self.tag, self.job = tag, job
        self.enter(self.name_id(JOB_SPAN))
        try:
            yield
        finally:
            self.exit()

    def drain(self) -> tuple:
        """This process's spans and sums since the last drain (shipped
        home with a worker's job result), then forget them.  The cap
        keeps counting across drains."""
        payload = (self.pid, self.s_name.tobytes(), self.s_start.tobytes(),
                   self.s_end.tobytes(), self.s_parent.tobytes(),
                   self.s_job.tobytes(), self.agg, self.dropped)
        self.agg = {}
        self.dropped = 0
        self._new_arrays()
        return payload

    def merge(self, payload: tuple) -> None:
        pid, name, start, end, parent, job, agg, dropped = payload
        for key, (self_ns, calls, incl) in agg.items():
            acc = self.agg.setdefault(key, [0, 0, 0])
            acc[0] += self_ns
            acc[1] += calls
            acc[2] += incl
        self.dropped += dropped
        arrays = []
        for code, raw in (("i", name), ("q", start), ("q", end),
                          ("q", parent), ("q", job)):
            arr = array.array(code)
            arr.frombytes(raw)
            arrays.append(arr)
        if self.kept + len(arrays[0]) > self.cap:
            self.dropped += len(arrays[0])
            return
        self.kept += len(arrays[0])
        self.chunks.append((pid,) + tuple(arrays))

    # -- read-out ----------------------------------------------------------

    def totals(self, tags) -> Dict[str, List[int]]:
        """span name -> [self ns, calls, inclusive ns] over *tags*."""
        out: Dict[str, List[int]] = {}
        for (tag, nid), (self_ns, calls, incl) in self.agg.items():
            if tag not in tags:
                continue
            acc = out.setdefault(self.names[nid], [0, 0, 0])
            acc[0] += self_ns
            acc[1] += calls
            acc[2] += incl
        return out

    def span_count(self) -> int:
        return self.kept

    def write(self, path: str) -> None:
        """Every kept span as one ``.npz``: parallel arrays ``name``
        (index into ``names``), ``start``/``end`` (ns, monotonic clock),
        ``parent`` (row index, -1 for a root), ``job`` and ``pid``."""
        import numpy as np

        own = (self.pid, self.s_name, self.s_start, self.s_end,
               self.s_parent, self.s_job)
        cols: Dict[str, list] = {k: [] for k in
                                 ("name", "start", "end", "parent", "job",
                                  "pid")}
        offset = 0
        for pid, name, start, end, parent, job in [own] + self.chunks:
            n = len(name)
            cols["name"].append(np.frombuffer(name, dtype=np.int32))
            cols["start"].append(np.frombuffer(start, dtype=np.int64))
            cols["end"].append(np.frombuffer(end, dtype=np.int64))
            par = np.frombuffer(parent, dtype=np.int64)
            cols["parent"].append(np.where(par >= 0, par + offset, -1))
            cols["job"].append(np.frombuffer(job, dtype=np.int64))
            cols["pid"].append(np.full(n, pid, dtype=np.int64))
            offset += n
        np.savez(path, names=np.array(self.names),
                 **{k: np.concatenate(v) for k, v in cols.items()})


def _wrap(fn, rec: Recorder, nid: int):
    enter, leave = rec.enter, rec.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return traced


def _hierarchy(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _wrap_method(cls, attr: str, rec: Recorder, nid: int) -> None:
    raw = inspect.getattr_static(cls, attr)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrap(raw.__func__, rec, nid)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_wrap(raw.__func__, rec, nid)))
    else:
        setattr(cls, attr, _wrap(raw, rec, nid))


def _wrap_function(module, attr: str, rec: Recorder, nid: int) -> None:
    orig = getattr(module, attr)
    wrapped = _wrap(orig, rec, nid)
    for name, mod in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def install(rec: Recorder) -> List[str]:
    """Wrap every target for *rec*; returns the targets that no longer
    exist (they are reported, never fatal)."""
    global ACTIVE
    ACTIVE = rec
    for module_name, target, span in TARGETS:
        nid = rec.name_id(span)
        try:
            module = importlib.import_module(module_name)
            if "." in target:
                owner, attr = target.split(".", 1)
                if owner.endswith("+"):
                    classes = [c for c in _hierarchy(getattr(module,
                                                             owner[:-1]))
                               if attr in vars(c)]
                else:
                    classes = [getattr(module, owner)]
                if not classes:
                    raise AttributeError(target)
                for cls in classes:
                    _wrap_method(cls, attr, rec, nid)
            else:
                _wrap_function(module, target, rec, nid)
        except (ImportError, AttributeError):
            rec.missing.append("%s:%s" % (module_name, target))
    rec.name_id(JOB_SPAN)
    return rec.missing
