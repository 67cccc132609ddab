"""The benchmark's workloads.

Each workload turns a seed into an ordered list of jobs, one *pass*,
and runs passes closed-loop: a job starts only when the previous one has
finished (in ``pkg-sweep`` each pool worker is one such client).  Every
pass repeats pass 0's jobs, except in ``pkg-sweep``, where each pass
sweeps a new seeded population.  Pass 0 is the seed's reference unit:
its deterministic surfaces are compared against a fresh interpreter's
and, in the traced run, against the untraced run.

A job returns a record: host latency, the serviced syscalls of the
container results it produced, a deterministic ``surface`` (digests and
exact counts) and whether its output check passed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import time
from typing import Any, Dict, List, Tuple

from . import layers
from .speed import HostSpeed

#: Packages generated per sweep pass, before the ``syscall_storm``
#: packages are dropped (each runs ~2 s of one syscall loop).
POPULATION = 140
#: Packages per pass in ops-cache-hit.
CACHE_PACKAGES = 64
#: Checkpointed builds: a snapshot every 50 event ticks (delta chains on
#: the default full cadence) and a kill at a fixed tick.  The packages
#: have fixed shapes (469-867 event ticks, all past the kill) and seeded
#: names, hence seeded sources: a draw from the population varies 3x in
#: length, which moved a per-job percentile by 20% between seeds.
CKPT_EVERY = 50
KILL_TICK = 400
CKPT_SHAPES = (
    dict(language="c", n_sources=6, loc_per_source=300, parallel_jobs=2,
         include_probes=16),
    dict(language="cpp", n_sources=8, loc_per_source=400, parallel_jobs=4,
         include_probes=28, has_tests=True),
    dict(language="c", n_sources=4, loc_per_source=500, parallel_jobs=1,
         include_probes=44),
    dict(language="script", n_sources=10, loc_per_source=200,
         parallel_jobs=2, include_probes=8),
    dict(language="doc", n_sources=5, loc_per_source=300, parallel_jobs=2,
         include_probes=16),
)
CKPT_PER_SHAPE = 4
#: The science analogs: (tool, processes or threads).
SCI_JOBS = (("clustal", 4), ("clustal", 16), ("hmmer", 4), ("hmmer", 16),
            ("raxml", 4), ("raxml", 16), ("alexnet", 16), ("cifar10", 16))
#: --size smoke: the smallest inputs that still touch every layer.
SMOKE = {"population": 24, "cache": 4, "ckpt": 1,
         "sci": (("clustal", 4), ("cifar10", 16))}


#: ContainerResult.fs_cache_stats fields carried in a surface.
FS_STATS = ("resolve_hits", "resolve_misses", "dirent_hits", "dirent_misses")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def serviced_of(result) -> int:
    """Serviced syscall events a container result reports (a cache hit
    carries its producing run's Table 2 rows)."""
    if result.counters is not None:
        return result.counters.syscall_events
    if result.metrics is not None:
        return int(result.metrics.table2.get("System call events", 0))
    return 0


def surface(result, **extra) -> Dict[str, Any]:
    """The deterministic surface of one result: exact counts in the
    clear, everything else (tree, streams, Table 2, metrics, trace
    counters) folded into one digest."""
    from repro.repro_tools.hashing import tree_digest

    tree = tree_digest(result.output_tree)
    counters = (dataclasses.asdict(result.counters)
                if result.counters is not None else None)
    metrics = result.metrics.to_dict() if result.metrics is not None else None
    body = {"status": result.status, "exit": result.exit_code, "tree": tree,
            "stdout": _sha(result.stdout.encode()),
            "stderr": _sha(result.stderr.encode()),
            "virtual_s": result.wall_time, "syscalls": result.syscall_count,
            "counters": counters, "metrics": metrics}
    out = {"tree": tree, "virtual_s": result.wall_time,
           "serviced": serviced_of(result), "syscalls": result.syscall_count,
           "fs": [result.fs_cache_stats.get(k, 0) for k in FS_STATS],
           "probes": counters["replays_blocking"] if counters else 0,
           "digest": _sha(json.dumps(body, sort_keys=True).encode())}
    out.update(extra)
    return out


class ResultTap:
    """Sums the serviced syscalls of every container result
    ``DetTrace.run``/``resume`` return (outermost calls only), and the
    syscalls of those that executed (a cache hit executes none).  One
    extra call per container run, so it stays on in the timed run."""

    def __init__(self):
        self.serviced = 0
        self.syscalls = 0
        self._depth = 0

    def install(self) -> None:
        from repro.core.container import DetTrace

        for attr in ("run", "resume"):
            setattr(DetTrace, attr, self._wrap(DetTrace.__dict__[attr]))

    def _wrap(self, fn):
        import functools

        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            self._depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.serviced += serviced_of(result)
                if result.counters is not None:  # executed, not a hit
                    self.syscalls += result.syscall_count
            return result

        return tapped


#: The process's tap; forked pool workers use their inherited copy.
TAP = ResultTap()


@dataclasses.dataclass
class Context:
    seed: int
    #: Scratch directory inside the checkout (removed by the caller).
    scratch: str
    smoke: bool = False
    #: The run's HostSpeed; serial workloads add calibration points
    #: between jobs.  None in the fresh-interpreter probe.
    speed: Any = None

    def between_jobs(self) -> None:
        if self.speed is not None:
            self.speed.maybe_point()


class _JobClock:
    """Latency, timestamps and tapped syscalls of one job."""

    def __init__(self, tag: str, job: int):
        self.tag, self.job = tag, job

    def __enter__(self):
        rec = layers.ACTIVE
        self._span = rec.job_span(self.tag, self.job) if rec else None
        if self._span is not None:
            self._span.__enter__()
        self.tap0 = (TAP.serviced, TAP.syscalls)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        if self._span is not None:
            self._span.__exit__(*exc)
        return False

    def record(self, ok: bool, why: str, surf: Dict[str, Any]) -> Dict[str, Any]:
        return {"latency": self.end - self.start, "start": self.start,
                "end": self.end, "pid": os.getpid(),
                "serviced": TAP.serviced - self.tap0[0],
                "syscalls": TAP.syscalls - self.tap0[1], "ok": ok, "why": why,
                "surface": surf}


class Workload:
    """Interface: ``setup`` (repeatable), ``run_pass`` and ``check``."""

    name = ""
    #: True when jobs run in pool workers (parallel metrics apply).
    fans_out = False
    #: True when every pass repeats pass 0's jobs (their surfaces must
    #: repeat too); False when each pass draws new inputs.
    repeats = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        #: run_jobs sweeps: (call start, call end, records).
        self.sweeps: List[tuple] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, tag: str) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def check(self, pass0: List[Dict[str, Any]]) -> Tuple[int, List[str]]:
        """Re-runs that check pass 0's outputs (made by the fresh
        interpreter, outside timing): (operations, failure messages)."""
        return 0, []

    def _dir(self, name: str) -> str:
        path = os.path.join(self.ctx.scratch, name)
        shutil.rmtree(path, ignore_errors=True)
        return path


# ---------------------------------------------------------------------------
# pkg-sweep: the paper's package-build sweep through repro.parallel
# ---------------------------------------------------------------------------

def _population(seed: int, n: int, index: int = 0):
    """Pass *index*'s packages for *seed*, without ``syscall_storm``."""
    from repro.workloads.debian import generate_population

    return [spec for spec in generate_population(n, seed=seed * 1000 + index)
            if not spec.syscall_storm]


def _expected_status(spec) -> str:
    from repro.workloads.debian.repository import expected_statuses

    return {"reproducible": "built", "unsupported": "unsupported",
            "timeout": "timeout"}[expected_statuses(spec)[1]]


#: Per-process HostSpeed of pool workers (keyed by pid, so a forked
#: worker starts its own); new points travel home with each job record.
_WORKER_SPEEDS: Dict[int, HostSpeed] = {}


def _pkg_job(spec, tag: str, job: int, second_host: bool = False,
             calibrate: bool = False):
    """Pool job: build one package under DetTrace, check its outcome."""
    from repro import repro_tools
    from repro.workloads.debian import builder

    speed = (_WORKER_SPEEDS.setdefault(os.getpid(), HostSpeed())
             if calibrate else None)
    known = len(speed.points) if speed else 0
    host = (repro_tools.second_build_host() if second_host
            else repro_tools.first_build_host())
    with _JobClock(tag, job) as clock:
        record = builder.build_dettrace(spec, host=host)
    if speed is not None:
        speed.maybe_point()
    expected = _expected_status(spec)
    out = clock.record(record.status == expected,
                       "%s: %s, expected %s" % (spec.name, record.status,
                                                expected),
                       surface(record.result, status=record.status))
    out["speed"] = speed.points[known:] if speed else []
    if layers.ACTIVE is not None:
        out["spans"] = layers.ACTIVE.drain()
    return out


class PkgSweep(Workload):
    name = "pkg-sweep"
    fans_out = True
    # Each pass sweeps a new population: one draw of 126 packages varies
    # by 6.5% in build work from seed to seed, and more packages per run
    # average that out.
    repeats = False

    def setup(self) -> None:
        from repro import parallel

        self.workers = parallel.effective_host_cores()
        self.size = SMOKE["population"] if self.ctx.smoke else POPULATION
        self.specs = {0: _population(self.ctx.seed, self.size)}
        # Warm the interpreter the pool forks from.
        for i, spec in enumerate(self.specs[0][:2]):
            _pkg_job(spec, "setup", -1 - i)

    def _specs(self, index: int) -> list:
        if index not in self.specs:
            self.specs[index] = _population(self.ctx.seed, self.size, index)
        return self.specs[index]

    def _sweep(self, specs, tag: str, base: int, second_host=False):
        from repro import parallel

        calibrate = self.ctx.speed is not None
        jobs = [parallel.Job(key=i, fn=_pkg_job,
                             args=(spec, tag, base + i, second_host,
                                   calibrate))
                for i, spec in enumerate(specs)]
        t0 = time.perf_counter()
        records = [rec for _key, rec in
                   parallel.run_jobs(jobs, workers=self.workers)]
        t1 = time.perf_counter()
        for rec in records:
            spans = rec.pop("spans", None)
            if spans is not None:
                layers.ACTIVE.merge(spans)
        return t0, t1, records

    def run_pass(self, index: int, tag: str):
        t0, t1, records = self._sweep(self._specs(index), tag,
                                      index * 10_000)
        self.sweeps.append((t0, t1, records))
        return records

    def check(self, pass0):
        # Every built package must rebuild bit for bit on the varied
        # second host (the paper's reprotest pair).
        built = [i for i, rec in enumerate(pass0)
                 if rec["surface"]["status"] == "built"]
        specs = self._specs(0)
        _t0, _t1, again = self._sweep([specs[i] for i in built], "check",
                                      -100_000, second_host=True)
        return len(built), [
            "%s: second-host build differs" % specs[i].name
            for i, rec in zip(built, again)
            if rec["surface"]["tree"] != pass0[i]["surface"]["tree"]
            or rec["surface"]["status"] != "built"]


# ---------------------------------------------------------------------------
# sci-analogs: long single containers with up to 16 live threads
# ---------------------------------------------------------------------------

class SciAnalogs(Workload):
    name = "sci-analogs"

    def setup(self) -> None:
        from repro.workloads import ml

        self.jobs = SMOKE["sci"] if self.ctx.smoke else SCI_JOBS
        # Warm-up: the cheapest container.
        ml.run_dettrace(ml.CIFAR10, host=self._host(self.ctx.seed))

    @staticmethod
    def _host(entropy_seed: int):
        from repro.cpu.machine import HASWELL_XEON, HostEnvironment

        return HostEnvironment(machine=HASWELL_XEON, entropy_seed=entropy_seed)

    def _run(self, tool: str, n: int, host):
        from repro.workloads import bioinf, ml

        if tool in bioinf.ALL_TOOLS:
            return bioinf.run_dettrace(
                bioinf.tools.tool_image(bioinf.ALL_TOOLS[tool]), tool, n,
                host=host)
        cfg = {"alexnet": ml.ALEXNET, "cifar10": ml.CIFAR10}[tool]
        return ml.run_dettrace(dataclasses.replace(cfg, threads=n), host=host)

    def run_pass(self, index: int, tag: str):
        records = []
        for i, (tool, n) in enumerate(self.jobs):
            self.ctx.between_jobs()
            with _JobClock(tag, index * 100 + i) as clock:
                result = self._run(tool, n, self._host(self.ctx.seed))
            ok = result.status == "ok" and result.exit_code == 0
            records.append(clock.record(
                ok, "%s/%d: %s %s" % (tool, n, result.status, result.error),
                surface(result, job="%s/%d" % (tool, n))))
        return records

    def check(self, pass0):
        # DetTrace makes the analogs independent of host entropy: a
        # different boot seed must give the same outputs.
        failures = []
        other = self._host(self.ctx.seed + 7919)
        for (tool, n), rec in zip(self.jobs, pass0):
            result = self._run(tool, n, other)
            if (result.status != "ok"
                    or surface(result)["tree"] != rec["surface"]["tree"]):
                failures.append("%s/%d: output depends on host entropy"
                                % (tool, n))
        return len(pass0), failures


# ---------------------------------------------------------------------------
# ops: run cache hits, checkpoint + kill + resume, bisection
# ---------------------------------------------------------------------------

def _built_sample(seed: int, n: int) -> list:
    """A seeded sample of packages that build (pkg-sweep's built set)."""
    specs = [spec for spec in _population(seed, POPULATION)
             if _expected_status(spec) == "built"]
    picked = random.Random(seed).sample(range(len(specs)), n)
    return [specs[i] for i in sorted(picked)]


def _build(spec, config, image):
    from repro.core.container import DetTrace
    from repro.repro_tools import first_build_host
    from repro.workloads.debian import TOOLS

    return DetTrace(config).run(image, TOOLS["driver"],
                                argv=["dpkg-buildpackage", spec.name],
                                host=first_build_host())


def _same_output(a, b) -> bool:
    return (a.output_tree == b.output_tree and a.stdout == b.stdout
            and a.exit_code == b.exit_code and a.wall_time == b.wall_time)


def _setup_job(spec, config, job: int):
    """Pool job: one set-up build (a cold cache store, a baseline)."""
    from repro.workloads.debian import package_image

    with _JobClock("setup", -1000 - job) as clock:
        result = _build(spec, config, package_image(spec))
    return {"result": result, "span": (clock.start, clock.end),
            "spans": layers.ACTIVE.drain() if layers.ACTIVE else None}


def _setup_builds(specs, config) -> list:
    """Set-up builds fanned out at effective-core workers."""
    from repro import parallel

    jobs = [parallel.Job(key=i, fn=_setup_job, args=(spec, config, i))
            for i, spec in enumerate(specs)]
    out = [rec for _key, rec in parallel.run_jobs(
        jobs, workers=parallel.effective_host_cores())]
    for rec in out:
        spans = rec.pop("spans")
        if spans is not None:
            layers.ACTIVE.merge(spans)
    return out


class CacheHit(Workload):
    """Warm ``DetTrace.run`` in read mode over a cold write-through store."""

    name = "ops-cache-hit"

    def setup(self) -> None:
        from repro.core import CacheConfig, ContainerConfig
        from repro.workloads.debian import DEFAULT_BUILD_TIMEOUT, package_image

        n = SMOKE["cache"] if self.ctx.smoke else CACHE_PACKAGES
        self.specs = _built_sample(self.ctx.seed, n)
        self.images = [package_image(spec) for spec in self.specs]
        directory = self._dir("cache")
        write = ContainerConfig(timeout=DEFAULT_BUILD_TIMEOUT,
                                cache=CacheConfig(directory, mode="write"))
        self.read = dataclasses.replace(
            write, cache=CacheConfig(directory, mode="read"))
        # The cold write-through sweep fans out like `repro run --jobs
        # --cache-dir`: every worker stores into the one directory.
        out = _setup_builds(self.specs, write)
        self.cold = [rec["result"] for rec in out]
        #: Host intervals of the cold write-through runs.
        self.store_spans = [rec["span"] for rec in out]
        for spec, result in zip(self.specs, self.cold):
            if (result.cache or {}).get("outcome") != "store":
                raise RuntimeError("%s: cold run did not store (%s)"
                                   % (spec.name, result.cache))
        from repro.cache import CacheStore

        stats = CacheStore(directory).stats()
        self.entry_bytes = stats.object_bytes / max(1, stats.objects)

    def run_pass(self, index: int, tag: str):
        records = []
        for i, (spec, image) in enumerate(zip(self.specs, self.images)):
            self.ctx.between_jobs()
            with _JobClock(tag, index * 1000 + i) as clock:
                hit = _build(spec, self.read, image)
            disposition = hit.cache or {}
            ok = (disposition.get("outcome") == "hit"
                  and disposition.get("executed") is False
                  and _same_output(hit, self.cold[i]))
            records.append(clock.record(
                ok, "%s: cache %s" % (spec.name, disposition.get("outcome")),
                surface(hit)))
        return records


class CkptOps(Workload):
    """Checkpoint operations: per package, a checkpointed build killed
    at a fixed tick and resumed to the end; per pass, one bisection of a
    known one-write leak."""

    name = "ops-ckpt"

    def setup(self) -> None:
        from repro.core import ContainerConfig
        from repro.diag import bisect, harness
        from repro.workloads.debian import (DEFAULT_BUILD_TIMEOUT,
                                            PackageSpec, package_image)

        per_shape = SMOKE["ckpt"] if self.ctx.smoke else CKPT_PER_SHAPE
        rng = random.Random(self.ctx.seed)
        self.specs = [
            PackageSpec(name="pkg-%s-%06x" % (shape["language"],
                                               rng.randrange(1 << 24)),
                        **shape)
            for shape in CKPT_SHAPES for _ in range(per_shape)]
        plain = ContainerConfig(timeout=DEFAULT_BUILD_TIMEOUT)
        self.baseline = [rec["result"]
                         for rec in _setup_builds(self.specs, plain)]
        self.images = [package_image(spec) for spec in self.specs]
        leak_a = bytes(rng.randrange(65, 91) for _ in range(harness.LEAK_CHUNK))
        leak_b = bytes(rng.randrange(97, 123)
                       for _ in range(2 * harness.LEAK_CHUNK))
        self.pair = harness.leaky_pair(leak_a, leak_b)
        directory = self._dir("bisect")
        self.bisect_probes = bisect.bisect_divergence(
            *self.pair, workdir=directory).probes
        shutil.rmtree(directory, ignore_errors=True)

    def _config(self, directory: str):
        from repro.core import ContainerConfig
        from repro.core.config import CheckpointConfig
        from repro.faults.plan import FaultPlan, FaultRule
        from repro.workloads.debian import DEFAULT_BUILD_TIMEOUT

        return ContainerConfig(
            timeout=DEFAULT_BUILD_TIMEOUT,
            fault_plan=FaultPlan(rules=(FaultRule(
                fault="kill", at_tick=KILL_TICK, transient=True),)),
            checkpoint=CheckpointConfig(directory=directory,
                                        every=CKPT_EVERY, keep=0))

    def run_pass(self, index: int, tag: str):
        records = [self._resume_job(index, i, tag)
                   for i in range(len(self.specs))]
        records.append(self._bisect_job(index, tag))
        return records

    def _resume_job(self, index: int, i: int, tag: str):
        from repro.ckpt import scan
        from repro.core.container import DetTrace
        from repro.workloads.debian import TOOLS

        spec, image = self.specs[i], self.images[i]
        directory = self._dir("journal")
        cfg = self._config(directory)
        self.ctx.between_jobs()
        with _JobClock(tag, index * 1000 + i) as clock:
            killed = _build(spec, cfg, image)
            resumed = DetTrace(cfg).resume(
                image, TOOLS["driver"], argv=["dpkg-buildpackage", spec.name])
        infos = scan(directory)
        shutil.rmtree(directory, ignore_errors=True)
        ok = (killed.status == "crashed" and resumed.status == "resumed"
              and _same_output(resumed, self.baseline[i]))
        return clock.record(
            ok, "%s: %s then %s" % (spec.name, killed.status, resumed.status),
            surface(resumed,
                    journal_bytes=sum(x.payload_len for x in infos),
                    full=sum(x.snapshot_kind == "full" for x in infos),
                    delta=sum(x.snapshot_kind == "delta" for x in infos)))

    def _bisect_job(self, index: int, tag: str):
        from repro.diag import bisect

        directory = self._dir("bisect")
        self.ctx.between_jobs()
        with _JobClock(tag, index * 1000 + 999) as clock:
            res = bisect.bisect_divergence(*self.pair, workdir=directory)
        shutil.rmtree(directory, ignore_errors=True)
        ok = (res.diverged and res.hi is not None and res.hi - res.lo == 1
              and res.probes == self.bisect_probes)
        return clock.record(
            ok, "bisect window (%s, %s] in %d probes" % (res.lo, res.hi,
                                                         res.probes),
            {"lo": res.lo, "hi": res.hi, "bisect_probes": res.probes,
             "digest": _sha(json.dumps(res.to_dict(),
                                       sort_keys=True).encode())})


WORKLOADS = {cls.name: cls for cls in (PkgSweep, SciAnalogs, CacheHit, CkptOps)}
