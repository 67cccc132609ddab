"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pkg-sweep --seed 1 --seconds 12 --trace 0

Builds nothing: the program is the pure-Python package under ``src/``.
Set-up runs ``SETUP_REPEATS`` times (``setup_s`` is the import time plus
the median set-up), then passes run closed-loop until ``--seconds`` have
elapsed (whole passes).
After the timed passes, outside timing, the output checks run and a
fresh interpreter repeats set-up and pass 0 untraced: its deterministic
surfaces (digests and exact counts) must equal this run's pass 0.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layers' entry points (perfbench/layers.py) and reports the per-layer
metrics instead.  Human-readable lines come first; the last line of
stdout is one JSON object.  A fuller record (host metadata, exact
counts, every metric) goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation between job kinds)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _metadata(args, workers: int) -> dict:
    import numpy

    from repro import parallel

    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    commit = None
    try:
        if os.path.isdir(os.path.join(ROOT, ".git")):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(),
            "effective_cores": parallel.effective_host_cores(),
            "workers": workers, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size}


#: The program modules the workloads drive; importing them is set-up.
PROGRAM_MODULES = ("repro.core", "repro.parallel", "repro.workloads.debian",
                   "repro.workloads.bioinf", "repro.workloads.ml",
                   "repro.cache", "repro.ckpt", "repro.diag",
                   "repro.repro_tools")


def _import_program() -> None:
    import importlib

    for name in PROGRAM_MODULES:
        importlib.import_module(name)


def _setups(wl) -> list:
    """Repeated set-up, shared verbatim by the measured run and the
    fresh-interpreter probe so both reach pass 0 with the same
    interpreter history; returns each set-up's host interval."""
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        spans.append((t0, time.perf_counter()))
    return spans


def _probe(args, scratch: str) -> dict:
    """``--probe``: set-up and pass 0 untraced, then the workload's
    output checks; surfaces, pass-0 rate and failures to stdout."""
    from perfbench import workloads
    from perfbench.speed import HostSpeed

    _import_program()
    workloads.TAP.install()
    speed = HostSpeed()
    wl = workloads.WORKLOADS[args.workload](workloads.Context(
        args.seed, scratch, args.size == "smoke", speed))
    _setups(wl)
    speed.point()
    t0 = time.perf_counter()
    records = wl.run_pass(0, "pass0")
    t1 = time.perf_counter()
    speed.point()
    _jobs, (pass_time,) = _reference_times(wl, [records], [(t0, t1)], speed)
    checked, failures = wl.check(records)
    return {"surfaces": [rec["surface"] for rec in records],
            "jobs_per_s": len(records) / pass_time, "checked": checked,
            "failures": failures}


def _run_probe(args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("fresh-interpreter probe failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


def _exact(pass0) -> dict:
    """Exact counts of the reference pass (repeat bit for bit per seed)."""
    surf = [rec["surface"] for rec in pass0]
    out = {"jobs": len(surf),
           "serviced": sum(rec["serviced"] for rec in pass0),
           "syscalls": sum(rec["syscalls"] for rec in pass0),
           "probes": sum(s.get("probes", 0) for s in surf),
           "virtual_s": math.fsum(s.get("virtual_s", 0.0) for s in surf)}
    if any("journal_bytes" in s for s in surf):
        out["journal_bytes"] = sum(s.get("journal_bytes", 0) for s in surf)
    if any("bisect_probes" in s for s in surf):
        out["bisect_probes"] = sum(s.get("bisect_probes", 0) for s in surf)
    return out


def _reference_times(wl, passes, spans, speed):
    """Job and pass times in reference seconds (perfbench/speed.py).

    Serial workloads use the run's own calibration points.  Pool
    workers calibrate themselves: a job is scaled by its worker's
    points, and a pass by its jobs' mean scale after taking out the
    time the workers spent calibrating."""
    from perfbench.speed import HostSpeed

    if not wl.fans_out:
        return ([[speed.scaled(r["start"], r["end"]) for r in p]
                 for p in passes],
                [speed.scaled(t0, t1) for t0, t1 in spans])
    points = {}
    for records in passes:
        for r in records:
            points.setdefault(r["pid"], []).extend(r["speed"])
    speeds = {pid: HostSpeed(sorted(pts)) for pid, pts in points.items()}
    jobs, totals = [], []
    for records, (t0, t1) in zip(passes, spans):
        times = [speeds[r["pid"]].scaled(r["start"], r["end"])
                 for r in records]
        scale = sum(times) / sum(r["latency"] for r in records)
        pids = {r["pid"] for r in records}
        calibrating = statistics.mean(speeds[pid].calibrating(t0, t1)
                                      for pid in pids)
        jobs.append(times)
        totals.append((t1 - t0 - calibrating) * scale)
    return jobs, totals


def _end_to_end(wl, job_times, pass_times, passes, setup_s, rss) -> dict:
    """Times in reference seconds.  When passes repeat the same jobs,
    throughputs are the median over passes and a job's latency is its
    mean over passes; when each pass has new jobs (pkg-sweep), they are
    totals over all passes and every job counts once.  Percentiles run
    over jobs."""
    serviced = [sum(rec["serviced"] for rec in p) for p in passes]
    if wl.repeats:
        jobs_per_s = statistics.median(
            len(p) / t for p, t in zip(passes, pass_times))
        syscalls_per_s = statistics.median(
            n / t for n, t in zip(serviced, pass_times))
        lat = [statistics.mean(job) * 1e3 for job in zip(*job_times)]
    else:
        jobs_per_s = sum(map(len, passes)) / sum(pass_times)
        syscalls_per_s = sum(serviced) / sum(pass_times)
        lat = [t * 1e3 for times in job_times for t in times]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (jobs_per_s, "1/s"),
        "syscalls_per_s": (syscalls_per_s, "1/s"),
        "job_p50_ms": (_percentile(lat, 0.5), "ms"),
        "job_p90_ms": (_percentile(lat, 0.9), "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }


def _parallel_metrics(wl, timed_sweeps):
    """Pool start, utilisation and imbalance from per-job timestamps."""
    if not timed_sweeps:
        return 0.0, 0.0, 0.0
    starts, utils, imbalances = [], [], []
    for t0, t1, records in timed_sweeps:
        busy = {}
        for rec in records:
            busy[rec["pid"]] = busy.get(rec["pid"], 0.0) + rec["latency"]
        # Workers' calibration points are not work the sweep did.
        calibrating = sum(e - s for rec in records for s, e, _ in rec["speed"])
        starts.append(min(rec["start"] for rec in records) - t0)
        utils.append(sum(busy.values())
                     / (wl.workers * (t1 - t0) - calibrating))
        loads = list(busy.values()) + [0.0] * (wl.workers - len(busy))
        imbalances.append(max(loads) / statistics.mean(loads))
    return (statistics.mean(starts) * 1e3, statistics.mean(utils),
            statistics.mean(imbalances))


def _per_layer(rec, wl, passes, scale, traced_rate, probe) -> dict:
    from perfbench import layers

    timed = rec.totals(("pass0", "pass"))
    first = rec.totals(("pass0",))
    calls_scope = rec.totals(("setup", "pass0", "pass"))
    jobs = sum(len(records) for records in passes)
    # Nanoseconds to reference milliseconds, at the timed jobs' mean
    # host speed.
    ms = scale / 1e6
    surf0 = [r["surface"] for r in passes[0]]
    serviced0 = sum(r["serviced"] for r in passes[0])

    def layer_self(*prefixes):
        return sum(v[0] for name, v in timed.items()
                   if name.split(".")[0] in prefixes) * ms / jobs

    def span_self(*names):
        return sum(timed.get(n, (0, 0, 0))[0] for n in names) * ms / jobs

    def calls0(*names):
        return sum(first.get(n, (0, 0, 0))[1] for n in names)

    def per_call(name):
        _self, calls, incl = calls_scope.get(name, (0, 0, 0))
        return incl * ms / calls if calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    fs = [sum(s.get("fs", [0] * 4)[k] for s in surf0) for k in range(4)]
    decisions = calls0("scheduler.next_action")
    exec_calls = calls0("syscalls.exec")
    pool_start, utilisation, imbalance = _parallel_metrics(
        wl, wl.sweeps)
    job_self, _calls, job_ns = timed.get(layers.JOB_SPAN, (0, 0, 0))
    ckpt_jobs = [s for s in surf0 if "journal_bytes" in s]
    metrics = {
        "tracer.self_ms": (span_self("tracer.hook", "tracer.charge"), "ms/job"),
        "tracer.probes": (sum(s.get("probes", 0) for s in surf0), "count"),
        "tracer.spans_built": (calls0("obs.span"), "count"),
        "tracer.charges": (calls0("tracer.charge"), "count"),
        "syscalls.exec_ms": (span_self("syscalls.exec"), "ms/job"),
        "syscalls.exec_calls": (exec_calls, "count"),
        "syscalls.useful_ratio": (ratio(serviced0, exec_calls), "ratio"),
        "kernel.self_ms": (span_self("kernel.run"), "ms/job"),
        "kernel.syscalls": (sum(r["syscalls"] for r in passes[0]), "count"),
        "scheduler.self_ms": (layer_self("scheduler"), "ms/job"),
        "scheduler.decisions": (decisions, "count"),
        "scheduler.decisions_per_syscall": (ratio(decisions, serviced0),
                                            "ratio"),
        "handlers.self_ms": (layer_self("handlers"), "ms/job"),
        "fs.resolve_ms": (span_self("fs.resolve"), "ms/job"),
        "fs.resolve_calls": (calls0("fs.resolve"), "count"),
        "fs.resolve_hit_ratio": (ratio(fs[0], fs[0] + fs[1]), "ratio"),
        "fs.dirent_hit_ratio": (ratio(fs[2], fs[2] + fs[3]), "ratio"),
        "obs.self_ms": (layer_self("obs"), "ms/job"),
        "obs.calls": (calls0("obs.span", "obs.collector", "obs.metrics"),
                      "count"),
        "container.self_ms": (layer_self("container"), "ms/job"),
        "container.prepare_ms": (per_call("container.prepare"), "ms/call"),
        "container.finish_ms": (per_call("container.finish"), "ms/call"),
        "workloads.image_ms": (per_call("workloads.image"), "ms/call"),
        "parallel.pool_start_ms": (pool_start, "ms/sweep"),
        "parallel.utilisation": (utilisation, "ratio"),
        "parallel.imbalance": (imbalance, "ratio"),
        "cache.key_ms": (per_call("cache.key"), "ms/call"),
        "cache.lookup_ms": (per_call("cache.lookup"), "ms/call"),
        "cache.store_ms": (per_call("cache.store"), "ms/call"),
        "cache.entry_bytes": (getattr(wl, "entry_bytes", 0.0), "B"),
        "cache.hit_ratio": (ratio(calls0("cache.materialize"),
                                  calls0("cache.lookup")), "ratio"),
        "ckpt.snapshot_ms": (per_call("ckpt.snapshot"), "ms/call"),
        "ckpt.snapshots_full": (sum(s.get("full", 0) for s in surf0),
                                "count"),
        "ckpt.snapshots_delta": (sum(s.get("delta", 0) for s in surf0),
                                 "count"),
        "ckpt.journal_bytes": (ratio(sum(s["journal_bytes"]
                                         for s in ckpt_jobs),
                                     len(ckpt_jobs)), "B/job"),
        "ckpt.load_ms": (per_call("ckpt.load"), "ms/call"),
        "ckpt.restore_ms": (per_call("ckpt.restore"), "ms/call"),
        "diag.bisect_probes": (sum(s.get("bisect_probes", 0) for s in surf0),
                               "count"),
        "diag.probe_ms": (per_call("diag.probe"), "ms/call"),
        # Within job spans every child is a named layer, so the named
        # layers' share is whatever the job span's own self time is not.
        "trace.coverage": (ratio(job_ns - job_self, job_ns), "ratio"),
        "trace.overhead": (ratio(traced_rate, probe["jobs_per_s"]), "ratio"),
    }
    return metrics


def _measure(args, scratch: str) -> dict:
    from perfbench import layers, workloads
    from perfbench.speed import HostSpeed

    speed = HostSpeed()
    speed.point()
    t0 = time.perf_counter()
    _import_program()
    t1 = time.perf_counter()
    workloads.TAP.install()
    rec = None
    if args.trace:
        rec = layers.Recorder()
        layers.install(rec)
    wl = workloads.WORKLOADS[args.workload](workloads.Context(
        args.seed, scratch, args.size == "smoke", speed))
    speed.point()
    setup_spans = _setups(wl)
    speed.point()

    passes, spans = [], []
    t_start = time.perf_counter()
    while True:
        tag = "pass0" if not passes else "pass"
        if rec is not None:
            rec.tag = tag
        t_pass = time.perf_counter()
        passes.append(wl.run_pass(len(passes), tag))
        spans.append((t_pass, time.perf_counter()))
        speed.point()
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds:
            break
    rss = _peak_rss_mb()

    failures = [r["why"] for records in passes for r in records
                if not r["ok"]]
    attempted = sum(len(records) for records in passes)
    mine = [r["surface"] for r in passes[0]]
    # Repeated jobs in one interpreter must repeat their surface digests.
    for records in passes[1:] if wl.repeats else ():
        failures += ["pass job %d differs from pass 0" % i
                     for i, (a, b) in enumerate(zip(mine, records))
                     if a["digest"] != b["surface"]["digest"]]
    # A fresh interpreter repeats set-up and pass 0 untraced and runs the
    # output checks.  Its surfaces must equal this run's pass 0 exactly;
    # in the traced run that is also the observer-effect check.
    probe = _run_probe(args)
    attempted += len(probe["surfaces"]) + probe["checked"]
    failures += probe["failures"]
    for i, (a, b) in enumerate(zip(mine, probe["surfaces"])):
        if _canon(a) != _canon(b):
            failures.append("pass 0 job %d differs in a fresh interpreter: "
                            "%s vs %s" % (i, _canon(a), _canon(b)))
    if len(mine) != len(probe["surfaces"]):
        failures.append("pass 0 job count differs in a fresh interpreter")

    workers = getattr(wl, "workers", 1)
    import_s = speed.scaled(t0, t1)
    setup_s = statistics.median(speed.scaled(a, b) for a, b in setup_spans)
    result = {"meta": _metadata(args, workers), "passes": len(passes),
              "elapsed_s": elapsed, "raw_import_s": t1 - t0,
              "raw_setup_s": [b - a for a, b in setup_spans],
              "raw_pass_s": [b - a for a, b in spans],
              "calibration_points": speed.points,
              "exact": _exact(passes[0]), "attempted": attempted,
              "failed": len(failures), "failures": failures[:20]}
    job_times, pass_times = _reference_times(wl, passes, spans, speed)
    result["job_ms"] = [[t * 1e3 for t in times] for times in job_times]
    result["pass_s"] = pass_times
    e2e = _end_to_end(wl, job_times, pass_times, passes, import_s + setup_s,
                      rss)
    result["end_to_end"] = e2e
    result["extra"] = {
        "failed_ratio": (len(failures) / attempted, "ratio"),
        "samples": (sum(len(r) for r in passes), "count"),
    }
    if hasattr(wl, "store_spans"):
        result["extra"]["store_p50_ms"] = (statistics.median(
            speed.scaled(a, b) for a, b in wl.store_spans) * 1e3, "ms")
    if rec is not None:
        scale = (sum(map(sum, job_times))
                 / sum(r["latency"] for p in passes for r in p))
        result["per_layer"] = _per_layer(rec, wl, passes, scale,
                                         e2e["jobs_per_s"][0], probe)
        result["trace"] = {"missing_targets": rec.missing,
                           "spans_kept": rec.span_count(),
                           "spans_dropped": rec.dropped}
        os.makedirs(OUT, exist_ok=True)
        rec.write(os.path.join(OUT, "%s-seed%d.spans.npz"
                               % (args.workload, args.seed)))
    return result


def _print(result, args) -> None:
    meta = result["meta"]
    print("perfbench %s seed=%d trace=%d: %d passes in %.2f s"
          % (args.workload, args.seed, args.trace, result["passes"],
             result["elapsed_s"]))
    print("  host: " + json.dumps(meta, sort_keys=True))
    groups = ["end_to_end", "extra"] + (["per_layer"] if args.trace else [])
    for group in groups:
        for name, (value, unit) in sorted(result[group].items()):
            print("  %-34s %14.6g %s" % (name, value, unit))
    print("  exact (pass 0): " + json.dumps(result["exact"], sort_keys=True))
    if args.trace:
        print("  trace: " + json.dumps(result["trace"], sort_keys=True))
    print("  checks: %d attempted, %d failed" % (result["attempted"],
                                                 result["failed"]))
    for line in result["failures"]:
        print("  FAIL " + line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (expected one of %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    scratch = os.path.join(OUT, "tmp-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.probe:
            print(json.dumps(_probe(args, scratch)))
            return 0
        result = _measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    _print(result, args)
    group = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in group.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
