"""Run one workload and compute its metrics.

An untraced run (``trace=False``) times the set-up several times and then
runs jobs, in one closed loop, for ``seconds``; it reports the end-to-end
metrics. A traced run spends half of ``seconds`` on untraced jobs
and half on traced ones, after one traced set-up; it reports the per-layer
metrics, the worst check values and the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import audfb

import tracer as tracing
from workloads import WORKLOADS, bank_shape

# Set-up is repeated at least this often, and until this much time was spent
# on it (up to the cap), so its median is steady even when it is short.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 30
SETUP_MIN_SECONDS = 2.0

# Reported when a workload does not compute a check or the removed fraction.
NOT_MEASURED = -1.0


@dataclass
class JobLog:
    times: list[float] = field(default_factory=list)
    audio_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    values: dict[str, list[float]] = field(default_factory=dict)


def timed_setups(workload) -> list[float]:
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        workload.teardown()
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return times


def run_jobs(workload, seed: int, first: int, seconds: float, log: JobLog, call) -> int:
    """Run jobs ``first, first+1, ...`` while the next one, taking as long as
    the last, still ends within ``seconds`` (at least one job). Inputs and
    checks are outside the timed interval. Returns the next job index."""
    index = first
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        inp = workload.make_input(np.random.default_rng([seed, index]))
        index += 1
        log.attempted += 1
        try:
            t0 = time.perf_counter()
            out = call(workload.job, inp)
            elapsed = time.perf_counter() - t0
            ok, values = workload.check(inp, out)
        except Exception:
            traceback.print_exc()
            log.failed += 1
        else:
            log.times.append(elapsed)
            log.audio_seconds += workload.audio_seconds()
            for name, value in values.items():
                log.values.setdefault(name, []).append(value)
            if not ok:
                print(f"check failed on job {index - 1}: {values}", file=sys.stderr)
                log.failed += 1
        # Holding the last output while the next job runs would alternate the
        # allocator's state from job to job; every job starts from the same.
        inp = out = None
        now = time.perf_counter()
        if (now - started) + (now - begun) > seconds:
            return index


def _direct(fn, inp):
    return fn(inp)


def run(name: str, seed: int, seconds: float, trace: bool, size: str, workdir: str) -> dict:
    """Run one workload; returns attempted, failed, metrics and shape info."""
    workload = WORKLOADS[name](size, workdir)
    log = JobLog()
    if not trace:
        setups = timed_setups(workload)
        run_jobs(workload, seed, 0, seconds, log, _direct)
        metrics = {
            "setup_s": statistics.median(setups),
            "job_s": statistics.median(log.times) if log.times else 0.0,
            "throughput_xrt": log.audio_seconds / sum(log.times) if log.times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"setup": len(setups), "jobs": len(log.times)}
        spans = None
    else:
        workload.setup()
        index = run_jobs(workload, seed, 0, seconds / 2.0, log, _direct)
        untraced = list(log.times)
        recorder = tracing.Tracer()
        recorder.install(audfb)
        try:
            workload.teardown()
            gc.collect()
            recorder.root(tracing.SETUP, workload.setup)
            run_jobs(
                workload, seed, index, seconds / 2.0, log,
                lambda fn, inp: recorder.root(tracing.JOB, fn, inp),
            )
        finally:
            recorder.uninstall()
        traced = log.times[len(untraced):]
        traced_job_s = statistics.median(traced) if traced else 0.0
        metrics = {
            "trace.job_s": traced_job_s,
            "trace.overhead_frac": (
                traced_job_s / statistics.median(untraced) - 1.0 if traced and untraced else 0.0
            ),
        }
        samples = {"untraced_jobs": len(untraced), "traced_jobs": len(traced)}
        spans = recorder
    for check, values in log.values.items():
        finite = [v for v in values if np.isfinite(v)]
        if not finite:
            continue
        metrics[check] = statistics.median(finite) if check == "masking.removed_fraction" else max(finite)
    banks = {key: bank_shape(fb) for key, fb in workload.banks().items()}
    workload.teardown()
    return {
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
        "samples": samples,
        "banks": banks,
        "audio_seconds_per_job": workload.audio_seconds(),
        "spans": spans,
    }


def metric_values(outcome: dict, names: list[str]) -> dict[str, float]:
    """The named metrics of one run; per-layer names come from the spans."""
    values = dict(outcome["metrics"])
    if outcome["spans"] is not None:
        missing = [n for n in names if n not in values]
        values.update(tracing.per_layer(outcome["spans"], missing))
    return {n: values.get(n, NOT_MEASURED) for n in names}


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = _read(root / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        value = _read(root / ".git" / ref)
        if value:
            return value
        for line in _read(root / ".git" / "packed-refs").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
        return "unknown"
    return head or "unknown"


def source_digest(package_dir: Path) -> str:
    """SHA-256 over the package sources, identifying the code that was run."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(path.relative_to(package_dir).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(root: Path, seed: int, thread_variables) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cpu_caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {v: os.environ.get(v) for v in thread_variables},
        "git_revision": git_revision(root),
        "source_sha256": source_digest(Path(audfb.__file__).parent),
        "seed": seed,
    }


def to_json(obj) -> str:
    return json.dumps(obj, sort_keys=False, default=float)
