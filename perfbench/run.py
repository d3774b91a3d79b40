"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs every workload in turn, each in a fresh process.

Runs from the root of a source checkout: ``audfb`` is imported from ``src/``
of that checkout, never from an installed copy, and BLAS/OpenMP are pinned to
one thread before NumPy loads. The metric names and units are those of
``BENCHMARK.json`` at the checkout root: ``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``. Standard output ends with two JSON lines:
the environment and workload record, then the result object. Both, and with
``--trace 1`` the spans, are also written under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources or no BENCHMARK.json)."""


def bootstrap() -> dict:
    """Pin threads, put the checkout's ``src`` first on the path, import
    ``audfb`` from it, and return the parsed ``BENCHMARK.json``."""
    for variable in PINNED_THREADS:
        os.environ[variable] = "1"
    sys.dont_write_bytecode = True
    src = ROOT / "src"
    if not (src / "audfb" / "__init__.py").is_file():
        raise SetupError(f"no audfb sources under {src}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from exc
    sys.path.insert(0, str(src))
    import audfb

    if Path(audfb.__file__).resolve().parent != (src / "audfb").resolve():
        raise SetupError(f"audfb was imported from {audfb.__file__}, not from {src}")
    return spec


def run_all(spec: dict, args) -> int:
    """Run every workload of ``spec``, each in a fresh process, echoing its
    output; returns 1 when any of them fails or reports a wrong output."""
    status = 0
    for workload in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = bootstrap()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(spec, args)

    import bench

    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    WORKDIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    jobdir = WORKDIR / stem
    jobdir.mkdir(exist_ok=True)
    try:
        outcome = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace), "full", str(jobdir)
        )
    finally:
        shutil.rmtree(jobdir)
    values = bench.metric_values(outcome, [m["name"] for m in listed])
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record = {
        "environment": bench.environment(ROOT, args.seed, PINNED_THREADS),
        "workload": {
            "name": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "samples": outcome["samples"],
            "audio_seconds_per_job": outcome["audio_seconds_per_job"],
            "banks": outcome["banks"],
        },
    }
    if outcome["spans"] is not None:
        outcome["spans"].write(WORKDIR / f"{stem}.spans.jsonl")
    (WORKDIR / f"{stem}.json").write_text(bench.to_json({**record, "result": result}) + "\n")
    print(bench.to_json(record))
    print(bench.to_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
