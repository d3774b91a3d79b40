"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at its small size, untraced and traced, and asserts that
each run is correct and emits every metric named in ``BENCHMARK.json``, and
that the traced self times account for the traced job time. Then
feeds each correctness check a corrupted output and asserts that it fires,
and checks that ``run.py`` fails without printing a result in a directory
that holds only the benchmark's own files. Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import run

SPEC = run.bootstrap()

import audfb  # noqa: E402  (imported from the checkout once bootstrap ran)
import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def small(name: str, workdir: str):
    workload = WORKLOADS[name]("small", workdir)
    workload.setup()
    return workload


def first_output(workload, seed: int = 7):
    inp = workload.make_input(np.random.default_rng([seed, 0]))
    return inp, workload.job(inp)


def zero_channel(coefficients, k: int):
    out = [c.copy() for c in coefficients]
    out[k][:] = 0.0
    return out


def assert_fires(workload, inp, out, label: str) -> None:
    ok, values = workload.check(inp, out)
    assert not ok, f"{workload.name}: check did not fire on {label} ({values})"


def test_metrics_emitted(workdir: str) -> None:
    listed = {
        False: [m["name"] for m in SPEC["end_to_end"]],
        True: [m["name"] for m in SPEC["per_layer"]],
    }
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    for name in WORKLOADS:
        for trace in (False, True):
            outcome = bench.run(name, 3, 0.01, trace, "small", workdir)
            assert outcome["attempted"] >= 1 and outcome["failed"] == 0, (name, trace, outcome)
            values = bench.metric_values(outcome, listed[trace])
            assert sorted(values) == sorted(listed[trace])
            for metric, value in values.items():
                assert np.isfinite(value), (name, metric, value)
                if not trace:
                    assert value > 0.0, (name, metric, value)
            if trace:
                # One traced job: its self times and the glue add up to its wall time.
                job_s = values["trace.job_s"]
                accounted = sum(v for m, v in values.items() if m.endswith(".self_s"))
                assert job_s > 0.0 and abs(accounted - job_s) <= 0.02 * job_s + 1e-3, (
                    name, accounted, job_s,
                )


def test_roundtrip_check(workdir: str) -> None:
    wl = small("roundtrip_44k", workdir)
    x, y = first_output(wl)
    assert wl.check(x, y)[0]
    coefficients = audfb.analyze(wl.fb, x)
    assert_fires(wl, x, audfb.synthesize(wl.dual, zero_channel(coefficients, 5)), "zeroed channel")


def test_cli_checks(workdir: str) -> None:
    wl = small("cli_mask_16k", workdir)
    samples, out = first_output(wl)
    assert wl.check(samples, out)[0]
    assert_fires(wl, samples, {**out, "codes": [0, 65, 0]}, "nonzero exit code")
    assert_fires(wl, samples, {**out, "printed": "0.5\n"}, "wrong printed fraction")

    fb, mask, trim = audfb.container.read_mask(wl.paths["mask"])
    weights = [w.copy() for w in mask.weights]
    weights[3][0] = 0.5
    audfb.container.write_mask(wl.paths["mask"], fb, audfb.MaskSymbol(weights), trim)
    assert_fires(wl, samples, out, "non-binary mask")

    wl.job(samples)
    fb, coefficients, trim = audfb.container.read_coefficients(wl.paths["coefficients"])
    audfb.container.write_coefficients(wl.paths["coefficients"], fb, zero_channel(coefficients, 4), trim)
    audfb.cli.main(["synthesize", wl.paths["coefficients"], wl.paths["output"]])
    assert_fires(wl, samples, out, "zeroed channel in the container")


def test_solver_checks(workdir: str) -> None:
    wl = small("nonpainless_solve", workdir)
    (x, coefficients), out = first_output(wl)
    assert wl.check((x, coefficients), out)[0]
    corrupted = zero_channel(coefficients, 2)
    x_cg = audfb.cg_synthesize(wl.fb, corrupted)
    x_neumann = audfb.neumann_synthesize(wl.fb, corrupted, wl.bounds)
    assert_fires(wl, (x, coefficients), (x_cg, out[1]), "CG on a zeroed channel")
    assert_fires(wl, (x, coefficients), (out[0], x_neumann), "Neumann on a zeroed channel")


def test_certify_checks(workdir: str) -> None:
    wl = small("certify", workdir)
    _, out = first_output(wl)
    assert wl.check(None, out)[0]

    fb = wl.painless[0]
    dual = audfb.painless_dual(fb)
    filters = dual.filters.copy()
    filters[3] = 0.0
    broken = audfb.pr_residual(fb, dataclasses.replace(dual, filters=filters))
    report = out["painless"][0][0]
    assert_fires(wl, None, {**out, "painless": [(report, broken), *out["painless"][1:]]}, "zeroed dual channel")

    exact, reference = out["dense"][0]
    shifted = exact._replace(upper=exact.upper * 1.01)
    assert_fires(wl, None, {**out, "dense": [(shifted, reference), *out["dense"][1:]]}, "dense bound off")
    exact, reference = out["dense"][1]
    outside = exact._replace(upper=reference.bounds.upper * 1.01)
    assert_fires(wl, None, {**out, "dense": [out["dense"][0], (outside, reference)]}, "bound outside bracket")
    assert_fires(wl, None, {**out, "uniform": audfb.equivalent_uniform(wl.painless[0])}, "wrong uniform bank")


def test_fails_without_sources(workdir: str) -> None:
    bare = f"{workdir}/bare"
    shutil.copytree(run.ROOT / "perfbench", f"{bare}/perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


def main() -> int:
    tests = [
        test_metrics_emitted, test_roundtrip_check, test_cli_checks,
        test_solver_checks, test_certify_checks, test_fails_without_sources,
    ]
    run.WORKDIR.mkdir(exist_ok=True)
    failures = 0
    for test in tests:
        with tempfile.TemporaryDirectory(dir=run.WORKDIR) as workdir:
            try:
                test(workdir)
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {test.__name__}: {exc}")
            else:
                print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
