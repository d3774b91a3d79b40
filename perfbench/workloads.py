"""The four benchmark workloads, each against the public ``audfb`` API.

A workload has a set-up (timed on its own, repeated), and jobs. Each job
gets a fresh input made from the run's seed and the job index, runs inside
the timed interval, and is checked outside it. ``check`` returns whether the
output is correct together with the measured check values, which the traced
run reports as ``check.*`` metrics.

Every workload is built from a size preset: ``full`` is what the benchmark
measures, ``small`` is what the self-test runs.

Library functions are looked up on the ``audfb`` package at call time, so
the tracer's wrappers are seen once they are installed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os

import numpy as np
from scipy.io import wavfile

import audfb
import audfb.cli

ROUNDTRIP_TOL = 1e-10
SOLVER_TOL = 1e-8
PR_TOL = 1e-12
FLOAT32_TOL = 1e-6
MATCH_RTOL = 1e-9  # two routes to the same bounds or frequency response


def rel_err(reference: np.ndarray, estimate: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - reference) / np.linalg.norm(reference))


def doubled(fb):
    """The same filters with every decimation doubled (no longer painless)."""
    return dataclasses.replace(fb, decimations=2 * fb.decimations)


def bank_shape(fb) -> dict:
    """Size figures of one bank, derived from its shape, not its filter array."""
    channels = fb.n_channels
    L = fb.signal_length
    return {
        "L": L,
        "channels": channels,
        "D": math.lcm(*(int(d) for d in fb.decimations)),
        "max_d": int(max(fb.decimations)),
        "redundancy": fb.redundancy(),
        "dense_filter_bytes": channels * L * np.dtype(np.complex128).itemsize,
    }


def speech_like(n: int, sample_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Syllable-like bursts: gliding voiced harmonics shaped by three formants,
    some unvoiced noise bursts, pauses, and a low noise floor. Peak 0.5."""
    x = np.zeros(n)
    pos = int(rng.uniform(0.05, 0.15) * sample_rate)
    while pos < n:
        m = min(n - pos, int(rng.uniform(0.12, 0.35) * sample_rate))
        t = np.arange(m) / sample_rate
        if rng.random() < 0.75:
            f0 = rng.uniform(90.0, 230.0) * (1.0 + rng.uniform(-0.2, 0.2) * t / max(t[-1], 1e-9))
            phase = 2.0 * np.pi * np.cumsum(f0) / sample_rate
            formants = [rng.uniform(300, 900), rng.uniform(900, 2500), rng.uniform(2300, 3500)]
            seg = np.zeros(m)
            mean_f0 = float(f0.mean())
            for h in range(1, int(0.5 * sample_rate / mean_f0)):
                f = h * mean_f0
                gain = sum(1.0 / (1.0 + ((f - F) / 120.0) ** 2) for F in formants)
                seg += gain * np.sin(h * phase + rng.uniform(0.0, 2.0 * np.pi))
        else:
            seg = np.diff(rng.standard_normal(m + 1)) * 0.3
        x[pos : pos + m] += seg * np.hanning(m)
        pos += m + int(rng.uniform(0.02, 0.2) * sample_rate)
    x += 1e-3 * rng.standard_normal(n)
    return 0.5 * x / np.max(np.abs(x))


class Roundtrip44k:
    """ERB, V=6, Hann, 44.1 kHz: painless dual round trip of a long signal."""

    name = "roundtrip_44k"
    sizes = {"full": 131072, "small": 8192}

    def __init__(self, size: str, workdir: str):
        self.L = self.sizes[size]
        self.sample_rate = 44100.0
        self.fb = self.dual = None

    def setup(self):
        self.fb = audfb.build_audlet(
            0.0, self.sample_rate / 2.0, 6.0, audfb.ERB,
            sample_rate=self.sample_rate, signal_length=self.L,
        )
        self.dual = audfb.painless_dual(self.fb)

    def teardown(self):
        self.fb = self.dual = None

    def banks(self):
        return {"analysis": self.fb}

    def audio_seconds(self) -> float:
        return self.L / self.sample_rate

    def make_input(self, rng):
        return rng.standard_normal(self.L)

    def job(self, x):
        return audfb.synthesize(self.dual, audfb.analyze(self.fb, x))

    def check(self, x, y):
        err = rel_err(x, y.real)
        return err <= ROUNDTRIP_TOL, {"check.roundtrip_rel_err": err}


class CliMask16k:
    """Bark, V=6 at 16 kHz through the CLI: irrelevance with a mask, then
    analyze -> container -> synthesize. Every command rebuilds the bank."""

    name = "cli_mask_16k"
    sizes = {"full": 64000, "small": 8000}

    def __init__(self, size: str, workdir: str):
        self.n = self.sizes[size]
        self.sample_rate = 16000
        self.flags = ["--scale", "bark", "--channels-per-unit", "6"]
        self.paths = {
            key: os.path.join(workdir, name)
            for key, name in (
                ("input", "input.wav"), ("masked", "masked.wav"), ("mask", "mask.afm"),
                ("coefficients", "coefficients.afc"), ("output", "roundtrip.wav"),
            )
        }
        self.padded = -(-self.n // 4096) * 4096

    def setup(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = audfb.cli.main(
                ["diagnose", "--sample-rate", str(self.sample_rate), "--length", str(self.padded)]
                + self.flags
            )
        if code != 0:
            raise RuntimeError(f"audfb diagnose exited with {code}")

    def teardown(self):
        pass

    def banks(self):
        # Built here for its shape figures only; the CLI builds its own banks.
        return {
            "analysis": audfb.build_audlet(
                0.0, self.sample_rate / 2.0, 6.0, audfb.BARK,
                sample_rate=float(self.sample_rate), signal_length=self.padded,
            )
        }

    def audio_seconds(self) -> float:
        return self.n / self.sample_rate

    def make_input(self, rng):
        samples = speech_like(self.n, self.sample_rate, rng).astype(np.float32)
        wavfile.write(self.paths["input"], self.sample_rate, samples)
        return samples

    def job(self, samples):
        p = self.paths
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            masked = audfb.cli.main(
                ["irrelevance", p["input"], p["masked"], "--mask-out", p["mask"]] + self.flags
            )
        analyzed = audfb.cli.main(["analyze", p["input"], p["coefficients"]] + self.flags)
        synthesized = audfb.cli.main(
            ["synthesize", p["coefficients"], p["output"], "--method", "dual"]
        )
        return {"codes": [masked, analyzed, synthesized], "printed": printed.getvalue()}

    def check(self, samples, out):
        values = {}
        if out["codes"] != [0, 0, 0]:
            return False, values
        rate, y = wavfile.read(self.paths["output"])
        if rate != self.sample_rate or y.shape != samples.shape:
            return False, values
        values["check.cli_rel_err"] = rel_err(samples.astype(np.float64), y.astype(np.float64))
        _, mask, _ = audfb.container.read_mask(self.paths["mask"])
        weights = np.concatenate(mask.weights)
        binary = mask.binary and bool(np.all((weights == 0.0) | (weights == 1.0)))
        zeros = int(np.count_nonzero(weights == 0.0)) / weights.size
        try:
            printed = float(out["printed"].strip())
        except ValueError:
            return False, values
        values["masking.removed_fraction"] = printed
        ok = values["check.cli_rel_err"] <= FLOAT32_TOL and binary and zeros == printed
        return ok, values


class NonpainlessSolve:
    """ERB, V=3, Hann, 8 kHz with decimations doubled: CG and Neumann."""

    name = "nonpainless_solve"
    # Decimations scale with the sample rate over the narrowest bandwidth, so
    # the small size lowers the rate as well as the length.
    sizes = {"full": (4096, 8000.0), "small": (1024, 2000.0)}

    def __init__(self, size: str, workdir: str):
        self.L, self.sample_rate = self.sizes[size]
        self.fb = self.bounds = None

    def setup(self):
        self.fb = doubled(
            audfb.build_audlet(
                0.0, self.sample_rate / 2.0, 3.0, audfb.ERB,
                sample_rate=self.sample_rate, signal_length=self.L,
            )
        )
        self.bounds = audfb.estimate_bounds(self.fb).bounds

    def teardown(self):
        self.fb = self.bounds = None

    def banks(self):
        return {"analysis": self.fb}

    def audio_seconds(self) -> float:
        return 2.0 * self.L / self.sample_rate  # the signal is reconstructed twice

    def make_input(self, rng):
        x = rng.standard_normal(self.L)
        return x, audfb.analyze(self.fb, x)

    def job(self, inp):
        _, coefficients = inp
        x_cg = audfb.cg_synthesize(self.fb, coefficients, audfb.CGConfig(tolerance=1e-10))
        x_neumann = audfb.neumann_synthesize(self.fb, coefficients, self.bounds, tolerance=1e-10)
        return x_cg, x_neumann

    def check(self, inp, out):
        x, _ = inp
        cg, neumann = rel_err(x, out[0].real), rel_err(x, out[1].real)
        ok = cg <= SOLVER_TOL and neumann <= SOLVER_TOL
        return ok, {"check.cg_rel_err": cg, "check.neumann_rel_err": neumann}


class Certify:
    """A sweep of fixed configurations through every bound and residual route.

    The inputs are configurations, not signals, so they do not depend on the
    seed.
    """

    name = "certify"
    sizes = {"full": (4096, 1024), "small": (1024, 512)}

    def __init__(self, size: str, workdir: str):
        self.L, self.L_dense = self.sizes[size]
        self.sample_rate = 8000.0
        self.painless = self.nonpainless = self.dense = None

    def _bank(self, L, scale=audfb.ERB, prototype="hann"):
        return audfb.build_audlet(
            0.0, self.sample_rate / 2.0, 3.0, scale,
            sample_rate=self.sample_rate, signal_length=L, prototype=prototype,
        )

    def setup(self):
        self.painless = [self._bank(self.L), self._bank(self.L, audfb.BARK, "gauss")]
        self.nonpainless = doubled(self._bank(self.L, prototype="rect"))
        self.dense = [
            self._bank(self.L_dense),
            doubled(self._bank(self.L_dense, prototype="rect")),
        ]

    def teardown(self):
        self.painless = self.nonpainless = self.dense = None

    def banks(self):
        names = ["erb_hann", "bark_gauss", "erb_rect_doubled", "dense_erb_hann", "dense_erb_rect_doubled"]
        return dict(zip(names, [*self.painless, self.nonpainless, *self.dense]))

    def audio_seconds(self) -> float:
        return (3 * self.L + 2 * self.L_dense) / self.sample_rate  # five banks certified

    def make_input(self, rng):
        return None

    def job(self, _):
        painless = [
            (audfb.estimate_bounds(fb), audfb.pr_residual(fb, audfb.painless_dual(fb)))
            for fb in self.painless
        ]
        report = audfb.estimate_bounds(self.nonpainless, "diag-dominance")
        uniform = audfb.equivalent_uniform(self.nonpainless)
        dense = [
            (audfb.estimate_bounds(fb, "dense-eigen").bounds, audfb.estimate_bounds(fb))
            for fb in self.dense
        ]
        return {"painless": painless, "diag": report, "uniform": uniform, "dense": dense}

    def check(self, _, out):
        ok = True
        deviation = 0.0
        for report, residual in out["painless"]:
            ok &= report.method == "painless-exact" and residual.delay == 0
            deviation = max(deviation, residual.max_deviation)
        ok &= deviation <= PR_TOL
        fb = self.nonpainless
        D = bank_shape(fb)["D"]
        copies = sum(D // int(d) * (2 if 0 < k < fb.n_channels - 1 else 1)
                     for k, d in enumerate(fb.decimations))
        uniform = out["uniform"]
        ok &= uniform.n_channels == copies and bool(np.all(uniform.decimations == D))
        ok &= uniform.signal_length == fb.signal_length and np.allclose(
            audfb.frequency_response(uniform), audfb.frequency_response(fb), rtol=MATCH_RTOL, atol=0.0
        )
        ok &= out["diag"].method == "diag-dominance"
        for exact, reference in out["dense"]:
            lo, hi = reference.bounds
            if reference.method == "painless-exact":
                ok &= math.isclose(exact.lower, lo, rel_tol=MATCH_RTOL)
                ok &= math.isclose(exact.upper, hi, rel_tol=MATCH_RTOL)
            else:
                slack = MATCH_RTOL * hi
                ok &= lo - slack <= exact.lower <= exact.upper <= hi + slack
        return bool(ok), {"check.pr_max_deviation": deviation}


WORKLOADS = {w.name: w for w in (Roundtrip44k, CliMask16k, NonpainlessSolve, Certify)}
