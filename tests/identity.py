"""Bit-identity harness: a SHA-256 of every output a refactor must keep.

Evaluates a fixed list of library outputs on a fixed list of banks and prints
a header line, then one JSON line per output: its name, the SHA-256 of its
raw bytes (so signed zeros and the last ulp count) and the numpy version. An
output that raises is recorded as its exception type, with the residual
history a ConvergenceError carries.

    PYTHONPATH=src python tests/identity.py
    PYTHONPATH=src python tests/identity.py --against DIR
    PYTHONPATH=src python tests/identity.py --banks gabor_painless,random_full

``--against DIR`` reruns this script in a subprocess with PYTHONPATH=DIR/src,
checks that it imported ``audfb`` from under DIR, names every output whose
hash differs, and exits 1 if any does. FFT bits may differ between numpy
builds, so the two trees are compared in one environment only: the run
exits 2 when the numpy versions differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

import audfb
from audfb import frame_diagnostics

TOLERANCE = 1e-10
MAX_ITERATIONS = 100
TRACE_MAX_LENGTH = 16384  # longer signals skip the iterates a trace keeps


def _audlet(rate, L, V, scale=audfb.ERB, prototype="hann", factor=1, f_min=0.0, r_bw=1.0):
    fb = audfb.build_audlet(
        f_min, rate / 2.0, V, scale, sample_rate=rate, signal_length=L, prototype=prototype,
        r_bw=r_bw,
    )
    return dataclasses.replace(fb, decimations=factor * fb.decimations)


def _random(L, decimations, seed, one_sided, supports=None):
    """Random complex filters, full-support (every alias term is live) unless
    ``supports`` gives each row a circular interval (start, length) to keep."""
    gen = np.random.default_rng(seed)
    shape = (len(decimations), L)
    filters = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    for row, (start, length) in zip(filters, supports or ()):
        row[np.roll(np.arange(L) >= length, start)] = 0.0
    return audfb.FilterBank(
        filters, decimations=decimations, sample_rate=float(L), one_sided=one_sided
    )


def _gabor(L, a, M, width):
    """M modulates of a ``width``-bin Hann window at decimation a: painless
    exactly when width <= L/a."""
    window = np.zeros(L)
    window[:width] = np.hanning(width + 2)[1:-1]
    return audfb.build_gabor(np.roll(window, -width // 2), a, M, L)


# The benchmark workloads' banks first (certify's L=1024 pair is among the
# doubled and quadrupled ones), then the banks that exercise other paths.
BANKS = {
    "roundtrip_44k": lambda: _audlet(44100.0, 131072, 6.0),
    "cli_mask_16k": lambda: _audlet(16000.0, 65536, 6.0, audfb.BARK),
    "nonpainless_solve": lambda: _audlet(8000.0, 4096, 3.0, factor=2),
    "certify_erb_hann": lambda: _audlet(8000.0, 4096, 3.0),
    "certify_bark_gauss": lambda: _audlet(8000.0, 4096, 3.0, audfb.BARK, "gauss"),
    "certify_erb_rect_x2": lambda: _audlet(8000.0, 4096, 3.0, prototype="rect", factor=2),
    "erb_hann_1024": lambda: _audlet(8000.0, 1024, 3.0),
    "erb_hann_1024_x2": lambda: _audlet(8000.0, 1024, 3.0, factor=2),
    "erb_hann_1024_x4": lambda: _audlet(8000.0, 1024, 3.0, factor=4),
    "erb_rect_1024_x2": lambda: _audlet(8000.0, 1024, 3.0, prototype="rect", factor=2),
    "erb_rect_1024_x4": lambda: _audlet(8000.0, 1024, 3.0, prototype="rect", factor=4),
    "random_full": lambda: _random(48, [1, 2, 3, 4, 6, 8, 12, 16], 1, one_sided=False),
    "random_one_sided": lambda: _random(48, [2, 3, 4, 6, 8, 12], 2, one_sided=True),
    # partial covers of different lengths, two wrapping past bin L-1, one empty
    "random_covers": lambda: _random(
        48, [2, 3, 4, 6, 8, 12], 3, one_sided=False,
        supports=[(40, 20), (10, 30), (30, 48), (44, 9), (5, 1), (0, 0)],
    ),
    "gabor_painless": lambda: _gabor(64, 4, 8, 16),
    "gabor_nonpainless": lambda: _gabor(64, 4, 8, 32),
    # decimations with a factor 3, not powers of two
    "erb_hann_12288_x2": lambda: _audlet(8000.0, 3 * 4096, 3.0, factor=2),
    "erb_44k_x2": lambda: _audlet(44100.0, 131072, 6.0, factor=2),
    # full-circle DC, last-regular and Nyquist windows (each evaluated on all L bins)
    "bark_gauss_96_full_circle": lambda: _audlet(
        8000.0, 96, 1.0, audfb.BARK, "gauss", f_min=700.0, r_bw=3.0
    ),
    # a full-circle DC window of 40960 bins, more than one window batch holds
    "erb_gauss_40960_wide_dc": lambda: _audlet(8000.0, 40960, 1.0, prototype="gauss", f_min=1000.0),
}


def outputs(fb):
    """(name, thunk) of every output hashed for one bank, in the order they
    run; later ones read what earlier ones cached on the bank."""
    L = fb.signal_length
    gen = np.random.default_rng(L)
    x = gen.standard_normal(L)
    z = x + 1j * gen.standard_normal(L)
    signals = {"real": x, "complex": z, "zero": np.zeros(L), "negated": -x}
    coefficients = audfb.analyze(fb, x)
    trace = L <= TRACE_MAX_LENGTH
    yield "analyze.real", lambda: coefficients  # analyze(fb, x), which the solvers invert
    yield "analyze.complex", lambda: audfb.analyze(fb, z)
    if fb.center_frequencies is not None:
        model = audfb.IrrelevanceModel()
        yield "irrelevance_threshold", lambda: audfb.irrelevance_threshold(coefficients, fb, model)
        yield "irrelevance_filter", lambda: audfb.irrelevance_filter(fb, x, model)
    yield "synthesize.analyzed", lambda: audfb.synthesize(fb, coefficients)
    if audfb.painless_check(fb):
        yield "synthesize.dual", lambda: audfb.synthesize(audfb.painless_dual(fb), coefficients)
    yield "frequency_response", lambda: audfb.frequency_response(fb)
    yield "parseval_normalize", lambda: audfb.parseval_normalize(fb)
    yield "terms", lambda: frame_diagnostics._frame_terms(fb)
    for label, signal in signals.items():
        yield f"walnut_apply.{label}", lambda s=signal: audfb.walnut_apply(fb, s)
    for method in ("auto", "painless-exact", "diag-dominance", "dense-eigen"):
        yield f"bounds.{method}", lambda m=method: audfb.estimate_bounds(fb, m)
    yield "blocks", lambda: frame_diagnostics._component_blocks(fb, budget=True)
    if L <= frame_diagnostics.DENSE_EIGEN_MAX_LENGTH:
        yield "blocks.unbudgeted", lambda: frame_diagnostics._component_blocks(fb, budget=False)
    yield "inverse", lambda: frame_diagnostics._component_inverse(fb)
    for preconditioned in (True, False):
        config = audfb.CGConfig(TOLERANCE, MAX_ITERATIONS, preconditioned=preconditioned)
        yield (
            f"cg.{'preconditioned' if preconditioned else 'plain'}",
            lambda c=config: audfb.cg_synthesize(fb, coefficients, c, return_trace=trace),
        )
    for method in ("auto", "dense-eigen"):
        yield f"neumann.{method}", lambda m=method: audfb.neumann_synthesize(
            fb, coefficients, audfb.estimate_bounds(fb, m).bounds, TOLERANCE, MAX_ITERATIONS,
            return_trace=trace,
        )
    yield "pr_residual.self", lambda: audfb.pr_residual(fb, fb)
    yield "pr_residual.adjoint", lambda: audfb.pr_residual(fb, audfb.adjoint_bank(fb))
    yield "pr_residual.dual", lambda: audfb.pr_residual(fb, audfb.painless_dual(fb))
    yield "alias_components", lambda: audfb.alias_components(fb)
    if trace:
        yield "equivalent_uniform", lambda: audfb.equivalent_uniform(fb)


def evaluate(bank: str):
    """(output name, value) of every output of one bank; an output that
    raises gives the exception as its value."""
    fb = BANKS[bank]()
    for name, thunk in outputs(fb):
        try:
            value = thunk()
        except Exception as error:  # recorded, not raised: what raises is an output too
            value = error
        yield f"{bank}.{name}", value


def raw(value) -> bytes:
    """Bytes that identify a value exactly: an array's dtype, shape and data,
    a float as its IEEE double, containers and dataclasses element by element,
    an exception as its type and any residual history it carries."""
    if isinstance(value, BaseException):
        return raw(["raises", type(value).__name__, getattr(value, "residuals", None)])
    if isinstance(value, np.ndarray):
        head = f"{value.dtype.str}{value.shape}".encode()
        return head + np.ascontiguousarray(value).tobytes()
    if isinstance(value, (bool, np.bool_, str)) or value is None:
        return str(value).encode()
    if isinstance(value, (int, np.integer)):
        return str(int(value)).encode()
    if isinstance(value, (float, np.floating)):
        return struct.pack("<d", value)
    if isinstance(value, (complex, np.complexfloating)):
        return struct.pack("<dd", value.real, value.imag)
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        parts = [raw(item) for item in value]
        return b"".join(len(part).to_bytes(8, "little") + part for part in parts)
    raise TypeError(f"no raw form for {type(value).__name__}")


def record(name: str, value) -> dict:
    digest = hashlib.sha256(raw(value)).hexdigest()
    out = {"output": name, "sha256": digest, "numpy": np.__version__}
    if isinstance(value, BaseException):
        out["raises"] = type(value).__name__
    return out


def records(banks) -> list[dict]:
    return [record(name, value) for bank in banks for name, value in evaluate(bank)]


def header() -> dict:
    return {"audfb": str(Path(audfb.__file__).resolve()), "numpy": np.__version__}


def differences(ours: list[dict], theirs: list[dict]) -> list[str]:
    """Names of the outputs whose hashes differ or that only one side has."""
    mine = {r["output"]: r["sha256"] for r in ours}
    other = {r["output"]: r["sha256"] for r in theirs}
    names = list(mine) + [name for name in other if name not in mine]
    return [name for name in names if mine.get(name) != other.get(name)]


def run_against(tree: Path, banks) -> tuple[dict, list[dict]]:
    """Header and records of this script run on the sources under ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), "--banks", ",".join(banks)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"identity run on {tree} exited {done.returncode}:\n{done.stderr}")
    first, *rest = (json.loads(line) for line in done.stdout.splitlines())
    return first, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--banks", default=",".join(BANKS), help="comma-separated bank names")
    parser.add_argument("--against", type=Path, help="source checkout to compare with")
    args = parser.parse_args(argv)
    banks = args.banks.split(",")
    unknown = [bank for bank in banks if bank not in BANKS]
    if unknown:
        parser.error(f"unknown banks {unknown}; known: {', '.join(BANKS)}")
    if args.against is None:
        for line in (header(), *records(banks)):
            print(json.dumps(line), flush=True)
        return 0

    tree = args.against.resolve()
    try:
        theirs_header, theirs = run_against(tree, banks)
    except RuntimeError as error:
        print(error, file=sys.stderr)
        return 2
    if not Path(theirs_header["audfb"]).is_relative_to(tree):
        print(f"the run on {tree} imported audfb from {theirs_header['audfb']}", file=sys.stderr)
        return 2
    if theirs_header["numpy"] != np.__version__:
        print(f"numpy {np.__version__} here, {theirs_header['numpy']} there", file=sys.stderr)
        return 2
    ours = records(banks)
    differing = differences(ours, theirs)
    for name in differing:
        print(f"differs: {name}")
    print(f"{len(ours)} outputs of {header()['audfb']} against {theirs_header['audfb']}: "
          f"{len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
