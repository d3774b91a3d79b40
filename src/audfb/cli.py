"""Command-line interface: audio analysis, synthesis, diagnostics, masking.

Subcommands
-----------
diagnose
    Build a bank from flags alone and print its frame bounds, then its
    channel count, support, D = lcm(d_k) and painless margin.
analyze
    WAV in, coefficient container out.
synthesize
    Coefficient container in, WAV out (dual filters, conjugate gradients,
    or the Neumann frame algorithm).
spectrogram
    WAV in, magnitude matrix out as CSV or 16-bit PGM (dB, floor -100).
irrelevance
    WAV in, masked reconstruction out; prints the removed fraction.

Exit codes: 0 success; 2 diagnose found no frame; 64 usage error; 65 bad
input data (WAV or container, including NaN or infinite values in either); 70
reconstruction failed (when a solver did not converge, its residual trace
goes to standard error); 74 file I/O error. :func:`main` alone maps library
and I/O exceptions to these codes.

Input WAVs may be 16- or 24-bit PCM or 32-bit float; the first channel is
used. Signals are zero-padded to a multiple of 4096 samples so plenty of
divisors are available as downsampling factors; the container records the
original length and synthesis trims back to it. All output files are
byte-deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from . import container, scales
from .errors import AudfbError, ContainerError, ConvergenceError
from .filterbank import FilterBank, analyze, build_audlet, parseval_normalize, synthesize
from .frame_diagnostics import _lcm_decimation, estimate_bounds
from .masking import IrrelevanceModel, _levels_db, irrelevance_filter
from .synthesis import CGConfig, cg_synthesize, neumann_synthesize, painless_dual

__all__ = ["main"]

_PAD_QUANTUM = 4096
_DB_FLOOR = -100.0

_EX_NOT_A_FRAME = 2
_EX_USAGE = 64
_EX_DATA = 65
_EX_CONVERGENCE = 70
_EX_IO = 74


class _CliFailure(Exception):
    """Internal: abort the command with a specific exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code fixed at 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EX_USAGE, f"{self.prog}: error: {message}\n")


def _add_bank_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("bank configuration")
    g.add_argument("--scale", choices=("erb", "bark"), default="erb",
                   help="auditory scale (default: %(default)s)")
    g.add_argument("--fmin", type=float, default=0.0,
                   help="lowest channel center in Hz (default: %(default)s)")
    g.add_argument("--fmax", type=float, default=None,
                   help="highest regular channel center in Hz (default: Nyquist)")
    g.add_argument("--channels-per-unit", type=float, default=6.0, dest="channels_per_unit",
                   help="channel density per scale unit (default: %(default)s)")
    g.add_argument("--rbw", type=float, default=1.0,
                   help="bandwidth scaling factor (default: %(default)s)")
    g.add_argument("--rd", type=float, default=1.0,
                   help="downsampling scaling factor (default: %(default)s)")
    g.add_argument("--prototype", choices=("hann", "gauss", "rect"), default="hann",
                   help="filter prototype shape (default: %(default)s)")
    g.add_argument("--no-dc-filter", action="store_false", dest="dc_filter",
                   help="omit the 0 Hz gap filter when fmin > 0")
    g.add_argument("--parseval", action="store_true",
                   help="normalize the bank to frame bounds (1, 1)")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="audfb",
        description="Invertible auditory filter banks: analysis, synthesis, "
                    "frame diagnostics, and irrelevance masking.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("diagnose", help="print frame bounds and bank statistics")
    _add_bank_flags(p)
    p.add_argument("--sample-rate", type=float, default=16000.0,
                   help="sample rate in Hz (default: %(default)s)")
    p.add_argument("--length", type=int, default=16384,
                   help="signal length in samples (default: %(default)s)")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("analyze", help="analyze a WAV file into a coefficient container")
    p.add_argument("input", help="input WAV file")
    p.add_argument("output", help="output coefficient container")
    _add_bank_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="reconstruct a WAV file from a container")
    p.add_argument("input", help="input coefficient container")
    p.add_argument("output", help="output WAV file (32-bit float)")
    p.add_argument("--method", choices=("dual", "cg", "neumann"), default="dual",
                   help="reconstruction method (default: %(default)s)")
    p.add_argument("--tolerance", type=float, default=1e-10,
                   help="iterative solver tolerance (default: %(default)s)")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("spectrogram", help="export the magnitude matrix in dB")
    p.add_argument("input", help="input WAV file")
    p.add_argument("output", help="output matrix file")
    _add_bank_flags(p)
    p.add_argument("--format", choices=("csv", "pgm"), default="csv",
                   help="output format (default: %(default)s)")
    p.set_defaults(func=_cmd_spectrogram)

    p = sub.add_parser("irrelevance",
                       help="zero sub-threshold coefficients and resynthesize")
    p.add_argument("input", help="input WAV file")
    p.add_argument("output", help="output WAV file (32-bit float)")
    _add_bank_flags(p)
    p.add_argument("--offset-db", type=float, default=-2.59, dest="offset_db",
                   help="masking threshold offset in dB (default: %(default)s)")
    p.add_argument("--spread-lower", type=float, default=27.0, dest="spread_lower",
                   help="threshold decay toward lower frequencies, dB per "
                        "scale unit (default: %(default)s)")
    p.add_argument("--spread-upper", type=float, default=12.0, dest="spread_upper",
                   help="threshold decay toward higher frequencies, dB per "
                        "scale unit (default: %(default)s)")
    p.add_argument("--mask-out", default=None,
                   help="also write the binary mask to this container path")
    p.set_defaults(func=_cmd_irrelevance)
    return parser


def _read_wav(path) -> tuple[float, np.ndarray]:
    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:
        raise _CliFailure(_EX_DATA, f"{path}: {exc}") from exc
    if data.ndim == 2:
        data = data[:, 0]
    if data.size == 0:
        raise _CliFailure(_EX_DATA, f"{path}: contains no samples")
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise _CliFailure(_EX_DATA, f"{path}: unsupported sample format {data.dtype}")
    if not np.all(np.isfinite(samples)):
        raise _CliFailure(_EX_DATA, f"{path}: contains non-finite samples")
    return float(rate), np.asarray(samples, dtype=np.float64)


def _write_wav(path, sample_rate: float, x: np.ndarray) -> None:
    wavfile.write(path, int(round(sample_rate)), np.asarray(x, dtype=np.float32))


def _pad(samples: np.ndarray) -> tuple[np.ndarray, int]:
    """Zero-pad to the next multiple of the padding quantum."""
    n = samples.shape[0]
    L = max(_PAD_QUANTUM, ((n + _PAD_QUANTUM - 1) // _PAD_QUANTUM) * _PAD_QUANTUM)
    padded = np.zeros(L, dtype=np.float64)
    padded[:n] = samples
    return padded, n


def _bank(args, sample_rate: float, signal_length: int) -> FilterBank:
    f_max = sample_rate / 2.0 if args.fmax is None else args.fmax
    try:
        fb = build_audlet(
            args.fmin,
            f_max,
            args.channels_per_unit,
            scales.from_name(args.scale),
            sample_rate=sample_rate,
            signal_length=signal_length,
            prototype=args.prototype,
            r_bw=args.rbw,
            r_d=args.rd,
            dc_filter=args.dc_filter,
        )
    except AudfbError as exc:
        raise _CliFailure(_EX_USAGE, f"bank configuration: {exc}") from exc
    return parseval_normalize(fb) if args.parseval else fb


def _cmd_diagnose(args) -> int:
    fb = _bank(args, args.sample_rate, args.length)
    report = estimate_bounds(fb, "auto")
    print(report.summary())
    print("redundancy R: %.17g" % fb.redundancy())
    # per stored channel; each conjugate mirror repeats its channel's support and d_k
    support = np.array([values.size for _, values in fb._covers])
    print("channels: %d" % fb.n_channels)
    print("total support (bins): %d" % support.sum())
    print("largest support (bins): %d" % support.max())
    print("D = lcm(d_k): %d" % _lcm_decimation(fb.decimations))
    print("painless margin (bins): %d" % np.min(np.array(fb.subband_lengths()) - support))
    return 0 if report.bounds.lower > 0.0 else _EX_NOT_A_FRAME


def _cmd_analyze(args) -> int:
    rate, samples = _read_wav(args.input)
    padded, n = _pad(samples)
    fb = _bank(args, rate, padded.shape[0])
    container.write_coefficients(args.output, fb, analyze(fb, padded), trim_length=n)
    return 0


def _cmd_synthesize(args) -> int:
    if not (np.isfinite(args.tolerance) and args.tolerance > 0.0):
        raise _CliFailure(_EX_USAGE, f"--tolerance must be positive and finite: {args.tolerance}")
    fb, coefficients, trim_length = container.read_coefficients(args.input)
    if args.method == "dual":
        x = synthesize(painless_dual(fb), coefficients)
    elif args.method == "cg":
        x = cg_synthesize(fb, coefficients, CGConfig(tolerance=args.tolerance))
    else:
        x = neumann_synthesize(fb, coefficients, estimate_bounds(fb).bounds, tolerance=args.tolerance)
    _write_wav(args.output, fb.sample_rate, np.real(x[:trim_length]))
    return 0


def _cmd_spectrogram(args) -> int:
    rate, samples = _read_wav(args.input)
    padded, _ = _pad(samples)
    fb = _bank(args, rate, padded.shape[0])
    rows = [np.maximum(level, _DB_FLOOR) for level in _levels_db(analyze(fb, padded))]
    width = max(row.shape[0] for row in rows)
    if args.format == "csv":
        lines = [",".join("%.17g" % float(f) for f in fb.center_frequencies)]
        for row in rows:
            values = list(row) + [_DB_FLOOR] * (width - row.shape[0])
            lines.append(",".join("%.17g" % v for v in values))
        blob = ("\n".join(lines) + "\n").encode("ascii")
    else:
        grid = np.full((len(rows), width), _DB_FLOOR)
        for k, row in enumerate(rows):
            grid[k, : row.shape[0]] = row
        span = float(grid.max()) - _DB_FLOOR
        scaled = np.zeros_like(grid) if span <= 0.0 else (grid - _DB_FLOOR) / span
        pixels = np.rint(scaled * 65535.0).astype(">u2")
        blob = f"P5\n{width} {len(rows)}\n65535\n".encode("ascii") + pixels.tobytes()
    with open(args.output, "wb") as fh:
        fh.write(blob)
    return 0


def _cmd_irrelevance(args) -> int:
    rate, samples = _read_wav(args.input)
    padded, n = _pad(samples)
    fb = _bank(args, rate, padded.shape[0])
    try:
        model = IrrelevanceModel(
            offset_db=args.offset_db,
            spread_lower_db_per_unit=args.spread_lower,
            spread_upper_db_per_unit=args.spread_upper,
            scale=scales.from_name(args.scale),
        )
    except AudfbError as exc:
        raise _CliFailure(_EX_USAGE, f"masking model: {exc}") from exc
    masked, mask, fraction = irrelevance_filter(fb, padded, model)
    x = synthesize(painless_dual(fb), masked)
    # a failed write leaves neither file behind
    if args.mask_out is not None:
        container.write_mask(args.mask_out, fb, mask, trim_length=n)
    try:
        _write_wav(args.output, rate, np.real(x[:n]))
    except OSError:
        if args.mask_out is not None:
            Path(args.mask_out).unlink(missing_ok=True)
        raise
    print("%.17g" % fraction)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except _CliFailure as failure:
        code, message = failure.code, failure.message
    except OSError as exc:
        code, message = _EX_IO, f"file I/O: {exc}"
    except ContainerError as exc:
        code, message = _EX_DATA, f"{args.input}: {exc}"
    except ConvergenceError as exc:
        for residual in exc.residuals:
            print("%.17g" % residual, file=sys.stderr)
        code, message = _EX_CONVERGENCE, str(exc)
    except AudfbError as exc:
        code, message = _EX_CONVERGENCE, f"reconstruction failed: {exc}"
    print(f"audfb: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
