"""On-disk container for subband coefficients and masks.

Layout: an ASCII header (one ``key value`` pair per line) terminated by a
``payload`` line, then raw little-endian numbers, channel-major. Coefficient
payloads hold complex128 values as (real, imaginary) float64 pairs, mask
payloads plain float64 weights; channel k occupies L/d_k values. The header
stores the bank's construction parameters rather than its filters: the
reader rebuilds the bank deterministically and cross-checks the recorded
per-channel center, dilation, and downsampling factor, so a container is
self-validating and stays small. Floats are written with ``repr`` (shortest
round-trip form), which makes files byte-deterministic.

``trim_length`` records how many samples of the analyzed signal were real
input rather than zero padding, so synthesis can cut the output back.
"""

from __future__ import annotations

import numpy as np

from . import scales
from .errors import ContainerError, ShapeError
from .filterbank import FilterBank, _check_coefficients, build_audlet, parseval_normalize
from .masking import MaskSymbol

__all__ = ["write_coefficients", "read_coefficients", "write_mask", "read_mask"]

_MAGIC = "AUDFB-CONTAINER 1"
_PAYLOAD_MARKER = b"\npayload\n"


def _header(fb: FilterBank, kind: str, trim_length: int, binary: bool | None = None) -> bytes:
    cfg = fb.config
    if cfg is None or fb.center_frequencies is None or fb.dilations is None:
        raise ContainerError("only banks built from a scale configuration can be serialized")
    trim_length = int(trim_length)
    if not 0 <= trim_length <= fb.signal_length:
        raise ContainerError(f"trim_length {trim_length} outside [0, {fb.signal_length}]")
    lines = [_MAGIC, f"kind {kind}"]
    if binary is not None:
        lines.append(f"binary {int(binary)}")
    lines += [
        f"scale {cfg.scale}",
        f"f_min {float(cfg.f_min)!r}",
        f"f_max {float(cfg.f_max)!r}",
        f"channels_per_unit {float(cfg.channels_per_unit)!r}",
        f"r_bw {float(cfg.r_bw)!r}",
        f"r_d {float(cfg.r_d)!r}",
        f"prototype {cfg.prototype}",
        f"dc_filter {int(cfg.dc_filter)}",
        f"parseval {int(cfg.parseval)}",
        f"sample_rate {float(fb.sample_rate)!r}",
        f"signal_length {fb.signal_length}",
        f"trim_length {trim_length}",
        f"channels {fb.n_channels}",
    ]
    for f_k, gamma, d in zip(fb.center_frequencies, fb.dilations, fb.decimations):
        lines.append(f"channel {float(f_k)!r} {float(gamma)!r} {int(d)}")
    lines.append("payload")
    return ("\n".join(lines) + "\n").encode("ascii")


def write_coefficients(path, fb: FilterBank, coefficients, trim_length: int) -> None:
    """Serialize analysis coefficients together with their bank parameters."""
    c = _check_coefficients(fb, coefficients)
    header = _header(fb, "coefficients", trim_length)
    with open(path, "wb") as fh:
        fh.write(header)
        for ck in c:
            fh.write(np.ascontiguousarray(ck, dtype="<c16").tobytes())


def write_mask(path, fb: FilterBank, mask: MaskSymbol, trim_length: int) -> None:
    """Serialize a mask; same layout as coefficients with real payload."""
    expected = fb.subband_lengths()
    if len(mask.weights) != len(expected):
        raise ShapeError(f"mask has {len(mask.weights)} channels, bank has {len(expected)}")
    for k, (w, n) in enumerate(zip(mask.weights, expected)):
        if w.shape[0] != n:
            raise ShapeError(f"mask channel {k} has length {w.shape[0]}, expected {n}")
    header = _header(fb, "mask", trim_length, binary=mask.binary)
    with open(path, "wb") as fh:
        fh.write(header)
        for w in mask.weights:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def _parse_float(fields: dict, key: str) -> float:
    try:
        return float(fields[key])
    except KeyError:
        raise ContainerError(f"header field {key!r} missing") from None
    except ValueError:
        raise ContainerError(f"header field {key!r} is not a number") from None


def _parse_int(fields: dict, key: str) -> int:
    try:
        return int(fields[key])
    except KeyError:
        raise ContainerError(f"header field {key!r} missing") from None
    except ValueError:
        raise ContainerError(f"header field {key!r} is not an integer") from None


def _parse_flag(fields: dict, key: str) -> bool:
    value = _parse_int(fields, key)
    if value not in (0, 1):
        raise ContainerError(f"header field {key!r} must be 0 or 1")
    return bool(value)


def _read(path, kind: str):
    with open(path, "rb") as fh:
        blob = fh.read()
    cut = blob.find(_PAYLOAD_MARKER)
    if cut < 0:
        raise ContainerError("payload marker missing")
    try:
        head = blob[:cut].decode("ascii")
    except UnicodeDecodeError:
        raise ContainerError("header is not ASCII") from None
    payload = blob[cut + len(_PAYLOAD_MARKER):]

    lines = head.split("\n")
    if lines[0] != _MAGIC:
        raise ContainerError(f"not a container (expected {_MAGIC!r} first line)")
    fields: dict[str, str] = {}
    channel_rows: list[tuple[float, float, int]] = []
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "channel":
            parts = rest.split(" ")
            try:
                f_k, gamma, d = float(parts[0]), float(parts[1]), int(parts[2])
            except (IndexError, ValueError):
                raise ContainerError(f"malformed channel line {line!r}") from None
            channel_rows.append((f_k, gamma, d))
        elif key:
            fields[key] = rest

    if fields.get("kind") != kind:
        raise ContainerError(f"container holds {fields.get('kind')!r}, expected {kind!r}")
    scale_name = fields.get("scale", "")
    try:
        scale = scales.from_name(scale_name)
    except Exception:
        raise ContainerError(f"unknown scale {scale_name!r}") from None
    prototype = fields.get("prototype", "")
    L = _parse_int(fields, "signal_length")
    trim_length = _parse_int(fields, "trim_length")
    n_channels = _parse_int(fields, "channels")

    # Check the recorded rates against the payload before a bank of length L is built.
    item = 16 if kind == "coefficients" else 8
    for k, (_, _, d) in enumerate(channel_rows):
        if d < 1 or L % d != 0:
            raise ContainerError(f"channel {k} downsampling factor {d} does not divide {L}")
    sizes = [item * (L // d) for _, _, d in channel_rows]
    if len(payload) != sum(sizes):
        raise ContainerError(f"payload holds {len(payload)} bytes, expected {sum(sizes)}")

    try:
        fb = build_audlet(
            _parse_float(fields, "f_min"),
            _parse_float(fields, "f_max"),
            _parse_float(fields, "channels_per_unit"),
            scale,
            sample_rate=_parse_float(fields, "sample_rate"),
            signal_length=L,
            prototype=prototype,
            r_bw=_parse_float(fields, "r_bw"),
            r_d=_parse_float(fields, "r_d"),
            dc_filter=_parse_flag(fields, "dc_filter"),
        )
    except ContainerError:
        raise
    except Exception as exc:
        raise ContainerError(f"container parameters do not build a bank: {exc}") from exc
    if _parse_flag(fields, "parseval"):
        fb = parseval_normalize(fb)

    if fb.n_channels != n_channels or len(channel_rows) != n_channels:
        raise ContainerError(
            f"channel count mismatch: header says {n_channels}, "
            f"rebuilt bank has {fb.n_channels}, {len(channel_rows)} channel lines"
        )
    if not 0 <= trim_length <= L:
        raise ContainerError(f"trim_length {trim_length} outside [0, {L}]")
    for k, (f_k, gamma, d) in enumerate(channel_rows):
        if (
            f_k != float(fb.center_frequencies[k])
            or gamma != float(fb.dilations[k])
            or d != int(fb.decimations[k])
        ):
            raise ContainerError(f"channel {k} metadata does not match the rebuilt bank")

    chunks = []
    offset = 0
    dtype = "<c16" if kind == "coefficients" else "<f8"
    native = np.complex128 if kind == "coefficients" else np.float64
    for size in sizes:
        chunks.append(np.frombuffer(payload, dtype=dtype, count=size // item, offset=offset).astype(native))
        offset += size
    return fb, chunks, trim_length, fields


def read_coefficients(path) -> tuple[FilterBank, list[np.ndarray], int]:
    """Rebuild the bank and coefficients from a coefficient container."""
    fb, chunks, trim_length, _ = _read(path, "coefficients")
    return fb, chunks, trim_length


def read_mask(path) -> tuple[FilterBank, MaskSymbol, int]:
    """Rebuild the bank and mask from a mask container."""
    fb, chunks, trim_length, fields = _read(path, "mask")
    binary = _parse_flag(fields, "binary")
    try:
        mask = MaskSymbol(chunks, binary=binary)
    except Exception as exc:
        raise ContainerError(f"stored mask is invalid: {exc}") from exc
    return fb, mask, trim_length
