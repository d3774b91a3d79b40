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
from .errors import ContainerError
from .filterbank import PROTOTYPES, FilterBank, _audlet_channels, _channel_count
from .filterbank import _check_coefficients, build_audlet, parseval_normalize
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


def _write(path, header: bytes, chunks, dtype: str) -> None:
    with open(path, "wb") as fh:
        fh.write(header)
        for chunk in chunks:
            fh.write(np.ascontiguousarray(chunk, dtype=dtype).tobytes())


def write_coefficients(path, fb: FilterBank, coefficients, trim_length: int) -> None:
    """Serialize analysis coefficients together with their bank parameters."""
    c = _check_coefficients(fb, coefficients)
    _write(path, _header(fb, "coefficients", trim_length), c, "<c16")


def write_mask(path, fb: FilterBank, mask: MaskSymbol, trim_length: int) -> None:
    """Serialize a mask; same layout as coefficients with real payload."""
    weights = _check_coefficients(fb, mask.weights, dtype=None)
    _write(path, _header(fb, "mask", trim_length, binary=mask.binary), weights, "<f8")


def _parse(fields: dict, key: str, kind):
    """Header field ``key`` converted by ``kind`` (float or int)."""
    try:
        return kind(fields[key])
    except KeyError:
        raise ContainerError(f"header field {key!r} missing") from None
    except ValueError:
        raise ContainerError(f"header field {key!r} is not a valid {kind.__name__}") from None


def _parse_flag(fields: dict, key: str) -> bool:
    value = _parse(fields, key, int)
    if value not in (0, 1):
        raise ContainerError(f"header field {key!r} must be 0 or 1")
    return bool(value)


def _rebuild(step, params: dict):
    """step(**params), any failure reported as a ContainerError."""
    try:
        return step(**params)
    except Exception as exc:
        raise ContainerError(f"container parameters do not build a bank: {exc}") from exc


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
    L = _parse(fields, "signal_length", int)
    trim_length = _parse(fields, "trim_length", int)
    n_channels = _parse(fields, "channels", int)

    # Check the recorded rates against the payload before a bank of length L is built.
    dtype = np.dtype("<c16" if kind == "coefficients" else "<f8")
    for k, (_, _, d) in enumerate(channel_rows):
        if d < 1 or L % d != 0:
            raise ContainerError(f"channel {k} downsampling factor {d} does not divide {L}")
    counts = [L // d for *_, d in channel_rows]
    if len(payload) != dtype.itemsize * sum(counts):
        raise ContainerError(f"payload holds {len(payload)} bytes, expected {dtype.itemsize * sum(counts)}")
    values = np.frombuffer(payload, dtype=dtype)
    if not np.all(np.isfinite(values)):
        raise ContainerError("payload holds non-finite values")

    shape = dict(
        f_min=_parse(fields, "f_min", float),
        f_max=_parse(fields, "f_max", float),
        channels_per_unit=_parse(fields, "channels_per_unit", float),
        scale=scale,
        sample_rate=_parse(fields, "sample_rate", float),
        signal_length=L,
        dc_filter=_parse_flag(fields, "dc_filter"),
    )
    # the count is compared before a layout of that many channels is made
    n_regular, dc = _rebuild(_channel_count, shape)
    count = n_regular + dc + 1  # the Nyquist channel is always there
    if not count == len(channel_rows) == n_channels:
        raise ContainerError(f"header says {n_channels} channels, its parameters give "
                             f"{count}, and it lists {len(channel_rows)}")
    params = dict(shape, prototype=fields.get("prototype", ""),
                  r_bw=_parse(fields, "r_bw", float), r_d=_parse(fields, "r_d", float))
    centers, gammas = _rebuild(_audlet_channels, params)
    if not 0 <= trim_length <= L:
        raise ContainerError(f"trim_length {trim_length} outside [0, {L}]")
    # A window of dilation gamma is positive on at least gamma * bins_per_hz - 1
    # bins, and build_audlet keeps each window within L/d bins (painless).
    bins_per_hz = 2.0 * PROTOTYPES[params["prototype"]][1] * L / params["sample_rate"]
    for k, ((f_k, gamma, d), center, width) in enumerate(zip(channel_rows, centers, gammas)):
        if f_k != center or gamma != width:
            raise ContainerError(f"channel {k} metadata does not match the rebuilt bank")
        if min(L, width * bins_per_hz - 2.0) > L // d:
            raise ContainerError(f"channel {k} window spans more than its {L // d} coefficients")
    fb = _rebuild(build_audlet, params)
    if _parse_flag(fields, "parseval"):
        fb = parseval_normalize(fb)
    if not np.array_equal(fb.decimations, [d for *_, d in channel_rows]):
        raise ContainerError("recorded downsampling factors do not match the rebuilt bank")

    chunks = [chunk.astype(dtype.type) for chunk in np.split(values, np.cumsum(counts)[:-1])]
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
