"""Coefficient and mask container files: roundtrips and corruption handling."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import audfb
from audfb import container, masking
from audfb.errors import ContainerError, ShapeError, UnsupportedConfigError
from conftest import tone_plus_noise


def build_bank(parseval=False, **overrides):
    params = dict(
        f_min=0.0,
        f_max=4000.0,
        channels_per_unit=2.0,
        scale=audfb.ERB,
        sample_rate=8000.0,
        signal_length=1024,
    )
    params.update(overrides)
    scale = params.pop("scale")
    f_min = params.pop("f_min")
    f_max = params.pop("f_max")
    v = params.pop("channels_per_unit")
    fb = audfb.build_audlet(f_min, f_max, v, scale, **params)
    return audfb.parseval_normalize(fb) if parseval else fb


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(),
        dict(scale=audfb.BARK, prototype="gauss", f_min=50.0),
        dict(parseval=True),
    ],
)
def test_coefficient_roundtrip_is_lossless(tmp_path, rng, kwargs):
    fb = build_bank(**kwargs)
    x = rng.standard_normal(1024)
    coeffs = audfb.analyze(fb, x)
    path = tmp_path / "coeffs.afc"
    container.write_coefficients(path, fb, coeffs, trim_length=1000)
    fb2, coeffs2, trim = container.read_coefficients(path)
    assert trim == 1000
    np.testing.assert_array_equal(fb2.filters, fb.filters)
    np.testing.assert_array_equal(fb2.decimations, fb.decimations)
    assert fb2.sample_rate == fb.sample_rate
    for a, b in zip(coeffs, coeffs2):
        np.testing.assert_array_equal(a, b)


def test_payload_size_formula(tmp_path, rng):
    """Payload holds exactly 16 * L / d_k bytes per channel."""
    fb = build_bank()
    coeffs = audfb.analyze(fb, rng.standard_normal(1024))
    path = tmp_path / "coeffs.afc"
    container.write_coefficients(path, fb, coeffs, trim_length=1024)
    blob = path.read_bytes()
    marker = b"\npayload\n"
    payload = blob[blob.index(marker) + len(marker):]
    expected = sum(16 * (1024 // int(d)) for d in fb.decimations)
    assert len(payload) == expected


def test_write_is_byte_deterministic(tmp_path, rng):
    fb = build_bank()
    coeffs = audfb.analyze(fb, rng.standard_normal(1024))
    a, b = tmp_path / "a.afc", tmp_path / "b.afc"
    container.write_coefficients(a, fb, coeffs, trim_length=512)
    container.write_coefficients(b, fb, coeffs, trim_length=512)
    assert a.read_bytes() == b.read_bytes()


def test_mask_roundtrip(tmp_path):
    fb = build_bank()
    x = tone_plus_noise(1024, 8000.0, seed=3)
    _, mask, _ = audfb.irrelevance_filter(fb, x, masking.IrrelevanceModel())
    path = tmp_path / "mask.afm"
    container.write_mask(path, fb, mask, trim_length=1024)
    fb2, mask2, trim = container.read_mask(path)
    assert trim == 1024
    assert mask2.binary
    np.testing.assert_array_equal(fb2.filters, fb.filters)
    for a, b in zip(mask.weights, mask2.weights):
        np.testing.assert_array_equal(a, b)


def test_non_binary_mask_roundtrip(tmp_path):
    fb = build_bank()
    weights = [np.linspace(0.0, 1.0, n) for n in fb.subband_lengths()]
    mask = masking.MaskSymbol(weights, binary=False)
    path = tmp_path / "mask.afm"
    container.write_mask(path, fb, mask, trim_length=100)
    _, mask2, _ = container.read_mask(path)
    assert not mask2.binary
    for a, b in zip(weights, mask2.weights):
        np.testing.assert_array_equal(a, b)


def test_mask_shape_mismatch_rejected(tmp_path):
    fb = build_bank()
    bad = masking.MaskSymbol([np.ones(3) for _ in range(fb.n_channels)])
    with pytest.raises(ShapeError):
        container.write_mask(tmp_path / "m.afm", fb, bad, trim_length=10)


def test_bank_without_config_cannot_be_written(tmp_path, rng):
    fb = audfb.FilterBank(
        filters=rng.standard_normal((2, 16)) + 0j,
        decimations=np.array([2, 2]),
        sample_rate=16.0,
        one_sided=False,
    )
    coeffs = audfb.analyze(fb, rng.standard_normal(16))
    with pytest.raises(ContainerError):
        container.write_coefficients(tmp_path / "c.afc", fb, coeffs, trim_length=16)


def test_trim_length_validated(tmp_path, rng):
    fb = build_bank()
    coeffs = audfb.analyze(fb, rng.standard_normal(1024))
    with pytest.raises(ContainerError):
        container.write_coefficients(tmp_path / "c.afc", fb, coeffs, trim_length=2000)


def _valid_container(tmp_path, rng):
    fb = build_bank()
    coeffs = audfb.analyze(fb, rng.standard_normal(1024))
    path = tmp_path / "valid.afc"
    container.write_coefficients(path, fb, coeffs, trim_length=1024)
    return path


def test_bad_magic_rejected(tmp_path, rng):
    path = _valid_container(tmp_path, rng)
    blob = path.read_bytes()
    bad = tmp_path / "bad.afc"
    bad.write_bytes(b"NOT-A-CONTAINER 9" + blob[17:])
    with pytest.raises(ContainerError):
        container.read_coefficients(bad)


def test_missing_payload_marker_rejected(tmp_path, rng):
    path = _valid_container(tmp_path, rng)
    blob = path.read_bytes().replace(b"\npayload\n", b"\npayioad\n")
    bad = tmp_path / "bad.afc"
    bad.write_bytes(blob)
    with pytest.raises(ContainerError):
        container.read_coefficients(bad)


def test_truncated_payload_rejected(tmp_path, rng):
    path = _valid_container(tmp_path, rng)
    blob = path.read_bytes()
    bad = tmp_path / "bad.afc"
    bad.write_bytes(blob[:-8])
    with pytest.raises(ContainerError):
        container.read_coefficients(bad)


def test_wrong_kind_rejected(tmp_path, rng):
    """A coefficient file is not readable as a mask and vice versa."""
    path = _valid_container(tmp_path, rng)
    with pytest.raises(ContainerError):
        container.read_mask(path)


def test_tampered_channel_metadata_rejected(tmp_path, rng):
    path = _valid_container(tmp_path, rng)
    text = path.read_bytes()
    head, _, tail = text.partition(b"\npayload\n")
    lines = head.split(b"\n")
    for i, line in enumerate(lines):
        if line.startswith(b"channel "):
            parts = line.split(b" ")
            parts[-1] = b"1" if parts[-1] != b"1" else b"2"
            lines[i] = b" ".join(parts)
            break
    bad = tmp_path / "bad.afc"
    bad.write_bytes(b"\n".join(lines) + b"\npayload\n" + tail)
    with pytest.raises(ContainerError):
        container.read_coefficients(bad)


def test_unknown_scale_rejected(tmp_path, rng):
    path = _valid_container(tmp_path, rng)
    blob = path.read_bytes().replace(b"scale erb", b"scale mel")
    bad = tmp_path / "bad.afc"
    bad.write_bytes(blob)
    with pytest.raises(ContainerError):
        container.read_coefficients(bad)


def test_claimed_length_checked_against_payload_before_rebuild(tmp_path, rng):
    """A small file claiming L = 2^20 fails on its payload size before a
    bank of that length is built."""
    blob = _valid_container(tmp_path, rng).read_bytes()
    bad = tmp_path / "bad.afc"
    bad.write_bytes(blob.replace(b"signal_length 1024", b"signal_length 1048576"))
    tracemalloc.start()
    try:
        with pytest.raises(ContainerError, match="payload"):
            container.read_coefficients(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(blob) + 2**20


@pytest.mark.parametrize("claimed", [2**18, 2**19, 2**20])
def test_claimed_length_with_one_coefficient_per_channel_refused_before_rebuild(
    tmp_path, rng, claimed
):
    """Every channel line records d = L, so the payload holds one coefficient
    per channel and passes its size check. The recorded dilations show that
    the windows span far more bins than that, and the file is refused before
    a bank of the claimed length is built."""
    head, _, _ = _valid_container(tmp_path, rng).read_bytes().partition(b"\npayload\n")
    lines = head.replace(b"signal_length 1024", b"signal_length %d" % claimed).split(b"\n")
    lines = [
        b" ".join(line.split(b" ")[:-1] + [b"%d" % claimed]) if line.startswith(b"channel ")
        else line
        for line in lines
    ]
    channels = sum(line.startswith(b"channel ") for line in lines)
    blob = b"\n".join(lines) + b"\npayload\n" + bytes(16 * channels)
    bad = tmp_path / "bad.afc"
    bad.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(ContainerError, match="window spans"):
            container.read_coefficients(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(blob) + 2**20


def test_forged_channel_density_refused_before_layout(tmp_path, rng):
    """A header claiming L = 2^20 and a channel density just under the 4 * L
    cap describes about four million channels but lists a few dozen (each
    with d = L, so the payload size check passes). The counts are compared
    before the layout of those channels is computed."""
    claimed = 2**20
    span = audfb.scales.scale_value(audfb.ERB, 4000.0) - audfb.scales.scale_value(audfb.ERB, 0.0)
    density = 0.99 * 4 * claimed / span
    head, _, _ = _valid_container(tmp_path, rng).read_bytes().partition(b"\npayload\n")
    lines = [
        b"channels_per_unit %r" % density if line.startswith(b"channels_per_unit ")
        else b" ".join(line.split(b" ")[:-1] + [b"%d" % claimed]) if line.startswith(b"channel ")
        else line
        for line in head.replace(b"signal_length 1024", b"signal_length %d" % claimed).split(b"\n")
    ]
    channels = sum(line.startswith(b"channel ") for line in lines)
    blob = b"\n".join(lines) + b"\npayload\n" + bytes(16 * channels)
    bad = tmp_path / "bad.afc"
    bad.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(ContainerError, match="channels"):
            container.read_coefficients(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(blob) + 2**20


def test_parseval_container_memory_is_bounded_by_support(tmp_path):
    """A genuine 429-byte parseval container at L = 2^20 whose two channels
    cover 1 and 3 bins. Reading it makes no array over all L bins (8 MiB of
    float64): the parseval scale is computed on the covers."""
    L = 2**20
    fb = build_bank(
        True, f_min=4000.0 - 8000.0 / L, channels_per_unit=1e-4, signal_length=L,
        r_bw=1e-6, r_d=1e30, dc_filter=False,
    )
    assert [values.size for _, values in fb._covers] == [1, 3]
    path = tmp_path / "parseval.afc"
    coeffs = [np.ones(L // int(d), dtype=np.complex128) for d in fb.decimations]
    container.write_coefficients(path, fb, coeffs, trim_length=L)
    assert path.stat().st_size == 429
    tracemalloc.start()
    try:
        fb2, coeffs2, _ = container.read_coefficients(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(fb2._covers, fb._covers))
    assert all(np.array_equal(a, b) for a, b in zip(coeffs2, coeffs))


_HOSTILE = [
    b"0", b"-1", b"1", b"2", b"3", b"0.5", b"1.5", b"511", b"513", b"4096", b"1048576",
    b"9" * 40, b"1e308", b"-1e308", b"1e-300", b"5e-324", b"nan", b"inf", b"-inf",
    b"", b"x", b"erb", b"bark", b"rect", b"coefficients", b"mask",
]


def test_header_mutations_raise_only_container_error(tmp_path, rng):
    """Fuzz of the reader on an L=512 container: every header field set to
    every hostile value, then 100 seeded mutations of channel-line fields.
    Each read succeeds or raises ContainerError, with no warning behind it,
    and peaks at 1 MiB under tracemalloc."""
    fb = build_bank(channels_per_unit=1.0, signal_length=512)
    path = tmp_path / "valid.afc"
    container.write_coefficients(path, fb, audfb.analyze(fb, rng.standard_normal(512)), 512)
    head, _, payload = path.read_bytes().partition(b"\npayload\n")
    lines = head.split(b"\n")
    channel_rows = [i for i, line in enumerate(lines) if line.startswith(b"channel ")]
    gen = np.random.default_rng(2024)
    mutations = [(row, 1, value) for row in range(1, channel_rows[0]) for value in _HOSTILE]
    mutations += [
        (int(gen.choice(channel_rows)), int(gen.integers(1, 4)), _HOSTILE[int(gen.integers(len(_HOSTILE)))])
        for _ in range(100)
    ]
    bad = tmp_path / "bad.afc"
    for row, field, value in mutations:
        fields = lines[row].split(b" ")
        fields[field] = value
        bad.write_bytes(b"\n".join(lines[:row] + [b" ".join(fields)] + lines[row + 1:])
                        + b"\npayload\n" + payload)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                container.read_coefficients(bad)
        except ContainerError as exc:
            assert not isinstance(exc.__cause__, Warning), (fields, exc)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= 2**20, fields


@given(
    scale=st.sampled_from([audfb.ERB, audfb.BARK]),
    channels_per_unit=st.floats(0.5, 4.0),
    f_min=st.one_of(st.just(0.0), st.floats(20.0, 1000.0)),
    f_max=st.floats(1500.0, 4000.0),
    prototype=st.sampled_from(sorted(audfb.filterbank.PROTOTYPES)),
    r_bw=st.floats(0.3, 3.0),
    r_d=st.floats(0.3, 3.0),
    dc_filter=st.booleans(),
    parseval=st.booleans(),
    signal_length=st.sampled_from([96, 256, 1000, 1024, 4096]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_banks_read_back(
    tmp_path, scale, channels_per_unit, f_min, f_max, prototype, r_bw, r_d, dc_filter,
    parseval, signal_length, seed,
):
    """Containers of any bank build_audlet makes pass the reader's checks."""
    try:
        fb = build_bank(
            parseval, scale=scale, channels_per_unit=channels_per_unit, f_min=f_min,
            f_max=f_max, prototype=prototype, r_bw=r_bw, r_d=r_d, dc_filter=dc_filter,
            signal_length=signal_length,
        )
    except UnsupportedConfigError:
        assume(False)
    coeffs = audfb.analyze(fb, np.random.default_rng(seed).standard_normal(signal_length))
    path = tmp_path / "random.afc"
    container.write_coefficients(path, fb, coeffs, trim_length=signal_length)
    fb2, coeffs2, _ = container.read_coefficients(path)
    np.testing.assert_array_equal(fb2.filters, fb.filters)
    np.testing.assert_array_equal(fb2.decimations, fb.decimations)
    assert all(np.array_equal(a, b) for a, b in zip(coeffs, coeffs2))
