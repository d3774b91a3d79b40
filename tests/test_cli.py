"""Command line interface: subcommands, exit codes, file formats."""

import math

import numpy as np
import pytest
from scipy.io import wavfile

import audfb
from audfb import cli, container, filterbank


def make_wav(path, seconds=1.5, rate=8000, dtype=np.float32, stereo=False):
    """Deterministic two-tone test clip."""
    gen = np.random.default_rng(5)
    n = int(seconds * rate)
    t = np.arange(n) / rate
    x = 0.4 * np.sin(2 * np.pi * 440.0 * t) + 0.2 * np.sin(2 * np.pi * 1850.0 * t)
    x += 0.05 * gen.standard_normal(n)
    x *= 0.8 / np.max(np.abs(x))
    if dtype == np.int16:
        data = np.round(x * 32767.0).astype(np.int16)
    elif dtype == np.int32:
        data = np.round(x * (2**31 - 1)).astype(np.int32)
    else:
        data = x.astype(dtype)
    if stereo:
        data = np.stack([data, np.zeros_like(data)], axis=1)
    wavfile.write(path, rate, data)
    return x


def read_float_wav(path):
    rate, data = wavfile.read(path)
    return rate, np.asarray(data, dtype=np.float64)


class TestRoundtrip:
    def test_analyze_then_synthesize(self, tmp_path):
        wav = tmp_path / "in.wav"
        x = make_wav(wav)
        coeffs = tmp_path / "c.afc"
        out = tmp_path / "out.wav"
        assert cli.main(["analyze", str(wav), str(coeffs)]) == 0
        assert cli.main(["synthesize", str(coeffs), str(out)]) == 0
        rate, y = read_float_wav(out)
        assert rate == 8000
        assert y.shape == x.shape
        assert np.linalg.norm(y - x) / np.linalg.norm(x) <= 1e-6

    def test_padding_to_4096_quantum(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav, seconds=1.5, rate=8000)  # 12000 samples -> 12288 padded
        coeffs = tmp_path / "c.afc"
        assert cli.main(["analyze", str(wav), str(coeffs)]) == 0
        fb, _, trim = container.read_coefficients(coeffs)
        assert fb.signal_length == 12288
        assert trim == 12000

    @pytest.mark.parametrize("method", ["cg", "neumann"])
    def test_iterative_methods_agree_with_dual(self, tmp_path, method):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        coeffs = tmp_path / "c.afc"
        ref = tmp_path / "dual.wav"
        alt = tmp_path / f"{method}.wav"
        cli.main(["analyze", str(wav), str(coeffs)])
        assert cli.main(["synthesize", str(coeffs), str(ref)]) == 0
        assert cli.main(["synthesize", str(coeffs), str(alt), "--method", method]) == 0
        _, a = read_float_wav(ref)
        _, b = read_float_wav(alt)
        assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-5

    def test_int16_input(self, tmp_path):
        wav = tmp_path / "in.wav"
        x = make_wav(wav, dtype=np.int16)
        coeffs = tmp_path / "c.afc"
        out = tmp_path / "out.wav"
        assert cli.main(["analyze", str(wav), str(coeffs)]) == 0
        assert cli.main(["synthesize", str(coeffs), str(out)]) == 0
        _, y = read_float_wav(out)
        assert np.linalg.norm(y - x) / np.linalg.norm(x) <= 1e-3

    def test_stereo_uses_first_channel(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav, stereo=True)
        coeffs = tmp_path / "c.afc"
        assert cli.main(["analyze", str(wav), str(coeffs)]) == 0

    def test_analyze_is_byte_deterministic(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        a, b = tmp_path / "a.afc", tmp_path / "b.afc"
        cli.main(["analyze", str(wav), str(a)])
        cli.main(["analyze", str(wav), str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDiagnose:
    def test_frame_verdict(self, capsys):
        assert cli.main(["diagnose", "--sample-rate", "8000", "--length", "4096"]) == 0
        out = capsys.readouterr().out
        assert "painless: yes" in out
        assert "lower frame bound A: " in out
        assert "condition number B/A: " in out
        assert "redundancy R: " in out
        # the bank statistics follow the frame report and the redundancy
        fb = audfb.build_audlet(0.0, 4000.0, 6.0, audfb.ERB, sample_rate=8000.0, signal_length=4096)
        report = audfb.estimate_bounds(fb, "auto")
        head = report.summary() + "\nredundancy R: %.17g\n" % fb.redundancy()
        assert out.startswith(head)
        stats = dict(line.split(": ") for line in out[len(head):].splitlines())
        support = [filterbank.circular_cover(H != 0.0)[1] for H in fb.filters]
        margin = min(n - s for n, s in zip(fb.subband_lengths(), support))
        D = math.lcm(*(int(d) for d in fb.decimations))
        assert stats == {
            "channels": str(fb.n_channels),
            "total support (bins)": str(sum(support)),
            "largest support (bins)": str(max(support)),
            "D = lcm(d_k)": str(D),
            "painless margin (bins)": str(margin),
        }
        assert margin >= 0 and 4096 % D == 0  # painless, and D divides L

    def test_not_a_frame_exit_code(self, capsys):
        code = cli.main(
            [
                "diagnose",
                "--sample-rate",
                "8000",
                "--length",
                "4096",
                "--fmin",
                "2000",
                "--no-dc-filter",
            ]
        )
        assert code == 2

    def test_parseval_flag(self, capsys):
        assert (
            cli.main(
                ["diagnose", "--sample-rate", "8000", "--length", "4096", "--parseval"]
            )
            == 0
        )
        out = capsys.readouterr().out
        lower = next(l for l in out.splitlines() if l.startswith("lower frame bound"))
        assert float(lower.split(": ")[1]) == pytest.approx(1.0, rel=1e-8)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["diagnose", "--bogus"]) == 64

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 64

    def test_bad_choice_is_usage_error(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        code = cli.main(
            ["spectrogram", str(wav), str(tmp_path / "o.csv"), "--format", "bmp"]
        )
        assert code == 64

    def test_invalid_bank_configuration_is_usage_error(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        make_wav(wav, rate=8000)
        code = cli.main(["analyze", str(wav), str(tmp_path / "c.afc"), "--fmax", "9000"])
        assert code == 64
        assert "audfb:" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = cli.main(["analyze", str(tmp_path / "nope.wav"), str(tmp_path / "c.afc")])
        assert code == 74

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("analyze", []),
            ("spectrogram", ["--format", "csv"]),
            ("spectrogram", ["--format", "pgm"]),
            ("irrelevance", []),
        ],
    )
    def test_output_in_missing_directory_is_io_error(self, tmp_path, capsys, command, flags):
        wav = tmp_path / "in.wav"
        make_wav(wav, seconds=0.5)
        out = tmp_path / "missing" / "out"
        assert cli.main([command, str(wav), str(out)] + flags) == 74
        assert "audfb:" in capsys.readouterr().err

    def test_synthesis_output_in_missing_directory_is_io_error(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        make_wav(wav, seconds=0.5)
        coeffs = tmp_path / "c.afc"
        assert cli.main(["analyze", str(wav), str(coeffs)]) == 0
        out = tmp_path / "missing" / "o.wav"
        assert cli.main(["synthesize", str(coeffs), str(out)]) == 74
        assert "audfb:" in capsys.readouterr().err

    def test_mask_output_in_missing_directory_is_io_error(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        make_wav(wav, seconds=0.5)
        mask = tmp_path / "missing" / "m.afm"
        code = cli.main(["irrelevance", str(wav), str(tmp_path / "o.wav"), "--mask-out", str(mask)])
        assert code == 74
        assert "audfb:" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_wav_output_in_missing_directory_leaves_no_mask(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        make_wav(wav, seconds=0.5)
        mask = tmp_path / "m.afm"
        out = tmp_path / "missing" / "o.wav"
        code = cli.main(["irrelevance", str(wav), str(out), "--mask-out", str(mask)])
        assert code == 74
        assert "audfb:" in capsys.readouterr().err
        assert not mask.exists()

    def test_garbage_container_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.afc"
        bad.write_bytes(b"this is not a container\n")
        code = cli.main(["synthesize", str(bad), str(tmp_path / "o.wav")])
        assert code == 65

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", ["dual", "cg", "neumann"])
    def test_non_finite_coefficients_are_data_error(self, tmp_path, capsys, method, bad):
        """The dual wrote a WAV of NaN samples, and CG and Neumann exited 70."""
        wav = tmp_path / "in.wav"
        make_wav(wav, seconds=0.5)
        coeffs = tmp_path / "c.afc"
        assert cli.main(["analyze", str(wav), str(coeffs)]) == 0
        fb, coefficients, trim = container.read_coefficients(coeffs)
        coefficients[3][0] = bad
        container.write_coefficients(coeffs, fb, coefficients, trim)
        out = tmp_path / "o.wav"
        assert cli.main(["synthesize", str(coeffs), str(out), "--method", method]) == 65
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_wav_input_is_data_error(self, tmp_path, capsys):
        fake = tmp_path / "fake.wav"
        fake.write_text("just text")
        code = cli.main(["analyze", str(fake), str(tmp_path / "c.afc")])
        assert code == 65

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "command, output",
        [("analyze", "c.afc"), ("irrelevance", "o.wav"), ("spectrogram", "o.csv")],
    )
    def test_non_finite_samples_are_data_error(self, tmp_path, capsys, command, output, bad):
        wav = tmp_path / "in.wav"
        x = make_wav(wav).astype(np.float32)
        x[100] = bad
        wavfile.write(wav, 8000, x)
        out = tmp_path / output
        assert cli.main([command, str(wav), str(out)]) == 65
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--channels-per-unit", "--rd"])
    def test_non_finite_bank_flag_is_usage_error(self, capsys, flag, value):
        code = cli.main(["diagnose", "--sample-rate", "8000", "--length", "4096", flag, value])
        assert code == 64
        assert "bank configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rbw", "--rd"])
    def test_overflowing_bank_flag_is_usage_error(self, capsys, flag):
        code = cli.main(["diagnose", "--sample-rate", "8000", "--length", "4096", flag, "1e308"])
        assert code == 64
        assert "bank configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("density", ["1e300", "1.7e308"])
    def test_unbounded_channel_count_is_usage_error(self, capsys, density):
        flags = ["--sample-rate", "8000", "--length", "4096", "--channels-per-unit", density]
        code = cli.main(["diagnose"] + flags)
        assert code == 64
        assert "bank configuration" in capsys.readouterr().err

    def test_dual_synthesis_of_non_frame_is_convergence_error(self, tmp_path, capsys):
        """Without the 0 Hz filter the bank misses [0, 500) Hz: no dual exists."""
        wav = tmp_path / "in.wav"
        make_wav(wav, seconds=0.5)
        coeffs = tmp_path / "c.afc"
        out = tmp_path / "o.wav"
        gap = ["--fmin", "500", "--no-dc-filter"]
        assert cli.main(["analyze", str(wav), str(coeffs)] + gap) == 0
        assert cli.main(["synthesize", str(coeffs), str(out)]) == 70
        assert "reconstruction failed" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["irrelevance", str(wav), str(out)] + gap) == 70
        assert "reconstruction failed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("method", ["cg", "neumann"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, method, tolerance):
        wav = tmp_path / "in.wav"
        make_wav(wav, seconds=0.5)
        coeffs = tmp_path / "c.afc"
        out = tmp_path / "o.wav"
        assert cli.main(["analyze", str(wav), str(coeffs)]) == 0
        code = cli.main(
            ["synthesize", str(coeffs), str(out), "--method", method, f"--tolerance={tolerance}"]
        )
        assert code == 64
        assert "--tolerance" in capsys.readouterr().err
        assert not out.exists()


class TestSpectrogram:
    def test_csv_layout(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "sg.csv"
        assert cli.main(["spectrogram", str(wav), str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        fb = audfb.build_audlet(
            0.0, 4000.0, 6.0, audfb.ERB, sample_rate=8000.0, signal_length=12288
        )
        assert len(lines) == fb.n_channels + 1
        header = [float(v) for v in lines[0].split(",")]
        np.testing.assert_allclose(header, fb.center_frequencies, rtol=1e-15)
        widths = {len(line.split(",")) for line in lines[1:]}
        assert widths == {max(fb.subband_lengths())}

    def test_csv_tone_lands_in_nearest_channel(self, tmp_path):
        rate = 8000
        wav = tmp_path / "tone.wav"
        t = np.arange(rate) / rate
        wavfile.write(wav, rate, (0.5 * np.sin(2 * np.pi * 1000.0 * t)).astype(np.float32))
        out = tmp_path / "sg.csv"
        assert cli.main(["spectrogram", str(wav), str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        centers = np.array([float(v) for v in lines[0].split(",")])
        peak_rows = np.array(
            [max(float(v) for v in line.split(",")) for line in lines[1:]]
        )
        assert np.argmax(peak_rows) == np.argmin(np.abs(centers - 1000.0))

    def test_csv_silence_is_all_floor(self, tmp_path):
        rate = 8000
        wav = tmp_path / "silent.wav"
        wavfile.write(wav, rate, np.zeros(4096, dtype=np.float32))
        out = tmp_path / "sg.csv"
        assert cli.main(["spectrogram", str(wav), str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        values = {v for row in rows for v in row.split(",")}
        assert values == {"-100"}

    def test_pgm_header_and_size(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "sg.pgm"
        assert cli.main(["spectrogram", str(wav), str(out), "--format", "pgm"]) == 0
        blob = out.read_bytes()
        fb = audfb.build_audlet(
            0.0, 4000.0, 6.0, audfb.ERB, sample_rate=8000.0, signal_length=12288
        )
        width = max(fb.subband_lengths())
        header = f"P5\n{width} {fb.n_channels}\n65535\n".encode("ascii")
        assert blob.startswith(header)
        assert len(blob) == len(header) + 2 * width * fb.n_channels

    def test_pgm_is_byte_deterministic(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        cli.main(["spectrogram", str(wav), str(a), "--format", "pgm"])
        cli.main(["spectrogram", str(wav), str(b), "--format", "pgm"])
        assert a.read_bytes() == b.read_bytes()


class TestIrrelevance:
    def test_prints_removal_fraction(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "out.wav"
        assert cli.main(["irrelevance", str(wav), str(out)]) == 0
        fraction = float(capsys.readouterr().out.strip())
        assert 0.0 < fraction < 1.0

    def test_open_mask_equals_plain_roundtrip(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        coeffs = tmp_path / "c.afc"
        plain = tmp_path / "plain.wav"
        masked = tmp_path / "masked.wav"
        cli.main(["analyze", str(wav), str(coeffs)])
        cli.main(["synthesize", str(coeffs), str(plain)])
        code = cli.main(
            ["irrelevance", str(wav), str(masked), "--offset-db", "-1000"]
        )
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == 0.0
        assert masked.read_bytes() == plain.read_bytes()

    def test_mask_container_output(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "out.wav"
        mask_path = tmp_path / "mask.afm"
        code = cli.main(
            ["irrelevance", str(wav), str(out), "--mask-out", str(mask_path)]
        )
        assert code == 0
        fb, mask, trim = container.read_mask(mask_path)
        assert trim == 12000
        assert mask.binary
        kept = sum(float(np.sum(w)) for w in mask.weights)
        total = sum(w.shape[0] for w in mask.weights)
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(1.0 - kept / total, abs=1e-12)

    def test_custom_spread_flags(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "out.wav"
        code = cli.main(
            [
                "irrelevance",
                str(wav),
                str(out),
                "--spread-lower",
                "50",
                "--spread-upper",
                "30",
            ]
        )
        assert code == 0

    def test_invalid_model_is_usage_error(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        code = cli.main(
            ["irrelevance", str(wav), str(tmp_path / "o.wav"), "--spread-lower", "-5"]
        )
        assert code == 64

    @pytest.mark.parametrize("flag", ["--spread-lower", "--spread-upper"])
    def test_infinite_spread_is_usage_error(self, tmp_path, capsys, flag):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "o.wav"
        code = cli.main(["irrelevance", str(wav), str(out), flag, "inf"])
        assert code == 64
        assert "masking model" in capsys.readouterr().err
        assert not out.exists()
