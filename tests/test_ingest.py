"""Epoch slicing, resampling fidelity, label sidecars, and the synthetic
dataset generator."""

import numpy as np
import pytest

from sst import ingest
from sst.edf import EdfHeader, EdfSignalHeader, Hypnogram, SignalTrace, parse_edf, write_edf
from sst.errors import ConfigError, DataError, ParseError
from sst.metrics import EPOCH_S
from sst.sampling import EpochStore
from sst.ingest import (
    epoch_and_label,
    export_edf,
    labels_from_text,
    labels_to_text,
    load_edf_store,
    resample,
    select_trace,
    synth_dataset,
)

from conftest import tal_edf


def trace_of(rng, n, fs, label="EEG"):
    """A trace of n int16 samples at fs Hz spanning the whole int16 range."""
    sig = EdfSignalHeader(
        label=label, transducer="", phys_dim="uV", phys_min=-100.0, phys_max=100.0,
        dig_min=-32768, dig_max=32767, prefilter="", samples_per_record=1,
    )
    return SignalTrace(sig, float(fs), rng.integers(-32768, 32768, size=n, dtype=np.int16))


def label_epochs(trace, hyp):
    """(signals, kept labels, dropped) of the trace at its own rate, staged
    by hyp per whole epoch as a TAL night is."""
    stages = hyp.stages_for_epochs(len(trace.digital) // int(EPOCH_S * trace.fs), EPOCH_S)
    signals, dropped = epoch_and_label(trace, stages, trace.fs)
    return signals, [stage for stage in stages if stage is not None], dropped


class TestEpochAndLabel:
    def test_all_wake(self, rng):
        trace = trace_of(rng, 9000, fs=100)
        signals, labels, dropped = label_epochs(trace, Hypnogram([(0.0, 90.0, 0)]))
        assert dropped == 0
        assert signals.shape == (3, 1, 3000)
        assert labels == [0, 0, 0]
        for k, signal in enumerate(signals):
            assert signal[0].tobytes() == trace.physical(k * 3000, (k + 1) * 3000).tobytes()

    def test_straddling_epoch_dropped(self, rng):
        trace = trace_of(rng, 9000, fs=100)
        hyp = Hypnogram([(0.0, 45.0, 0), (45.0, 45.0, 1)])
        signals, labels, dropped = label_epochs(trace, hyp)
        assert dropped == 1
        assert labels == [0, 1] and len(signals) == 2

    def test_unknown_stage_dropped(self, rng):
        trace = trace_of(rng, 6000, fs=100)
        hyp = Hypnogram([(0.0, 30.0, None), (30.0, 30.0, 2)])
        signals, labels, dropped = label_epochs(trace, hyp)
        assert dropped == 1
        assert labels == [2] and len(signals) == 1

    def test_trailing_partial_epoch_ignored(self, rng):
        trace = trace_of(rng, 3500, fs=100)
        signals, _, dropped = label_epochs(trace, Hypnogram([(0.0, 60.0, 0)]))
        assert len(signals) == 1
        assert dropped == 0

    def test_non_integer_epoch_rejected(self, rng):
        trace = trace_of(rng, 100, fs=0.11)
        with pytest.raises(ConfigError):
            epoch_and_label(trace, [], 0.11)


RATE_PAIRS = [(200, 100), (256, 100), (125, 100), (100, 150), (500, 100), (100, 100)]

PATTERNS = {
    "runs_touch_both_ends": [1, 1, None, 2, None, None, 3, 4, 0],
    "inner_runs": [None, 1, 2, None, 3, None, None, 4, None],
    "all_kept": [2] * 9,
    "all_dropped": [None] * 9,
}


def maximal_runs(stages):
    return sum(1 for k, s in enumerate(stages) if s is not None and (k == 0 or stages[k - 1] is None))


class TestScoredSpanResampling:
    """Resampling only the kept runs gives the bytes of resampling the whole
    trace and slicing it."""

    @pytest.mark.parametrize("fs,target", RATE_PAIRS)
    @pytest.mark.parametrize("short", [0, 1])
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_matches_resample_then_slice(self, fs, target, short, pattern, monkeypatch):
        stages = PATTERNS[pattern]
        rng = np.random.default_rng(fs + target + short)
        # short=1: one sample short of whole epochs; downsampled, the
        # resampled trace still holds the last epoch
        n = len(stages) * 30 * fs - short
        trace = trace_of(rng, n, fs=fs)
        full = resample(trace.physical(0, n), fs, target)
        T = 30 * target
        n_full = len(full) // T
        assert ingest._epoch_grid(trace, target) == (T, n_full)
        hyp = Hypnogram([(30.0 * k, 30.0, s) for k, s in enumerate(stages)])

        calls = []
        monkeypatch.setattr(ingest, "resample",
                            lambda x, fs_in, fs_out: calls.append(len(x)) or resample(x, fs_in, fs_out))
        signals, dropped = epoch_and_label(trace, hyp.stages_for_epochs(n_full, EPOCH_S), target)

        kept = [k for k in range(n_full) if stages[k] is not None]
        assert dropped == n_full - len(kept)
        assert len(signals) == len(kept)
        for k, signal in zip(kept, signals):
            assert signal.tobytes() == full[k * T : (k + 1) * T].reshape(1, T).tobytes()
        assert len(calls) == maximal_runs(stages[:n_full])
        if pattern != "all_kept":
            assert sum(calls) < n

    @pytest.mark.parametrize("fs,target", RATE_PAIRS)
    def test_sidecar_resamples_labelled_prefix(self, fs, target, tmp_path, monkeypatch):
        digital = np.random.default_rng(fs * target).integers(-30000, 30000, size=300 * fs)
        write_sidecar_edf(tmp_path / "night", fs, digital.astype(np.int16), "W\n1\n2\n3\nR\nR\n")

        _, traces, _ = parse_edf((tmp_path / "night.edf").read_bytes())
        full = resample(traces[0].physical(0, len(digital)), fs, target)
        calls = []
        monkeypatch.setattr(ingest, "resample",
                            lambda x, fs_in, fs_out: calls.append(len(x)) or resample(x, fs_in, fs_out))
        store = load_edf_store(str(tmp_path), "EEG", target_fs=target)

        np.testing.assert_array_equal(store.labels, [0, 1, 2, 3, 4, 4])
        assert store.signals.tobytes() == full[: 6 * 30 * target].tobytes()
        assert len(calls) == 1 and calls[0] < len(digital)

    def test_sidecar_longer_than_signal_rejected(self, tmp_path):
        write_sidecar_edf(tmp_path / "a", 200, np.zeros(60 * 200, dtype=np.int16), "W\nW\nW\n")
        with pytest.raises(DataError, match="3 labels but only 2 epochs"):
            load_edf_store(str(tmp_path), "EEG", target_fs=100)


class TestTalLabels:
    def test_epochs_labelled_from_annotation_signal(self, tmp_path, capsys):
        blob = tal_edf(10, ["Sleep stage W", "Sleep stage ?", "Sleep stage R"])
        (tmp_path / "night.edf").write_bytes(blob)
        store = load_edf_store(str(tmp_path), "EEG")
        np.testing.assert_array_equal(store.labels, [0, 4])
        eeg = parse_edf(blob)[1][0]
        kept = np.stack([eeg.physical(0, 300), eeg.physical(600, 900)])
        assert store.signals.tobytes() == kept.tobytes()
        assert "dropped 1 epochs" in capsys.readouterr().err

    def test_all_dropped_night_adds_no_subject(self, tmp_path, capsys):
        (tmp_path / "a.edf").write_bytes(tal_edf(10, ["Sleep stage ?", "Movement time"]))
        (tmp_path / "b.edf").write_bytes(tal_edf(10, ["Sleep stage 1", "Sleep stage W"]))
        store = load_edf_store(str(tmp_path), "EEG")
        assert store.spans() == [("b", 0, 2)]
        np.testing.assert_array_equal(store.labels, [1, 0])
        assert "dropped 2 epochs" in capsys.readouterr().err

    def test_sidecar_and_tal_nights_load_together(self, tmp_path):
        digital = np.random.default_rng(7).integers(-30000, 30000, size=900, dtype=np.int16)
        write_sidecar_edf(tmp_path / "a", 10, digital, "2\nR\n")
        blob = tal_edf(10, ["Sleep stage W", "Sleep stage ?", "Sleep stage 3"])
        (tmp_path / "b.edf").write_bytes(blob)
        store = load_edf_store(str(tmp_path), "EEG")

        assert store.spans() == [("a", 0, 2), ("b", 2, 4)]
        np.testing.assert_array_equal(store.labels, [2, 4, 0, 3])
        sidecar_eeg = parse_edf((tmp_path / "a.edf").read_bytes())[1][0]
        tal_eeg = parse_edf(blob)[1][0]
        kept = [sidecar_eeg.physical(0, 600), tal_eeg.physical(0, 300), tal_eeg.physical(600, 900)]
        assert store.signals.tobytes() == np.concatenate(kept).tobytes()

    def test_no_annotations_and_no_sidecar_rejected(self, tmp_path):
        write_sidecar_edf(tmp_path / "a", 10, np.zeros(300, dtype=np.int16), "W\n")
        (tmp_path / "a.labels").unlink()
        with pytest.raises(DataError, match="no 'EDF Annotations' signal and no sidecar"):
            load_edf_store(str(tmp_path), "EEG")


def write_sidecar_edf(base, fs, digital, labels_text):
    """One-channel EDF of 1 s records at fs, plus its '.labels' sidecar."""
    sig = EdfSignalHeader(
        label="EEG Fpz-Cz", transducer="", phys_dim="uV", phys_min=-100.0, phys_max=100.0,
        dig_min=-32768, dig_max=32767, prefilter="", samples_per_record=fs,
    )
    header = EdfHeader(
        version="0", patient="X", recording="X", start_date="01.01.00",
        start_time="00.00.00", header_bytes=512, reserved="", n_records=len(digital) // fs,
        record_duration_s=1.0, n_signals=1, signals=[sig],
    )
    base.with_suffix(".edf").write_bytes(write_edf(header, [digital]))
    base.with_suffix(".labels").write_text(labels_text)


class TestResample:
    def test_identity_rate(self, rng):
        x = rng.standard_normal(1000)
        out = resample(x, 100, 100.0)
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_125_to_100_length(self, rng):
        out = resample(rng.standard_normal(3750), 125, 100.0)
        assert len(out) == 3000

    def test_ceil_length(self, rng):
        out = resample(rng.standard_normal(101), 125, 100.0)
        assert len(out) == int(np.ceil(101 * 4 / 5))

    def test_constant_preserved(self):
        out = resample(np.full(3750, 3.7), 125, 100.0)
        interior = out[100:-100]
        assert np.max(np.abs(interior - 3.7)) < 1e-9

    def test_sine_amplitude_preserved(self):
        t_in = np.arange(3750) / 125.0
        out = resample(np.sin(2 * np.pi * 5.0 * t_in), 125, 100.0)
        t_out = np.arange(len(out)) / 100.0
        expected = np.sin(2 * np.pi * 5.0 * t_out)
        interior = slice(200, -200)
        assert np.max(np.abs(out[interior] - expected[interior])) < 0.01

    def test_upsampling_too(self):
        t_in = np.arange(3000) / 100.0
        out = resample(np.sin(2 * np.pi * 5.0 * t_in), 100, 125.0)
        assert len(out) == 3750
        t_out = np.arange(3750) / 125.0
        expected = np.sin(2 * np.pi * 5.0 * t_out)
        assert np.max(np.abs(out[200:-200] - expected[200:-200])) < 0.01

    def test_steep_ratio_rejected(self, rng):
        with pytest.raises(ConfigError):
            resample(rng.standard_normal(100), 100, 101.0)

    def test_irrational_ratio_rejected(self, rng):
        with pytest.raises(ConfigError):
            resample(rng.standard_normal(100), 100, 100.0 * np.sqrt(2))


class TestLabelSidecar:
    def test_round_trip(self):
        labels = np.array([0, 1, 2, 3, 4, 2, 0])
        text = labels_to_text(labels)
        assert text == "W\n1\n2\n3\nR\n2\nW\n"
        np.testing.assert_array_equal(labels_from_text(text), labels)

    def test_blank_lines_skipped(self):
        np.testing.assert_array_equal(labels_from_text("W\n\n2\n"), [0, 2])

    def test_unknown_character_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            labels_from_text("W\nQ\n")

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DataError):
            labels_to_text([0, 7])


class TestSelectTrace:
    def test_case_insensitive_substring(self, rng):
        traces = [trace_of(rng, 10, 100, label="EOG horizontal"),
                  trace_of(rng, 10, 100, label="EEG Fpz-Cz")]
        assert select_trace(traces, "fpz") is traces[1]

    def test_missing_label_lists_available(self, rng):
        traces = [trace_of(rng, 10, 100, label="EOG horizontal")]
        with pytest.raises(DataError, match="EOG horizontal"):
            select_trace(traces, "EEG")


class TestSynthDataset:
    def test_shapes_and_determinism(self):
        a = synth_dataset(2, 10, fs=10, rng=np.random.default_rng(5))
        b = synth_dataset(2, 10, fs=10, rng=np.random.default_rng(5))
        assert len(a) == 20
        assert a.signals.shape == (20, 1, 300)
        assert a.signals.tobytes() == b.signals.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = synth_dataset(1, 10, fs=10, rng=np.random.default_rng(5))
        b = synth_dataset(1, 10, fs=10, rng=np.random.default_rng(6))
        assert a.signals.tobytes() != b.signals.tobytes()

    def test_noiseless_epochs_are_pure_tones(self):
        store = synth_dataset(1, 30, fs=10, noise_sd=0.0, rng=np.random.default_rng(3))
        freqs = [0.2, 0.6, 1.1, 1.7, 2.3]
        t = np.arange(300) / 10.0
        for i in range(len(store)):
            x = store.signals[i, 0]
            f = freqs[store.labels[i]]
            # lock-in: project onto the quadrature pair at the class frequency
            a = 2.0 * np.mean(x * np.sin(2 * np.pi * f * t))
            b = 2.0 * np.mean(x * np.cos(2 * np.pi * f * t))
            assert np.hypot(a, b) == pytest.approx(1.0, abs=1e-9)
            residual = x - (a * np.sin(2 * np.pi * f * t) + b * np.cos(2 * np.pi * f * t))
            assert np.max(np.abs(residual)) < 1e-9

    def test_spectral_peak_classifier(self):
        store = synth_dataset(3, 60, fs=10, noise_sd=0.1, rng=np.random.default_rng(11))
        class_bins = np.array([round(f * 30) for f in (0.2, 0.6, 1.1, 1.7, 2.3)])
        spectra = np.abs(np.fft.rfft(store.signals[:, 0, :], axis=1))
        spectra[:, 0] = 0.0
        peaks = spectra.argmax(axis=1)
        predicted = np.abs(peaks[:, None] - class_bins[None, :]).argmin(axis=1)
        accuracy = np.mean(predicted == store.labels)
        assert accuracy > 0.95

    def test_labels_have_runs(self):
        store = synth_dataset(1, 200, fs=10, rng=np.random.default_rng(2), self_transition=0.8)
        repeats = np.mean(store.labels[1:] == store.labels[:-1])
        assert repeats > 0.6

    def test_validation(self):
        with pytest.raises(ConfigError):
            synth_dataset(0, 10, fs=10)
        with pytest.raises(ConfigError):
            synth_dataset(1, 10, fs=10, class_freqs=[1, 2, 3, 4, 6.0])  # 6 >= Nyquist
        with pytest.raises(ConfigError):
            synth_dataset(1, 10, fs=10, class_freqs=[1, 1, 2, 3, 4])


class TestExportEdf:
    def test_non_ascii_subject_is_a_data_error(self, rng, tmp_path):
        store = EpochStore([("é", rng.standard_normal((1, 1, 300)), [0])])
        with pytest.raises(DataError, match="field patient value 'é' is not ASCII"):
            export_edf(store, 10, str(tmp_path))
        assert list(tmp_path.iterdir()) == []
