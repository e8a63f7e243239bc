"""Epoch slicing, resampling fidelity, annotation-labelled nights, and the
synthetic dataset generator with its EDF+ export."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import firwin, resample_poly

from sst import ingest
from sst.edf import (
    STAGE_TEXT,
    EdfHeader,
    EdfSignalHeader,
    Hypnogram,
    SignalTrace,
    annotation_hypnogram,
    annotation_signal,
    encode_tal,
    parse_edf,
    write_edf,
)
from sst.errors import ConfigError, DataError, ParseError
from sst.metrics import EPOCH_S, N_CLASSES
from sst.sampling import EpochStore
from sst.ingest import (
    epoch_and_label,
    export_edf,
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


def kept_runs(stages):
    """(first, stop) epoch of each maximal run of kept stages."""
    runs, k = [], 0
    for dropped, run in itertools.groupby(stages, key=lambda s: s is None):
        n = len(list(run))
        if not dropped:
            runs.append((k, k + n))
        k += n
    return runs


class TestScoredSpanResampling:
    """Resampling only the kept runs, one resample call each, gives the
    bytes of resampling the whole trace and slicing it, and reads the
    dropped runs only within a filter length of a kept one."""

    @pytest.mark.parametrize("fs,target", RATE_PAIRS)
    @pytest.mark.parametrize("short", [0, 1])
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    # 4096 inputs: 64 outputs per phase class and block at M = 64, and
    # several blocks per run at every pair
    @pytest.mark.parametrize("chunk", [ingest.CHUNK_INPUTS, 4096],
                             ids=["chunk_default", "chunk_4096"])
    def test_matches_resample_then_slice(self, fs, target, short, pattern, chunk, monkeypatch):
        monkeypatch.setattr(ingest, "CHUNK_INPUTS", chunk)
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

        calls, reads = [], []
        monkeypatch.setattr(ingest, "resample",
                            lambda *args, **kw: calls.append(args[3:]) or resample(*args, **kw))
        physical = SignalTrace.physical
        monkeypatch.setattr(SignalTrace, "physical",
                            lambda self, a, b: reads.append((a, b)) or physical(self, a, b))
        signals, dropped = epoch_and_label(trace, hyp.stages_for_epochs(n_full, EPOCH_S), target)

        kept = [k for k in range(n_full) if stages[k] is not None]
        assert dropped == n_full - len(kept)
        assert len(signals) == len(kept)
        for k, signal in zip(kept, signals):
            assert signal.tobytes() == full[k * T : (k + 1) * T].reshape(1, T).tobytes()
        runs = kept_runs(stages[:n_full])
        assert calls == [(first * T, stop * T) for first, stop in runs]
        # an epoch is 30*fs input samples
        reach = ingest._filter_length(ingest._rate_ratio(fs, target)[0])
        for a, b in reads:
            assert any(first * 30 * fs - reach <= a and b <= stop * 30 * fs + reach
                       for first, stop in runs)
        if pattern != "all_kept":
            assert sum(b - a for a, b in reads) < n

class TestTalLabels:
    def test_epochs_labelled_from_annotation_signal(self, tmp_path, capsys):
        blob = tal_edf(10, ["Sleep stage W", "Sleep stage ?", "Sleep stage R"])
        (tmp_path / "night.edf").write_bytes(blob)
        store = load_edf_store(str(tmp_path), "EEG", 10)
        np.testing.assert_array_equal(store.labels, [0, 4])
        eeg = parse_edf(blob)[1][0]
        kept = np.stack([eeg.physical(0, 300), eeg.physical(600, 900)])
        assert store.signals.tobytes() == kept.tobytes()
        assert "dropped 1 epochs" in capsys.readouterr().err

    def test_all_dropped_night_adds_no_subject(self, tmp_path, capsys):
        (tmp_path / "a.edf").write_bytes(tal_edf(10, ["Sleep stage ?", "Movement time"]))
        (tmp_path / "b.edf").write_bytes(tal_edf(10, ["Sleep stage 1", "Sleep stage W"]))
        store = load_edf_store(str(tmp_path), "EEG", 10)
        assert store.spans() == [("b", 0, 2)]
        np.testing.assert_array_equal(store.labels, [1, 0])
        assert "dropped 2 epochs" in capsys.readouterr().err

    def test_no_annotations_and_no_sidecar_rejected(self, tmp_path):
        sig = EdfSignalHeader(
            label="EEG Fpz-Cz", transducer="", phys_dim="uV", phys_min=-100.0, phys_max=100.0,
            dig_min=-32768, dig_max=32767, prefilter="", samples_per_record=300,
        )
        header = EdfHeader(
            version="0", patient="X", recording="X", start_date="01.01.00",
            start_time="00.00.00", header_bytes=512, reserved="", n_records=1,
            record_duration_s=30.0, n_signals=1, signals=[sig],
        )
        (tmp_path / "a.edf").write_bytes(write_edf(header, [np.zeros(300, dtype=np.int16)]))
        with pytest.raises(DataError, match=f"{tmp_path / 'a.edf'}: no 'EDF Annotations' signal"):
            load_edf_store(str(tmp_path), "EEG", 10)

    def test_mixed_rate_directory_reads_each_night_at_fs(self, tmp_path):
        for fs in (10, 20):
            export_edf(synth_dataset(1, 3, fs=fs, rng=np.random.default_rng(fs)), fs, str(tmp_path))
            (tmp_path / "synth000.edf").rename(tmp_path / f"night{fs}.edf")
        mixed = load_edf_store(str(tmp_path), "EEG", 10)
        alone = [load_edf_store(str(tmp_path / f"night{fs}.edf"), "EEG", 10) for fs in (10, 20)]

        assert mixed.spans() == [("night10", 0, 3), ("night20", 3, 6)]
        assert mixed.signals.tobytes() == b"".join(store.signals.tobytes() for store in alone)
        assert mixed.labels.tobytes() == b"".join(store.labels.tobytes() for store in alone)


def night_behind_an_unused_signal(rng, fs, texts):
    """EDF+ bytes of one 30 s record per entry of texts: an unused signal at
    7 Hz, then the EEG at fs Hz, then the annotation signal scoring record k
    as texts[k]."""
    def signal(label, rate):
        return EdfSignalHeader(
            label=label, transducer="", phys_dim="uV", phys_min=-100.0, phys_max=100.0,
            dig_min=-32768, dig_max=32767, prefilter="", samples_per_record=30 * rate,
        )

    header = EdfHeader(
        version="0", patient="X", recording="X", start_date="01.01.00", start_time="00.00.00",
        header_bytes=0, reserved="EDF+C", n_records=len(texts), record_duration_s=30.0,
        n_signals=3, signals=[signal("EOG horizontal", 7), signal("EEG Fpz-Cz", fs),
                              annotation_signal()],
    )
    digital = [rng.integers(-32768, 32768, size=len(texts) * 30 * rate, dtype=np.int16)
               for rate in (7, fs)]
    return write_edf(header, [*digital, encode_tal(texts)])


def scattered_texts(rng, n):
    """n stage texts, about one in eight 'Sleep stage ?'."""
    return [STAGE_TEXT[s] if rng.random() > 0.125 else "Sleep stage ?"
            for s in rng.integers(0, N_CLASSES, size=n)]


class TestNightsFromFiles:
    """load_edf_store reads each night from its file in two passes."""

    @pytest.mark.parametrize("rates", [(10, 20), (20, 8)])
    def test_store_is_epoch_and_label_over_parsed_traces(self, rng, tmp_path, capsys, rates):
        expected, labels, dropped = [], [], 0
        for k, fs in enumerate(rates):
            blob = night_behind_an_unused_signal(rng, fs, scattered_texts(rng, 24))
            (tmp_path / f"night{k}.edf").write_bytes(blob)
            traces = parse_edf(blob)[1]
            eeg = select_trace(traces, "EEG")
            stages = annotation_hypnogram(traces).stages_for_epochs(
                ingest._epoch_grid(eeg, 10)[1], EPOCH_S)
            signals, n = epoch_and_label(eeg, stages, 10)
            expected.append(signals)
            labels += [stage for stage in stages if stage is not None]
            dropped += n
        store = load_edf_store(str(tmp_path), "EEG", 10)
        assert store.signals.tobytes() == np.concatenate(expected).tobytes()
        assert store.labels.tolist() == labels
        assert store.spans() == [("night0", 0, len(expected[0])),
                                 ("night1", len(expected[0]), len(labels))]
        assert f"dropped {dropped} epochs" in capsys.readouterr().err

    def test_truncated_night_is_refused_with_its_size(self, rng, tmp_path):
        blob = night_behind_an_unused_signal(rng, 10, scattered_texts(rng, 4))
        (tmp_path / "a.edf").write_bytes(tal_edf(10, ["Sleep stage W"]))
        (tmp_path / "b.edf").write_bytes(blob[:-7])
        with pytest.raises(ParseError, match=f"file is {len(blob) - 7} bytes, header promises "
                                             f"{len(blob)}") as err:
            load_edf_store(str(tmp_path), "EEG", 10)
        assert err.value.offset == len(blob) - 7

    def test_peak_is_the_store_plus_bounded_buffers(self, tmp_path):
        """200 Hz nights read at 100 Hz, each behind an unused signal, every
        16th epoch unscored: the load holds the store and the buffers of one
        run, and more nights do not add to those buffers."""
        rng = np.random.default_rng(3)
        for k in range(3):
            texts = [STAGE_TEXT[s] for s in rng.integers(0, N_CLASSES, size=160)]
            texts[15::16] = ["Sleep stage ?"] * 10
            (tmp_path / f"night{k}.edf").write_bytes(night_behind_an_unused_signal(rng, 200, texts))
        load_edf_store(str(tmp_path / "night0.edf"), "EEG", 100)   # filter design, imports
        overheads = []
        for path in (tmp_path / "night0.edf", tmp_path):
            tracemalloc.start()
            try:
                store = load_edf_store(str(path), "EEG", 100)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= store.signals.nbytes + 4 * 2**20
            overheads.append(peak - store.signals.nbytes)
            del store
        assert overheads[1] <= overheads[0] + 2**16


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


COPRIME_PAIRS = [(L, M) for L in range(1, ingest.MAX_RESAMPLE_FACTOR + 1)
                 for M in range(1, ingest.MAX_RESAMPLE_FACTOR + 1)
                 if math.gcd(L, M) == 1 and L != M]


@st.composite
def resample_cases(draw):
    """(L, M, n, chunk inputs): a rate ratio, and an input length that is 1,
    below the filter's input span, one epoch at fs = M, or longer."""
    L, M = draw(st.sampled_from(COPRIME_PAIRS))
    n = draw(st.one_of(st.just(1), st.integers(2, 2 * ingest.TAPS_PER_PHASE),
                       st.just(30 * M), st.integers(30 * M + 1, 4000)))
    chunk = draw(st.sampled_from([ingest.CHUNK_INPUTS, 97]))
    return L, M, n, chunk


class TestResampleOracle:
    """The numpy resampler against scipy.signal, bit for bit."""

    def test_lowpass_is_firwin(self):
        differ = []
        for L, M in COPRIME_PAIRS:
            numtaps = ingest._filter_length(L)
            h = ingest._lowpass(numtaps, 1.0 / max(L, M), ingest.KAISER_BETA)
            ref = firwin(numtaps, 1.0 / max(L, M), window=("kaiser", 8.6))
            if h.tobytes() != ref.tobytes():
                differ.append((L, M))
        assert differ == []

    @settings(max_examples=150, deadline=None)
    @given(case=resample_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=(1, 2, 3000, ingest.CHUNK_INPUTS), seed=0)   # 200 -> 100 Hz, one epoch
    @example(case=(4, 5, 3750, ingest.CHUNK_INPUTS), seed=1)   # 125 -> 100 Hz, one epoch
    @example(case=(5, 4, 1, ingest.CHUNK_INPUTS), seed=2)      # 8 -> 10 Hz, one sample
    @example(case=(25, 64, 3000, 97), seed=5)                  # 256 -> 100 Hz, one frame a block
    @example(case=(64, 1, 3, 1), seed=3)                       # steepest upsampling
    @example(case=(1, 64, 129, 1), seed=4)                     # steepest downsampling
    def test_matches_resample_poly(self, case, seed):
        L, M, n, chunk = case
        x = np.random.default_rng(seed).standard_normal(n) * 100.0
        x[: n // 3] = np.round(x[: n // 3])   # whole digital steps, zeros among them
        with mock.patch.object(ingest, "CHUNK_INPUTS", chunk):
            out = resample(x, M, L)
        ref = resample_poly(x, L, M, window=ingest._resampling_filter(L, M))
        assert out.tobytes() == ref.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(case=resample_cases(), seed=st.integers(0, 2**32 - 1),
           start=st.integers(0, 4000), stop=st.integers(0, 4000))
    @example(case=(4, 5, 3750, 97), seed=6, start=1, stop=2999)   # 125 -> 100 Hz, mid-frame ends
    def test_range_is_a_slice_of_the_whole(self, case, seed, start, stop):
        L, M, n, chunk = case
        x = np.random.default_rng(seed).standard_normal(n)
        whole = resample(x, M, L)
        start = min(start, len(whole))
        stop = min(max(start, stop), len(whole))
        with mock.patch.object(ingest, "CHUNK_INPUTS", chunk):
            part = resample(x, M, L, start, stop)
        assert part.tobytes() == whole[start:stop].tobytes()

    @pytest.mark.parametrize("fs,target", [(200, 100), (125, 100), (100, 125), (256, 100)])
    def test_long_night_matches_resample_poly(self, fs, target, rng):
        # several blocks at the real block size
        x = rng.standard_normal(5 * ingest.CHUNK_INPUTS + 17) * 50.0
        L, M = ingest._rate_ratio(fs, target)
        ref = resample_poly(x, L, M, window=ingest._resampling_filter(L, M))
        assert resample(x, fs, target).tobytes() == ref.tobytes()

    def test_memory_peak(self, rng):
        # 2 M samples at 200 -> 100 Hz: the output plus a few chunk buffers
        x = rng.standard_normal(2_000_000)
        resample(x[:1000], 200, 100.0)
        tracemalloc.start()
        try:
            out = resample(x, 200, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4 * 2**20

    def test_filter_designed_once_per_ratio(self, rng, monkeypatch):
        ingest._resampling_filter.cache_clear()
        designs = []
        lowpass = ingest._lowpass
        monkeypatch.setattr(ingest, "_lowpass",
                            lambda *args: designs.append(args) or lowpass(*args))
        trace = trace_of(rng, 9 * 30 * 125, fs=125)
        epoch_and_label(trace, PATTERNS["inner_runs"], 100.0)
        assert len(designs) == 1
        h = ingest._resampling_filter(4, 5)
        assert h is ingest._resampling_filter(4, 5) and not h.flags.writeable


class TestSelectTrace:
    def test_case_insensitive_substring(self, rng):
        traces = [trace_of(rng, 10, 100, label="EOG horizontal"),
                  trace_of(rng, 10, 100, label="EEG Fpz-Cz")]
        assert select_trace(traces, "fpz") is traces[1]

    def test_missing_label_lists_available(self, rng):
        traces = [trace_of(rng, 10, 100, label="EOG horizontal")]
        with pytest.raises(DataError, match="EOG horizontal"):
            select_trace(traces, "EEG")

    @pytest.mark.parametrize("fs,channel", [(8, "annotations"), (10, "EDF")])
    def test_annotation_signal_is_never_the_channel(self, tmp_path, fs, channel):
        # at 8 Hz the TAL's 32 samples per record would load as epochs; at
        # 10 Hz its rate is too far from fs to resample
        path = tmp_path / "night.edf"
        path.write_bytes(tal_edf(fs, ["Sleep stage W"] * 4))
        with pytest.raises(DataError, match=f"^no data signal label contains '{channel}'; "
                                            "available: 'EEG Fpz-Cz'$"):
            load_edf_store(str(path), channel, fs)


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


class TestExportEdf:
    def test_non_ascii_subject_is_a_data_error(self, rng, tmp_path):
        store = EpochStore([("é", rng.standard_normal((1, 1, 300)), [0])])
        with pytest.raises(DataError, match="field patient value 'é X X X' is not ASCII"):
            export_edf(store, 10, str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_patient_field_is_subfielded_with_spaces_as_underscores(self, rng, tmp_path):
        store = EpochStore([("night one", rng.standard_normal((1, 1, 300)), [0])])
        export_edf(store, 10, str(tmp_path))
        header, _ = parse_edf((tmp_path / "night one.edf").read_bytes())
        assert header.patient == "night_one X X X"
        assert header.recording == "Startdate 01-JAN-2000 X X X"
        assert load_edf_store(str(tmp_path), "EEG", 10).subjects == ["night one"]

    def test_export_loads_back_as_digitized(self, tmp_path, capsys):
        store = synth_dataset(3, 7, fs=10, rng=np.random.default_rng(2))
        export_edf(store, 10, str(tmp_path))
        loaded = load_edf_store(str(tmp_path), "EEG", 10)

        assert loaded.spans() == store.spans()
        np.testing.assert_array_equal(loaded.labels, store.labels)
        digitized = []
        for subject, _, _ in store.spans():
            eeg = parse_edf((tmp_path / f"{subject}.edf").read_bytes())[1][0]
            digitized.append(eeg.physical(0, len(eeg.digital)))
        assert loaded.signals.tobytes() == np.concatenate(digitized).tobytes()
        assert capsys.readouterr().err == ""   # dropped 0
