"""Turning signals into training data: loading EDF+ nights scored in their
own annotation signal, epoch slicing against that hypnogram, rational-rate
resampling, and the synthetic generator used for desk-scale runs (with its
EDF+ export, scored the same way)."""

from __future__ import annotations

import functools
import glob
import itertools
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import i0

from .edf import (
    ANNOTATION_LABEL,
    STAGE_TEXT,
    EdfHeader,
    EdfReader,
    EdfSignalHeader,
    SignalTrace,
    annotation_hypnogram,
    annotation_signal,
    digital_from_physical,
    encode_tal,
    is_annotation,
    write_edf,
)
from .errors import ConfigError, DataError
from .metrics import EPOCH_S, N_CLASSES
from .sampling import EpochStore

if TYPE_CHECKING:
    from .config import DataConfig
    from .model import ModelConfig

# per-class oscillation frequencies as fractions of fs; distinct and below
# Nyquist (0.5) for any fs
DEFAULT_CLASS_FREQ_FRACTIONS = (0.02, 0.06, 0.11, 0.17, 0.23)

MAX_RESAMPLE_FACTOR = 64
# low-pass taps per polyphase branch: sizes the filter and the span margin
TAPS_PER_PHASE = 64
# Kaiser window shape of the resampling low-pass
KAISER_BETA = 8.6
# input samples one resampling chunk spans: bounds its buffers at about 1 MB
CHUNK_INPUTS = 1 << 16
# input or output samples, whichever are more, that epoch_and_label resamples
# at a time (whole epochs, at least one): bounds the buffers of one span at
# about 16 MB. Much smaller pieces let glibc trim the heap after each one, so
# the next faults its pages in again: at 2**16, loading the two edf_transfer
# nights (fresh process, 2 vCPU) took 62k minor faults instead of 6.5k and
# about a fifth longer.
SPAN_SAMPLES = 1 << 20


def load_edf_store(path: str, channel: str, fs: float) -> EpochStore:
    """Build an EpochStore from one EDF file or a directory of them.

    Labels come from each file's own TAL annotation signal. The epochs are
    those of the channel resampled to fs; only labelled epochs are read and
    resampled. A first pass reads each file's header and annotation signal,
    so the store is allocated once at its size; a second reads the labelled
    spans of the channel and resamples them straight into their rows.
    """
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.edf")))
    elif os.path.exists(path):
        files = [path]
    else:
        raise DataError(f"data path does not exist: {path}")
    if not files:
        raise DataError(f"no .edf files under {path}")

    nights, subjects, counts, labels = [], [], [], []
    for filename in files:
        with open(filename, "rb") as fh:
            traces = EdfReader(fh).traces()
            trace = select_trace(traces, channel)
            hyp = annotation_hypnogram(traces)
        if hyp is None:
            raise DataError(f"{filename}: no '{ANNOTATION_LABEL}' signal to label its epochs")
        T, n_epochs = _epoch_grid(trace, fs)   # T is EPOCH_S * fs for every night
        stages = hyp.stages_for_epochs(n_epochs, EPOCH_S)
        nights.append((filename, stages))
        kept = [stage for stage in stages if stage is not None]
        if kept:
            subjects.append(os.path.splitext(os.path.basename(filename))[0])
            counts.append(len(kept))
            labels += kept

    signals = np.empty((len(labels), 1, T))
    row = dropped = 0
    for filename, stages in nights:
        with open(filename, "rb") as fh:
            trace = select_trace(EdfReader(fh).traces(), channel)
            part, night_dropped = epoch_and_label(trace, stages, fs, signals[row:])
        row += len(part)
        dropped += night_dropped
    if dropped:
        print(f"dropped {dropped} epochs without a fully covering stage", file=sys.stderr)
    return EpochStore.from_arrays(subjects, counts, signals, np.array(labels, dtype=np.int64))


def load_store(data: DataConfig, model: ModelConfig, role: str) -> EpochStore:
    """The train or test EpochStore a run config describes: synthetic, or
    EDF files resampled to the model's fs."""
    if data.source == "synth":
        if role == "test":
            rng = np.random.default_rng(data.test_seed)
            return synth_dataset(data.test_subjects, data.test_epochs, fs=model.fs,
                                 noise_sd=data.noise_sd, rng=rng)
        rng = np.random.default_rng(data.seed)
        return synth_dataset(data.subjects, data.epochs, fs=model.fs,
                             noise_sd=data.noise_sd, rng=rng)
    path = data.test_path if role == "test" and data.test_path else data.path
    return load_edf_store(path, data.channel, model.fs)


def epoch_and_label(trace: SignalTrace, stages: list, fs: float, out: np.ndarray | None = None):
    """The epochs of the trace resampled to fs whose stage is not None.

    stages holds one stage or None per epoch from the start of the trace, at
    most as many as the trace has. Only the runs of kept epochs are read and
    resampled, each into its rows of one array: the first rows of out when
    given, else a new one. A run is resampled in pieces of whole epochs, as
    many as fit in SPAN_SAMPLES input or output samples (at least one), so
    its buffers stay small however long it is. Returns (signals (k, 1, T),
    dropped): the kept epochs in order and the count of None stages.
    """
    T, _ = _epoch_grid(trace, fs)
    dropped = stages.count(None)
    if out is None:
        out = np.empty((len(stages) - dropped, 1, T))
    signals = out[: len(stages) - dropped]
    L, M = _rate_ratio(trace.fs, fs)
    piece = max(1, SPAN_SAMPLES // max(T, -(-T * M // L)))
    row = 0
    for is_dropped, run in itertools.groupby(range(len(stages)), key=lambda k: stages[k] is None):
        if is_dropped:
            continue
        run = list(run)
        for first in range(run[0], run[-1] + 1, piece):
            n = min(piece, run[-1] + 1 - first)
            span = _resampled_span(trace, first * T, (first + n) * T, fs)
            signals[row : row + n, 0] = span.reshape(n, T)
            row += n
    return signals, dropped


def _epoch_grid(trace: SignalTrace, fs: float):
    """(samples per epoch, whole epochs) of the trace resampled to fs,
    without resampling it."""
    L, M = _rate_ratio(trace.fs, fs)
    n = -(-len(trace.digital) * L // M)
    t_float = fs * EPOCH_S
    T = int(round(t_float))
    if abs(t_float - T) > 1e-9 or T <= 0:
        raise ConfigError(
            f"epoch length {EPOCH_S}s at {fs}Hz is {t_float} samples, not an integer"
        )
    return T, n // T


def _resampled_span(trace: SignalTrace, start: int, stop: int, target_fs: float) -> np.ndarray:
    """Samples start:stop of the whole trace in physical units resampled to
    target_fs, converting and resampling only the input the span depends on."""
    L, M = _rate_ratio(trace.fs, target_fs)
    # Output m sits at input m*M/L and its taps reach about TAPS_PER_PHASE/2
    # input samples either way, so one filter length of margin covers them.
    # Starting on a multiple of M puts the segment's outputs on the whole
    # trace's output grid, a*L/M samples in, with the same taps in the same order.
    margin = _filter_length(L)
    a = max(0, (start * M // L - margin) // M * M)
    b = min(len(trace.digital), -(-stop * M // L) + margin)
    offset = a * L // M
    return resample(trace.physical(a, b), trace.fs, target_fs)[start - offset : stop - offset]


def _rate_ratio(fs: float, target_fs: float) -> tuple[int, int]:
    """(L, M) with target_fs / fs = L / M, both at most MAX_RESAMPLE_FACTOR."""
    if not (0 < fs < math.inf and 0 < target_fs < math.inf):
        raise ConfigError(f"rates must be positive and finite: {fs} -> {target_fs}")
    ratio = Fraction(target_fs / fs).limit_denominator(1000)
    L, M = ratio.numerator, ratio.denominator
    if abs(L / M - target_fs / fs) > 1e-9:
        raise ConfigError(f"rate ratio {fs} -> {target_fs} is not a small rational")
    if max(L, M) > MAX_RESAMPLE_FACTOR:
        raise ConfigError(
            f"rate ratio {L}/{M} too steep (limit {MAX_RESAMPLE_FACTOR}); resample in stages"
        )
    return L, M


def _filter_length(L: int) -> int:
    """Taps of the low-pass for upsampling by L: TAPS_PER_PHASE per phase, plus one."""
    return TAPS_PER_PHASE * L + 1


def resample(samples: np.ndarray, fs: float, target_fs: float) -> np.ndarray:
    """Polyphase rational resampling of samples at fs to target_fs.

    The low-pass is a Kaiser-windowed sinc, TAPS_PER_PHASE taps per phase,
    with each polyphase branch normalized to unit DC gain so constants pass
    through exactly. Output length is ceil(n * L / M); equal rates give a copy.

    Output m is the sum over input n of x[n] * L*h[TAPS_PER_PHASE/2*L + m*M - n*L],
    added up from zero in increasing n. Those are the sums of
    scipy.signal.resample_poly(x, L, M, window=h), so for finite input the
    bits are its bits too. Outputs m = r, r + L, r + 2L, ... share one
    polyphase branch of h and step M inputs apart; each such class is summed
    a chunk at a time, one multiply and one add per tap over the M
    contiguous polyphase components of the chunk's input span.
    """
    L, M = _rate_ratio(fs, target_fs)
    if L == M:
        return samples.copy()
    g = _resampling_filter(L, M) * L
    n_in = len(samples)
    n_out = -(-n_in * L // M)
    out = np.empty(n_out)
    chunk = max(1, CHUNK_INPUTS // M)
    for r in range(min(L, n_out)):
        # output r + L*i is the sum of taps[d] * x[base + M*i + d], d ascending
        taps = g[r * M % L :: L][::-1]
        base = TAPS_PER_PHASE // 2 + r * M // L - (len(taps) - 1)
        count = -(-(n_out - r) // L)
        for first in range(0, count, chunk):
            size = min(chunk, count - first)
            rows = size + -(-(len(taps) - 1) // M)
            start = base + M * first
            span = np.zeros(rows * M)
            lo, hi = max(start, 0), min(start + rows * M, n_in)
            if lo < hi:
                span[lo - start : hi - start] = samples[lo:hi]
            comps = np.ascontiguousarray(span.reshape(rows, M).T)
            acc = np.zeros(size)
            prod = np.empty(size)
            for d, tap in enumerate(taps):
                np.multiply(comps[d % M, d // M : d // M + size], tap, out=prod)
                acc += prod
            out[r + L * first : r + L * (first + size) : L] = acc
    return out


@functools.cache
def _resampling_filter(L: int, M: int) -> np.ndarray:
    """The low-pass for resampling by L/M, each polyphase branch scaled to a
    sum of 1/L. Designed once per (L, M) and shared: a read-only array."""
    h = _lowpass(_filter_length(L), 1.0 / max(L, M), KAISER_BETA)
    for p in range(L):
        h[p::L] /= L * h[p::L].sum()
    h.flags.writeable = False
    return h


def _lowpass(numtaps: int, cutoff: float, beta: float) -> np.ndarray:
    """Kaiser-windowed sinc low-pass of numtaps taps and cutoff relative to
    Nyquist, scaled to unit DC gain; the taps of
    scipy.signal.firwin(numtaps, cutoff, window=("kaiser", beta))."""
    a = 0.5 * (numtaps - 1)
    m = np.arange(numtaps) - a
    window = i0(beta * np.sqrt(1 - (m / a) ** 2.0)) / i0(beta)
    h = cutoff * np.sinc(cutoff * m) * window
    return h / np.sum(h)


def select_trace(traces: list[SignalTrace], label_match: str) -> SignalTrace:
    """First trace whose label contains label_match, case-insensitive, that
    is not an annotation signal."""
    data = [t for t in traces if not is_annotation(t)]
    needle = label_match.lower()
    for trace in data:
        if needle in trace.signal.label.lower():
            return trace
    available = ", ".join(repr(t.signal.label) for t in data)
    raise DataError(f"no data signal label contains {label_match!r}; available: {available}")


def synth_dataset(
    n_subjects: int,
    epochs_per_subject: int,
    fs: int,
    noise_sd: float = 0.1,
    self_transition: float = 0.7,
    rng: np.random.Generator | None = None,
) -> EpochStore:
    """One distinct oscillation per stage plus white noise, with labels from a
    sticky stage-transition chain so sequences carry realistic runs."""
    rng = rng if rng is not None else np.random.default_rng(0)
    if n_subjects <= 0 or epochs_per_subject <= 0:
        raise ConfigError("synth_dataset needs positive subject and epoch counts")
    if not 0.0 <= self_transition < 1.0:
        raise ConfigError(f"self_transition must be in [0, 1), got {self_transition}")

    class_freqs = [f * fs for f in DEFAULT_CLASS_FREQ_FRACTIONS]
    T = EPOCH_S * fs
    t = np.arange(T) / fs
    parts = []
    for subject in range(n_subjects):
        signals = np.empty((epochs_per_subject, 1, T))
        labels = np.empty(epochs_per_subject, dtype=np.int64)
        label = int(rng.integers(0, N_CLASSES))
        for k in range(epochs_per_subject):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x = np.sin(2.0 * np.pi * class_freqs[label] * t + phase)
            if noise_sd > 0:
                # a noise_sd that overflows leaves non-finite samples, which
                # EpochStore rejects with a DataError: that is the report
                with np.errstate(over="ignore"):
                    x = x + noise_sd * rng.standard_normal(T)
            signals[k, 0] = x
            labels[k] = label
            if rng.random() >= self_transition:
                label = (label + int(rng.integers(1, N_CLASSES))) % N_CLASSES
        parts.append((f"synth{subject:03d}", signals, labels))
    return EpochStore(parts)


def export_edf(store: EpochStore, fs: int, out_dir: str) -> None:
    """Write each subject of a single-channel store into the directory out_dir
    as the EDF+ file '<subject>.edf': one record per epoch, the EEG and an
    annotation signal that scores the record with the epoch's label. The
    header fields take EDF+'s subfields, unknown ones as 'X': the patient
    field is code (the subject, spaces as '_'), sex, birthdate and name; the
    recording field is 'Startdate', start_date's date, and three more."""
    for subject, first, end in store.spans():
        samples = store.signals[first:end].reshape(-1)
        # integer span keeps the physical-range fields inside 8 ASCII chars
        span = float(np.ceil(np.max(np.abs(samples)) + 0.5))
        sig = EdfSignalHeader(
            label="EEG synth", transducer="synthetic", phys_dim="uV",
            phys_min=-span, phys_max=span, dig_min=-32768, dig_max=32767,
            prefilter="", samples_per_record=EPOCH_S * fs,
        )
        header = EdfHeader(
            version="0", patient=f"{subject.replace(' ', '_')} X X X",
            recording="Startdate 01-JAN-2000 X X X",
            start_date="01.01.00", start_time="00.00.00",
            header_bytes=768, reserved="EDF+C", n_records=end - first,
            record_duration_s=float(EPOCH_S), n_signals=2, signals=[sig, annotation_signal()],
        )
        tal = encode_tal(STAGE_TEXT[y] for y in store.labels[first:end])
        blob = write_edf(header, [digital_from_physical(samples, sig), tal])
        with open(os.path.join(out_dir, subject + ".edf"), "wb") as fh:
            fh.write(blob)
