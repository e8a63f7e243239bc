"""Turning signals into training data: loading EDF datasets, epoch slicing
against a hypnogram, rational-rate resampling, label sidecar files, and the
synthetic generator used for desk-scale runs (with its EDF export)."""

from __future__ import annotations

import glob
import itertools
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np
from scipy.signal import firwin, resample_poly

from .edf import (
    ANNOTATION_LABEL,
    EdfHeader,
    EdfSignalHeader,
    SignalTrace,
    annotation_hypnogram,
    digital_from_physical,
    parse_edf,
    write_edf,
)
from .errors import ConfigError, DataError, ParseError
from .metrics import EPOCH_S, N_CLASSES
from .sampling import EpochStore

if TYPE_CHECKING:
    from .config import DataConfig
    from .model import ModelConfig

LABEL_CHARS = "W123R"

# per-class oscillation frequencies as fractions of fs; distinct and below
# Nyquist for any even fs >= 10
DEFAULT_CLASS_FREQ_FRACTIONS = (0.02, 0.06, 0.11, 0.17, 0.23)

MAX_RESAMPLE_FACTOR = 64
# low-pass taps per polyphase branch: sizes the filter and the span margin
TAPS_PER_PHASE = 64


def load_edf_store(path: str, channel: str, target_fs: float | None = None) -> EpochStore:
    """Build an EpochStore from one EDF file or a directory of them.

    Labels come from a '<stem>.labels' sidecar when present, otherwise from
    the file's own TAL annotation signal. With target_fs, the epochs are
    those of the channel resampled to that rate; only labelled epochs are
    resampled.
    """
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.edf")))
    elif os.path.exists(path):
        files = [path]
    else:
        raise DataError(f"data path does not exist: {path}")
    if not files:
        raise DataError(f"no .edf files under {path}")

    nights = [_load_night(filename, channel, target_fs) for filename in files]
    total_dropped = sum(dropped for _, dropped in nights)
    if total_dropped:
        print(f"dropped {total_dropped} epochs without a fully covering stage", file=sys.stderr)
    return EpochStore([part for part, _ in nights])


def _load_night(filename: str, channel: str, target_fs: float | None):
    """((subject, signals, labels), dropped) of one EDF file, as load_edf_store
    reads it; the parsed file is freed on return."""
    with open(filename, "rb") as fh:
        _, traces, _ = parse_edf(fh.read())
    trace = select_trace(traces, channel)
    fs = trace.fs if target_fs is None else target_fs
    subject = os.path.splitext(os.path.basename(filename))[0]

    sidecar = os.path.splitext(filename)[0] + ".labels"
    if os.path.exists(sidecar):
        stages = _read_sidecar(sidecar).tolist()
        _, available = _epoch_grid(trace, fs)
        if len(stages) > available:
            raise DataError(
                f"{sidecar}: {len(stages)} labels but only {available} epochs in the signal"
            )
    else:
        hyp = annotation_hypnogram(traces)
        if hyp is None:
            raise DataError(f"{filename}: no '{ANNOTATION_LABEL}' signal and no sidecar {sidecar}")
        stages = hyp.stages_for_epochs(_epoch_grid(trace, fs)[1], EPOCH_S)
    signals, dropped = epoch_and_label(trace, stages, fs)
    return (subject, signals, [stage for stage in stages if stage is not None]), dropped


def load_store(data: DataConfig, model: ModelConfig, role: str,
               resample_to: float | None = None) -> EpochStore:
    """The train or test EpochStore a run config describes: synthetic, or
    EDF files resampled to resample_to when given."""
    if data.source == "synth":
        if role == "test":
            rng = np.random.default_rng(data.test_seed)
            return synth_dataset(data.test_subjects, data.test_epochs, fs=model.fs,
                                 noise_sd=data.noise_sd, rng=rng)
        rng = np.random.default_rng(data.seed)
        return synth_dataset(data.subjects, data.epochs, fs=model.fs,
                             noise_sd=data.noise_sd, rng=rng)
    path = data.test_path if role == "test" and data.test_path else data.path
    return load_edf_store(path, data.channel, target_fs=resample_to)


def epoch_and_label(trace: SignalTrace, stages: list, fs: float):
    """The epochs of the trace resampled to fs whose stage is not None.

    stages holds one stage or None per epoch from the start of the trace, at
    most as many as the trace has. Only the runs of kept epochs are resampled,
    each into its rows of one preallocated array. Returns (signals (k, 1, T),
    dropped): the kept epochs in order and the count of None stages.
    """
    T, _ = _epoch_grid(trace, fs)
    dropped = stages.count(None)
    signals = np.empty((len(stages) - dropped, 1, T))
    row = 0
    for is_dropped, run in itertools.groupby(range(len(stages)), key=lambda k: stages[k] is None):
        if is_dropped:
            continue
        run = list(run)
        first, n = run[0], len(run)
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
    """
    L, M = _rate_ratio(fs, target_fs)
    if L == M:
        return samples.copy()
    h = firwin(_filter_length(L), 1.0 / max(L, M), window=("kaiser", 8.6))
    for p in range(L):
        h[p::L] /= L * h[p::L].sum()
    return resample_poly(samples, L, M, window=h)


def select_trace(traces: list[SignalTrace], label_match: str) -> SignalTrace:
    """First trace whose label contains label_match, case-insensitive."""
    needle = label_match.lower()
    for trace in traces:
        if needle in trace.signal.label.lower():
            return trace
    available = ", ".join(repr(t.signal.label) for t in traces)
    raise DataError(f"no signal label contains {label_match!r}; available: {available}")


def labels_to_text(labels) -> str:
    out = []
    for i, y in enumerate(np.asarray(labels, dtype=np.int64)):
        if not 0 <= y < N_CLASSES:
            raise DataError(f"label {y} at position {i} outside 0..{N_CLASSES - 1}")
        out.append(LABEL_CHARS[y])
    return "\n".join(out) + "\n"


def _read_sidecar(path: str) -> np.ndarray:
    """The labels of an ASCII '.labels' sidecar; a ParseError names the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return labels_from_text(raw.decode("ascii"))
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: label sidecar line {lineno} is not ASCII",
                         offset=exc.start) from None
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def labels_from_text(text: str) -> np.ndarray:
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if len(line) != 1 or line not in LABEL_CHARS:
            raise ParseError(f"label sidecar line {lineno}: unknown stage {line!r}")
        labels.append(LABEL_CHARS.index(line))
    return np.array(labels, dtype=np.int64)


def synth_dataset(
    n_subjects: int,
    epochs_per_subject: int,
    fs: int,
    class_freqs=None,
    noise_sd: float = 0.1,
    self_transition: float = 0.7,
    rng: np.random.Generator | None = None,
) -> EpochStore:
    """One distinct oscillation per stage plus white noise, with labels from a
    sticky stage-transition chain so sequences carry realistic runs."""
    rng = rng if rng is not None else np.random.default_rng(0)
    if n_subjects <= 0 or epochs_per_subject <= 0:
        raise ConfigError("synth_dataset needs positive subject and epoch counts")
    if class_freqs is None:
        class_freqs = [f * fs for f in DEFAULT_CLASS_FREQ_FRACTIONS]
    if len(class_freqs) != N_CLASSES or len(set(class_freqs)) != N_CLASSES:
        raise ConfigError(f"need {N_CLASSES} distinct class frequencies, got {class_freqs}")
    if max(class_freqs) >= fs / 2:
        raise ConfigError(f"class frequency {max(class_freqs)} is at or above Nyquist ({fs / 2})")
    if not 0.0 <= self_transition < 1.0:
        raise ConfigError(f"self_transition must be in [0, 1), got {self_transition}")

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
                x = x + noise_sd * rng.standard_normal(T)
            signals[k, 0] = x
            labels[k] = label
            if rng.random() >= self_transition:
                label = (label + int(rng.integers(1, N_CLASSES))) % N_CLASSES
        parts.append((f"synth{subject:03d}", signals, labels))
    return EpochStore(parts)


def export_edf(store: EpochStore, fs: int, out_dir: str) -> None:
    """Write each subject of a single-channel store as '<subject>.edf' plus a
    '<subject>.labels' sidecar, one record per second."""
    os.makedirs(out_dir, exist_ok=True)
    for subject, first, end in store.spans():
        samples = store.signals[first:end].reshape(-1)
        # integer span keeps the physical-range fields inside 8 ASCII chars
        span = float(np.ceil(np.max(np.abs(samples)) + 0.5))
        sig = EdfSignalHeader(
            label="EEG synth", transducer="synthetic", phys_dim="uV",
            phys_min=-span, phys_max=span, dig_min=-32768, dig_max=32767,
            prefilter="", samples_per_record=fs,
        )
        n_records = len(samples) // fs
        header = EdfHeader(
            version="0", patient=subject, recording="synthetic dataset",
            start_date="01.01.00", start_time="00.00.00",
            header_bytes=512, reserved="", n_records=n_records,
            record_duration_s=1.0, n_signals=1, signals=[sig],
        )
        blob = write_edf(header, [digital_from_physical(samples, sig)])
        base = os.path.join(out_dir, subject)
        with open(base + ".edf", "wb") as fh:
            fh.write(blob)
        with open(base + ".labels", "w", encoding="ascii") as fh:
            fh.write(labels_to_text(store.labels[first:end]))
