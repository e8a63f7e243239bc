"""Batch construction: balanced anchor draws, label-matched companions, and
the two-slot easy/difficult companion memory."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, DataError
from .metrics import N_CLASSES, STAGE_NAMES

SAMPLING_MODES = ("none", "easy", "easy+difficult")


class EpochStore:
    """Immutable pool of labeled 30-second epochs, grouped by subject.

    records is a flat list of (subject, signal (1, T) finite float array,
    label in 0..N_CLASSES-1); temporal order within each subject is the order
    of appearance. Window indexes are built lazily per requested sequence length.
    """

    def __init__(self, records):
        if not records:
            raise DataError("epoch store needs at least one record")
        self.subjects: list = []
        self._by_subject: dict = {}
        shape = None
        signals = []
        labels = []
        for i, (subject, signal, label) in enumerate(records):
            signal = np.asarray(signal, dtype=np.float64)
            if signal.ndim != 2 or signal.shape[0] != 1:
                raise DataError(f"record {i}: signal must be (1, T), got shape {signal.shape}")
            if shape is None:
                shape = signal.shape
            elif signal.shape != shape:
                raise DataError(
                    f"record {i}: signal shape {signal.shape} differs from first record {shape}"
                )
            if not np.isfinite(signal).all():
                raise DataError(f"record {i}: signal has non-finite values")
            if not 0 <= int(label) < N_CLASSES:
                raise DataError(f"record {i}: label {label} outside 0..{N_CLASSES - 1}")
            if subject not in self._by_subject:
                self._by_subject[subject] = []
                self.subjects.append(subject)
            self._by_subject[subject].append(i)
            signals.append(signal)
            labels.append(int(label))
        self.signals = np.stack(signals)           # (n, 1, T)
        self.labels = np.array(labels, dtype=np.int64)
        self.signal_shape = shape
        self._window_cache: dict = {}
        self._sequence_cache: dict = {}
        self._epochs_by_class = [np.flatnonzero(self.labels == c) for c in range(N_CLASSES)]

    def __len__(self) -> int:
        return len(self.labels)

    def subject_records(self, subject) -> list[int]:
        return self._by_subject[subject]

    def window_ids(self, subject, start: int, S: int) -> list[int]:
        return self._by_subject[subject][start : start + S]

    def windows_by_class(self, S: int) -> list[list[tuple]]:
        """Per-class lists of (subject, start) whose center epoch has that class."""
        if S not in self._window_cache:
            center = S // 2
            per_class = [[] for _ in range(N_CLASSES)]
            for subject in self.subjects:
                ids = self._by_subject[subject]
                for start in range(len(ids) - S + 1):
                    label = self.labels[ids[start + center]]
                    per_class[label].append((subject, start))
            self._window_cache[S] = per_class
        return self._window_cache[S]

    def windows_by_sequence(self, S: int) -> dict:
        """Exact label-sequence lookup: tuple of S labels -> [(subject, start)]."""
        if S not in self._sequence_cache:
            table: dict = {}
            for subject in self.subjects:
                ids = self._by_subject[subject]
                seq = tuple(self.labels[ids])
                for start in range(len(ids) - S + 1):
                    table.setdefault(seq[start : start + S], []).append((subject, start))
            self._sequence_cache[S] = table
        return self._sequence_cache[S]

    def epochs_of_class(self, label: int) -> np.ndarray:
        return self._epochs_by_class[label]


@dataclass
class SamplingMemory:
    """Companion reuse memory: the companion ids (B lists of S record ids) of
    the batch behind the best (easy) and the worst (difficult) validation
    loss so far, and those two losses."""

    easy: list | None = None
    difficult: list | None = None
    best: float = float("inf")
    worst: float = float("-inf")


@dataclass
class PairBatch:
    X: Tensor               # (B, S, 1, T)
    Xp: Tensor              # (B, S, 1, T)
    Y: np.ndarray           # (B, S) int labels
    provenance: str         # random | easy | difficult
    companion_ids: list     # B lists of S record ids backing Xp


def balanced_anchor_indices(store: EpochStore, B: int, S: int, rng: np.random.Generator) -> list[tuple]:
    """B windows, each drawn by first picking the center-epoch class uniformly."""
    per_class = store.windows_by_class(S)
    for c, windows in enumerate(per_class):
        if not windows:
            raise DataError(
                f"no length-{S} window centered on class {STAGE_NAMES[c]}; cannot balance"
            )
    out = []
    for c in rng.integers(0, N_CLASSES, size=B):
        windows = per_class[c]
        out.append(windows[rng.integers(0, len(windows))])
    return out


def match_companion(store: EpochStore, Y: np.ndarray, rng: np.random.Generator) -> list[list[int]]:
    """Per sequence: a stored window with the exact label sequence when one
    exists, otherwise a per-epoch assembly from class-matched epochs."""
    Y = np.asarray(Y)
    table = store.windows_by_sequence(Y.shape[1])
    out = []
    for row in Y:
        key = tuple(int(v) for v in row)
        hits = table.get(key)
        if hits:
            subject, start = hits[rng.integers(0, len(hits))]
            out.append(store.window_ids(subject, start, Y.shape[1]))
        else:
            ids = []
            for label in key:
                pool = store.epochs_of_class(label)
                if pool.size == 0:
                    raise DataError(f"store has no epochs of class {STAGE_NAMES[label]}")
                ids.append(int(pool[rng.integers(0, pool.size)]))
            out.append(ids)
    return out


def draw_pair_batch(
    store: EpochStore, memory: SamplingMemory, B: int, S: int, rng: np.random.Generator,
    *, p0: float, mode: str,
) -> PairBatch:
    """One training batch.

    The provenance draw is (p0 easy, p0 difficult, 1-2*p0 random); an empty
    slot, or one the sampling mode disables, falls through to random. On
    reuse the stored companion's labels dictate Y and the anchors are
    redrawn to match them.
    """
    r = rng.random()
    companion_ids = None
    provenance = "random"
    if r < p0:
        if mode in ("easy", "easy+difficult") and memory.easy is not None:
            companion_ids, provenance = memory.easy, "easy"
    elif r < 2.0 * p0:
        if mode == "easy+difficult" and memory.difficult is not None:
            companion_ids, provenance = memory.difficult, "difficult"

    if companion_ids is None:
        anchors = balanced_anchor_indices(store, B, S, rng)
        anchor_ids = [store.window_ids(subject, start, S) for subject, start in anchors]
        Y = store.labels[np.asarray(anchor_ids)]
        companion_ids = match_companion(store, Y, rng)
    else:
        Y = store.labels[np.asarray(companion_ids)]
        anchor_ids = match_companion(store, Y, rng)
    return PairBatch(X=Tensor(store.signals[np.asarray(anchor_ids)]),
                     Xp=Tensor(store.signals[np.asarray(companion_ids)]), Y=Y,
                     provenance=provenance, companion_ids=companion_ids)


def update_memory(memory: SamplingMemory, batch: PairBatch, val_loss: float) -> None:
    """Store the batch's companion ids on a new best (easy) or worst
    (difficult) validation loss. Strict inequality: ties keep the incumbent."""
    if np.isnan(val_loss):
        raise ContractError("validation loss is NaN")
    if val_loss < memory.best:
        memory.best = float(val_loss)
        memory.easy = batch.companion_ids
    if val_loss > memory.worst:
        memory.worst = float(val_loss)
        memory.difficult = batch.companion_ids
