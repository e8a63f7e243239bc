"""Batch construction: balanced anchor draws, label-matched companions, and
the two-slot easy/difficult companion memory."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ContractError, DataError
from .metrics import N_CLASSES, STAGE_NAMES

SAMPLING_MODES = ("none", "easy", "easy+difficult")


class EpochStore:
    """Immutable pool of labeled 30-second epochs, grouped by subject.

    records is a flat list of (subject, signal (C, T) finite float array,
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
            if signal.ndim != 2:
                raise DataError(f"record {i}: signal must be (C, T), got shape {signal.shape}")
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
        self.signals = np.stack(signals)           # (n, C, T)
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

    def assemble(self, ids) -> np.ndarray:
        return self.signals[np.asarray(ids, dtype=np.int64)]


@dataclass
class StoredCompanion:
    indices: list          # B lists of S record ids
    loss: float


@dataclass
class SamplingMemory:
    """Companion reuse memory: one easy slot, one difficult slot.

    mode gates which slots participate in draws; p0 is the reuse probability
    of each enabled slot.
    """

    p0: float = 0.25
    mode: str = "easy+difficult"
    easy: StoredCompanion | None = None
    difficult: StoredCompanion | None = None
    best: float = field(default=float("inf"))
    worst: float = field(default=float("-inf"))

    def __post_init__(self):
        if not 0.0 <= self.p0 < 0.5:
            raise ConfigError(f"sampling memory: p0 must be in [0, 0.5), got {self.p0}")
        if self.mode not in SAMPLING_MODES:
            raise ConfigError(
                f"sampling memory: mode must be one of {SAMPLING_MODES}, got {self.mode!r}"
            )


@dataclass
class PairBatch:
    X: Tensor               # (B, S, C, T)
    Xp: Tensor              # (B, S, C, T)
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


def _assemble_batch(store: EpochStore, anchor_ids, companion_ids, provenance) -> PairBatch:
    X = np.stack([store.assemble(ids) for ids in anchor_ids])
    Xp = np.stack([store.assemble(ids) for ids in companion_ids])
    Y = np.stack([store.labels[np.asarray(ids)] for ids in anchor_ids])
    return PairBatch(X=Tensor(X), Xp=Tensor(Xp), Y=Y, provenance=provenance,
                     companion_ids=[list(ids) for ids in companion_ids])


def _slot_usable(slot: StoredCompanion | None, B: int, S: int) -> bool:
    return (
        slot is not None
        and len(slot.indices) == B
        and all(len(row) == S for row in slot.indices)
    )


def draw_pair_batch(
    store: EpochStore, memory: SamplingMemory, B: int, S: int, rng: np.random.Generator
) -> PairBatch:
    """One training batch.

    The provenance draw is (p0 easy, p0 difficult, 1-2*p0 random); a missing
    or disabled slot falls through to random. On reuse the stored companion's
    labels dictate Y and the anchors are redrawn to match them.
    """
    r = rng.random()
    slot = None
    provenance = "random"
    if r < memory.p0:
        if memory.mode in ("easy", "easy+difficult") and _slot_usable(memory.easy, B, S):
            slot, provenance = memory.easy, "easy"
    elif r < 2.0 * memory.p0:
        if memory.mode == "easy+difficult" and _slot_usable(memory.difficult, B, S):
            slot, provenance = memory.difficult, "difficult"

    if slot is None:
        anchors = balanced_anchor_indices(store, B, S, rng)
        anchor_ids = [store.window_ids(subject, start, S) for subject, start in anchors]
        Y = np.stack([store.labels[np.asarray(ids)] for ids in anchor_ids])
        companion_ids = match_companion(store, Y, rng)
        return _assemble_batch(store, anchor_ids, companion_ids, "random")

    companion_ids = slot.indices
    Y = np.stack([store.labels[np.asarray(ids)] for ids in companion_ids])
    anchor_ids = match_companion(store, Y, rng)
    return _assemble_batch(store, anchor_ids, companion_ids, provenance)


def update_memory(memory: SamplingMemory, batch: PairBatch, val_loss: float) -> None:
    """Store the batch's companion on a new best (easy) or worst (difficult)
    validation loss. Strict inequality: ties keep the incumbent."""
    if np.isnan(val_loss):
        raise ContractError("validation loss is NaN")
    stored = StoredCompanion(indices=[list(ids) for ids in batch.companion_ids], loss=float(val_loss))
    if val_loss < memory.best:
        memory.best = float(val_loss)
        memory.easy = stored
    if val_loss > memory.worst:
        memory.worst = float(val_loss)
        memory.difficult = stored
