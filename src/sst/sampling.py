"""Batch construction: balanced anchor draws, label-matched companions, and
the two-slot easy/difficult companion memory."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, DataError
from .metrics import N_CLASSES, STAGE_NAMES

SAMPLING_MODES = ("none", "easy", "easy+difficult")

# signal values EpochStore checks for finiteness at a time
FINITE_CHECK_VALUES = 1 << 17


class EpochStore:
    """Immutable pool of labeled 30-second epochs, one run of record ids per subject.

    parts lists (subject, signals (k, 1, T) finite floats, labels (k,) in
    0..N_CLASSES-1) per subject, in store order, each subject's epochs in time
    order; a part with k = 0 adds no subject. Records are numbered across the
    parts, so each subject owns one run of ids (see spans), and a window of S
    epochs is named by its first id. Window indexes are built lazily per S.
    """

    def __init__(self, parts):
        subjects, counts, signals, labels = [], [], [], []
        i = 0   # the first record id of the part
        for subject, x, y in parts:
            x = np.asarray(x, dtype=np.float64)
            if len(x) != len(y):
                raise DataError(f"record {i}: {len(x)} signals but {len(y)} labels")
            if not len(y):
                continue
            if x.ndim != 3 or x.shape[1] != 1:
                raise DataError(f"record {i}: signal must be (1, T), got shape {x.shape[1:]}")
            if signals and x.shape[1:] != signals[0].shape[1:]:
                raise DataError(f"record {i}: signal shape {x.shape[1:]} differs from first "
                                f"record {signals[0].shape[1:]}")
            subjects.append(subject)
            counts.append(len(y))
            signals.append(x)
            labels.append(y)
            i += len(y)
        if not signals:
            raise DataError("epoch store needs at least one record")
        self._index(subjects, counts, np.concatenate(signals), np.concatenate(labels))

    @classmethod
    def from_arrays(cls, subjects: list, counts: list, signals: np.ndarray,
                    labels: np.ndarray) -> EpochStore:
        """The store of signals (n, 1, T) float64 and labels (n,), held
        without a copy, whose first counts[0] records are subjects[0]'s, the
        next counts[1] subjects[1]'s, and so on; every count positive."""
        store = cls.__new__(cls)
        store._index(subjects, counts, signals, labels)
        return store

    def _index(self, subjects, counts, signals, labels) -> None:
        """Check the records and build the per-class index (see from_arrays)."""
        self.subjects: list = []
        self._bounds = [0]
        for subject, count in zip(subjects, counts):
            if subject in self.subjects:
                raise DataError(
                    f"record {self._bounds[-1]}: subject {subject!r} reappears after "
                    f"{self.subjects[-1]!r}; a subject's records must be consecutive"
                )
            self.subjects.append(subject)
            self._bounds.append(self._bounds[-1] + count)
        if self._bounds[-1] == 0:
            raise DataError("epoch store needs at least one record")
        if not len(signals) == len(labels) == self._bounds[-1]:
            raise ContractError(f"{len(signals)} signals and {len(labels)} labels for "
                                f"{self._bounds[-1]} records")
        self.signals = signals     # (n, 1, T)
        self.labels = np.asarray(labels).astype(np.int64, copy=False)
        # by blocks of rows, so the check's mask stays small beside the store
        rows = max(1, FINITE_CHECK_VALUES // max(1, signals[0].size))
        for first in range(0, len(signals), rows):
            bad = ~np.isfinite(signals[first : first + rows]).all(axis=(1, 2))
            if bad.any():
                raise DataError(f"record {first + bad.argmax()}: signal has non-finite values")
        bad = (self.labels < 0) | (self.labels >= N_CLASSES)
        if bad.any():
            i = bad.argmax()
            raise DataError(f"record {i}: label {self.labels[i]} outside 0..{N_CLASSES - 1}")
        self._window_cache: dict = {}
        self._sequence_cache: dict = {}
        self._epochs_by_class = [np.flatnonzero(self.labels == c) for c in range(N_CLASSES)]

    def __len__(self) -> int:
        return len(self.labels)

    def spans(self) -> list[tuple]:
        """(subject, first id, end id) per subject, in store order."""
        return list(zip(self.subjects, self._bounds[:-1], self._bounds[1:]))

    def window_starts(self, S: int, step: int = 1) -> np.ndarray:
        """First ids of the length-S windows inside one subject, every step-th
        from each subject's first record, in store order."""
        return np.concatenate([np.arange(first, end - S + 1, step)
                               for _, first, end in self.spans()])

    def windows_by_class(self, S: int) -> list[list[int]]:
        """Per-class lists of window start ids whose center epoch has that class."""
        if S not in self._window_cache:
            starts = self.window_starts(S)
            centers = self.labels[starts + S // 2]
            self._window_cache[S] = [starts[centers == c].tolist() for c in range(N_CLASSES)]
        return self._window_cache[S]

    def windows_by_sequence(self, S: int) -> dict:
        """Exact label-sequence lookup: tuple of S labels -> [window start id]."""
        if S not in self._sequence_cache:
            labels = self.labels.tolist()
            table: dict = {}
            for start in self.window_starts(S).tolist():
                table.setdefault(tuple(labels[start : start + S]), []).append(start)
            self._sequence_cache[S] = table
        return self._sequence_cache[S]

    def epochs_of_class(self, label: int) -> np.ndarray:
        return self._epochs_by_class[label]


@dataclass
class SamplingMemory:
    """Companion reuse memory: the (B, S) companion ids of the batch behind
    the best (easy) and the worst (difficult) validation loss so far, and
    those two losses."""

    easy: np.ndarray | None = None
    difficult: np.ndarray | None = None
    best: float = float("inf")
    worst: float = float("-inf")


@dataclass
class PairBatch:
    X: Tensor                   # (B, S, 1, T)
    Xp: Tensor                  # (B, S, 1, T)
    Y: np.ndarray               # (B, S) int labels
    provenance: str             # random | easy | difficult
    companion_ids: np.ndarray   # (B, S) record ids backing Xp


def balanced_anchor_indices(store: EpochStore, B: int, S: int, rng: np.random.Generator) -> np.ndarray:
    """Start ids of B windows, each drawn by first picking the center-epoch class uniformly."""
    per_class = store.windows_by_class(S)
    for c, windows in enumerate(per_class):
        if not windows:
            raise DataError(
                f"no length-{S} window centered on class {STAGE_NAMES[c]}; cannot balance"
            )
    return np.array([per_class[c][rng.integers(0, len(per_class[c]))]
                     for c in rng.integers(0, N_CLASSES, size=B)], dtype=np.int64)


def match_companion(store: EpochStore, Y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(B, S) record ids, per sequence: a stored window with the exact label
    sequence when one exists, otherwise a per-epoch assembly from
    class-matched epochs."""
    Y = np.asarray(Y)
    table = store.windows_by_sequence(Y.shape[1])
    out = np.empty(Y.shape, dtype=np.int64)
    for row, labels in zip(out, Y.tolist()):
        hits = table.get(tuple(labels))
        if hits:
            row[:] = hits[rng.integers(0, len(hits))] + np.arange(len(labels))
            continue
        for s, label in enumerate(labels):
            pool = store.epochs_of_class(label)
            if pool.size == 0:
                raise DataError(f"store has no epochs of class {STAGE_NAMES[label]}")
            row[s] = pool[rng.integers(0, pool.size)]
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
        anchor_ids = balanced_anchor_indices(store, B, S, rng)[:, None] + np.arange(S)
        Y = store.labels[anchor_ids]
        companion_ids = match_companion(store, Y, rng)
    else:
        Y = store.labels[companion_ids]
        anchor_ids = match_companion(store, Y, rng)
    return PairBatch(X=Tensor(store.signals[anchor_ids]), Xp=Tensor(store.signals[companion_ids]),
                     Y=Y, provenance=provenance, companion_ids=companion_ids)


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
