"""Sampling tests: store indexing, balanced draws, label-matched companions,
provenance frequencies, and the easy/difficult memory protocol."""

import numpy as np
import pytest

from sst import sampling
from sst.errors import ContractError, DataError
from sst.sampling import (
    EpochStore,
    PairBatch,
    SamplingMemory,
    balanced_anchor_indices,
    draw_pair_batch,
    match_companion,
    update_memory,
)


# the TrainConfig defaults of the reuse probability and the sampling mode
DRAW = {"p0": 0.25, "mode": "easy+difficult"}


def make_store(rng, subjects=3, per_subject=30, T=8):
    return EpochStore([(f"s{k}", rng.standard_normal((per_subject, 1, T)),
                        [(i + k) % 5 for i in range(per_subject)]) for k in range(subjects)])


def uneven_store(rng):
    """Subjects of 2, 7, 1 and 5 epochs, labels cycling through every class."""
    return EpochStore([(f"s{k}", rng.standard_normal((n, 1, 8)), [(i + k) % 5 for i in range(n)])
                       for k, n in enumerate((2, 7, 1, 5))])


def in_one_span(store, ids):
    return any(first <= ids[0] and ids[-1] < end and np.all(np.diff(ids) == 1)
               for _, first, end in store.spans())


def label_lookup(store):
    return {store.signals[i].tobytes(): int(store.labels[i]) for i in range(len(store))}


class TestEpochStore:
    def test_empty_rejected(self):
        with pytest.raises(DataError):
            EpochStore([])

    def test_shape_mismatch_rejected(self, rng):
        parts = [("a", rng.standard_normal((1, 1, 8)), [0]),
                 ("b", rng.standard_normal((1, 1, 9)), [1])]
        with pytest.raises(DataError):
            EpochStore(parts)

    def test_second_channel_rejected(self, rng):
        with pytest.raises(DataError, match=r"record 0: signal must be \(1, T\)"):
            EpochStore([("a", rng.standard_normal((1, 2, 8)), [0])])

    def test_bad_label_rejected(self, rng):
        with pytest.raises(DataError):
            EpochStore([("a", rng.standard_normal((1, 1, 8)), [5])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", [sampling.FINITE_CHECK_VALUES, 8, 20])
    def test_non_finite_signal_names_record(self, rng, monkeypatch, bad, block):
        # the check runs block values (whole records, at least one) at a time
        monkeypatch.setattr(sampling, "FINITE_CHECK_VALUES", block)
        signals = rng.standard_normal((4, 1, 8))
        signals[2, 0, 5] = bad
        with pytest.raises(DataError, match="record 2: signal has non-finite values"):
            EpochStore([("a", signals, [0] * 4)])

    def test_from_arrays_holds_the_arrays(self, rng):
        signals, labels = rng.standard_normal((5, 1, 8)), np.array([0, 1, 2, 3, 4])
        store = EpochStore.from_arrays(["a", "b"], [2, 3], signals, labels)
        assert store.signals is signals
        assert store.spans() == [("a", 0, 2), ("b", 2, 5)]
        with pytest.raises(ContractError, match="5 signals and 5 labels for 4 records"):
            EpochStore.from_arrays(["a", "b"], [2, 2], signals, labels)

    @pytest.mark.parametrize("fault,message", [
        ("nan", "record 5: signal has non-finite values"),
        ("label", "record 5: label 7 outside 0..4"),
        ("shape", r"record 3: signal shape \(1, 9\) differs from first record \(1, 8\)"),
        ("count", "record 3: 4 signals but 3 labels"),
    ], ids=["nan", "label", "shape", "count"])
    def test_bad_record_in_second_part_names_global_id(self, rng, fault, message):
        signals, labels = rng.standard_normal((4, 1, 8)), [0, 1, 2, 3]
        if fault == "nan":
            signals[2, 0, 0] = np.nan
        elif fault == "label":
            labels[2] = 7
        elif fault == "shape":
            signals = rng.standard_normal((4, 1, 9))
        else:
            labels.pop()
        parts = [("a", rng.standard_normal((3, 1, 8)), [0, 1, 2]), ("b", signals, labels)]
        with pytest.raises(DataError, match=message):
            EpochStore(parts)

    def test_empty_part_adds_no_subject(self, rng):
        parts = [("a", np.empty((0, 1, 8)), []), ("b", rng.standard_normal((2, 1, 8)), [0, 1]),
                 ("c", np.empty((0, 1, 8)), [])]
        assert EpochStore(parts).spans() == [("b", 0, 2)]
        with pytest.raises(DataError, match="at least one record"):
            EpochStore(parts[:1])

    def test_windows_by_class_centers(self, rng):
        store = EpochStore([("a", rng.standard_normal((3, 1, 4)), [0, 1, 2])])
        windows = store.windows_by_class(3)
        assert windows[1] == [0]
        assert windows[0] == [] and windows[2] == []
        singles = store.windows_by_class(1)
        assert [len(w) for w in singles] == [1, 1, 1, 0, 0]

    def test_windows_do_not_cross_subjects(self, rng):
        store = EpochStore([(subject, rng.standard_normal((2, 1, 4)), [0, 0]) for subject in "ab"])
        assert len(store.windows_by_class(2)[0]) == 2
        assert len(store.windows_by_class(4)[0]) == 0

    def test_sequence_index(self, rng):
        store = EpochStore([("a", rng.standard_normal((5, 1, 4)), [0, 1, 2, 1, 2])])
        table = store.windows_by_sequence(3)
        assert 0 in table[(0, 1, 2)]
        assert 2 in table[(2, 1, 2)]

    def test_subject_reappearing_names_record(self, rng):
        parts = [(subject, rng.standard_normal((n, 1, 4)), [0] * n)
                 for subject, n in (("a", 2), ("b", 1), ("a", 1))]
        with pytest.raises(DataError, match="record 3: subject 'a' reappears after 'b'"):
            EpochStore(parts)

    def test_spans_bound_each_subject(self, rng):
        parts = [(subject, rng.standard_normal((n, 1, 4)), [0] * n)
                 for subject, n in (("a", 3), ("b", 1), ("c", 2))]
        assert EpochStore(parts).spans() == [("a", 0, 3), ("b", 3, 4), ("c", 4, 6)]

    def test_windows_stay_inside_one_span(self, rng):
        store = uneven_store(rng)
        for S in (1, 2, 3, 5):
            starts = [w for per_class in store.windows_by_class(S) for w in per_class]
            starts += [w for hits in store.windows_by_sequence(S).values() for w in hits]
            assert starts
            for start in starts:
                assert in_one_span(store, start + np.arange(S))


class TestBalancedAnchors:
    def test_s1_center_is_epoch(self, rng):
        store = make_store(rng)
        anchors = balanced_anchor_indices(store, 50, 1, rng)
        assert anchors.shape == (50,)
        assert ((0 <= anchors) & (anchors < len(store))).all()

    def test_class_frequencies_near_uniform(self, rng):
        store = make_store(rng, subjects=2, per_subject=25)
        counts = np.zeros(5)
        anchors = balanced_anchor_indices(store, 20000, 3, rng)
        np.add.at(counts, store.labels[anchors + 1], 1)
        np.testing.assert_allclose(counts / counts.sum(), 0.2, atol=0.02)

    def test_missing_class_named(self, rng):
        # labels only 0..3, class REM has no windows
        store = EpochStore([("a", rng.standard_normal((20, 1, 4)), [c % 4 for c in range(20)])])
        with pytest.raises(DataError, match="REM"):
            balanced_anchor_indices(store, 4, 1, rng)

    def test_single_class_single_subject(self, rng):
        store = EpochStore([("only", rng.standard_normal((15, 1, 4)), [c % 5 for c in range(15)])])
        anchors = balanced_anchor_indices(store, 30, 1, rng)
        assert ((0 <= anchors) & (anchors < 15)).all()


class TestMatchCompanion:
    def test_exact_sequence_when_available(self, rng):
        store = EpochStore([("a", rng.standard_normal((6, 1, 4)), [0] * 6)])
        ids = match_companion(store, np.zeros((2, 4), dtype=int), rng)
        for row in ids:
            assert len(row) == 4
            assert all(store.labels[i] == 0 for i in row)
            # exact window: consecutive record ids
            assert row.tolist() == list(range(row[0], row[0] + 4))

    def test_fallback_assembles_per_epoch(self, rng):
        # every subject label sequence cycles, so (0,0) never occurs as a window
        store = make_store(rng, subjects=1, per_subject=20)
        Y = np.array([[0, 0]])
        ids = match_companion(store, Y, rng)[0]
        assert [store.labels[i] for i in ids] == [0, 0]

    def test_label_invariant_over_random_draws(self, rng):
        store = make_store(rng)
        for _ in range(200):
            anchors = balanced_anchor_indices(store, 3, 4, rng)
            Y = store.labels[anchors[:, None] + np.arange(4)]
            ids = match_companion(store, Y, rng)
            np.testing.assert_array_equal(store.labels[ids], Y)

    def test_absent_class_rejected(self, rng):
        store = EpochStore([("a", rng.standard_normal((1, 1, 4)), [0])])
        with pytest.raises(DataError, match="N2"):
            match_companion(store, np.array([[2]]), rng)


class TestDrawPairBatch:
    def test_shapes_and_labels(self, rng):
        store = make_store(rng)
        memory = SamplingMemory()
        batch = draw_pair_batch(store, memory, B=3, S=4, rng=rng, **DRAW)
        assert batch.X.shape == (3, 4, 1, 8)
        assert batch.Xp.shape == (3, 4, 1, 8)
        assert batch.Y.shape == (3, 4)
        lookup = label_lookup(store)
        for b in range(3):
            for s in range(4):
                assert lookup[batch.X.data[b, s].tobytes()] == batch.Y[b, s]
                assert lookup[batch.Xp.data[b, s].tobytes()] == batch.Y[b, s]

    def test_p0_zero_always_random(self, rng):
        store = make_store(rng)
        memory = SamplingMemory()
        never = {**DRAW, "p0": 0.0}
        seed_batch = draw_pair_batch(store, memory, 2, 3, rng, **never)
        update_memory(memory, seed_batch, 1.0)
        for _ in range(40):
            assert draw_pair_batch(store, memory, 2, 3, rng, **never).provenance == "random"

    def test_empty_memory_always_random(self, rng):
        store = make_store(rng)
        memory = SamplingMemory()
        for _ in range(40):
            batch = draw_pair_batch(store, memory, 2, 3, rng, p0=0.4, mode="easy+difficult")
            assert batch.provenance == "random"

    def test_provenance_frequencies(self, rng):
        store = make_store(rng, subjects=1, per_subject=15, T=4)
        memory = SamplingMemory()
        first = draw_pair_batch(store, memory, 2, 3, rng, **DRAW)
        update_memory(memory, first, 1.0)
        counts = {"random": 0, "easy": 0, "difficult": 0}
        n = 20000
        for _ in range(n):
            counts[draw_pair_batch(store, memory, 2, 3, rng, **DRAW).provenance] += 1
        assert abs(counts["easy"] / n - 0.25) < 0.02
        assert abs(counts["difficult"] / n - 0.25) < 0.02
        assert abs(counts["random"] / n - 0.50) < 0.02

    def test_easy_only_mode_disables_difficult(self, rng):
        store = make_store(rng, subjects=1, per_subject=15, T=4)
        memory = SamplingMemory()
        update_memory(memory, draw_pair_batch(store, memory, 2, 3, rng, p0=0.25, mode="easy"), 1.0)
        counts = {"random": 0, "easy": 0, "difficult": 0}
        n = 4000
        for _ in range(n):
            counts[draw_pair_batch(store, memory, 2, 3, rng, p0=0.25, mode="easy").provenance] += 1
        assert counts["difficult"] == 0
        assert abs(counts["easy"] / n - 0.25) < 0.03

    def test_none_mode_never_reuses(self, rng):
        store = make_store(rng)
        memory = SamplingMemory()
        off = {"p0": 0.4, "mode": "none"}
        update_memory(memory, draw_pair_batch(store, memory, 2, 3, rng, **off), 1.0)
        for _ in range(40):
            assert draw_pair_batch(store, memory, 2, 3, rng, **off).provenance == "random"

    def test_reuse_keeps_companion_and_redraws_anchor(self, rng):
        store = make_store(rng)
        memory = SamplingMemory()
        stored = draw_pair_batch(store, memory, 2, 3, rng, p0=0.45, mode="easy+difficult")
        update_memory(memory, stored, 1.0)
        lookup = label_lookup(store)
        saw_reuse = False
        for _ in range(30):
            batch = draw_pair_batch(store, memory, 2, 3, rng, p0=0.45, mode="easy+difficult")
            if batch.provenance == "random":
                continue
            saw_reuse = True
            assert batch.companion_ids is stored.companion_ids
            np.testing.assert_array_equal(batch.Xp.data, stored.Xp.data)
            np.testing.assert_array_equal(batch.Y, store.labels[stored.companion_ids])
            for b in range(2):
                for s in range(3):
                    assert lookup[batch.X.data[b, s].tobytes()] == batch.Y[b, s]
        assert saw_reuse

    def test_ids_stay_inside_one_span(self, rng):
        # every label pair drawn here is some stored window's, so no companion
        # falls back to a per-epoch assembly
        store = uneven_store(rng)
        id_of = {store.signals[i].tobytes(): i for i in range(len(store))}
        memory = SamplingMemory()
        for i in range(60):
            batch = draw_pair_batch(store, memory, 4, 2, rng, p0=0.3, mode="easy+difficult")
            update_memory(memory, batch, float(i % 7))
            assert batch.companion_ids.shape == (4, 2)
            for b in range(4):
                assert in_one_span(store, batch.companion_ids[b])
                assert in_one_span(store, [id_of[x.tobytes()] for x in batch.X.data[b]])

    def test_seeded_determinism(self, rng):
        store = make_store(rng)

        def run(seed):
            r = np.random.default_rng(seed)
            memory = SamplingMemory()
            out = []
            for i in range(6):
                batch = draw_pair_batch(store, memory, 2, 3, r, **DRAW)
                update_memory(memory, batch, float(i % 3))
                out.append((batch.X.data.tobytes(), batch.Y.tobytes(), batch.provenance))
            return out

        assert run(99) == run(99)
        assert run(99) != run(100)


class TestSamplingMemory:
    def test_first_update_fills_both_slots(self, rng):
        store = make_store(rng)
        memory = SamplingMemory()
        batch = draw_pair_batch(store, memory, 2, 3, rng, **DRAW)
        update_memory(memory, batch, 1.5)
        assert memory.easy is memory.difficult is batch.companion_ids
        assert memory.best == memory.worst == 1.5

    def test_watermark_trace(self, rng):
        store = make_store(rng)
        memory = SamplingMemory()
        batches = [draw_pair_batch(store, memory, 2, 3, rng, **DRAW) for _ in range(3)]
        update_memory(memory, batches[0], 1.0)
        update_memory(memory, batches[1], 0.5)
        update_memory(memory, batches[2], 2.0)
        assert memory.best == 0.5
        assert memory.easy is batches[1].companion_ids
        assert memory.worst == 2.0
        assert memory.difficult is batches[2].companion_ids

    def test_ties_keep_incumbent(self, rng):
        store = make_store(rng)
        memory = SamplingMemory()
        a = draw_pair_batch(store, memory, 2, 3, rng, **DRAW)
        b = draw_pair_batch(store, memory, 2, 3, rng, **DRAW)
        update_memory(memory, a, 1.0)
        easy_before, difficult_before = memory.easy, memory.difficult
        update_memory(memory, b, 1.0)
        assert memory.easy is easy_before
        assert memory.difficult is difficult_before

    def test_watermarks_monotone(self, rng):
        store = make_store(rng)
        memory = SamplingMemory()
        best_seen, worst_seen = [], []
        for _ in range(50):
            batch = draw_pair_batch(store, memory, 1, 2, rng, **DRAW)
            update_memory(memory, batch, float(rng.standard_normal()))
            best_seen.append(memory.best)
            worst_seen.append(memory.worst)
        assert all(a >= b for a, b in zip(best_seen, best_seen[1:]))
        assert all(a <= b for a, b in zip(worst_seen, worst_seen[1:]))

    def test_nan_loss_rejected(self, rng):
        store = make_store(rng)
        memory = SamplingMemory()
        batch = draw_pair_batch(store, memory, 1, 2, rng, **DRAW)
        with pytest.raises(ContractError):
            update_memory(memory, batch, float("nan"))
