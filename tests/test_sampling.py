"""Sampling tests: store indexing, balanced draws, label-matched companions,
provenance frequencies, and the easy/difficult memory protocol."""

import numpy as np
import pytest

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
    records = []
    for k in range(subjects):
        labels = [(i + k) % 5 for i in range(per_subject)]
        for label in labels:
            records.append((f"s{k}", rng.standard_normal((1, T)), label))
    return EpochStore(records)


def label_lookup(store):
    return {store.signals[i].tobytes(): int(store.labels[i]) for i in range(len(store))}


class TestEpochStore:
    def test_empty_rejected(self):
        with pytest.raises(DataError):
            EpochStore([])

    def test_shape_mismatch_rejected(self, rng):
        records = [("a", rng.standard_normal((1, 8)), 0), ("a", rng.standard_normal((1, 9)), 1)]
        with pytest.raises(DataError):
            EpochStore(records)

    def test_second_channel_rejected(self, rng):
        with pytest.raises(DataError, match=r"record 0: signal must be \(1, T\)"):
            EpochStore([("a", rng.standard_normal((2, 8)), 0)])

    def test_bad_label_rejected(self, rng):
        with pytest.raises(DataError):
            EpochStore([("a", rng.standard_normal((1, 8)), 5)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_names_record(self, rng, bad):
        records = [("a", rng.standard_normal((1, 8)), 0) for _ in range(4)]
        records[2][1][0, 5] = bad
        with pytest.raises(DataError, match="record 2: signal has non-finite values"):
            EpochStore(records)

    def test_windows_by_class_centers(self, rng):
        store = EpochStore([("a", rng.standard_normal((1, 4)), c) for c in (0, 1, 2)])
        windows = store.windows_by_class(3)
        assert windows[1] == [("a", 0)]
        assert windows[0] == [] and windows[2] == []
        singles = store.windows_by_class(1)
        assert [len(w) for w in singles] == [1, 1, 1, 0, 0]

    def test_windows_do_not_cross_subjects(self, rng):
        records = [("a", rng.standard_normal((1, 4)), 0)] * 2 + [
            ("b", rng.standard_normal((1, 4)), 0)
        ] * 2
        store = EpochStore(records)
        assert len(store.windows_by_class(2)[0]) == 2
        assert len(store.windows_by_class(4)[0]) == 0

    def test_sequence_index(self, rng):
        store = EpochStore([("a", rng.standard_normal((1, 4)), c) for c in (0, 1, 2, 1, 2)])
        table = store.windows_by_sequence(3)
        assert ("a", 0) in table[(0, 1, 2)]
        assert ("a", 2) in table[(2, 1, 2)]


class TestBalancedAnchors:
    def test_s1_center_is_epoch(self, rng):
        store = make_store(rng)
        anchors = balanced_anchor_indices(store, 50, 1, rng)
        for subject, start in anchors:
            assert 0 <= start < len(store.subject_records(subject))

    def test_class_frequencies_near_uniform(self, rng):
        store = make_store(rng, subjects=2, per_subject=25)
        counts = np.zeros(5)
        anchors = balanced_anchor_indices(store, 20000, 3, rng)
        for subject, start in anchors:
            ids = store.window_ids(subject, start, 3)
            counts[store.labels[ids[1]]] += 1
        np.testing.assert_allclose(counts / counts.sum(), 0.2, atol=0.02)

    def test_missing_class_named(self, rng):
        # labels only 0..3, class REM has no windows
        records = [("a", rng.standard_normal((1, 4)), c % 4) for c in range(20)]
        store = EpochStore(records)
        with pytest.raises(DataError, match="REM"):
            balanced_anchor_indices(store, 4, 1, rng)

    def test_single_class_single_subject(self, rng):
        records = [("only", rng.standard_normal((1, 4)), c) for c in range(5)] * 3
        store = EpochStore(records)
        anchors = balanced_anchor_indices(store, 30, 1, rng)
        assert all(subject == "only" for subject, _ in anchors)


class TestMatchCompanion:
    def test_exact_sequence_when_available(self, rng):
        store = EpochStore([("a", rng.standard_normal((1, 4)), 0) for _ in range(6)])
        ids = match_companion(store, np.zeros((2, 4), dtype=int), rng)
        for row in ids:
            assert len(row) == 4
            assert all(store.labels[i] == 0 for i in row)
            # exact window: consecutive record ids
            assert row == list(range(row[0], row[0] + 4))

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
            Y = np.stack([store.labels[store.window_ids(s, p, 4)] for s, p in anchors])
            ids = match_companion(store, Y, rng)
            got = np.stack([store.labels[np.asarray(row)] for row in ids])
            np.testing.assert_array_equal(got, Y)

    def test_absent_class_rejected(self, rng):
        store = EpochStore([("a", rng.standard_normal((1, 4)), 0)])
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
            assert batch.companion_ids == stored.companion_ids
            np.testing.assert_array_equal(batch.Xp.data, stored.Xp.data)
            np.testing.assert_array_equal(
                batch.Y, np.stack([store.labels[np.asarray(r)] for r in stored.companion_ids])
            )
            for b in range(2):
                for s in range(3):
                    assert lookup[batch.X.data[b, s].tobytes()] == batch.Y[b, s]
        assert saw_reuse

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
        assert memory.easy == memory.difficult == batch.companion_ids
        assert memory.best == memory.worst == 1.5

    def test_watermark_trace(self, rng):
        store = make_store(rng)
        memory = SamplingMemory()
        batches = [draw_pair_batch(store, memory, 2, 3, rng, **DRAW) for _ in range(3)]
        update_memory(memory, batches[0], 1.0)
        update_memory(memory, batches[1], 0.5)
        update_memory(memory, batches[2], 2.0)
        assert memory.best == 0.5
        assert memory.easy == batches[1].companion_ids
        assert memory.worst == 2.0
        assert memory.difficult == batches[2].companion_ids

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
