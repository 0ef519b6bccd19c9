"""Tests for confusion counting and macro precision/recall/F-score."""

import numpy as np
import pytest

from signflow.metrics import (
    ConfusionMatrix,
    confusion,
    precision_recall_fscore,
)
from signflow.skeleton import EmptyInputError


def scalar_metrics(counts):
    """Independent per-class recomputation with plain Python loops."""
    counts = np.asarray(counts)
    c = counts.shape[0]
    precision, recall, fscore = [], [], []
    for k in range(c):
        tp = counts[k][k]
        col = sum(counts[i][k] for i in range(c))
        row = sum(counts[k][j] for j in range(c))
        p = tp / col if col > 0 else 0.0
        r = tp / row if row > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precision.append(p)
        recall.append(r)
        fscore.append(f)
    return precision, recall, fscore


class TestConfusion:
    def test_counts_rows_true_cols_pred(self):
        cm = confusion(preds=[1, 0, 1, 1], labels=[0, 0, 1, 2], n_classes=3)
        want = np.array([[1, 1, 0],
                         [0, 1, 0],
                         [0, 1, 0]])
        np.testing.assert_array_equal(cm.counts, want)
        assert cm.total == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0], 2)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            confusion([0], [5], 2)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            confusion([], [], 2)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(counts=np.array([[1, 2, 3]]))
        with pytest.raises(ValueError):
            ConfusionMatrix(counts=np.array([[1, -1], [0, 2]]))


class TestMetrics:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(counts=np.diag([3, 5, 2]))
        rep = precision_recall_fscore(cm)
        np.testing.assert_array_equal(rep.precision, 1.0)
        np.testing.assert_array_equal(rep.recall, 1.0)
        np.testing.assert_array_equal(rep.fscore, 1.0)
        assert rep.macro_fscore == 1.0

    def test_worked_two_class_example(self):
        # class 0: tp=1, row=2, col=1 -> P=1, R=0.5, F=2/3
        cm = ConfusionMatrix(counts=np.array([[1, 1], [0, 2]]))
        rep = precision_recall_fscore(cm)
        assert rep.precision[0] == 1.0
        assert rep.recall[0] == 0.5
        assert abs(rep.fscore[0] - 2.0 / 3.0) < 1e-15
        # class 1: tp=2, row=2, col=3 -> P=2/3, R=1, F=4/5
        assert abs(rep.precision[1] - 2.0 / 3.0) < 1e-15
        assert rep.recall[1] == 1.0
        assert abs(rep.fscore[1] - 0.8) < 1e-15
        assert abs(rep.macro_fscore - (2.0 / 3.0 + 0.8) / 2.0) < 1e-15

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(80)
        for _ in range(30):
            c = int(rng.integers(2, 7))
            counts = rng.integers(0, 9, size=(c, c))
            if counts.sum() == 0:
                counts[0, 0] = 1
            cm = ConfusionMatrix(counts=counts)
            rep = precision_recall_fscore(cm)
            p, r, f = scalar_metrics(counts)
            np.testing.assert_allclose(rep.precision, p, atol=1e-12)
            np.testing.assert_allclose(rep.recall, r, atol=1e-12)
            np.testing.assert_allclose(rep.fscore, f, atol=1e-12)
            assert abs(rep.macro_precision - np.mean(p)) < 1e-12
            assert abs(rep.macro_recall - np.mean(r)) < 1e-12
            assert abs(rep.macro_fscore - np.mean(f)) < 1e-12

    def test_macro_invariant_under_relabeling(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            c = int(rng.integers(2, 6))
            counts = rng.integers(0, 8, size=(c, c))
            counts += np.eye(c, dtype=counts.dtype)  # keep every class present
            perm = rng.permutation(c)
            permuted = counts[np.ix_(perm, perm)]
            a = precision_recall_fscore(ConfusionMatrix(counts=counts))
            b = precision_recall_fscore(ConfusionMatrix(counts=permuted))
            assert abs(a.macro_fscore - b.macro_fscore) < 1e-12
            assert abs(a.macro_precision - b.macro_precision) < 1e-12
            assert abs(a.macro_recall - b.macro_recall) < 1e-12

    def test_correcting_an_error_never_hurts_macro_f(self):
        # moving one count from an off-diagonal cell onto the true class's
        # diagonal must not decrease macro F
        rng = np.random.default_rng(82)
        trials = 0
        while trials < 40:
            c = int(rng.integers(2, 6))
            counts = rng.integers(0, 6, size=(c, c))
            off = [(i, j) for i in range(c) for j in range(c)
                   if i != j and counts[i, j] > 0]
            if not off:
                continue
            trials += 1
            i, j = off[int(rng.integers(len(off)))]
            before = precision_recall_fscore(ConfusionMatrix(counts=counts)).macro_fscore
            fixed = counts.copy()
            fixed[i, j] -= 1
            fixed[i, i] += 1
            after = precision_recall_fscore(ConfusionMatrix(counts=fixed)).macro_fscore
            assert after >= before - 1e-12

    def test_absent_class_scores_zero(self):
        # class 1 never occurs and is never predicted: P=R=F=0 by the 0/0 rule
        cm = ConfusionMatrix(counts=np.array([[4, 0], [0, 0]]))
        rep = precision_recall_fscore(cm)
        assert rep.precision[1] == 0.0
        assert rep.recall[1] == 0.0
        assert rep.fscore[1] == 0.0
        assert rep.macro_fscore == 0.5

    def test_predicted_never_correct(self):
        # everything predicted as class 0, nothing right for class 1
        cm = ConfusionMatrix(counts=np.array([[2, 0], [3, 0]]))
        rep = precision_recall_fscore(cm)
        assert rep.precision[0] == 0.4
        assert rep.recall[0] == 1.0
        assert rep.precision[1] == 0.0  # col sum 0 -> 0/0 -> 0
        assert rep.recall[1] == 0.0
        assert rep.fscore[1] == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyInputError):
            precision_recall_fscore(ConfusionMatrix(counts=np.zeros((2, 2), dtype=np.int64)))


class TestRangeProperty:
    def test_all_values_in_unit_interval(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            c = int(rng.integers(2, 8))
            counts = rng.integers(0, 20, size=(c, c))
            if counts.sum() == 0:
                counts[0, 0] = 1
            rep = precision_recall_fscore(ConfusionMatrix(counts=counts))
            for arr in (rep.precision, rep.recall, rep.fscore):
                assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
            for v in (rep.macro_precision, rep.macro_recall, rep.macro_fscore):
                assert 0.0 <= v <= 1.0
