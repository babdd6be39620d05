"""Confusion counting, metric formulas vs brute force, and fold protocol."""

import json

import numpy as np
import pytest

from eegloop.classes import CLASS_NAMES
from eegloop.evaluate import (
    ConfusionMatrix,
    CvConfig,
    CvResult,
    confusion,
    fold_indices,
    kfold_cv,
    metrics,
    report_bytes,
)
from eegloop.features import FeatureVector


def labels(indices):
    return [CLASS_NAMES[i] for i in indices]


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        truth = labels([0, 1, 2, 3, 0, 1])
        cm = confusion(truth, truth)
        assert np.trace(cm.counts) == 6
        assert cm.counts.sum() == 6

    def test_hand_counted_cells(self):
        cm = confusion(labels([0, 0, 1]), labels([0, 1, 1]))
        assert cm.counts[0, 0] == 1
        assert cm.counts[0, 1] == 1
        assert cm.counts[1, 1] == 1
        assert cm.counts.sum() == 3

    def test_single_sample_single_cell(self):
        cm = confusion(labels([2]), labels([3]))
        assert cm.counts[2, 3] == 1
        assert cm.counts.sum() == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion(labels([0]), labels([0, 1]))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            confusion(["rem"], labels([0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            confusion([], [])


class TestMetrics:
    def test_perfect_predictor(self):
        cm = confusion(labels([0, 1, 2, 3]), labels([0, 1, 2, 3]))
        report = metrics(cm)
        assert report.accuracy == 1.0
        assert all(v == 1.0 for v in report.precision.values())
        assert all(v == 1.0 for v in report.recall.values())

    def test_hand_computed_case(self):
        counts = np.diag([5, 5, 5, 5])
        counts[0, 1] = 5
        report = metrics(ConfusionMatrix(counts))
        assert report.accuracy == 0.8
        assert report.precision[CLASS_NAMES[1]] == 0.5
        assert report.recall[CLASS_NAMES[0]] == 0.5

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(42)
        truth = labels(rng.integers(0, 4, size=1000))
        pred = labels(rng.integers(0, 4, size=1000))
        report = metrics(confusion(truth, pred))

        # independent recount with plain loops
        correct = sum(t == p for t, p in zip(truth, pred))
        assert report.accuracy == correct / 1000
        for name in CLASS_NAMES:
            tp = sum(1 for t, p in zip(truth, pred) if t == name and p == name)
            fp = sum(1 for t, p in zip(truth, pred) if t != name and p == name)
            fn = sum(1 for t, p in zip(truth, pred) if t == name and p != name)
            assert report.precision[name] == tp / (tp + fp)
            assert report.recall[name] == tp / (tp + fn)

    def test_undefined_precision_and_recall_are_none_not_zero(self):
        # class 3 never predicted, class 2 never present
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 0] = 3
        counts[1, 1] = 2
        counts[3, 0] = 1
        report = metrics(ConfusionMatrix(counts))
        assert report.precision[CLASS_NAMES[3]] is None
        assert report.recall[CLASS_NAMES[2]] is None
        assert report.precision[CLASS_NAMES[2]] is None

    def test_micro_precision_equals_micro_recall_equals_accuracy(self):
        rng = np.random.default_rng(7)
        cm = confusion(labels(rng.integers(0, 4, 500)), labels(rng.integers(0, 4, 500)))
        tp = np.diag(cm.counts)
        total_tp = int(tp.sum())
        total_fp = int((cm.counts.sum(axis=0) - tp).sum())
        total_fn = int((cm.counts.sum(axis=1) - tp).sum())
        micro_p = total_tp / (total_tp + total_fp)
        micro_r = total_tp / (total_tp + total_fn)
        assert micro_p == micro_r == metrics(cm).accuracy

    def test_one_vs_rest_counts_are_consistent(self):
        rng = np.random.default_rng(3)
        truth, pred = labels(rng.integers(0, 4, 200)), labels(rng.integers(0, 4, 200))
        cm = confusion(truth, pred)
        for c, name in enumerate(CLASS_NAMES):
            tp = cm.counts[c, c]
            assert tp + (cm.counts[c, :].sum() - tp) == truth.count(name)
            assert tp + (cm.counts[:, c].sum() - tp) == pred.count(name)


class TestFolds:
    def test_partition_is_disjoint_balanced_and_covering(self):
        folds = fold_indices(100, CvConfig(folds=10, seed=1))
        sizes = [len(f) for f in folds]
        assert sizes == [10] * 10
        combined = np.concatenate(folds)
        assert np.array_equal(np.sort(combined), np.arange(100))

    def test_uneven_sizes_differ_by_at_most_one(self):
        folds = fold_indices(103, CvConfig(folds=10, seed=0))
        sizes = {len(f) for f in folds}
        assert max(sizes) - min(sizes) <= 1
        assert sum(len(f) for f in folds) == 103

    def test_same_seed_same_assignment(self):
        a = fold_indices(50, CvConfig(folds=5, seed=9))
        b = fold_indices(50, CvConfig(folds=5, seed=9))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_different_seed_different_assignment(self):
        a = fold_indices(50, CvConfig(folds=5, seed=1))
        b = fold_indices(50, CvConfig(folds=5, seed=2))
        assert any(not np.array_equal(fa, fb) for fa, fb in zip(a, b))

    def test_too_few_items_rejected(self):
        with pytest.raises(ValueError, match="folds"):
            fold_indices(5, CvConfig(folds=10, seed=0))

    def test_fold_count_validated(self):
        with pytest.raises(ValueError):
            CvConfig(folds=1)


class TestKfoldCv:
    @staticmethod
    def dataset(n_per_class=10, seed=0):
        rng = np.random.default_rng(seed)
        fvs, labs = [], []
        for i, cls in enumerate(CLASS_NAMES):
            for _ in range(n_per_class):
                v = np.zeros(21)
                v[0] = i + rng.uniform(0.0, 0.5)
                fvs.append(FeatureVector(v))
                labs.append(cls)
        return fvs, labs

    @staticmethod
    def threshold_trainer(train_fvs, train_labels):
        def predict(fv):
            return CLASS_NAMES[min(3, max(0, int(fv.values[0])))]

        return predict

    def test_each_fold_scored_and_mean_reported(self):
        fvs, labs = self.dataset()
        result = kfold_cv(fvs, labs, self.threshold_trainer, CvConfig(folds=10, seed=3))
        assert len(result.per_fold) == 10
        assert result.mean_accuracy == pytest.approx(
            np.mean([m.accuracy for m in result.per_fold])
        )
        assert result.pooled.total == len(fvs)
        assert result.mean_accuracy == 1.0  # threshold rule is exact on this data

    def test_same_seed_gives_identical_results(self):
        fvs, labs = self.dataset(seed=5)
        r1 = kfold_cv(fvs, labs, self.threshold_trainer, CvConfig(folds=5, seed=11))
        r2 = kfold_cv(fvs, labs, self.threshold_trainer, CvConfig(folds=5, seed=11))
        assert [m.accuracy for m in r1.per_fold] == [m.accuracy for m in r2.per_fold]
        np.testing.assert_array_equal(r1.pooled.counts, r2.pooled.counts)

    def test_pooled_counts_are_the_sum_of_the_fold_matrices(self):
        fvs, labs = self.dataset(seed=2)
        rng = np.random.default_rng(4)
        truth_of = {id(fv): lab for fv, lab in zip(fvs, labs)}
        calls = []  # (true, predicted) per prediction, in call order

        def noisy_trainer(train_fvs, train_labels):
            def predict(fv):
                label = CLASS_NAMES[int(rng.integers(0, 4))]
                calls.append((truth_of[id(fv)], label))
                return label

            return predict

        config = CvConfig(folds=4, seed=8)
        result = kfold_cv(fvs, labs, noisy_trainer, config)
        folds, start, expected = fold_indices(len(fvs), config), 0, np.zeros((4, 4))
        for fold, report in zip(folds, result.per_fold):
            truth, pred = zip(*calls[start : start + len(fold)])
            cm = confusion(list(truth), list(pred))
            assert report.accuracy == metrics(cm).accuracy
            expected += cm.counts
            start += len(fold)
        assert start == len(calls) == len(fvs)
        np.testing.assert_array_equal(result.pooled.counts, expected)

    def test_dataset_smaller_than_folds_rejected(self):
        fvs, labs = self.dataset(n_per_class=2)
        with pytest.raises(ValueError, match="folds"):
            kfold_cv(fvs, labs, self.threshold_trainer, CvConfig(folds=10, seed=0))


class TestReportBytes:
    def test_a_fixed_model_result_has_no_folds(self):
        cm = confusion(labels([0, 1, 2, 3, 3]), labels([0, 1, 2, 3, 0]))
        doc = json.loads(report_bytes(CvResult([], metrics(cm).accuracy, cm), 16, None))
        assert doc["folds"] is None and doc["seed"] is None
        assert doc["accuracy_per_fold"] == []
        assert doc["accuracy_mean"] == 0.8
        assert doc["num_epochs"] == 5
        assert doc["pooled_confusion"] == cm.counts.tolist()
