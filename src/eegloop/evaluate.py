"""Classification metrics and the seeded cross-validation protocol.

Accuracy is the trace of the confusion matrix over its total; per-class
precision and recall come from the one-vs-rest counts of the same matrix.
A class never predicted (or never present) reports precision (or recall)
as ``None`` rather than a silent zero, so undefined values cannot drag
down averages unnoticed.

Cross-validation shuffles with a seeded generator and partitions the
dataset into folds whose sizes differ by at most one; each fold is held
out once. Equal seeds give identical fold assignments and therefore
identical metrics, which is the backbone of the toolkit's reproducibility
guarantees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .classes import CLASS_NAMES, class_index
from .features import FeatureVector


@dataclass
class ConfusionMatrix:
    """Counts indexed by [true class][predicted class]."""

    counts: np.ndarray
    classes: ClassVar[tuple[str, ...]] = CLASS_NAMES

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        k = len(CLASS_NAMES)
        if self.counts.shape != (k, k):
            raise ValueError(f"expected a {k}x{k} matrix, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class MetricsReport:
    """Accuracy plus one-vs-rest precision/recall per class (None = undefined)."""

    accuracy: float
    precision: dict[str, float | None]
    recall: dict[str, float | None]


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation fold count and shuffle seed."""

    folds: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


@dataclass
class CvResult:
    """Per-fold metrics, their mean accuracy, and the pooled confusion matrix."""

    per_fold: list[MetricsReport]
    mean_accuracy: float
    pooled: ConfusionMatrix

    @property
    def pooled_metrics(self) -> MetricsReport:
        return metrics(self.pooled)


def confusion(
    true_labels: Sequence[str], predicted_labels: Sequence[str]
) -> ConfusionMatrix:
    """Count (true, predicted) pairs into a confusion matrix."""
    if len(true_labels) != len(predicted_labels):
        raise ValueError(
            f"label count mismatch: {len(true_labels)} true vs "
            f"{len(predicted_labels)} predicted"
        )
    if not true_labels:
        raise ValueError("cannot build a confusion matrix from zero labels")
    k = len(CLASS_NAMES)
    counts = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(true_labels, predicted_labels):
        counts[class_index(t), class_index(p)] += 1
    return ConfusionMatrix(counts)


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy (trace/total) and per-class one-vs-rest precision/recall."""
    if cm.total == 0:
        raise ValueError("confusion matrix is empty")
    correct = np.diag(cm.counts).tolist()
    predicted = cm.counts.sum(axis=0).tolist()
    actual = cm.counts.sum(axis=1).tolist()
    precision = {c: t / p if p else None for c, t, p in zip(CLASS_NAMES, correct, predicted)}
    recall = {c: t / a if a else None for c, t, a in zip(CLASS_NAMES, correct, actual)}
    return MetricsReport(accuracy=sum(correct) / cm.total, precision=precision, recall=recall)


def fold_indices(n: int, config: CvConfig) -> list[np.ndarray]:
    """Seeded shuffle split of ``range(n)`` into folds of near-equal size.

    Folds are disjoint, cover all indices, and differ in size by at most
    one. Identical configs yield identical assignments.
    """
    if n < config.folds:
        raise ValueError(f"dataset of {n} items cannot form {config.folds} folds")
    rng = np.random.default_rng(config.seed)
    return [np.sort(part) for part in np.array_split(rng.permutation(n), config.folds)]


def kfold_cv(
    features: Sequence[FeatureVector],
    labels: Sequence[str],
    trainer: Callable[[list[FeatureVector], list[str]], Callable[[FeatureVector], str]],
    config: CvConfig = CvConfig(),
) -> CvResult:
    """Evaluate a training procedure across seeded folds.

    ``trainer`` receives the training split and returns a predictor; each
    fold is held out once and scored, and the mean of the fold accuracies
    is reported alongside the confusion matrix of all held-out labels.
    """
    if len(features) != len(labels):
        raise ValueError("features and labels differ in length")
    for label in labels:
        class_index(label)
    n = len(features)
    per_fold, truth, predicted = [], [], []
    for held_out in fold_indices(n, config):
        train = np.setdiff1d(np.arange(n), held_out, assume_unique=True)
        predictor = trainer([features[i] for i in train], [labels[i] for i in train])
        fold_truth = [labels[i] for i in held_out]
        fold_predicted = [predictor(features[i]) for i in held_out]
        per_fold.append(metrics(confusion(fold_truth, fold_predicted)))
        truth += fold_truth
        predicted += fold_predicted
    mean_accuracy = float(np.mean([m.accuracy for m in per_fold]))
    return CvResult(per_fold, mean_accuracy, confusion(truth, predicted))


def report_bytes(result: CvResult, epoch_length_s: int, config: CvConfig | None) -> bytes:
    """The metrics report ``eegloop evaluate`` writes, as canonical JSON.

    Per-class precision and recall come from ``result.pooled``; with
    ``config`` None (a fixed model's result) ``folds`` and ``seed`` are None.
    """
    pooled = result.pooled
    report = result.pooled_metrics
    doc = {
        "epoch_length_s": epoch_length_s,
        "num_epochs": pooled.total,
        "folds": None if config is None else config.folds,
        "seed": None if config is None else config.seed,
        "accuracy_mean": result.mean_accuracy,
        "accuracy_per_fold": [m.accuracy for m in result.per_fold],
        "per_class": {
            name: {"precision": report.precision[name], "recall": report.recall[name]}
            for name in pooled.classes
        },
        "pooled_confusion": pooled.counts.tolist(),
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
