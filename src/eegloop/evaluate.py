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

    def tp(self, c: int) -> int:
        return int(self.counts[c, c])

    def fp(self, c: int) -> int:
        return int(self.counts[:, c].sum() - self.counts[c, c])

    def fn(self, c: int) -> int:
        return int(self.counts[c, :].sum() - self.counts[c, c])

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts + other.counts)


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
    precision: dict[str, float | None] = {}
    recall: dict[str, float | None] = {}
    for c, name in enumerate(CLASS_NAMES):
        predicted = cm.tp(c) + cm.fp(c)
        actual = cm.tp(c) + cm.fn(c)
        precision[name] = cm.tp(c) / predicted if predicted else None
        recall[name] = cm.tp(c) / actual if actual else None
    accuracy = float(np.trace(cm.counts)) / cm.total
    return MetricsReport(accuracy=accuracy, precision=precision, recall=recall)


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
    is reported alongside the pooled confusion matrix.
    """
    if len(features) != len(labels):
        raise ValueError("features and labels differ in length")
    for label in labels:
        class_index(label)
    folds = fold_indices(len(features), config)
    per_fold = []
    pooled = ConfusionMatrix(np.zeros((len(CLASS_NAMES), len(CLASS_NAMES)), dtype=int))
    for held_out in folds:
        mask = np.zeros(len(features), dtype=bool)
        mask[held_out] = True
        train_fvs = [features[i] for i in range(len(features)) if not mask[i]]
        train_labels = [labels[i] for i in range(len(features)) if not mask[i]]
        predictor = trainer(train_fvs, train_labels)
        predicted = [predictor(features[i]) for i in held_out]
        cm = confusion([labels[i] for i in held_out], predicted)
        per_fold.append(metrics(cm))
        pooled = pooled + cm
    mean_accuracy = float(np.mean([m.accuracy for m in per_fold]))
    return CvResult(per_fold=per_fold, mean_accuracy=mean_accuracy, pooled=pooled)


def report_bytes(pooled: ConfusionMatrix, epoch_length_s: int, *, folds: int | None,
                 seed: int | None, accuracy_mean: float,
                 accuracy_per_fold: list[float]) -> bytes:
    """The metrics report ``eegloop evaluate`` writes, as canonical JSON.

    Per-class precision and recall come from ``pooled``; a fixed model's
    report has ``folds`` and ``seed`` None and no fold accuracies.
    """
    report = metrics(pooled)
    doc = {
        "epoch_length_s": epoch_length_s,
        "num_epochs": pooled.total,
        "folds": folds,
        "seed": seed,
        "accuracy_mean": accuracy_mean,
        "accuracy_per_fold": accuracy_per_fold,
        "per_class": {
            name: {"precision": report.precision[name], "recall": report.recall[name]}
            for name in pooled.classes
        },
        "pooled_confusion": pooled.counts.tolist(),
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
