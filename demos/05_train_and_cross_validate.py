"""
Training and cross-validating the classifier
============================================

Generates the default synthetic 4-class dataset, runs the seeded
10-fold cross-validation, prints a per-class precision/recall table,
and shows that the portable model format round trips exactly.
"""

import tempfile
import time
from pathlib import Path

from eegloop import (
    CLASS_NAMES,
    CvConfig,
    TrainConfig,
    featurize,
    kfold_cv,
    load_dataset,
    load_model,
    predict_labels,
    save_model,
    train,
)
from eegloop.synth import SyntheticSpec, generate_dataset

workdir = Path(tempfile.mkdtemp(prefix="eegloop-demo-"))
spec = SyntheticSpec(epochs_per_class=100, epoch_length_s=16, seed=7)
generate_dataset(spec, workdir)
print(f"dataset: {spec.epochs_per_class} epochs/class x 4 classes "
      f"of {spec.epoch_length_s} s under {workdir}")

t0 = time.time()
epochs = load_dataset(workdir)
fvs = [featurize(e) for e in epochs]
labels = [e.label for e in epochs]
print(f"featurized {len(fvs)} epochs in {time.time() - t0:.1f} s")

train_config = TrainConfig(rounds=30)


def trainer(train_fvs, train_labels):
    model = train(list(zip(train_fvs, train_labels)), train_config)
    return lambda fv: predict_labels(model, [fv])[0]


t0 = time.time()
result = kfold_cv(fvs, labels, trainer, CvConfig(folds=10, seed=7))
print(f"10-fold CV in {time.time() - t0:.1f} s")
print(f"\nmean accuracy: {result.mean_accuracy:.4f}")
print("per-fold:     ", [round(m.accuracy, 3) for m in result.per_fold])

pooled = result.pooled_metrics
print(f"\n{'class':<12} {'precision':>10} {'recall':>10}")
for name in CLASS_NAMES:
    print(f"{name:<12} {pooled.precision[name]:>10.3f} {pooled.recall[name]:>10.3f}")
print("\npooled confusion (rows = true, cols = predicted):")
print(result.pooled.counts)

# Train once on everything and round-trip the model file.
model = train(list(zip(fvs, labels)), train_config)
print(f"\ntraining loss: {model.training_loss[0]:.3f} -> {model.training_loss[-1]:.3f} "
      f"over {train_config.rounds} rounds (non-increasing)")
blob = save_model(model)
reloaded = load_model(blob)
same = predict_labels(model, fvs) == predict_labels(reloaded, fvs)
print(f"model file: {len(blob)} bytes; reloaded predictions identical: {same}")
