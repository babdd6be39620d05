"""Desk-scale EEG replay, epoch streaming, and boosted-tree classification.

The package mirrors a portable single-channel EEG classification rig in
software: EDF recordings replay through modelled DAC/ADC converters, a
bounded queue streams fixed-length epochs to a feature extractor and a
deterministic gradient-boosted-tree classifier, and an evaluation layer
provides metrics, cross-validation, and a seeded synthetic dataset.
"""

from .classes import CLASS_NAMES, class_index
from .edf import (
    EdfError,
    EdfFileHeader,
    EdfSignalHeader,
    SignalTrace,
    parse_edf,
    read_signal,
    to_trace,
    write_edf,
)
from .evaluate import (
    ConfusionMatrix,
    CvConfig,
    CvResult,
    MetricsReport,
    confusion,
    fold_indices,
    kfold_cv,
    metrics,
)
from .features import (
    FEATURE_NAMES,
    SCHEMA_ID,
    FeatureVector,
    extract,
    featurize,
    preprocess,
    schema_descriptor,
)
from .gbt import (
    GbtModel,
    ModelFormatError,
    SchemaMismatchError,
    TrainConfig,
    load_model,
    predict_class,
    predict_labels,
    predict_margins,
    save_model,
    train,
)
from .loopback import (
    AdcModel,
    DacModel,
    LoopbackResult,
    VoltageMapping,
    capture,
    quantization_error_bound,
    replay_capture,
)
from .pipeline import Epoch, EpochQueue, SampleClock, TimingReport, assemble, run_live
from .synth import ClassProfile, SyntheticSpec, generate_dataset, load_dataset

__version__ = "0.1.0"

__all__ = [
    "AdcModel",
    "CLASS_NAMES",
    "ClassProfile",
    "ConfusionMatrix",
    "CvConfig",
    "CvResult",
    "DacModel",
    "EdfError",
    "EdfFileHeader",
    "EdfSignalHeader",
    "Epoch",
    "EpochQueue",
    "FEATURE_NAMES",
    "FeatureVector",
    "GbtModel",
    "LoopbackResult",
    "MetricsReport",
    "ModelFormatError",
    "SCHEMA_ID",
    "SampleClock",
    "SchemaMismatchError",
    "SignalTrace",
    "SyntheticSpec",
    "TimingReport",
    "TrainConfig",
    "VoltageMapping",
    "assemble",
    "capture",
    "class_index",
    "confusion",
    "extract",
    "featurize",
    "fold_indices",
    "generate_dataset",
    "kfold_cv",
    "load_dataset",
    "load_model",
    "metrics",
    "parse_edf",
    "predict_class",
    "predict_labels",
    "predict_margins",
    "preprocess",
    "quantization_error_bound",
    "read_signal",
    "replay_capture",
    "run_live",
    "save_model",
    "schema_descriptor",
    "to_trace",
    "train",
    "write_edf",
]
