"""Deterministic gradient-boosted trees for 4-class epoch classification.

Training is classic second-order boosting with a softmax objective: each
round fits one regression tree per class to the per-sample gradients
``g = p - y`` and hessians ``h = p(1-p)``, using exact greedy splits over
every feature/threshold midpoint and leaf weights ``-G / (H + lambda)``.
Each feature column is sorted once per ``train`` call, and every split
partitions the sorted index lists stably into its children. Each node
therefore reads its samples, and sums their gradients, in the order a
sort of its own would give, so the models are byte-identical to those
of a per-node sort. A node that cannot split (at ``max_depth``, with
fewer than 2 samples, or lighter than twice ``min_child_weight``) is a
leaf at once and is neither searched nor partitioned; ``_build_tree``
proves that its search could only have found no valid split, so this
changes no model either. There is no subsampling, binning, or
threading, so a fixed dataset and config always produce the same model,
and the JSON model format round trips bit-exactly across machines.
Trees are flat node lists, as in XGBoost's JSON model, and leaf values
include the learning rate: prediction adds one per tree, round-major.

Desk-scale by design: exact splits over a few thousand epochs train in
seconds, and single-vector inference stays well under a millisecond.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .classes import CLASS_NAMES, class_index
from .features import (FEATURE_NAMES, SCHEMA_ID, FeatureVector, schema_descriptor,
                       schema_id)

MODEL_FORMAT_VERSION = 2
_TREE_FIELDS = ("feature", "threshold", "left", "right", "value")

_MIN_SPLIT_GAIN = 1e-12
_MIN_HESSIAN = 1e-16


class ModelFormatError(ValueError):
    """Model bytes are structurally invalid or of an unsupported version."""


class SchemaMismatchError(ModelFormatError):
    """A well-formed model file of a feature schema other than this build's."""


@dataclass(frozen=True)
class TrainConfig:
    """Boosting hyperparameters; all runs with equal config are identical."""

    rounds: int = 30
    max_depth: int = 4
    learning_rate: float = 0.3
    l2_lambda: float = 1.0
    min_child_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not self.l2_lambda >= 0:
            raise ValueError("l2_lambda must be >= 0")
        if not self.min_child_weight >= 0:
            raise ValueError("min_child_weight must be >= 0")


@dataclass(frozen=True)
class GbtModel:
    """A trained forest: ``trees[round][class_index]``, one flat tree each.

    A tree is the model file's object of equal-length ``_TREE_FIELDS``
    lists; entry ``i`` is node ``i``, node 0 is the root, and children
    follow their parent. Split ``i`` sends ``values[feature[i]] <
    threshold[i]`` to ``left[i]``, else to ``right[i]``. A leaf has ``-1``
    for ``feature``, ``left`` and ``right``, and its weight times the
    learning rate as its value; unused thresholds and values are ``0.0``.
    A model reads vectors of this build's feature schema: ``train`` makes
    one from them, and ``load_model`` refuses a file of any other schema.

    Frozen, so the walk built from ``trees`` when the model is made stays
    its walk: ``_walk`` lists, round-major, each tree's class and its
    ``_TREE_FIELDS`` lists, and ``predict_margins`` reads no dict.
    """

    trees: list[list[dict]]
    training_loss: list[float] = field(default_factory=list, compare=False)
    _walk: list[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        walk = [(c, *(tree[name] for name in _TREE_FIELDS))
                for round_trees in self.trees for c, tree in enumerate(round_trees)]
        object.__setattr__(self, "_walk", walk)


def _softmax(margins: np.ndarray) -> np.ndarray:
    shifted = margins - margins.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _build_tree(
    X: np.ndarray,
    order: np.ndarray,
    tie_rows: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    config: TrainConfig,
    leaf_values: np.ndarray,
) -> dict:
    """Exact greedy tree fit to one class's gradients.

    ``order`` is feature-major: row ``j`` holds the sample indices sorted
    stably by feature ``j``, sorted once per ``train`` call (the presorted
    column blocks of XGBoost, Chen & Guestrin 2016, section 4.1). A split
    partitions each row stably by ``goes_left`` into the children's rows,
    so a node's row ``j`` lists its samples as a stable sort of feature
    ``j`` over them would: by value, then by sample index. No node sorts,
    yet every cumulative sum adds the same terms in the same order as a
    per-node sort, so gains, thresholds and leaf weights are bit-identical.

    Each node scores all its splits in one gain table: row ``j`` is feature
    ``j`` and column ``k`` splits after sorted value ``k``. Splits between
    equal values, with a side lighter than ``min_child_weight``, or with a
    side whose ``H + l2_lambda`` is not positive score ``-inf``. Ties go to
    the lowest threshold, then the lowest feature index. Returns the flat
    tree of :class:`GbtModel`, each node appended before its children; a
    leaf's value is ``learning_rate * -G / (H + lambda)``, and
    ``leaf_values`` receives each sample's leaf value.

    ``tie_rows`` lists the features whose root row holds two equal
    adjacent values. A node's row is a subsequence of the root's, and the
    root's row is sorted, so any value between two equal ones is equal to
    them too: a node's row can hold equal neighbours only where the
    root's does. Only those rows are read for the tie mask. The side test
    ``lighter + l2_lambda <= 0`` runs only when ``l2_lambda == 0``: for
    ``l2_lambda > 0`` and ``lighter >= 0`` the rounded sum is at least
    ``l2_lambda``, so the test can hold only where ``lighter < 0 <=
    min_child_weight``, a cell the weight test already masks.

    Only a node that can split is searched or gets its rows partitioned:
    one below ``max_depth``, with at least 2 samples, and not lighter than
    ``2 * min_child_weight`` less a relative slack of ``1e-9``. Any other
    node is a leaf, as the search would have made it, since its gain
    table holds only ``-inf``. A cell is valid only if ``hl >= mcw`` and
    ``fl(H - hl) >= mcw``. Rounding moves ``H - hl`` by at most half an
    ulp, a relative ``2**-53`` (a subnormal difference is exact), so
    every valid cell has ``H >= mcw * (2 - 2**-52)``. Any slack of at
    least ``2**-53`` below ``2 * mcw`` thus skips only all ``-inf``
    tables; ``1e-9`` is well clear of it, and ``mcw = 0`` skips nothing.
    This is XGBoost's ``min_child_weight`` bound applied before the
    search rather than cell by cell within it.

    The gain table's passes read contiguous copies of the prefix sums of
    g and h, the cache-aware access of Chen & Guestrin's section 4.2,
    with the same operands in the same order, so the copies change no
    bit. One ``np.errstate`` around the whole recursion silences the
    divisions by zero of masked cells; it covers numpy operations only,
    and the leaf weights are Python floats.
    """
    lam = config.l2_lambda
    mcw = config.min_child_weight
    F = X.shape[1]
    flat_X = X.ravel()  # ``X[i, j]`` is ``flat_X[i * F + j]``
    gh = np.empty(g.size, complex)
    gh.real, gh.imag = g, h
    min_split_weight = 2 * mcw * (1 - 1e-9)
    nodes: list[list] = []  # one row of _TREE_FIELDS per node

    def can_split(size: int, H: float, depth: int) -> bool:
        return depth < config.max_depth and size >= 2 and not H < min_split_weight

    # ``idx`` is the node's samples in ascending order, and G and H are
    # summed over it. ``rows()`` returns its rows of the presorted lists;
    # only a node that can split asks for them.
    def build(idx: np.ndarray, rows: Callable[[], np.ndarray], depth: int) -> None:
        G = float(g.take(idx).sum())
        H = float(h.take(idx).sum())
        order = rows() if can_split(idx.size, H, depth) else None
        split = None if order is None else best_split(order, G, H)
        if split is None:
            value = config.learning_rate * (-G / (H + lam) if idx.size else -0.0)
            leaf_values[idx] = value
            nodes.append([-1, 0.0, -1, -1, value])
            return
        feature, threshold = split
        node = [feature, threshold, len(nodes) + 1, -1, 0.0]
        nodes.append(node)
        goes_left = X[:, feature] < threshold
        # Every row holds the same samples, so every row keeps the same
        # count; compress keeps each row's order.
        left = goes_left.take(order).ravel()
        shape = len(order), -1
        sel = goes_left.take(idx)
        build(idx.compress(sel), lambda: order.compress(left).reshape(shape), depth + 1)
        node[3] = len(nodes)
        build(idx.compress(~sel), lambda: order.compress(~left).reshape(shape), depth + 1)

    # Its own frame, so that the gain table is freed before the recursion.
    # ``gh`` holds g and h as the real and imaginary parts of one array, so
    # one gather and one cumulative sum serve both: complex addition adds
    # the parts separately, each in the order a float cumsum would. The
    # parts are then copied once into contiguous ``gl`` and ``hl`` and the
    # complex table is freed: a pass over a strided ``.real`` or ``.imag``
    # view costs about three over a contiguous array. Every later pass runs
    # in place on these copies or on buffers of their layout, and the tie
    # rows are gathered from ``X`` by flat index. The table is ``0.5 *
    # (gl**2 / (hl + lam) + (G - gl)**2 / (hr + lam) - parent_score)``, its
    # sum built with the same operations in the same order (numpy squares
    # a float64 as ``x * x``). Subtracting a constant and halving are
    # monotone, so they run on the row maxima and on the winning row only.
    # The divisions meet x / 0 and 0 / 0 only in masked cells; the
    # ``errstate`` around ``build`` is entered once per tree, not per node.
    def best_split(order: np.ndarray, G: float, H: float) -> tuple[int, float] | None:
        sums = np.cumsum(gh.take(order), axis=1)[:, :-1]
        gl, hl = sums.real.copy(), sums.imag.copy()
        del sums
        hr = H - hl
        lighter = np.minimum(hl, hr)
        invalid = lighter < mcw
        if lam == 0:
            invalid |= lighter <= 0
        if tie_rows.size:
            xs = flat_X.take(order[tie_rows] * F + tie_rows[:, None])
            invalid[tie_rows] |= xs[:, :-1] == xs[:, 1:]
        right = np.subtract(G, gl, out=lighter)
        right *= right
        hr += lam
        right /= hr
        score = np.multiply(gl, gl, out=gl)  # the left term, then the sum
        hl += lam
        score /= hl
        score += right
        score[invalid] = -np.inf
        parent_score = G * G / (H + lam)
        best = score.max(axis=1)
        best -= parent_score
        best *= 0.5
        feature = int(np.argmax(best))  # the first maximum
        if not best[feature] > _MIN_SPLIT_GAIN:
            return None
        row = score[feature]
        row -= parent_score
        row *= 0.5
        k = int(np.argmax(row))
        below, above = X[order[feature, k], feature], X[order[feature, k + 1], feature]
        return feature, float((below + above) / 2)

    with np.errstate(divide="ignore", invalid="ignore"):
        build(np.arange(X.shape[0]), lambda: order, 0)
    # ``build`` reaches itself through its closure. Breaking that cycle frees
    # this tree's arrays now, not when the cycle collector next runs.
    del build
    return {name: list(column) for name, column in zip(_TREE_FIELDS, zip(*nodes))}


def train(
    dataset: list[tuple[FeatureVector, str]], config: TrainConfig = TrainConfig()
) -> GbtModel:
    """Fit a multiclass boosted forest to labelled feature vectors.

    Deterministic for a fixed dataset order and config. The returned
    model records the training log-loss after each round in
    ``training_loss`` (index 0 is the pre-training baseline); the loss is
    non-increasing on the training set.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    X = np.vstack([fv.values for fv, _ in dataset])
    y = np.array([class_index(label) for _, label in dataset])
    if np.unique(y).size < 2:
        raise ValueError("training dataset must contain at least 2 classes")

    n = X.shape[0]
    num_classes = len(CLASS_NAMES)
    margins = np.full((n, num_classes), 0.0)
    onehot = np.eye(num_classes)[y]

    def logloss(p: np.ndarray) -> float:
        return float(-np.mean(np.log(np.clip(p[np.arange(n), y], 1e-300, None))))

    p = _softmax(margins)  # a round's gradients and the loss before that round share it
    loss_history = [logloss(p)]
    order = np.argsort(X.T, axis=1, kind="stable")
    xs = np.take_along_axis(X.T, order, axis=1)
    tie_rows = np.flatnonzero((xs[:, :-1] == xs[:, 1:]).any(axis=1))  # see _build_tree
    forest: list[list[dict]] = []
    for _ in range(config.rounds):
        round_trees = []
        for c in range(num_classes):
            g = p[:, c] - onehot[:, c]
            h = np.maximum(p[:, c] * (1 - p[:, c]), _MIN_HESSIAN)
            leaf_values = np.zeros(n)
            round_trees.append(_build_tree(X, order, tie_rows, g, h, config, leaf_values))
            margins[:, c] += leaf_values
        forest.append(round_trees)
        p = _softmax(margins)
        loss_history.append(logloss(p))

    return GbtModel(trees=forest, training_loss=loss_history)


def predict_margins(model: GbtModel, fv: FeatureVector) -> np.ndarray:
    """Per-class margin scores: leaf values added to zero in fixed round-major order."""
    values = fv.values.tolist()
    margins = [0.0] * len(CLASS_NAMES)
    for c, feature, threshold, left, right, value in model._walk:
        i = 0
        while left[i] >= 0:
            i = left[i] if values[feature[i]] < threshold[i] else right[i]
        margins[c] += value[i]
    return np.array(margins)


def _label(margins: np.ndarray) -> str:
    """The class of the largest margin; ties break to the lowest class index."""
    return CLASS_NAMES[int(np.argmax(margins))]


def predict_class(model: GbtModel, fv: FeatureVector) -> tuple[str, np.ndarray]:
    """Predicted label and softmax probabilities."""
    margins = predict_margins(model, fv)
    return _label(margins), _softmax(margins)


def predict_labels(model: GbtModel, fvs: list[FeatureVector]) -> list[str]:
    """Predicted label for each vector, from its margins: no softmax is computed."""
    return [_label(predict_margins(model, fv)) for fv in fvs]


def _check_tree(tree) -> None:
    """Raise ``ModelFormatError`` unless ``tree`` has the layout of :class:`GbtModel`."""
    if not isinstance(tree, dict) or tree.keys() != set(_TREE_FIELDS):
        raise ModelFormatError(f"a tree must be an object of the lists {_TREE_FIELDS}")
    columns = [tree[name] for name in _TREE_FIELDS]
    n = len(columns[0]) if isinstance(columns[0], list) else -1
    if n < 1 or not all(isinstance(c, list) and len(c) == n for c in columns):
        raise ModelFormatError("a tree's lists must be non-empty and of equal length")
    for i, node in enumerate(zip(*columns)):
        feature, threshold, left, right, value = node
        if not (type(feature) is type(left) is type(right) is int
                and type(threshold) is type(value) is float
                and math.isfinite(threshold) and math.isfinite(value)):
            raise ModelFormatError(f"node {i}: feature, left and right must be integers "
                                   f"and threshold and value finite floats, got {node}")
        if feature == left == right == -1:
            continue  # a leaf
        if not 0 <= feature < len(FEATURE_NAMES):
            raise ModelFormatError(f"node {i} feature {feature} out of range")
        if not (i < left < n and i < right < n):
            raise ModelFormatError(f"node {i} children {left}, {right} must lie in ({i}, {n})")
    # Each child lies after its parent, so if every node but the root is a
    # child exactly once, every node is reached from the root by one path.
    if sorted(c for c in tree["left"] + tree["right"] if c >= 0) != list(range(1, n)):
        raise ModelFormatError("each node but the root must be the child of exactly one split")


def save_model(model: GbtModel) -> bytes:
    """Serialize to the versioned, self-describing JSON model format.

    Floats are written with full round-trip precision; serialization is
    canonical (sorted keys), so save -> load -> save is byte-identical.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "classes": list(CLASS_NAMES),
        "feature_schema": schema_descriptor(),
        "trees": model.trees,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def load_model(data: bytes) -> GbtModel:
    """Parse and validate model bytes; predictions match the saved model exactly.

    Any malformed input raises ``ModelFormatError``, a ``feature_schema``
    whose ``schema_id`` is not the hash of its other fields included, and
    so does a format 1 file, by name. A well-formed file whose schema is
    not this build's ``SCHEMA_ID`` raises ``SchemaMismatchError``, a
    ``ModelFormatError`` too. ``trees`` is the file's parsed object.
    """
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too deep
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must hold a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        why = ("no longer read: retrain the model to write" if version == 1
               else "not supported: this build reads")
        raise ModelFormatError(
            f"model format_version {version!r} is {why} format_version {MODEL_FORMAT_VERSION}")
    fields = {"format_version", "classes", "feature_schema", "trees"}
    if missing := sorted(fields - doc.keys()):
        raise ModelFormatError(f"model file missing field {missing[0]!r}")
    if unknown := sorted(doc.keys() - fields):
        raise ModelFormatError(f"model file has unknown field {unknown[0]!r}")
    schema = doc["feature_schema"]
    if not isinstance(schema, dict):
        raise ModelFormatError("feature_schema must be an object")
    # The id must hash the rest, or it could vouch for any feature list. The
    # canonical JSON hash, unlike ==, tells 4 from 4.0 and true from 1.
    try:
        described = schema_id({k: v for k, v in schema.items() if k != "schema_id"})
    except RecursionError:
        raise ModelFormatError("feature_schema nests too deeply") from None
    if described != schema.get("schema_id"):
        raise ModelFormatError("feature_schema schema_id is not the hash of its contents")
    if described != SCHEMA_ID:
        raise SchemaMismatchError(
            f"model feature schema {described} is not this build's schema {SCHEMA_ID}"
        )
    if doc["classes"] != list(CLASS_NAMES):
        raise ModelFormatError(f"classes must be {list(CLASS_NAMES)}")
    trees = doc["trees"]
    if not isinstance(trees, list):
        raise ModelFormatError("trees must be a list of rounds")
    for round_trees in trees:
        if not isinstance(round_trees, list) or len(round_trees) != len(CLASS_NAMES):
            raise ModelFormatError("each round must hold one tree per class")
        for tree in round_trees:
            _check_tree(tree)
    return GbtModel(trees=trees)
