"""Boosted-tree training, prediction, determinism, and the JSON model format."""

import copy
import dataclasses
import hashlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegloop import gbt
from eegloop.classes import CLASS_NAMES
from eegloop.features import SCHEMA_ID, FeatureVector, featurize, schema_id
from eegloop.gbt import (
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
from eegloop.synth import SyntheticSpec, generate_dataset, load_dataset

NUM_FEATURES = 21


def fv(values0, **rest):
    values = np.zeros(NUM_FEATURES)
    values[0] = values0
    for idx, v in rest.items():
        values[int(idx[1:])] = v
    return FeatureVector(values)


def quadrant_dataset(per_class=20, seed=0, spread=0.45):
    """Feature 0 alone separates the four classes into unit-wide bands."""
    rng = np.random.default_rng(seed)
    dataset = []
    for i, cls in enumerate(CLASS_NAMES):
        for _ in range(per_class):
            dataset.append((fv(i + rng.uniform(0.05, spread)), cls))
    return dataset


def hand_model(leaf_values):
    """One depth-1 tree per class splitting feature 0 at 0.5."""
    trees = [
        [
            {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
             "right": [2, -1, -1], "value": [0.0, float(left), float(right)]}
            for left, right in leaf_values
        ]
    ]
    return GbtModel(trees=trees)


def root_is_leaf(tree):
    return tree["left"][0] == -1


class TestPrediction:
    def test_empty_forest_returns_base_score_everywhere(self):
        # The base score, every margin's starting value, is zero.
        model = GbtModel(trees=[])
        margins = predict_margins(model, fv(1.0))
        np.testing.assert_array_equal(margins, np.zeros(4))
        label, probs = predict_class(model, fv(1.0))
        assert label == CLASS_NAMES[0]  # tie breaks to the lowest index
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_hand_traced_routing(self):
        model = hand_model([(0.5, -0.5), (1.0, 0.25), (-1.5, 1.5), (0.0, 0.125)])
        low = predict_margins(model, fv(0.2))   # routes left everywhere
        high = predict_margins(model, fv(0.9))  # routes right everywhere
        np.testing.assert_allclose(low, [0.5, 1.0, -1.5, 0.0])
        np.testing.assert_allclose(high, [-0.5, 0.25, 1.5, 0.125])
        assert predict_class(model, fv(0.2))[0] == "sham_sleep"
        assert predict_class(model, fv(0.9))[0] == "tbi_wake"

    def test_uniform_leaf_shift_leaves_argmax_unchanged(self):
        weights = [(1.0, -1.0), (2.0, 0.5), (-3.0, 3.0), (0.0, 0.25)]
        shifted = [(l + 7.5, r + 7.5) for l, r in weights]
        m1, m2 = hand_model(weights), hand_model(shifted)
        for x in (0.2, 0.9):
            a = predict_margins(m1, fv(x))
            b = predict_margins(m2, fv(x))
            np.testing.assert_allclose(b - a, 7.5, atol=1e-12)
            assert predict_class(m1, fv(x))[0] == predict_class(m2, fv(x))[0]

    def test_argmax_of_explicit_margins(self):
        model = hand_model([(1.0, 1.0), (5.0, 5.0), (2.0, 2.0), (0.0, 0.0)])
        assert predict_class(model, fv(0.0))[0] == CLASS_NAMES[1]

    def test_softmax_of_zeros_is_uniform_and_normalized(self):
        model = GbtModel(trees=[])
        _, probs = predict_class(model, fv(0.0))
        np.testing.assert_array_equal(probs, np.full(4, 0.25))
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_softmax_normalization_on_trained_model(self):
        model = train(quadrant_dataset(), TrainConfig(rounds=5))
        rng = np.random.default_rng(0)
        for _ in range(100):
            _, probs = predict_class(model, fv(rng.uniform(-2, 6)))
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_labels_are_predict_class_labels_without_a_softmax(self, softmax_calls):
        model = train(quadrant_dataset(), TrainConfig(rounds=5))
        rng = np.random.default_rng(3)
        fvs = [FeatureVector(rng.uniform(-1, 5, NUM_FEATURES)) for _ in range(200)]
        softmax_calls.clear()
        labels = predict_labels(model, fvs)
        assert softmax_calls == []
        assert labels == [predict_class(model, v)[0] for v in fvs]
        assert len(set(labels)) == len(CLASS_NAMES)

    def test_tied_margins_label_the_lowest_class(self, softmax_calls):
        model = train(quadrant_dataset(per_class=3), TrainConfig(rounds=0))
        softmax_calls.clear()
        rng = np.random.default_rng(4)
        fvs = [FeatureVector(rng.normal(0, 10, NUM_FEATURES)) for _ in range(20)]
        labels = predict_labels(model, fvs)
        assert softmax_calls == []
        assert labels == [predict_class(model, v)[0] for v in fvs] == ["sham_wake"] * 20


class TestTraining:
    @pytest.mark.parametrize("rounds", [0, 1, 7])
    def test_one_softmax_per_round_plus_the_baseline(self, softmax_calls, rounds):
        model = train(quadrant_dataset(), TrainConfig(rounds=rounds))
        assert softmax_calls == [(80, len(CLASS_NAMES))] * (rounds + 1)
        assert len(model.training_loss) == rounds + 1

    def test_separable_dataset_reaches_perfect_training_accuracy(self):
        dataset = quadrant_dataset()
        model = train(dataset, TrainConfig(rounds=8))
        predicted = predict_labels(model, [f for f, _ in dataset])
        assert predicted == [label for _, label in dataset]

    def test_zero_rounds_predicts_class_zero_everywhere(self):
        model = train(quadrant_dataset(per_class=3), TrainConfig(rounds=0))
        assert model.trees == []
        assert predict_class(model, fv(3.2))[0] == CLASS_NAMES[0]

    def test_two_runs_serialize_identically(self):
        config = TrainConfig(rounds=6)
        m1 = train(quadrant_dataset(seed=9), config)
        m2 = train(quadrant_dataset(seed=9), config)
        assert save_model(m1) == save_model(m2)

    def test_leaf_weight_formula_on_hand_built_gradients(self):
        # Four samples with identical features force a single root leaf per
        # class. At uniform initial probabilities p = 1/4: g = p - y,
        # h = p(1-p) = 0.1875, so for labels [c0, c1, c0, c0]:
        #   class 0: G = -2.0,  H = 0.75, w = -G/(H + 1) =  2.0/1.75
        #   class 1: G =  0.0,           w =  0.0
        #   class 2+3: G = 1.0,          w = -1.0/1.75
        # and each leaf's value is w times the learning rate, 0.3.
        dataset = [
            (fv(1.0), CLASS_NAMES[0]),
            (fv(1.0), CLASS_NAMES[1]),
            (fv(1.0), CLASS_NAMES[0]),
            (fv(1.0), CLASS_NAMES[0]),
        ]
        model = train(dataset, TrainConfig(rounds=1, l2_lambda=1.0))
        assert all(len(tree["value"]) == 1 and root_is_leaf(tree) for tree in model.trees[0])
        leaves = [tree["value"][0] for tree in model.trees[0]]
        assert leaves[0] == 0.3 * (2.0 / 1.75)
        assert leaves[1] == 0.0
        assert leaves[2] == 0.3 * (-1.0 / 1.75)
        assert leaves[3] == 0.3 * (-1.0 / 1.75)

    def test_training_loss_is_monotone_non_increasing(self):
        model = train(quadrant_dataset(per_class=30, spread=0.95),
                      TrainConfig(rounds=25))
        losses = np.array(model.training_loss)
        assert losses.size == 26
        assert np.all(np.diff(losses) <= 1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([])

    def test_single_class_dataset_rejected(self):
        dataset = [(fv(float(i)), CLASS_NAMES[0]) for i in range(5)]
        with pytest.raises(ValueError, match="2 classes"):
            train(dataset)

    def test_unknown_label_rejected(self):
        dataset = quadrant_dataset(per_class=2) + [(fv(0.0), "awake")]
        with pytest.raises(ValueError, match="unknown class label: 'awake'"):
            train(dataset)

    def test_min_child_weight_blocks_tiny_leaves(self):
        # Hessian sum at the root is 4 * 0.1875 = 0.75 < min_child_weight,
        # so no split can satisfy the constraint and the tree stays a stump.
        dataset = [
            (fv(0.0), CLASS_NAMES[0]),
            (fv(1.0), CLASS_NAMES[1]),
            (fv(2.0), CLASS_NAMES[2]),
            (fv(3.0), CLASS_NAMES[3]),
        ]
        model = train(dataset, TrainConfig(rounds=1, min_child_weight=10.0))
        assert all(root_is_leaf(tree) for tree in model.trees[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(rounds=-1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_depth=0)

    def test_max_depth_respected(self):
        def depth(tree):
            depths = [0] * len(tree["value"])
            for i, (left, right) in enumerate(zip(tree["left"], tree["right"])):
                if left >= 0:
                    depths[left] = depths[right] = depths[i] + 1
            return max(depths)

        model = train(quadrant_dataset(per_class=40, spread=0.95),
                      TrainConfig(rounds=3, max_depth=2))
        assert max(depth(t) for round_trees in model.trees for t in round_trees) <= 2


class TestSplitSearch:
    """The tie rule of ``_build_tree``'s gain table."""

    NO_PENALTY = TrainConfig(rounds=1, max_depth=1, l2_lambda=0.0, min_child_weight=0.0)

    @staticmethod
    def roots(model):
        return [(t["feature"][0], t["threshold"][0])
                for t in model.trees[0] if not root_is_leaf(t)]

    def test_duplicate_features_split_on_the_lower_index(self):
        dataset = [(fv(0.0, f2=f.values[0], f5=f.values[0]), label)
                   for f, label in quadrant_dataset(per_class=5)]
        roots = self.roots(train(dataset, TrainConfig(rounds=1)))
        assert roots and {feature for feature, _ in roots} == {2}

    def test_larger_gain_at_a_higher_index_wins(self):
        # Feature 1 separates class 0 from the rest; feature 4 separates
        # all four classes, so it scores more for every class tree.
        dataset = [(fv(0.0, f1=float(f.values[0] >= 1), f4=f.values[0]), label)
                   for f, label in quadrant_dataset(per_class=5)]
        roots = self.roots(train(dataset, TrainConfig(rounds=1)))
        assert roots and {feature for feature, _ in roots} == {4}

    def test_equal_gain_thresholds_split_at_the_lower(self):
        # Labels a, b, a at x = 0, 1, 2: at uniform probabilities the two
        # splits mirror each other, so their gains are exactly equal.
        a, b = CLASS_NAMES[:2]
        dataset = [(fv(0.0), a), (fv(1.0), b), (fv(2.0), a)]
        assert self.roots(train(dataset, self.NO_PENALTY)) == [(0, 0.5), (0, 0.5)]

    def test_empty_child_leaf_weighs_negative_zero(self):
        # The midpoint of 1 and the next float rounds to 1, so the split
        # ``x < 1.0`` sends no sample left; with no l2 penalty that leaf
        # used to divide 0 by 0.
        a, b = CLASS_NAMES[:2]
        dataset = [(fv(1.0), a), (fv(np.nextafter(1.0, 2.0)), b)]
        for config in (self.NO_PENALTY, TrainConfig(rounds=1, min_child_weight=0.0)):
            tree = train(dataset, config).trees[0][0]
            assert tree["threshold"][0] == 1.0
            left = tree["value"][tree["left"][0]]
            assert math.copysign(1.0, left) == -1.0
            assert left == 0.0

    def test_node_of_exactly_twice_min_child_weight_splits(self):
        # The root weighs 4 * 0.1875 = 0.75 = 2 * min_child_weight, so the
        # 2 | 2 split, whose sides weigh exactly min_child_weight each, is
        # valid: the trainer must search this node, not skip it as light.
        a, b = CLASS_NAMES[:2]
        dataset = [(fv(x), label) for x, label in [(0.0, a), (1.0, a), (2.0, b), (3.0, b)]]
        model = train(dataset, TrainConfig(rounds=1, max_depth=1, min_child_weight=0.375))
        assert self.roots(model) == [(0, 1.5), (0, 1.5)]

    def test_side_whose_hessians_round_away_is_not_split_off(self):
        # H = 0.75 + 1e-17 rounds to 0.75, so after the third sample H - hl
        # is 0: with no l2 penalty and no weight floor, only the side test
        # keeps the gain from dividing by zero and winning as +inf.
        X = np.zeros((4, NUM_FEATURES))
        X[:, 0] = np.arange(4)
        g = np.array([0.5, -0.5, 0.5, 0.5])
        h = np.array([0.25, 0.25, 0.25, 1e-17])
        order = np.argsort(X.T, axis=1, kind="stable")
        args = X, order, np.arange(1, NUM_FEATURES), g, h, self.NO_PENALTY
        tree = gbt._build_tree(*args, np.zeros(4))
        assert tree == per_node_sort_build_tree(*args, np.zeros(4))
        assert (tree["feature"][0], tree["threshold"][0]) == (0, 1.5)


def pinned_datasets(root):
    """Name -> (X, y) for the model-bytes pins: three small synthetic
    datasets, quantised features with ties and a constant column, and a
    set that one feature separates. The synthetic sets are featurized,
    so a change to the features moves their pins too."""
    sets = {}
    for seed, per_class, length in [(7, 12, 16), (1, 15, 4), (3, 8, 32)]:
        out = root / f"seed{seed}"
        generate_dataset(SyntheticSpec(seed=seed, epochs_per_class=per_class,
                                       epoch_length_s=length), out)
        epochs = load_dataset(out)
        sets[f"synth_seed{seed}_{length}s"] = (
            np.vstack([featurize(e).values for e in epochs]),
            np.array([CLASS_NAMES.index(e.label) for e in epochs]),
        )
    rng = np.random.default_rng(5)
    quantised = rng.integers(0, 4, size=(60, NUM_FEATURES)) / 2
    quantised[:, 3] = 1.0
    sets["quantised"] = (quantised, rng.integers(0, 4, size=60))
    y = np.repeat(np.arange(4), 15)
    separable = rng.normal(size=(60, NUM_FEATURES))
    separable[:, 2] = y + rng.uniform(0.1, 0.9, size=60)
    sets["separable"] = (separable, y)
    return sets


PINNED_CONFIGS = [
    TrainConfig(),
    TrainConfig(max_depth=6, min_child_weight=0.25),
    TrainConfig(min_child_weight=2.0),
    TrainConfig(l2_lambda=0.0, min_child_weight=0.0),
    TrainConfig(rounds=200, learning_rate=1.0, l2_lambda=0.0, min_child_weight=0.0),
    TrainConfig(rounds=60, learning_rate=1.0, max_depth=2, l2_lambda=0.1),
]

# sha256 of ``save_model`` bytes per (dataset, PINNED_CONFIGS index). Each
# is the format 1 model of the per-feature split search that the gain
# table replaced, converted to format 2 apart from the trainer: its nested
# nodes listed in pre-order, leaves as -1 with weight times learning rate.
PINNED_MODEL_DIGESTS = {
    ("synth_seed7_16s", 0): "d7d22e39ad2d83e537ba117abf536893165bb1f7ef3104ce17b21f1c3b38b111",
    ("synth_seed7_16s", 1): "9d84bcd2aa699fd9feeb032789543e0140c5cb2e4923166affc3846ec28654d5",
    ("synth_seed7_16s", 2): "d2488b2b38bef0adb41cbda3b8620b7ac3fafeb1bfda283ca56a7de590ce8333",
    ("synth_seed7_16s", 3): "a8a675f512a40c3ded579dc9ac494b15b93ecccca38f8b60d1a8a36755b5047a",
    ("synth_seed7_16s", 4): "a7216b475424c86c4f7c60663dcb1b05923631a5d1d8e876af0b9b10507633e7",
    ("synth_seed7_16s", 5): "4df0beff063d7ba9b2566934e6b289e82d2e9ec9fa89709e5d0ae6919118bc94",
    ("synth_seed1_4s", 0): "32b455753f9f476208b388dc5fb081887732969e615a6374c7cffba342ec03d5",
    ("synth_seed1_4s", 1): "f7e4c8376128ea4650b2b2249b5b7fdfcc77f6ef295daca72e23dfa3e26f048f",
    ("synth_seed1_4s", 2): "affbc2e750f9e185ab99b5afd95d36a2cf58b970e4ae28a43747de3f6ce42ca0",
    ("synth_seed1_4s", 5): "9d7e36147a41490e4434093b8419ebb6387c4f7e3373127b3e7d9418e3779a45",
    ("synth_seed3_32s", 0): "72997aeb650877d833c8406bdda806bc13ed6e51b9eebd981340e5319f59fef4",
    ("synth_seed3_32s", 1): "9dcac83ff18c4a3c502734d1f6a0cd4d975c8ee4616a8bcacc9eb22a7524f87b",
    ("synth_seed3_32s", 2): "74cbe28276b4bd93914271413818fcf82d6a838f537f26e35c951c89d46bc2f1",
    ("synth_seed3_32s", 3): "381f1f5bd5fed480b20a24e4bd1487ecb3ae1e80581a599702d4ff2cbecd5ea5",
    ("synth_seed3_32s", 4): "506d345d4c40b953a16cd0824ac385b766e43f47cceb589b6d62a6b9cd738a3b",
    ("synth_seed3_32s", 5): "c6cfb0467946c64600263c784354379ad4f77dfa4093be7dfcb16b2fb36b09ad",
    ("quantised", 0): "3c367c0c9b2477de03059a901ec8d12420d7c7c97ab05a0fdefa0e0f86d03be2",
    ("quantised", 1): "c54d66dce56c5a34ccf0abb4a8e59065bd276d9d2e6320a35204eb1a55dd9996",
    ("quantised", 2): "778e0d7e320268e47de951dda8248ecca85137730e668f7c606ed1f05c0ec2f0",
    ("quantised", 3): "154307fe27b287aed3248f318b89d52548d89f939066f34e15adb763c8a56ae2",
    ("quantised", 4): "0537ccbe71d95623cab96c4b9337fcdbc4042f2904a37f26d7f834a2a66f263c",
    ("quantised", 5): "90a02f51a405b98e364db4e5b2982ae45dbd643e87bc8acfee1d4659a669c09d",
    ("separable", 0): "07c968cfa6d1244e1ef298313d5140ae92f7ddcafb4c950a9ffe1d1ae96a838c",
    ("separable", 1): "6c57d1b80b2a59d6a07ba757eb36022c1ddb8e060aaef08e37fd9037cdfd3c6c",
    ("separable", 2): "b5c2483a1ad05719f98c5190c718e14ad0176cf1bbd2ed600bf21ec679097e6d",
    ("separable", 3): "695a7819a926c9659d60a9cec01d2a83b391e4b9cbb1752075cfe3e49ff70abf",
    ("separable", 4): "8a685e28fcfd838cff01024ec965884e19c563fed2dcff8e1efbe221ad3a17c0",
    ("separable", 5): "bc897d357450f01943b310fc86431f57a4c42898792293f3f55d95f19bd9214d",
}

# Without an l2 penalty the seed-1 set reaches an empty leaf, where
# training used to fail dividing 0 by 0; pinned with the same split
# search, the ``-0.0`` empty leaf and the same conversion.
PINNED_EMPTY_LEAF_DIGESTS = {
    ("synth_seed1_4s", 3): "11f5ad5bce185058526be3fe75d4e0f5c210ee8931862759e9efc895f3db1f14",
    ("synth_seed1_4s", 4): "7f37d5d24f7e490dcb42a3ce16ed11455f1f24c6411f8e94893d281813cefb9d",
}


@pytest.fixture(scope="module")
def pinned_data(tmp_path_factory):
    return pinned_datasets(tmp_path_factory.mktemp("pinned"))


@pytest.fixture(scope="module")
def pinned_models(pinned_data):
    """The model of each pinned case, trained on first use."""
    models = {}

    def model(case):
        if case not in models:
            name, config_index = case
            X, y = pinned_data[name]
            models[case] = train([(FeatureVector(x), CLASS_NAMES[c]) for x, c in zip(X, y)],
                                 PINNED_CONFIGS[config_index])
        return models[case]

    return model


def case_id(case):
    return f"{case[0]}-config{case[1]}"


class TestPinnedModelBytes:
    @pytest.mark.parametrize("case", sorted(PINNED_MODEL_DIGESTS), ids=case_id)
    def test_model_bytes_match_the_pin(self, pinned_models, case):
        digest = hashlib.sha256(save_model(pinned_models(case))).hexdigest()
        assert digest == PINNED_MODEL_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(PINNED_EMPTY_LEAF_DIGESTS), ids=case_id)
    def test_model_with_an_empty_leaf_matches_the_pin(self, pinned_models, case):
        digest = hashlib.sha256(save_model(pinned_models(case))).hexdigest()
        assert digest == PINNED_EMPTY_LEAF_DIGESTS[case]


def dict_walk_margins(model, fv):
    """``predict_margins`` as it walked each tree's dict, kept as its reference."""
    values = fv.values.tolist()
    margins = [0.0] * len(CLASS_NAMES)
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            i = 0
            while tree["left"][i] >= 0:
                goes_left = values[tree["feature"][i]] < tree["threshold"][i]
                i = tree["left"][i] if goes_left else tree["right"][i]
            margins[c] += tree["value"][i]
    return np.array(margins)


def threshold_probes(model, X):
    """Vectors that sit exactly on split thresholds: for each tree's first
    split, a training row with that feature set to the threshold."""
    probes = []
    for k, tree in enumerate(t for round_trees in model.trees for t in round_trees):
        if tree["left"][0] >= 0:
            x = X[k % len(X)].copy()
            x[tree["feature"][0]] = tree["threshold"][0]
            probes.append(x)
    return probes


class TestPredictorOracle:
    @pytest.mark.parametrize("case", sorted([*PINNED_MODEL_DIGESTS, *PINNED_EMPTY_LEAF_DIGESTS]),
                             ids=case_id)
    def test_margins_equal_the_dict_walk_byte_for_byte(self, pinned_data, pinned_models,
                                                       case):
        model = pinned_models(case)
        loaded = load_model(save_model(model))
        X = pinned_data[case[0]][0]
        for x in [*X, *threshold_probes(model, X)]:
            probe = FeatureVector(x)
            expected = dict_walk_margins(model, probe).tobytes()
            assert predict_margins(model, probe).tobytes() == expected
            assert predict_margins(loaded, probe).tobytes() == expected

    def test_a_value_on_the_threshold_routes_right(self):
        model = hand_model([(0.5, -0.5), (1.0, 0.25), (-1.5, 1.5), (0.0, 0.125)])
        assert predict_margins(model, fv(0.5)).tolist() == [-0.5, 0.25, 1.5, 0.125]

    def test_trees_cannot_be_reassigned(self):
        model = hand_model([(0.5, -0.5)] * 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.trees = []


def per_node_sort_build_tree(X, order, tie_rows, g, h, config, leaf_values):
    """Oracle for ``gbt._build_tree``: the split search in which every node
    sorts its own samples. It ignores the presorted ``order`` and the
    ``tie_rows`` found from it, and tests every feature for ties. Like the
    trainer, it scores ``-inf`` where a side's ``H + l2_lambda`` is not
    positive, instead of dividing by it, and writes the flat tree."""
    lam = config.l2_lambda
    tree = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def add(feature, threshold, value):
        for name, entry in zip(tree, (feature, threshold, -1, -1, value)):
            tree[name].append(entry)

    def build(idx, depth):
        node = len(tree["value"])
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        split = None
        if depth < config.max_depth and idx.size >= 2:
            split = best_split(idx, G, H)
        if split is None:
            value = config.learning_rate * (-G / (H + lam) if idx.size else -0.0)
            leaf_values[idx] = value
            add(-1, 0.0, value)
            return node
        feature, threshold = split
        add(feature, threshold, 0.0)
        goes_left = X[idx, feature] < threshold
        tree["left"][node] = build(idx[goes_left], depth + 1)
        tree["right"][node] = build(idx[~goes_left], depth + 1)
        return node

    def best_split(idx, G, H):
        node_order = idx[np.argsort(X[idx], axis=0, kind="stable")]
        xs = np.take_along_axis(X, node_order, axis=0)
        gl = np.cumsum(g[node_order], axis=0)[:-1]
        hl = np.cumsum(h[node_order], axis=0)[:-1]
        hr = H - hl
        lighter = np.minimum(hl, hr)
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (gl**2 / (hl + lam) + (G - gl) ** 2 / (hr + lam)
                           - G * G / (H + lam))
        gains[(xs[:-1] == xs[1:]) | (lighter < config.min_child_weight)
              | (lighter + lam <= 0)] = -np.inf
        best = gains.max(axis=0)
        feature = int(np.argmax(best))
        if not best[feature] > 1e-12:
            return None
        k = int(np.argmax(gains[:, feature]))
        return feature, float((xs[k, feature] + xs[k + 1, feature]) / 2)

    build(np.arange(X.shape[0]), 0)
    return tree


@st.composite
def tie_heavy_datasets(draw):
    """Quantised features, so many values tie, with some columns constant
    and some copies of an earlier column; at least two classes."""
    n = draw(st.integers(2, 40))
    levels = draw(st.integers(1, 5))
    step = draw(st.sampled_from([1.0, 0.1, 3.7, 1e-3]))
    kinds = draw(st.lists(st.sampled_from(["quantised", "constant", "copy"]),
                          min_size=NUM_FEATURES, max_size=NUM_FEATURES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, levels + 1, size=(n, NUM_FEATURES)) * step
    for j, kind in enumerate(kinds):
        if kind == "constant":
            X[:, j] = step
        elif kind == "copy" and j:
            X[:, j] = X[:, rng.integers(j)]
    y = rng.integers(0, 4, size=n)
    y[:2] = rng.choice(4, size=2, replace=False)
    return [(FeatureVector(x), CLASS_NAMES[c]) for x, c in zip(X, y)]


@st.composite
def continuous_datasets(draw):
    """Real-valued features of mixed scales, so no column holds a tie and
    the trainer reads no row for the tie mask; at least two classes."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.integers(-3, 4, size=NUM_FEATURES)
    X = rng.normal(size=(n, NUM_FEATURES)) * scales
    y = rng.integers(0, 4, size=n)
    y[:2] = rng.choice(4, size=2, replace=False)
    return [(FeatureVector(x), CLASS_NAMES[c]) for x, c in zip(X, y)]


train_configs = st.builds(
    TrainConfig,
    rounds=st.integers(1, 4),
    max_depth=st.integers(1, 6),
    learning_rate=st.sampled_from([0.3, 1.0]),
    l2_lambda=st.sampled_from([0.0, 0.1, 1.0]),
    # Multiples of 0.1875, every sample's first-round hessian with 4
    # classes, make nodes that weigh exactly 2 * min_child_weight.
    min_child_weight=st.sampled_from([0.0, 0.25, 1.0, 0.1875, 0.375, 0.5625, 0.75, 1.5]),
)


def assert_matches_a_per_node_sort(dataset, config):
    model = train(dataset, config)
    with mock.patch.object(gbt, "_build_tree", per_node_sort_build_tree):
        oracle = train(dataset, config)
    assert save_model(model) == save_model(oracle)
    assert model.training_loss == oracle.training_loss


def assert_matches_a_per_node_sort_without_ties(dataset, config):
    """As ``assert_matches_a_per_node_sort``, on a dataset for which the
    trainer finds no tie rows."""
    build_tree, tie_rows = gbt._build_tree, []

    def recording(X, order, ties, *rest):
        tie_rows.append(ties.size)
        return build_tree(X, order, ties, *rest)

    with mock.patch.object(gbt, "_build_tree", recording):
        assert_matches_a_per_node_sort(dataset, config)
    assert tie_rows and not any(tie_rows)


class TestPresortedSplitSearch:
    @given(tie_heavy_datasets(), train_configs)
    @settings(max_examples=150, deadline=None)
    def test_matches_a_per_node_sort_byte_for_byte(self, dataset, config):
        assert_matches_a_per_node_sort(dataset, config)

    @pytest.mark.parametrize("config", PINNED_CONFIGS)
    @pytest.mark.parametrize("name", ["synth_seed7_16s", "synth_seed1_4s"])
    def test_matches_a_per_node_sort_on_synthetic_features(self, pinned_data, name, config):
        # Featurized epochs tie in a few columns only, so the trainer reads
        # equal neighbours in some rows and skips the others.
        X, y = pinned_data[name]
        sorted_columns = np.sort(X, axis=0)
        ties = (sorted_columns[1:] == sorted_columns[:-1]).any(axis=0)
        assert 0 < ties.sum() < NUM_FEATURES
        assert_matches_a_per_node_sort(
            [(FeatureVector(x), CLASS_NAMES[c]) for x, c in zip(X, y)], config)

    @given(continuous_datasets(), train_configs)
    @settings(max_examples=60, deadline=None)
    def test_matches_a_per_node_sort_without_ties(self, dataset, config):
        assert_matches_a_per_node_sort_without_ties(dataset, config)

    @pytest.mark.parametrize("config", PINNED_CONFIGS)
    def test_matches_a_per_node_sort_on_separable_features(self, pinned_data, config):
        X, y = pinned_data["separable"]
        assert_matches_a_per_node_sort_without_ties(
            [(FeatureVector(x), CLASS_NAMES[c]) for x, c in zip(X, y)], config)


class TestTrainMemory:
    def test_one_call_on_720_epochs_peaks_below_3_mb(self):
        # One default call on 720 x 21 random features, whose trees grow to
        # full depth, peaks at about 2.6 MB traced: the inputs, the
        # presorted lists, the rows along one root-to-leaf path and one
        # node's gain table (a root's complex cumulative sum alone is
        # 21 x 719 x 16 B, 0.24 MB). A table that outlives its search
        # crosses 3 MB: each searched node's complex sum kept to the end of
        # its tree reads 3.5 MB, and a node's complex sum held through its
        # children's recursion 3.3 MB. So does the recursive closure's
        # reference cycle, if it keeps each tree's arrays until the cycle
        # collector runs (3.45 MB in a fresh interpreter). A table held
        # through the recursion once moved the benchmark's peak RSS by 12 MB.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(720, NUM_FEATURES))
        dataset = [(FeatureVector(x), CLASS_NAMES[i % 4]) for i, x in enumerate(X)]
        tracemalloc.start()
        try:
            train(dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000


class TestModelFormat:
    def test_save_load_save_is_byte_identical(self):
        model = train(quadrant_dataset(), TrainConfig(rounds=4))
        data = save_model(model)
        assert save_model(load_model(data)) == data

    def test_loaded_trees_are_the_files_node_objects(self):
        data = save_model(train(quadrant_dataset(), TrainConfig(rounds=4)))
        assert load_model(data).trees == json.loads(data)["trees"]

    def test_loaded_model_predicts_identically_on_random_vectors(self):
        model = train(quadrant_dataset(seed=4), TrainConfig(rounds=6))
        loaded = load_model(save_model(model))
        rng = np.random.default_rng(17)
        for _ in range(1000):
            probe = FeatureVector(rng.uniform(-10, 10, NUM_FEATURES))
            np.testing.assert_array_equal(
                predict_margins(model, probe), predict_margins(loaded, probe)
            )

    def test_unknown_version_rejected(self):
        doc = json.loads(save_model(train(quadrant_dataset(per_class=3),
                                          TrainConfig(rounds=1))))
        doc["format_version"] = 99
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(json.dumps(doc).encode())

    def test_missing_field_rejected(self):
        doc = json.loads(save_model(train(quadrant_dataset(per_class=3),
                                          TrainConfig(rounds=1))))
        del doc["classes"]
        with pytest.raises(ModelFormatError, match="classes"):
            load_model(json.dumps(doc).encode())

    def test_feature_index_out_of_range_rejected(self):
        model = hand_model([(0.1, 0.2)] * 4)
        doc = json.loads(save_model(model))
        doc["trees"][0][0]["feature"][0] = 99
        with pytest.raises(ModelFormatError, match="feature 99 out of range"):
            load_model(json.dumps(doc).encode())

    def test_schema_id_must_be_the_hash_of_the_schema(self):
        # The current id over a longer feature list would let a split route
        # on a feature no vector has.
        doc = copy.deepcopy(VALID_DOC)
        doc["feature_schema"]["features"].append("extra")
        doc["trees"][0][0]["feature"][0] = 21
        with pytest.raises(ModelFormatError, match="not the hash of its contents"):
            load_model(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "edit",
        [lambda schema: schema["parameters"].update(welch_overlap=0.25),
         lambda schema: schema["parameters"].update(welch_segment_s=4),
         lambda schema: schema.update(schema_version=True)],
        ids=["another_overlap", "int_for_float", "bool_for_int"],
    )
    def test_schema_of_another_build_rejected(self, edit):
        # Each id is the true hash of its schema; 4 == 4.0 and True == 1 in
        # Python, but the canonical JSON hash tells them apart.
        doc = copy.deepcopy(VALID_DOC)
        schema = doc["feature_schema"]
        edit(schema)
        del schema["schema_id"]
        schema["schema_id"] = other = schema_id(schema)
        with pytest.raises(SchemaMismatchError, match=f"{other} .* {SCHEMA_ID}"):
            load_model(json.dumps(doc).encode())

    def test_schema_mismatch_is_a_model_format_error(self):
        assert issubclass(SchemaMismatchError, ModelFormatError)

    def test_schema_too_deep_to_hash_rejected(self):
        # A schema nested too deeply to hash is a malformed file too.
        with mock.patch.object(gbt, "schema_id", side_effect=RecursionError):
            with pytest.raises(ModelFormatError, match="nests too deeply"):
                load_model(json.dumps(VALID_DOC).encode())

    def test_garbage_bytes_rejected(self):
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model(b"\x00\x01not json")

    def test_json_other_than_an_object_rejected(self):
        with pytest.raises(ModelFormatError, match="^model file must hold a JSON object$"):
            load_model(b"[]")

    def test_trees_that_are_not_a_list_rejected(self):
        doc = copy.deepcopy(VALID_DOC)
        doc["trees"] = {"0": doc["trees"][0]}
        with pytest.raises(ModelFormatError, match="^trees must be a list of rounds$"):
            load_model(json.dumps(doc).encode())

    def test_format_fields_present(self):
        doc = json.loads(save_model(hand_model([(0.0, 1.0)] * 4)))
        assert sorted(doc) == ["classes", "feature_schema", "format_version", "trees"]
        assert doc["format_version"] == 2
        assert doc["classes"] == list(CLASS_NAMES)
        assert doc["feature_schema"]["schema_id"]
        assert sorted(doc["trees"][0][0]) == ["feature", "left", "right", "threshold", "value"]

    def test_trained_trees_list_each_node_before_its_children(self):
        model = train(quadrant_dataset(per_class=40, spread=0.95), TrainConfig(rounds=3))
        for tree in (t for round_trees in model.trees for t in round_trees):
            splits = [i for i, left in enumerate(tree["left"]) if left >= 0]
            assert all(tree["left"][i] == i + 1 < tree["right"][i] for i in splits)
            children = [tree[side][i] for i in splits for side in ("left", "right")]
            assert sorted(children) == list(range(1, len(tree["value"])))

    def test_format_1_file_refused_by_name(self):
        # The nested trees of format 1, with an unscaled leaf weight.
        doc = copy.deepcopy(VALID_DOC)
        doc.update(format_version=1, base_score=0.0, learning_rate=0.3)
        doc["trees"] = [[{"feature_index": 0, "threshold": 0.5, "default_left": True,
                          "left": {"weight": 1.0}, "right": {"weight": -1.0}}] * 4]
        with pytest.raises(ModelFormatError, match="format_version 1 .* retrain"):
            load_model(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "classes, trees_per_round",
        [(["a", "b", "c", "d"], 4), (list(CLASS_NAMES[:2]), 2),
         (list(CLASS_NAMES[::-1]), 4)],
        ids=["renamed", "two_classes", "reordered"],
    )
    def test_class_list_other_than_the_toolkits_rejected(self, classes, trees_per_round):
        doc = copy.deepcopy(VALID_DOC)
        doc["classes"] = classes
        doc["trees"] = [round_trees[:trees_per_round] for round_trees in doc["trees"]]
        with pytest.raises(ModelFormatError, match="classes"):
            load_model(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "malformed",
        ["bad_utf8", "deep_tree", "deep_array", "features_not_list",
         "learning_rate_null", "base_score_string", "base_score_nan",
         "short_round", "huge_threshold", "bool_feature_index",
         "child_at_its_node", "child_before_its_node", "child_past_the_end",
         "leaf_with_a_left_child", "leaf_with_a_right_child", "unequal_lengths",
         "empty_tree", "missing_key", "extra_key", "float_feature_index",
         "nan_leaf_value", "inf_leaf_value", "int_threshold", "shared_child",
         "unreachable_node"],
    )
    def test_malformed_file_raises_model_format_error(self, malformed):
        with pytest.raises(ModelFormatError):
            load_model(malformed_model_bytes(malformed))


VALID_DOC = json.loads(save_model(hand_model([(0.1, -0.2), (0.3, 0.0),
                                             (-1.0, 2.0), (0.5, 0.25)])))


def malformed_model_bytes(case: str) -> bytes:
    """A copy of ``VALID_DOC`` broken in the way ``case`` names."""
    doc = copy.deepcopy(VALID_DOC)
    tree = doc["trees"][0][0]
    if case == "bad_utf8":
        return b"\xff" + json.dumps(doc).encode()
    if case == "deep_array":
        return b"[" * 100_000
    if case == "deep_tree":
        split = '{"feature_index":0,"threshold":0.5,"right":{"weight":0.0},"left":'
        deep = split * 3000 + '{"weight":0.0}' + "}" * 3000
        doc["trees"][0][0] = "DEEP"
        return json.dumps(doc).replace('"DEEP"', deep).encode()

    def put(field, node, value):
        tree[field][node] = value

    edits = {
        "features_not_list": lambda: doc["feature_schema"].update(features=5),
        # The fields that format 2 folds into the leaves are refused.
        "learning_rate_null": lambda: doc.update(learning_rate=None),
        "base_score_string": lambda: doc.update(base_score="x"),
        "base_score_nan": lambda: doc.update(base_score=float("nan")),
        "short_round": lambda: doc["trees"][0].pop(),
        "huge_threshold": lambda: put("threshold", 0, 10**400),
        "bool_feature_index": lambda: put("feature", 0, True),
        "child_at_its_node": lambda: put("left", 0, 0),
        "child_before_its_node": lambda: (put("feature", 2, 0), put("left", 2, 1),
                                          put("right", 2, 1)),
        "child_past_the_end": lambda: put("right", 0, 3),
        "leaf_with_a_left_child": lambda: put("left", 1, 2),
        "leaf_with_a_right_child": lambda: put("right", 1, 2),
        "unequal_lengths": lambda: tree["value"].append(0.0),
        "empty_tree": lambda: tree.update({k: [] for k in tree}),
        "missing_key": lambda: tree.pop("value"),
        "extra_key": lambda: tree.update(default_left=[True, -1, -1]),
        "float_feature_index": lambda: put("feature", 0, 0.0),
        "nan_leaf_value": lambda: put("value", 1, float("nan")),
        "inf_leaf_value": lambda: put("value", 2, float("inf")),
        "int_threshold": lambda: put("threshold", 0, 1),
        # right == [1, -1, -1]: node 1 is both children, node 2 nobody's.
        "shared_child": lambda: put("right", 0, 1),
        "unreachable_node": lambda: [tree[name].append(entry) for name, entry in
                                     {"feature": -1, "threshold": 0.0, "left": -1,
                                      "right": -1, "value": 0.0}.items()],
    }
    edits[case]()
    return json.dumps(doc).encode()


def json_values():
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.sampled_from([10**400, -1, 0, 1, 21, "x", "sham_wake"]), st.text(max_size=4),
    )
    keys = st.one_of(st.sampled_from(["feature", "threshold", "left", "right", "value",
                                      "features", "schema_id"]),
                     st.text(max_size=4))
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
        max_leaves=6,
    )


def slots(node):
    """Every (container, key) pair in a JSON document, parents before children."""
    found = []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        found.append((node, key))
        if isinstance(child, (dict, list)):
            found += slots(child)
    return found


class TestModelFuzz:
    @given(st.data(), st.one_of(st.none(), st.integers(0, 2000)))
    @settings(max_examples=400, deadline=None)
    def test_mutated_document_loads_or_raises_model_format_error(self, data, cut):
        doc = copy.deepcopy(VALID_DOC)
        for _ in range(data.draw(st.integers(1, 3))):
            container, key = data.draw(st.sampled_from(slots(doc)))
            if isinstance(container, dict) and data.draw(st.booleans()):
                del container[key]
            else:
                container[key] = data.draw(json_values())
        try:
            model = load_model(json.dumps(doc).encode()[:cut])
        except ModelFormatError:
            return
        saved = save_model(model)
        assert save_model(load_model(saved)) == saved
        label, _ = predict_class(model, FeatureVector(np.zeros(NUM_FEATURES)))
        assert label in CLASS_NAMES
