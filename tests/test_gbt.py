"""Boosted-tree training, prediction, determinism, and the JSON model format."""

import copy
import hashlib
import json
import math
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


def hand_model(leaf_weights, learning_rate=1.0):
    """One depth-1 tree per class splitting feature 0 at 0.5."""
    trees = [
        [
            {
                "feature_index": 0,
                "threshold": 0.5,
                "left": {"weight": float(left)},
                "right": {"weight": float(right)},
            }
            for left, right in leaf_weights
        ]
    ]
    return GbtModel(
        trees=trees,
        base_score=0.0,
        learning_rate=learning_rate,
    )


class TestPrediction:
    def test_empty_forest_returns_base_score_everywhere(self):
        model = GbtModel(trees=[], base_score=0.25, learning_rate=0.3)
        margins = predict_margins(model, fv(1.0))
        np.testing.assert_array_equal(margins, np.full(4, 0.25))
        label, probs = predict_class(model, fv(1.0))
        assert label == CLASS_NAMES[0]  # tie breaks to the lowest index
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_hand_traced_routing(self):
        model = hand_model([(1.0, -1.0), (2.0, 0.5), (-3.0, 3.0), (0.0, 0.25)],
                           learning_rate=0.5)
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
        model = GbtModel(trees=[], base_score=0.0, learning_rate=0.3)
        _, probs = predict_class(model, fv(0.0))
        np.testing.assert_array_equal(probs, np.full(4, 0.25))
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_softmax_normalization_on_trained_model(self):
        model = train(quadrant_dataset(), TrainConfig(rounds=5))
        rng = np.random.default_rng(0)
        for _ in range(100):
            _, probs = predict_class(model, fv(rng.uniform(-2, 6)))
            assert abs(probs.sum() - 1.0) < 1e-12


class TestTraining:
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
        dataset = [
            (fv(1.0), CLASS_NAMES[0]),
            (fv(1.0), CLASS_NAMES[1]),
            (fv(1.0), CLASS_NAMES[0]),
            (fv(1.0), CLASS_NAMES[0]),
        ]
        model = train(dataset, TrainConfig(rounds=1, l2_lambda=1.0))
        leaves = [tree["weight"] for tree in model.trees[0]]
        assert all("weight" in tree for tree in model.trees[0])
        assert leaves[0] == 2.0 / 1.75
        assert leaves[1] == 0.0
        assert leaves[2] == -1.0 / 1.75
        assert leaves[3] == -1.0 / 1.75

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
        assert all("weight" in tree for tree in model.trees[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(rounds=-1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_depth=0)

    def test_max_depth_respected(self):
        def depth(node):
            if "weight" in node:
                return 0
            return 1 + max(depth(node["left"]), depth(node["right"]))

        model = train(quadrant_dataset(per_class=40, spread=0.95),
                      TrainConfig(rounds=3, max_depth=2))
        assert max(depth(t) for round_trees in model.trees for t in round_trees) <= 2


class TestSplitSearch:
    """The tie rule of ``_build_tree``'s gain table."""

    NO_PENALTY = TrainConfig(rounds=1, max_depth=1, l2_lambda=0.0, min_child_weight=0.0)

    @staticmethod
    def roots(model):
        return [(t["feature_index"], t["threshold"]) for t in model.trees[0] if "left" in t]

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
            assert tree["threshold"] == 1.0
            assert math.copysign(1.0, tree["left"]["weight"]) == -1.0
            assert tree["left"]["weight"] == 0.0

    def test_node_of_exactly_twice_min_child_weight_splits(self):
        # The root weighs 4 * 0.1875 = 0.75 = 2 * min_child_weight, so the
        # 2 | 2 split, whose sides weigh exactly min_child_weight each, is
        # valid: the trainer must search this node, not skip it as light.
        a, b = CLASS_NAMES[:2]
        dataset = [(fv(x), label) for x, label in [(0.0, a), (1.0, a), (2.0, b), (3.0, b)]]
        model = train(dataset, TrainConfig(rounds=1, max_depth=1, min_child_weight=0.375))
        assert self.roots(model) == [(0, 1.5), (0, 1.5)]


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

# sha256 of ``save_model`` bytes per (dataset, PINNED_CONFIGS index),
# written by the per-feature split search that the gain table replaced.
PINNED_MODEL_DIGESTS = {
    ("synth_seed7_16s", 0): "6d12b648485618eda4ce8cc65a9f0e43698eef3f9bfe578963c441b1b7698856",
    ("synth_seed7_16s", 1): "6e97cad2b5ec56164b423103bc67a0891d88d157229003025adcb7c9cda4bf32",
    ("synth_seed7_16s", 2): "0eb5ac0719558b3956c43fab9cf112771a23eada25fd1aabcb2916ea04eace50",
    ("synth_seed7_16s", 3): "b0a992bc032c7f0fed426b0ee43d8efc3150ab3a60e3c788825c2d7da56b16b3",
    ("synth_seed7_16s", 4): "7a70c1c4e95dca403b3ae52ffb2ecf17abb778d6dd6bfaefd2aac6e4460f2d7d",
    ("synth_seed7_16s", 5): "c823de41f711cb28af47d0fbcaaeac29e038c5473f6eb23a78a3fcdcac18cfc0",
    ("synth_seed1_4s", 0): "4c5dd119f3a27ee7abecf3a48645f2a58b0adcfe9fe20cf2f629647e16a0317e",
    ("synth_seed1_4s", 1): "3058a1a73553a254ba033156775bd2a1595729b8258fe42e208b3abb9f53ad0d",
    ("synth_seed1_4s", 2): "0238e01476434cfa110a1a193ea74c17e1ea01fce2494c0542990c1a58d810c0",
    ("synth_seed1_4s", 5): "6ca8598cf81d38fdc0dbf7c55a5d3e4c49111d0b8a1805fd2dedd7d685826372",
    ("synth_seed3_32s", 0): "2071ab982a64736152fbd03afc2ceb99ee4c6d418e34ce049732e158cfe992f3",
    ("synth_seed3_32s", 1): "b48dad44418a50bb20358ba38ea07f3865393cb15eee682c14e092456fcf1704",
    ("synth_seed3_32s", 2): "348b4e1ef3458710b959a22eeb28110ce8c6468458928da5cc15eef328efd8e8",
    ("synth_seed3_32s", 3): "f6e14825b6fc88fe496e34e6748abb9428b23e20e827f1c01730e45ba9bbd201",
    ("synth_seed3_32s", 4): "03d7965697163ac09f2600a87250fb1ce72669eb9b31e40ef0f7fa4c805fee4a",
    ("synth_seed3_32s", 5): "6d83aa4538bd1ca4fe3f626fd5553a0302373c67af947aac747c972657b8383f",
    ("quantised", 0): "0e969559b32a62706cd48a2d460e827f0383f27196a4f352f77b8f1e9c3b7809",
    ("quantised", 1): "b0341150e90ae0ee85e3d1c69612a150447aaf0a68f820f0bbbc5ca42b1922d9",
    ("quantised", 2): "8fd7ba24ae41c1c5fdcb7723afa764f96af3fd9d57973f1d16b3f0fb79a6ea30",
    ("quantised", 3): "9900c0b3d2746cad1baf9811085111d1c7827004fc9a782fc9aed1a88684f22f",
    ("quantised", 4): "cd7739a62f830010a5dc55232ce1ee8ac152c41435f2833134a3575e4030c122",
    ("quantised", 5): "6c808f8c8c2b1a04ec25dfea78ce9933631bbd089de5326c84215ed64bbebd51",
    ("separable", 0): "f324debe4bbd5e5b28890f081d37e1e0e0a7ba8d3393aa457d6d671774d828d4",
    ("separable", 1): "3f0b1cca1d2c8aa8c087a46388d22a8b6fb2013b7e20a3bc2c68e8cf048a96c6",
    ("separable", 2): "16459d4062e7cd2c4e6f71682bc28abf145123940ef2fa9c09a76bb9789b4d6c",
    ("separable", 3): "70904a1bc4c922b0f40b8ac61bd5469e10e5a72593a2288e40a0b20fdf09fbff",
    ("separable", 4): "5bd9d7101e291f5096d7676cc7ced3084933076b722479b979f6f539a368caa5",
    ("separable", 5): "136b34d48f80161546c28c9f0310234d62fa4a00fd95395ce91c91db4c697cc2",
}

# Without an l2 penalty the seed-1 set reaches an empty leaf, where
# training used to fail dividing 0 by 0; pinned with the same split
# search and the ``-0.0`` empty leaf.
PINNED_EMPTY_LEAF_DIGESTS = {
    ("synth_seed1_4s", 3): "6687ac2d81508d0097d1a64b3aef483d33438baf7518a8eb8850fde852aad656",
    ("synth_seed1_4s", 4): "30a657cb90344e8daf1c5dce73508a97c1e4bde9d630dad31503c67978a09383",
}


@pytest.fixture(scope="module")
def pinned_data(tmp_path_factory):
    return pinned_datasets(tmp_path_factory.mktemp("pinned"))


def model_digest(data, case):
    name, config_index = case
    X, y = data[name]
    model = train([(FeatureVector(x), CLASS_NAMES[c]) for x, c in zip(X, y)],
                  PINNED_CONFIGS[config_index])
    return hashlib.sha256(save_model(model)).hexdigest()


def case_id(case):
    return f"{case[0]}-config{case[1]}"


class TestPinnedModelBytes:
    @pytest.mark.parametrize("case", sorted(PINNED_MODEL_DIGESTS), ids=case_id)
    def test_model_bytes_match_the_pin(self, pinned_data, case):
        assert model_digest(pinned_data, case) == PINNED_MODEL_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(PINNED_EMPTY_LEAF_DIGESTS), ids=case_id)
    def test_model_with_an_empty_leaf_matches_the_pin(self, pinned_data, case):
        assert model_digest(pinned_data, case) == PINNED_EMPTY_LEAF_DIGESTS[case]


def per_node_sort_build_tree(X, order, g, h, config, leaf_values):
    """Oracle for ``gbt._build_tree``: the split search in which every node
    sorts its own samples. It ignores the presorted ``order``. Like the
    trainer, it scores ``-inf`` where a side's ``H + l2_lambda`` is not
    positive, instead of dividing by it."""
    lam = config.l2_lambda

    def build(idx, depth):
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        split = None
        if depth < config.max_depth and idx.size >= 2:
            split = best_split(idx, G, H)
        if split is None:
            weight = -G / (H + lam) if idx.size else -0.0
            leaf_values[idx] = weight
            return {"weight": float(weight)}
        feature, threshold = split
        goes_left = X[idx, feature] < threshold
        return {
            "feature_index": feature,
            "threshold": threshold,
            "left": build(idx[goes_left], depth + 1),
            "right": build(idx[~goes_left], depth + 1),
        }

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

    return build(np.arange(X.shape[0]), 0)


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


class TestPresortedSplitSearch:
    @given(tie_heavy_datasets(), train_configs)
    @settings(max_examples=150, deadline=None)
    def test_matches_a_per_node_sort_byte_for_byte(self, dataset, config):
        model = train(dataset, config)
        with mock.patch.object(gbt, "_build_tree", per_node_sort_build_tree):
            oracle = train(dataset, config)
        assert save_model(model) == save_model(oracle)
        assert model.training_loss == oracle.training_loss


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
        doc["trees"][0][0]["feature_index"] = 99
        with pytest.raises(ModelFormatError, match="feature_index"):
            load_model(json.dumps(doc).encode())

    def test_schema_id_must_be_the_hash_of_the_schema(self):
        # The current id over a longer feature list would let a split route
        # on a feature no vector has.
        doc = copy.deepcopy(VALID_DOC)
        doc["feature_schema"]["features"].append("extra")
        doc["trees"][0][0]["feature_index"] = 21
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

    def test_format_fields_present(self):
        doc = json.loads(save_model(hand_model([(0.0, 1.0)] * 4)))
        assert doc["format_version"] == 1
        assert doc["classes"] == list(CLASS_NAMES)
        assert doc["feature_schema"]["schema_id"]
        assert "default_left" not in doc["trees"][0][0]

    def test_file_with_default_left_loads_unchanged(self):
        # Files written before the unused "default_left" split field was
        # dropped carry it on every split, under the same format version.
        model = train(quadrant_dataset(seed=4), TrainConfig(rounds=6))
        data = save_model(model)
        doc = json.loads(data)

        def add_default_left(node):
            if "weight" not in node:
                node["default_left"] = True
                add_default_left(node["left"])
                add_default_left(node["right"])

        for round_trees in doc["trees"]:
            for tree in round_trees:
                add_default_left(tree)
        older = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        assert older.replace(b'"default_left":true,', b"") == data
        loaded = load_model(older)
        assert save_model(loaded) == data
        probe = FeatureVector(np.random.default_rng(3).uniform(-1, 4, NUM_FEATURES))
        np.testing.assert_array_equal(
            predict_margins(loaded, probe), predict_margins(model, probe)
        )

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
         "short_round", "huge_threshold", "bool_feature_index"],
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
    edits = {
        "features_not_list": lambda: doc["feature_schema"].update(features=5),
        "learning_rate_null": lambda: doc.update(learning_rate=None),
        "base_score_string": lambda: doc.update(base_score="x"),
        "base_score_nan": lambda: doc.update(base_score=float("nan")),
        "short_round": lambda: doc["trees"][0].pop(),
        "huge_threshold": lambda: tree.update(threshold=10**400),
        "bool_feature_index": lambda: tree.update(feature_index=True),
    }
    edits[case]()
    return json.dumps(doc).encode()


def json_values():
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.sampled_from([10**400, -1, 0, 1, 21, "x", "sham_wake"]), st.text(max_size=4),
    )
    keys = st.one_of(st.sampled_from(["weight", "feature_index", "threshold", "left",
                                      "right", "features", "schema_id"]),
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
