import math

import numpy as np
import pytest

from qatrigger.baselines import AnswerPool, EmbeddingTable, tokenize
from qatrigger.combiner import (
    DEFAULT_MANIFEST,
    FeatureResources,
    TrainConfig,
    extract_features,
    load_model,
    loss_and_gradient,
    save_model,
    sigmoid,
    train,
)
from qatrigger.cli import read_features
from qatrigger.corpus import QAPair
from qatrigger.errors import ConfigError
from qatrigger.graphsim import DfTable

from conftest import make_sentence


@pytest.fixture
def fig_pair(question_sentence, answer_sentence):
    return QAPair("q1", "a1", question_sentence, answer_sentence, 1)


def uniform_tables():
    return {level: DfTable(level, n_docs=1, df={}) for level in ("word", "pair", "triplet")}


class TestExtractFeatures:
    def test_identity_pair_identity_features(self, question_sentence):
        pair = QAPair("q", "c", question_sentence, question_sentence, 1)
        values = extract_features(pair, FeatureResources(), ["ged", "rel_cov"])
        assert values == [0.0, 1.0]

    def test_ext_score_pass_through(self, fig_pair):
        resources = FeatureResources(scores={("q1", "a1"): 0.73})
        assert extract_features(fig_pair, resources, ["ext_score"]) == [0.73]

    def test_missing_ext_score_is_an_error(self, fig_pair):
        resources = FeatureResources(scores={("q1", "other"): 0.5})
        with pytest.raises(ConfigError, match="ext_score"):
            extract_features(fig_pair, resources, ["ext_score"])

    def test_no_score_file_is_an_error(self, fig_pair):
        with pytest.raises(ConfigError, match="score"):
            extract_features(fig_pair, FeatureResources(), ["ext_score"])

    def test_empty_manifest_is_an_error(self, fig_pair):
        with pytest.raises(ConfigError, match="no features"):
            extract_features(fig_pair, FeatureResources(), [])

    def test_unknown_feature_is_an_error(self, fig_pair):
        with pytest.raises(ConfigError, match="unknown"):
            extract_features(fig_pair, FeatureResources(), ["ged", "mystery"])

    def test_full_default_manifest_matches_per_module_values(self, fig_pair):
        from qatrigger.coverage import (
            graph_coverage_features,
            relation_coverage,
            vocabulary_coverage,
        )
        from qatrigger.depgraph import build_graph
        from qatrigger.ged import graph_edit_distance
        from qatrigger.graphsim import graph_similarity_features

        resources = FeatureResources(df_tables=uniform_tables(), alphas=(0.0, 0.0, 0.0))
        values = extract_features(fig_pair, resources, DEFAULT_MANIFEST)
        assert len(values) == 8

        gq = build_graph(fig_pair.question)
        ga = build_graph(fig_pair.answer)
        sims = graph_similarity_features(gq, ga, uniform_tables(), (0.0, 0.0, 0.0))
        cov = graph_coverage_features(gq, ga, resources.subgraph_m)
        expected = [
            graph_edit_distance(gq, ga),
            sims[0],
            sims[1],
            sims[2],
            relation_coverage(gq, ga),
            cov[0],
            cov[1],
            vocabulary_coverage(gq, ga),
        ]
        assert values == pytest.approx(expected)

    def test_graph_features_need_parses(self):
        from qatrigger.corpus import Sentence

        bare = QAPair(
            "q", "c",
            Sentence("q", "text without a parse"),
            make_sentence("a", [("y", "y", "NOUN", 0, "root")]),
            0,
        )
        with pytest.raises(ConfigError, match="parses"):
            extract_features(bare, FeatureResources(), ["ged"])

    def test_lexical_features_without_parses(self, fig_pair):
        resources = FeatureResources(
            embeddings=EmbeddingTable(dim=2, vectors={"die": np.array([1.0, 0.0])}),
            pools={"q1": AnswerPool.build([tokenize(fig_pair.answer.text)])},
        )
        values = extract_features(fig_pair, resources, ["bm25", "ngram", "semvec"])
        assert len(values) == 3
        assert values[1] > 0  # shared words give n-gram mass

    def test_bm25_requires_pool(self, fig_pair):
        with pytest.raises(ConfigError, match="pool"):
            extract_features(fig_pair, FeatureResources(), ["bm25"])

    def test_semvec_requires_embeddings(self, fig_pair):
        with pytest.raises(ConfigError, match="embedding"):
            extract_features(fig_pair, FeatureResources(), ["semvec"])

    def test_sims_require_df_tables(self, fig_pair):
        with pytest.raises(ConfigError, match="DF"):
            extract_features(fig_pair, FeatureResources(), ["sim_word"])


class TestSigmoid:
    def test_zero_gives_half(self):
        assert sigmoid(0.0) == 0.5

    def test_ln3_gives_three_quarters(self):
        assert sigmoid(math.log(3)) == pytest.approx(0.75, abs=1e-12)

    def test_saturation_without_overflow(self):
        assert sigmoid(30.0) > 0.999999
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0


def separable_dataset(n=20, seed=0):
    rng = np.random.default_rng(seed)
    x, y = [], []
    for i in range(n):
        label = i % 2
        base = 2.0 if label else -2.0
        x.append([base + rng.normal(0, 0.2), base + rng.normal(0, 0.2)])
        y.append(label)
    return x, y


class TestTrain:
    def test_separable_set_reaches_full_accuracy(self):
        x, y = separable_dataset()
        model = train(x, y, ("f1", "f2"), TrainConfig(lr=0.1, epochs=200, l2=1e-4))
        predictions = [1 if model.prob(row) > 0.5 else 0 for row in x]
        assert predictions == y

    def test_duplicated_dataset_trains_identically(self):
        x, y = separable_dataset()
        model_once = train(x, y, ("f1", "f2"))
        model_twice = train(x + x, y + y, ("f1", "f2"))
        np.testing.assert_allclose(model_once.weights, model_twice.weights, atol=1e-12)
        assert model_once.bias == pytest.approx(model_twice.bias, abs=1e-12)

    def test_label_flip_negates_weights(self):
        x, y = separable_dataset()
        model = train(x, y, ("f1", "f2"))
        flipped = train(x, [1 - label for label in y], ("f1", "f2"))
        np.testing.assert_allclose(flipped.weights, -model.weights, atol=1e-6)
        assert flipped.bias == pytest.approx(-model.bias, abs=1e-6)

    def test_single_class_is_an_error(self):
        with pytest.raises(ValueError, match="both classes"):
            train([[1.0], [2.0]], [1, 1], ("f1",))

    def test_dimension_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            train([[1.0, 2.0]], [1], ("f1",))

    def test_loss_non_increasing_at_small_lr(self):
        x, y = separable_dataset()
        x_arr = np.asarray(x)
        y_arr = np.asarray(y, dtype=float)
        means, stds = x_arr.mean(0), x_arr.std(0)
        z = (x_arr - means) / stds
        weights = np.zeros(2)
        bias = 0.0
        losses = []
        for _ in range(100):
            loss, grad_w, grad_b = loss_and_gradient(weights, bias, z, y_arr, 1e-4)
            losses.append(loss)
            weights = weights - 0.01 * grad_w
            bias = bias - 0.01 * grad_b
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_prediction_invariant_to_affine_feature_rescaling(self):
        x, y = separable_dataset()
        scaled = [[7.5 * a - 3.0, b] for a, b in x]
        model = train(x, y, ("f1", "f2"))
        model_scaled = train(scaled, y, ("f1", "f2"))
        for row, row_scaled in zip(x, scaled):
            assert model.prob(row) == pytest.approx(
                model_scaled.prob(row_scaled), abs=1e-9
            )

    def test_constant_feature_is_ignored(self):
        x = [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]]
        y = [0, 0, 1, 1]
        model = train(x, y, ("f1", "const"))
        assert model.stds[1] == 0.0
        assert model.prob([2.5, 999.0]) == model.prob([2.5, -999.0])


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(43)
        z = rng.normal(size=(30, 4))
        y = (rng.random(30) > 0.5).astype(float)
        for _ in range(20):
            weights = rng.normal(size=4)
            bias = float(rng.normal())
            _, grad_w, grad_b = loss_and_gradient(weights, bias, z, y, 1e-3)
            h = 1e-6
            numeric = np.zeros(4)
            for k in range(4):
                bump = np.zeros(4)
                bump[k] = h
                up, _, _ = loss_and_gradient(weights + bump, bias, z, y, 1e-3)
                down, _, _ = loss_and_gradient(weights - bump, bias, z, y, 1e-3)
                numeric[k] = (up - down) / (2 * h)
            up, _, _ = loss_and_gradient(weights, bias + h, z, y, 1e-3)
            down, _, _ = loss_and_gradient(weights, bias - h, z, y, 1e-3)
            numeric_bias = (up - down) / (2 * h)
            scale = max(float(np.linalg.norm(grad_w)), 1e-12)
            assert float(np.linalg.norm(grad_w - numeric)) / scale < 1e-5
            assert abs(grad_b - numeric_bias) / max(abs(grad_b), 1e-12) < 1e-5


class TestModelIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        x, y = separable_dataset(seed=3)
        model = train(x, y, ("f1", "f2"), threshold=0.14)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.feature_names == model.feature_names
        assert loaded.threshold == model.threshold
        assert loaded.bias == model.bias
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.means, model.means)
        np.testing.assert_array_equal(loaded.stds, model.stds)
        save_model(loaded, tmp_path / "model2.txt")
        assert (tmp_path / "model.txt").read_bytes() == (tmp_path / "model2.txt").read_bytes()

    def test_prob_dimension_mismatch(self):
        x, y = separable_dataset()
        model = train(x, y, ("f1", "f2"))
        with pytest.raises(ValueError):
            model.prob([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            model.scores(np.zeros((4, 3)))


class TestScores:
    def test_matrix_scores_equal_per_row_prob_bitwise(self):
        rng = np.random.default_rng(71)
        for k in range(1, 9):
            x = rng.normal(0.0, 3.0, size=(200, k))
            x[:, k // 2] = 1.25  # a constant column gets std 0
            y = [int(v > 0) for v in x[:, 0]]
            y[:2] = [0, 1]
            model = train(x, y, tuple(f"f{i}" for i in range(k)))
            assert model.stds[k // 2] == 0.0
            probe = rng.normal(0.0, 3.0, size=(300, k))
            assert model.scores(probe) == [model.prob(row) for row in probe]

    def test_matrix_standardization_equals_per_row(self):
        x, y = separable_dataset()
        model = train(x, y, ("f1", "f2"))
        matrix = model.standardize(np.asarray(x))
        assert matrix.tobytes() == np.asarray([model.standardize(row) for row in x]).tobytes()


def test_train_on_mini_features_matches_golden_model(mini_dir, tmp_path):
    names, rows = read_features(mini_dir / "golden_features_train.tsv")
    model = train(np.asarray([r[3] for r in rows]), [r[2] for r in rows], names)
    save_model(model, tmp_path / "model.txt")
    golden = mini_dir / "golden_model_train.txt"
    assert (tmp_path / "model.txt").read_bytes() == golden.read_bytes()
