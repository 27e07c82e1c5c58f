import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qatrigger import combiner
from qatrigger.baselines import (
    EmbeddingTable,
    bm25_scores,
    ngram_scores,
    semantic_similarities,
    tokenize,
)
from qatrigger.combiner import (
    DEFAULT_MANIFEST,
    FEATURE_NAMES,
    FeatureResources,
    TrainConfig,
    extract_features,
    load_model,
    loss_and_gradient,
    reads_parses,
    save_model,
    sigmoid,
    train,
)
from qatrigger.cli import main, read_features
from qatrigger.corpus import QuestionGroup, Sentence, load_wikiqa
from qatrigger.coverage import graph_coverage_features, relation_coverages, vocabulary_coverages
from qatrigger.errors import ConfigError
from qatrigger.ged import GedConfig, graph_edit_distances
from qatrigger.graphsim import DfTable, build_df, graph_similarities

from conftest import make_sentence, random_tree_sentence
from oracles import direct_semantic_similarity, gradient_descent, prob


def make_group(question_id, question, candidates):
    """A parsed QuestionGroup from a question Sentence and (candidate id,
    Sentence, label) triples; each text is its parse's lemmas joined by
    spaces."""
    parses = (question, *(sentence for _, sentence, _ in candidates))
    return QuestionGroup(
        question_id,
        " ".join(question.lemmas),
        tuple((cid, " ".join(sentence.lemmas), label) for cid, sentence, label in candidates),
        parses,
    )


def one_candidate(question, answer, qid="q1", cid="a1"):
    return make_group(qid, question, ((cid, answer, 1),))


@pytest.fixture
def fig_group(question_sentence, answer_sentence):
    return one_candidate(question_sentence, answer_sentence)


def uniform_tables():
    return {level: DfTable(level, n_docs=1, df={}) for level in ("word", "pair", "triplet")}


def per_module_features(group, row, resources):
    """All twelve features of the group's candidate `row`, each from its own
    module's per-group function on that answer alone, by name; bm25, whose
    pool is the group, from the answer's place in the group."""
    question, answer = group.parses[0], group.parses[1 + row]
    cid, text, _ = group.candidates[row]
    q_tokens, a_tokens = tokenize(group.question), tokenize(text)
    group_tokens = [tokenize(t) for _, t, _ in group.candidates]
    sims = graph_similarities(question, [answer], resources.df_tables, resources.alphas)[0]
    cov = graph_coverage_features(question, [answer], resources.subgraph_m)[0]
    values = [
        resources.scores[(group.question_id, cid)],
        graph_edit_distances(question, [answer], resources.ged_config)[0],
        *sims,
        relation_coverages([(question, [answer])])[0],
        *cov,
        vocabulary_coverages([(question, [answer])])[0],
        bm25_scores([(q_tokens, group_tokens)], resources.k1, resources.b)[row],
        ngram_scores([(q_tokens, [a_tokens])], resources.n_max)[0],
        semantic_similarities([(q_tokens, [a_tokens])], resources.embeddings)[0],
    ]
    return dict(zip(FEATURE_NAMES, values))


class TestExtractFeatures:
    def test_feature_names_and_default_manifest(self):
        assert FEATURE_NAMES == (
            "ext_score", "ged", "sim_word", "sim_pair", "sim_triplet", "rel_cov",
            "graph_cov_ans", "graph_cov_ques", "vocab_cov", "bm25", "ngram", "semvec",
        )
        assert DEFAULT_MANIFEST == FEATURE_NAMES[1:9]
        assert DEFAULT_MANIFEST == tuple(
            name for family in combiner._FAMILIES if family.parses for name in family.columns
        )

    def test_parses_are_read_exactly_when_a_graph_feature_is_selected(self):
        for name in FEATURE_NAMES:
            assert reads_parses((name,)) == (name in DEFAULT_MANIFEST)
            assert reads_parses(("bm25", name)) == (name in DEFAULT_MANIFEST)
        assert not reads_parses(())

    def test_group_with_no_candidates_gives_no_rows(self, question_sentence):
        # Every feature alone, the default manifest and all twelve together.
        empty = make_group("q1", question_sentence, ())
        resources = FeatureResources(
            df_tables=uniform_tables(),
            embeddings=EmbeddingTable(matrix=np.array([[1.0, 0.0]]), rows={"die": 0}),
            scores={},
        )
        for manifest in [(name,) for name in FEATURE_NAMES] + [DEFAULT_MANIFEST, FEATURE_NAMES]:
            assert extract_features([empty], resources, manifest) == [], manifest

    def test_identity_pair_identity_features(self, question_sentence):
        group = one_candidate(question_sentence, question_sentence, "q", "c")
        rows = extract_features([group], FeatureResources(), ["ged", "rel_cov"])
        assert rows == [[0.0, 1.0]]

    def test_ext_score_pass_through(self, fig_group):
        resources = FeatureResources(scores={("q1", "a1"): 0.73})
        assert extract_features([fig_group], resources, ["ext_score"]) == [[0.73]]

    def test_missing_ext_score_is_an_error(self, fig_group):
        resources = FeatureResources(scores={("q1", "other"): 0.5})
        with pytest.raises(ConfigError, match="ext_score missing for pair q1/a1"):
            extract_features([fig_group], resources, ["ext_score"])

    def test_no_score_file_is_an_error(self, fig_group):
        with pytest.raises(ConfigError, match="score"):
            extract_features([fig_group], FeatureResources(), ["ext_score"])

    def test_empty_manifest_is_an_error(self, fig_group):
        with pytest.raises(ConfigError, match="no features"):
            extract_features([fig_group], FeatureResources(), [])

    def test_unknown_feature_is_an_error(self, fig_group):
        with pytest.raises(ConfigError, match="unknown"):
            extract_features([fig_group], FeatureResources(), ["ged", "mystery"])

    def test_feature_named_twice_is_an_error(self, fig_group):
        with pytest.raises(ConfigError, match="^features named twice in manifest: ged, bm25$"):
            extract_features([fig_group], FeatureResources(), ["ged", "bm25", "ged", "bm25"])

    def test_full_default_manifest_matches_per_module_values(self, fig_group):
        resources = FeatureResources(df_tables=uniform_tables(), alphas=(0.0, 0.0, 0.0))
        [values] = extract_features([fig_group], resources, DEFAULT_MANIFEST)
        assert len(values) == 8

        gq, ga = fig_group.parses
        sims = graph_similarities(gq, [ga], uniform_tables(), (0.0, 0.0, 0.0))[0]
        cov = graph_coverage_features(gq, [ga], resources.subgraph_m)[0]
        expected = [
            graph_edit_distances(gq, [ga], GedConfig())[0],
            sims[0],
            sims[1],
            sims[2],
            relation_coverages([(gq, [ga])])[0],
            cov[0],
            cov[1],
            vocabulary_coverages([(gq, [ga])])[0],
        ]
        assert values == pytest.approx(expected)

    def test_three_candidates_match_per_module_values(
        self, question_sentence, answer_sentence
    ):
        other = make_sentence(
            [
                ("carradine", "carradine", "PROPN", 2, "nsubj"),
                ("acted", "act", "VERB", 0, "root"),
                ("in", "in", "ADP", 4, "case"),
                ("kung-fu", "kung-fu", "NOUN", 2, "obl"),
            ],
        )
        answers = [("a1", answer_sentence), ("a2", question_sentence), ("a3", other)]
        group = make_group(
            "q1", question_sentence, tuple((cid, s, i % 2) for i, (cid, s) in enumerate(answers))
        )
        resources = FeatureResources(
            df_tables={
                "word": DfTable("word", n_docs=4, df={"die": 2, "carradine": 3}),
                "pair": DfTable("pair", n_docs=4, df={"die|carradine": 1}),
                "triplet": DfTable("triplet", n_docs=4, df={}),
            },
            embeddings=EmbeddingTable(
                matrix=np.array([[1.0, 0.0], [0.5, 0.5]]), rows={"die": 0, "carradine": 1}
            ),
            scores={("q1", cid): 0.25 * i for i, (cid, _) in enumerate(answers)},
            alphas=(0.0, 0.5, 1.0),
            subgraph_m=2,
        )
        manifest = FEATURE_NAMES[::-1]
        rows = extract_features([group], resources, manifest)
        assert len(rows) == 3
        for i, row in enumerate(rows):
            expected = per_module_features(group, i, resources)
            assert row == [expected[name] for name in manifest]
        # One column of a family, alone.
        assert extract_features([group], resources, ["graph_cov_ques"]) == [
            [row[manifest.index("graph_cov_ques")]] for row in rows
        ]

    def test_batch_names_the_first_faulty_pair_in_file_order(self, fig_group):
        # Group by group, a group's missing parses are named before its
        # missing score, and an earlier group's fault before a later one's.
        ok = fig_group
        no_score = replace(fig_group, question_id="q2")
        no_parses = replace(fig_group, question_id="q3", parses=None)
        neither = replace(no_parses, question_id="q4")
        scores = {("q1", "a1"): 0.5, ("q3", "a1"): 0.5}
        resources = FeatureResources(scores=scores)
        manifest = ["ext_score", "ged"]
        orders = [[ok, no_score, no_parses], [ok, no_parses, no_score], [neither, no_score],
                  [no_score, neither], [ok, replace(ok, question_id="q5")]]
        for groups in orders:
            expected = None
            for group in groups:
                try:
                    extract_features([group], resources, manifest)
                except ConfigError as exc:
                    expected = str(exc)
                    break
            if expected is None:
                assert len(extract_features(groups, resources, manifest)) == len(groups)
                continue
            with pytest.raises(ConfigError) as caught:
                extract_features(groups, resources, manifest)
            assert str(caught.value) == expected
        with pytest.raises(ConfigError, match="pair q4/a1 has none"):
            extract_features([neither, no_score], resources, manifest)

    def test_graph_features_need_parses(self):
        bare = QuestionGroup("q", "text without a parse", (("c", "y", 1), ("d", "z", 0)))
        with pytest.raises(
            ConfigError, match=r"^graph features require dependency parses \(pair q/c has none\)$"
        ):
            extract_features([bare], FeatureResources(), ["ged"])
        empty = QuestionGroup("q", "text", ())
        assert extract_features([empty], FeatureResources(), ["ged"]) == []

    def test_lexical_features_without_parses(self, fig_group):
        resources = FeatureResources(
            embeddings=EmbeddingTable(matrix=np.array([[1.0, 0.0]]), rows={"die": 0}),
        )
        lexical = ["bm25", "ngram", "semvec"]
        [values] = extract_features([fig_group], resources, lexical)
        assert len(values) == 3
        assert values[1] > 0  # shared words give n-gram mass
        assert extract_features([replace(fig_group, parses=None)], resources, lexical) == [values]

    def test_semvec_requires_embeddings(self, fig_group):
        with pytest.raises(ConfigError, match="embedding"):
            extract_features([fig_group], FeatureResources(), ["semvec"])

    def test_sims_require_df_tables(self, fig_group):
        with pytest.raises(ConfigError, match="DF"):
            extract_features([fig_group], FeatureResources(), ["sim_word"])

    @pytest.mark.parametrize("manifest", [
        DEFAULT_MANIFEST, FEATURE_NAMES, ("bm25", "ngram", "semvec", "ext_score"),
    ])
    def test_each_sentence_built_and_tokenized_once(
        self, manifest, mini_dir, tmp_path, monkeypatch
    ):
        # A Sentence is a parse: each is built once, and only when a graph
        # feature reads it.  Each text is tokenized once, and only when a
        # lexical feature reads it.
        built = 0
        post_init = Sentence.__post_init__

        def counting_post_init(sentence):
            nonlocal built
            built += 1
            post_init(sentence)

        tokenized = Counter()

        def counting_tokenize(text):
            tokenized[text] += 1
            return tokenize(text)

        monkeypatch.setattr(Sentence, "__post_init__", counting_post_init)
        monkeypatch.setattr(combiner, "tokenize", counting_tokenize)
        assert main([
            "--config", str(mini_dir / "config.ini"),
            "--set", f"features.manifest={','.join(manifest)}",
            "featurize", "--split", "train", "--out", str(tmp_path / "f.tsv"),
        ]) == 0
        assert built == (56 if reads_parses(manifest) else 0)

        groups = load_wikiqa(mini_dir / "train.tsv")
        texts = [g.question for g in groups] + [t for g in groups for _, t, _ in g.candidates]
        assert len(texts) == 56
        lexical = "bm25" in manifest
        assert tokenized == (Counter(texts) if lexical else Counter())


# Lexical questions for the per-group checks, each an edge case.
EDGE_QUESTIONS = [
    [],  # "?!" tokenizes to nothing
    ["die", "die", "carradine", "die"],  # repeated tokens
    ["die", "carradine"],  # shorter than n_max
    ["zzz", "qqq"],  # all out of vocabulary
    ["zero"],  # a zero vector: norm 0
    ["SUN", "moon", "zzz"],  # SUN has no row: lookup is exact
]
WORDS = ["die", "carradine", "sun", "moon", "zero", "SUN", "zzz", "qqq", "of", "in"]


class TestCandidateIndependence:
    """A candidate's value does not depend on its groupmates or on its
    batch-mates: every per-group function gives, bit for bit, on a whole
    group what it gives on each candidate alone in a one-candidate group,
    and extract_features, semantic_similarities, relation_coverages and
    vocabulary_coverages give on a batch of groups what they give on each
    group alone."""

    @staticmethod
    def vectors(rng):
        vectors = {w: rng.normal(size=3) for w in ("die", "carradine", "sun", "moon", "of", "in")}
        vectors["zero"] = np.zeros(3)
        return vectors

    @staticmethod
    def table(vectors):
        words = list(vectors)
        rows = {w: i for i, w in enumerate(words)}
        return EmbeddingTable(np.array([vectors[w] for w in words]), rows)

    @staticmethod
    def random_tokens(rng, longest=7):
        return [WORDS[int(i)] for i in rng.integers(0, len(WORDS), int(rng.integers(0, longest)))]

    @staticmethod
    def assert_alone_equals_together(score, question, answers):
        """score(question, answers) returns one value or row per answer."""
        together = score(question, answers)
        alone = [score(question, [answer])[0] for answer in answers]
        assert len(together) == len(answers)
        # repr tells every float apart, 0.0 from -0.0 included.
        assert repr(together) == repr(alone)

    def test_lexical_families(self):
        rng = np.random.default_rng(2024)
        vectors = self.vectors(rng)
        table = self.table(vectors)
        questions = EDGE_QUESTIONS + [self.random_tokens(rng) for _ in range(30)]
        batch = []
        for question in questions:
            answers = EDGE_QUESTIONS + [self.random_tokens(rng) for _ in range(5)]
            # bm25 is left out: its pool is the group, so its value depends
            # on the candidate's groupmates by definition.
            scorers = [
                *(lambda q, a, n=n: ngram_scores([(q, a)], n) for n in (1, 3, 5)),
                lambda q, a: semantic_similarities([(q, a)], table),
            ]
            for score in scorers:
                self.assert_alone_equals_together(score, question, answers)
            assert semantic_similarities([(question, answers)], table) == [
                direct_semantic_similarity(question, a, vectors) for a in answers
            ]
            batch.append((question, answers))
        alone = [semantic_similarities([group], table) for group in batch]
        assert repr(semantic_similarities(batch, table)) == repr(sum(alone, []))
        for question in (["zzz", "qqq"], ["zero"]):
            assert semantic_similarities([(question, [["die"], ["zero"]])], table) == [0.0, 0.0]
        assert semantic_similarities([(["SUN"], [["sun"], ["moon"]])], table) == [0.0, 0.0]
        assert semantic_similarities([(["sun"], [["moon"]])], table) != [0.0]

    def test_graph_families(self):
        rng = np.random.default_rng(2025)
        lemmas = ["die", "live", "win", "city", "Die", "man"]
        config = GedConfig(edge_weight=0.75, delete_cost=0.5)
        empty = Sentence((), (), (), ())
        batch = []
        for k in range(25):
            gq = empty if k == 0 else random_tree_sentence(rng, lemma_pool=lemmas, relabel=True)
            answers = [random_tree_sentence(rng, lemma_pool=lemmas) for _ in range(6)]
            answers.append(make_sentence([("die", "die", "VERB", 0, "root")]))
            answers.append(empty)
            tables = build_df([s for s in (gq, *answers) if s.heads])
            scorers = [
                lambda q, a: graph_edit_distances(q, a, config),
                lambda q, a: graph_similarities(q, a, tables, (0.0, 0.5, 1.0)),
                lambda q, a: relation_coverages([(q, a)]),
                lambda q, a: vocabulary_coverages([(q, a)]),
                *(lambda q, a, m=m: graph_coverage_features(q, a, m) for m in (0, 1, 3)),
            ]
            for score in scorers:
                self.assert_alone_equals_together(score, gq, answers)
            batch.append((gq, answers))
        # Each group's ids are its own: an answer lemma or signature that only
        # another group's question holds matches nothing.
        for score in (relation_coverages, vocabulary_coverages):
            alone = [score([group]) for group in batch]
            assert repr(score(batch)) == repr(sum(alone, []))

    def test_every_feature_of_a_batch_of_seeded_groups(self):
        # bm25's pool is its own group, so it too is free of batch-mates.
        rng = np.random.default_rng(2027)
        lemmas = ["die", "live", "win", "city", "man", "sun", "of"]
        no_tokens = make_sentence([("?!", "?!", "PUNCT", 0, "root")])
        groups = [make_group("q0", no_tokens, ())]
        for g in range(1, 15):
            question = no_tokens if g == 1 else random_tree_sentence(rng, lemma_pool=lemmas)
            answers = tuple(
                (f"c{i}", random_tree_sentence(rng, lemma_pool=lemmas, relabel=True), 0)
                for i in range(int(rng.integers(1, 8)))
            )
            groups.append(make_group(f"q{g}", question, answers))
        sentences = [s for group in groups for s in group.parses]
        resources = FeatureResources(
            df_tables=build_df(sentences),
            embeddings=self.table(self.vectors(rng)),
            scores={(g.question_id, cid): float(rng.random())
                    for g in groups for cid, _, _ in g.candidates},
            alphas=(0.0, 0.5, 1.0),
        )
        alone = [row for group in groups
                 for row in extract_features([group], resources, FEATURE_NAMES)]
        assert len(alone) == sum(len(g.candidates) for g in groups)
        assert repr(extract_features(groups, resources, FEATURE_NAMES)) == repr(alone)
        for manifest in (DEFAULT_MANIFEST, ("semvec", "bm25")):
            columns = [FEATURE_NAMES.index(name) for name in manifest]
            assert repr(extract_features(groups, resources, manifest)) == repr(
                [[row[i] for i in columns] for row in alone]
            )

    def test_every_feature_of_seeded_groups(self):
        rng = np.random.default_rng(2026)
        lemmas = ["die", "live", "win", "city", "man", "sun", "of"]
        no_tokens = make_sentence([("?!", "?!", "PUNCT", 0, "root")])  # tokenizes to []
        table = self.table(self.vectors(rng))
        for g in range(12):
            question = no_tokens if g == 0 else random_tree_sentence(rng, lemma_pool=lemmas)
            answers = [
                (f"c{i}", random_tree_sentence(rng, lemma_pool=lemmas, relabel=True))
                for i in range(int(rng.integers(1, 8)))
            ]
            qid = f"q{g}"
            group = make_group(qid, question, tuple((cid, a, 0) for cid, a in answers))
            resources = FeatureResources(
                df_tables=build_df([question] + [a for _, a in answers]),
                embeddings=table,
                scores={(qid, cid): float(rng.random()) for cid, _ in answers},
                alphas=(0.0, 0.5, 1.0),
            )
            rows = extract_features([group], resources, FEATURE_NAMES)
            assert rows == [
                list(per_module_features(group, i, resources).values())
                for i in range(len(answers))
            ]


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
        model = train(x, y, ("f1", "f2"), TrainConfig(l2=1e-4))
        predictions = [1 if prob(model, row) > 0.5 else 0 for row in x]
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
            assert prob(model, row) == pytest.approx(
                prob(model_scaled, row_scaled), abs=1e-9
            )

    def test_constant_feature_is_ignored(self):
        x = [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]]
        y = [0, 0, 1, 1]
        model = train(x, y, ("f1", "const"))
        assert model.stds[1] == 0.0
        assert prob(model, [2.5, 999.0]) == prob(model, [2.5, -999.0])


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
        model = train(x, y, ("f1", "f2"), TrainConfig(threshold=0.3))
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
            prob(model, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            model.scores(np.zeros((4, 3)))


class TestScores:
    def test_matrix_scores_equal_per_row_prob_bitwise(self):
        rng = np.random.default_rng(71)
        for k in (*range(1, 9), 12, 50, 100, 300):
            x = rng.normal(0.0, 3.0, size=(200, k))
            x[:, k // 2] = 1.25  # a constant column gets std 0
            y = [int(v > 0) for v in x[:, 0]]
            y[:2] = [0, 1]
            model = train(x, y, tuple(f"f{i}" for i in range(k)))
            assert model.stds[k // 2] == 0.0
            probe = rng.normal(0.0, 3.0, size=(300, k))
            assert model.scores(probe) == [prob(model, row) for row in probe]

    def test_matrix_standardization_equals_per_row(self):
        x, y = separable_dataset()
        model = train(x, y, ("f1", "f2"))
        matrix = model.standardize(np.asarray(x))
        assert matrix.tobytes() == np.asarray([model.standardize(row) for row in x]).tobytes()


def test_train_on_mini_features_matches_golden_model(mini_dir, tmp_path):
    names, keys, matrix = read_features(mini_dir / "golden_features_train.tsv")
    model = train(matrix, [label for _, _, label in keys], names)
    save_model(model, tmp_path / "model.txt")
    golden = mini_dir / "golden_model_train.txt"
    assert (tmp_path / "model.txt").read_bytes() == golden.read_bytes()


def _gradient_norm(weights, bias, z, y, l2):
    _, grad_w, grad_b = loss_and_gradient(weights, bias, z, y, l2)
    return float(np.linalg.norm(np.append(grad_w, grad_b)))


@pytest.mark.parametrize(
    "name", ["golden_features_train.tsv", "golden_features_lexical_train.tsv"]
)
def test_train_reaches_the_optimum_of_mini_features(name, mini_dir):
    names, keys, x = read_features(mini_dir / name)
    y = np.array([label for _, _, label in keys], dtype=float)
    hyper = TrainConfig()
    model = train(x, y, names, hyper)
    z = model.standardize(x)
    assert _gradient_norm(model.weights, model.bias, z, y, hyper.l2) < 1e-8
    # No loss below the optimum's: 20,000 plain gradient steps do not reach it.
    loss, _, _ = loss_and_gradient(model.weights, model.bias, z, y, hyper.l2)
    gd_loss, _, _ = loss_and_gradient(*gradient_descent(z, y, hyper.l2), z, y, hyper.l2)
    assert loss <= gd_loss


def test_train_without_l2_takes_equal_columns(mini_dir):
    # sim_pair and sim_triplet are equal columns here, so with l2 = 0 the
    # Hessian is singular; the least-squares step still reaches a minimum.
    names, keys, x = read_features(mini_dir / "golden_features_train.tsv")
    assert np.array_equal(x[:, names.index("sim_pair")], x[:, names.index("sim_triplet")])
    y = np.array([label for _, _, label in keys], dtype=float)
    model = train(x, y, names, TrainConfig(l2=0.0))
    assert np.isfinite(model.weights).all() and math.isfinite(model.bias)
    assert _gradient_norm(model.weights, model.bias, model.standardize(x), y, 0.0) < 1e-8


def test_golden_model_is_the_optimum_of_golden_features(mini_dir):
    # Pinned by optimality as well as by bytes: with standardization rebuilt
    # by numpy, the committed weights and bias have a vanishing gradient.
    names, keys, x = read_features(mini_dir / "golden_features_train.tsv")
    y = np.array([label for _, _, label in keys], dtype=float)
    golden = load_model(mini_dir / "golden_model_train.txt")
    assert golden.feature_names == names
    means, stds = np.mean(x, axis=0), np.std(x, axis=0)
    assert (golden.means.tolist(), golden.stds.tolist()) == (means.tolist(), stds.tolist())
    assert (stds > 0).all()
    z = (x - means) / stds
    assert _gradient_norm(golden.weights, golden.bias, z, y, TrainConfig().l2) < 1e-8
