"""Acceptance suite: one test per release criterion, one PASS line each.

Every expected value is either computed by an independent oracle living in
oracles.py (permutation search, partial-injection edit distance, BFS, direct
formula transcriptions) or derived with exact rational arithmetic.
"""

import math
import os
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qatrigger.baselines import bm25_scores, ngram_scores
from qatrigger.cli import main
from qatrigger.combiner import loss_and_gradient, sigmoid
from qatrigger.corpus import attach_parses, load_wikiqa
from qatrigger.coverage import align_subgraph
from qatrigger.evaluation import QuestionIndex, triggering_report, tune_threshold
from qatrigger.ged import GedConfig, graph_edit_distances, load_pos_table, solve_assignment
from qatrigger.graphsim import cosine

from conftest import MINI_DIR, check_tree_paths_against_bfs, endpoints, random_tree_sentence
from oracles import (
    adjacency,
    bfs_distances,
    bfs_subgraph,
    brute_force_assignment,
    brute_force_ged,
    direct_bm25,
    direct_ngram_score,
    head_edges,
    prob,
)


def report(number: int, description: str) -> None:
    print(f"[acceptance] criterion {number}: PASS - {description}")


def test_criterion_1_assignment_matches_permutation_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(1, 8))
        matrix = rng.random((n, n))
        _, cost = solve_assignment(matrix)
        assert cost == brute_force_assignment(matrix.tolist())
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"500 assignment problems match exhaustive search exactly ({elapsed:.1f}s)")


def test_criterion_2_shortest_paths_match_bfs_oracle():
    rng = np.random.default_rng(103)
    checked = subgraphs = 0
    for _ in range(500):
        tree = random_tree_sentence(rng, max_nodes=12)
        checked += check_tree_paths_against_bfs(tree)
        neighbors = adjacency(tree)
        diameter = max(max(bfs_distances(neighbors, v).values()) for v in neighbors)
        every_lemma = set(tree.lemmas)
        for m in range(diameter + 2):
            nodes, edges = bfs_subgraph(tree, every_lemma, m)
            assert nodes == endpoints(edges)
            assert align_subgraph(every_lemma, tree, m) == edges
            subgraphs += 1
    report(
        2,
        f"find_path equals the BFS tree path within m on 500 random trees ({checked} paths); "
        f"align_subgraph with every node shared equals the BFS sub-graph ({subgraphs} cases)",
    )


def test_criterion_3_ged_identity_symmetry_range():
    rng = np.random.default_rng(107)
    config = GedConfig()
    for _ in range(200):
        gq = random_tree_sentence(rng, max_nodes=8)
        ga = random_tree_sentence(rng, max_nodes=8)
        assert graph_edit_distances(gq, [gq], config)[0] == 0.0
        assert graph_edit_distances(ga, [ga], config)[0] == 0.0
        forward = graph_edit_distances(gq, [ga], config)[0]
        backward = graph_edit_distances(ga, [gq], config)[0]
        assert abs(forward - backward) <= 1e-12
        assert 0.0 <= forward <= 1.0
    report(3, "edit distance: identity 0, symmetric within 1e-12, range [0,1], 200 pairs")


def test_criterion_4_subgraph_monotone_in_m():
    rng = np.random.default_rng(109)
    pool = ["die", "win", "sun", "man", "run"]
    for _ in range(200):
        gq = random_tree_sentence(rng, max_nodes=6, lemma_pool=pool)
        ga = random_tree_sentence(rng, max_nodes=8, lemma_pool=pool)
        at_zero = align_subgraph(set(gq.lemmas), ga, 0)
        assert not at_zero and not endpoints(at_zero)
        previous = at_zero
        for m in range(1, 5):
            current = align_subgraph(set(gq.lemmas), ga, m)
            assert endpoints(previous) <= endpoints(current)
            assert previous <= current
            previous = current
    report(4, "sub-graph alignment is node/edge monotone in m; m=0 empty; 200 pairs")


def test_criterion_5_metrics_match_rational_hand_values():
    groups = [
        ("q01", ("a", 0.9, 1), ("b", 0.5, 0)),
        ("q02", ("a", 0.8, 0), ("b", 0.7, 1)),
        ("q03", ("a", 0.9, 1), ("b", 0.6, 0), ("c", 0.1, 0)),
        ("q04", ("a", 0.7, 0), ("b", 0.6, 0), ("c", 0.55, 0), ("d", 0.5, 1)),
        ("q05", ("a", 0.9, 1), ("b", 0.8, 1)),
        ("q06", ("a", 0.3, 1)),
        ("q07", ("a", 0.9, 0), ("b", 0.2, 0)),
        ("q08", ("a", 0.1, 0)),
        ("q09", ("a", 0.8, 0), ("b", 0.7, 0), ("c", 0.6, 0), ("d", 0.5, 1)),
        ("q10", ("a", 0.9, 1), ("b", 0.4, 0)),
    ]
    index = QuestionIndex.build(
        [(qid, cid, label) for qid, *candidates in groups for cid, _, label in candidates]
    )
    scores = [score for _, *candidates in groups for _, score, _ in candidates]
    result = triggering_report(index, scores, threshold=0.45)

    per_group_ap = [
        Fraction(1), Fraction(1, 2), Fraction(1), Fraction(1, 4),
        Fraction(1), Fraction(1), Fraction(1, 4), Fraction(1),
    ]
    expected_map = sum(per_group_ap) / 8
    assert result.map_value == float(expected_map)
    assert result.mrr_value == float(expected_map)
    assert result.questions_triggered == 8
    assert result.triggers_correct == 4
    assert result.precision == float(Fraction(4, 8) * 100)
    assert result.recall == float(Fraction(4, 8) * 100)
    assert result.f1 == float(Fraction(1, 2) * 100)

    threshold, best = tune_threshold(index, scores)
    tops = {max(score for _, score, _ in candidates) for _, *candidates in groups}
    probes = [t - 1e-9 for t in tops] + [t + 1e-9 for t in tops]
    probes += [min(tops) - 1.0, max(tops) + 1.0]
    oracle_best = max(triggering_report(index, scores, p).f1 for p in probes)
    assert best == pytest.approx(oracle_best, abs=1e-9)
    assert triggering_report(index, scores, threshold).f1 == best
    report(5, "MAP/MRR/P/R/F match exact rational hand values; tuning matches sweep")


def test_criterion_6_formula_checks_against_hand_evaluations():
    # BM25 scoring and idf
    answers = [
        ["the", "cat", "sat", "down"],
        ["a", "dog", "sat", "on", "the", "mat"],
        ["birds", "fly"],
    ]
    question = ["the", "cat", "sat", "where", "sat"]
    assert bm25_scores(question, answers, 1.5, 0.75) == pytest.approx(
        [direct_bm25(question, answer, answers, 1.5, 0.75) for answer in answers], abs=1e-9
    )

    # n-gram coverage score
    cases = [
        (["a", "b", "c"], ["a", "b", "c"], 0.5),
        (["a", "b"], ["a", "b"], (1 + 1 + 0) / 6),
        (["a", "b", "a"], ["a", "b"], None),
    ]
    for q, a, expected in cases:
        value = ngram_scores(q, [a], 3)[0]
        assert value == pytest.approx(direct_ngram_score(q, a, 3), abs=1e-9)
        if expected is not None:
            assert value == pytest.approx(expected, abs=1e-9)

    # cosine
    assert cosine({"a": 1.0, "b": 1.0}, {"a": 1.0}) == pytest.approx(
        1 / math.sqrt(2), abs=1e-9
    )

    # two-class softmax collapses to the logistic function
    assert sigmoid(math.log(3)) == pytest.approx(0.75, abs=1e-9)
    assert sigmoid(0.0) == 0.5
    for x in (-4.0, -1.0, 0.5, 2.0):
        two_class = math.exp(x) / (math.exp(x) + math.exp(0.0))
        assert sigmoid(x) == pytest.approx(two_class, abs=1e-9)
    report(6, "BM25, n-gram, cosine, and sigmoid match hand evaluations within 1e-9")


def test_criterion_7_gradient_matches_finite_differences():
    rng = np.random.default_rng(113)
    z = rng.normal(size=(40, 5))
    y = (rng.random(40) > 0.5).astype(float)
    h = 1e-6
    for _ in range(20):
        weights = rng.normal(size=5)
        bias = float(rng.normal())
        _, grad_w, grad_b = loss_and_gradient(weights, bias, z, y, 1e-3)
        numeric = np.zeros(5)
        for k in range(5):
            bump = np.zeros(5)
            bump[k] = h
            up, _, _ = loss_and_gradient(weights + bump, bias, z, y, 1e-3)
            down, _, _ = loss_and_gradient(weights - bump, bias, z, y, 1e-3)
            numeric[k] = (up - down) / (2 * h)
        up, _, _ = loss_and_gradient(weights, bias + h, z, y, 1e-3)
        down, _, _ = loss_and_gradient(weights, bias - h, z, y, 1e-3)
        numeric_bias = (up - down) / (2 * h)
        assert np.linalg.norm(grad_w - numeric) / max(np.linalg.norm(grad_w), 1e-12) < 1e-5
        assert abs(grad_b - numeric_bias) / max(abs(grad_b), 1e-12) < 1e-5
    report(7, "analytic gradients match central differences at 20 random points")


def _run_pipeline(workdir: Path, config: str) -> dict[str, bytes]:
    paths = {name: workdir / f"{name}.tsv" for name in ("f_train", "f_dev", "f_test")}
    model = workdir / "model.txt"
    report_path = workdir / "report.txt"
    for split, target in zip(("train", "dev", "test"), paths.values()):
        assert main(["--config", config, "featurize", "--split", split, "--out", str(target)]) == 0
    assert main(["--config", config, "train", "--features", str(paths["f_train"]), "--model", str(model)]) == 0
    assert main([
        "--config", config, "tune", "--model", str(model),
        "--features", str(paths["f_dev"]), "--update-model",
    ]) == 0
    assert main([
        "--config", config, "evaluate", "--model", str(model),
        "--features", str(paths["f_test"]), "--report", str(report_path),
    ]) == 0
    outputs = {name: target.read_bytes() for name, target in paths.items()}
    outputs["model"] = model.read_bytes()
    outputs["report"] = report_path.read_bytes()
    return outputs


def test_criterion_8_end_to_end_deterministic_and_beats_bm25(tmp_path, capsys):
    config = str(MINI_DIR / "config.ini")
    started = time.perf_counter()
    first_dir = tmp_path / "run1"
    second_dir = tmp_path / "run2"
    first_dir.mkdir()
    second_dir.mkdir()
    first = _run_pipeline(first_dir, config)
    second = _run_pipeline(second_dir, config)
    assert first == second  # byte-identical artifacts across independent runs

    # model dev F1 (threshold tuned on dev) vs the best-tuned BM25 dev F1
    from qatrigger.cli import read_features
    from qatrigger.combiner import load_model

    model = load_model(first_dir / "model.txt")
    _, dev_keys, dev_matrix = read_features(first_dir / "f_dev.tsv")
    model_f1 = tune_threshold(
        QuestionIndex.build(dev_keys), [prob(model, values) for values in dev_matrix]
    )[1]

    bm25_path = tmp_path / "dev_bm25.tsv"
    assert main([
        "--config", config, "--set", "features.manifest=bm25",
        "featurize", "--split", "dev", "--out", str(bm25_path),
    ]) == 0
    _, bm25_keys, bm25_matrix = read_features(bm25_path)
    bm25_f1 = tune_threshold(QuestionIndex.build(bm25_keys), bm25_matrix[:, 0].tolist())[1]

    elapsed = time.perf_counter() - started
    assert model_f1 > bm25_f1
    assert elapsed < 30.0
    capsys.readouterr()
    report(
        8,
        f"pipeline deterministic; model dev F1 {model_f1:.2f} > BM25 {bm25_f1:.2f} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_9_real_wikiqa_split_sizes():
    root = os.environ.get("WIKIQA_DIR")
    if not root:
        pytest.skip("set WIKIQA_DIR to run the real-dataset check")
    expected = {"train": 2118, "dev": 296, "test": 633}
    for split, count in expected.items():
        path = Path(root) / f"WikiQA-{split}.tsv"
        groups = load_wikiqa(path)
        assert len(groups) == count
    report(9, "real WikiQA splits load as 2118/296/633 question groups")


class TestGoldenFeaturesAgainstOracles:
    """The committed golden feature file must agree with independent oracles."""

    def _oracle_features(self, gq, ga, pos_table, df_tables, n_docs):
        lemma_q = dict(enumerate(gq.lemmas, start=1))
        lemma_a = dict(enumerate(ga.lemmas, start=1))
        edges_q, edges_a = head_edges(gq), head_edges(ga)

        ged = brute_force_ged(gq, ga, pos_table, 0.5, 1.0)

        def keys(graph, lemma, level):
            if level == "word":
                return list(graph.lemmas)
            if level == "pair":
                return [f"{lemma[g]}|{lemma[d]}" for g, d, _ in head_edges(graph)]
            return [f"{lemma[g]}|{lemma[d]}|{r}" for g, d, r in head_edges(graph)]

        sims = []
        for level in ("word", "pair", "triplet"):
            df = df_tables[level]
            def weight_vector(graph, lemma):
                counts = Counter(keys(graph, lemma, level))
                return {
                    k: tf * (math.log((n_docs + 1) / (df.get(k, 0) + 1)) + 1.0)
                    for k, tf in counts.items()
                }
            vq = weight_vector(gq, lemma_q)
            va = weight_vector(ga, lemma_a)
            shared = set(vq) & set(va)
            if not vq or not va or not shared:
                sims.append(0.0)
                continue
            dot = sum(vq[k] * va[k] for k in shared)
            sims.append(
                dot
                / math.sqrt(sum(w * w for w in vq.values()))
                / math.sqrt(sum(w * w for w in va.values()))
            )

        sig_q = Counter((lemma_q[g], lemma_q[d], r) for g, d, r in edges_q)
        sig_a = Counter((lemma_a[g], lemma_a[d], r) for g, d, r in edges_a)
        rel_cov = (
            sum(min(c, sig_a[s]) for s, c in sig_q.items()) / len(edges_q)
            if edges_q
            else 0.0
        )

        lem_q = Counter(lemma_q.values())
        lem_a = Counter(lemma_a.values())
        vocab_cov = sum(min(c, lem_a[w]) for w, c in lem_q.items()) / len(gq.lemmas)

        _, edges = bfs_subgraph(ga, set(lemma_q.values()), 3)
        cov_ans = len(edges) / len(edges_a) if edges_a else 0.0
        cov_ques = min(1.0, len(edges) / len(edges_q)) if edges_q else 0.0

        return [ged, sims[0], sims[1], sims[2], rel_cov, cov_ans, cov_ques, vocab_cov]

    def test_golden_file_matches_independent_recomputation(self):
        groups = attach_parses(
            load_wikiqa(MINI_DIR / "train.tsv"),
            MINI_DIR / "parses_train.conllu",
            MINI_DIR / "index_train.tsv",
        )
        pos_table = load_pos_table(MINI_DIR / "pos_costs.tsv")

        sentences = [g.question for g in groups]
        sentences += [s for g in groups for _, s, _ in g.candidates]
        df_tables = {}
        for level in ("word", "pair", "triplet"):
            df: Counter = Counter()
            for sentence in sentences:
                lemma = dict(enumerate(sentence.lemmas, start=1))
                if level == "word":
                    ks = set(sentence.lemmas)
                elif level == "pair":
                    ks = {f"{lemma[g]}|{lemma[d]}" for g, d, _ in head_edges(sentence)}
                else:
                    ks = {f"{lemma[g]}|{lemma[d]}|{r}" for g, d, r in head_edges(sentence)}
                for k in ks:
                    df[k] += 1
            df_tables[level] = dict(df)

        golden = {}
        lines = (MINI_DIR / "golden_features_train.tsv").read_text().splitlines()
        for line in lines[1:]:
            columns = line.split("\t")
            golden[(columns[0], columns[1])] = [float(v) for v in columns[3:]]

        checked = 0
        for group in groups:
            for cid, answer, _ in group.candidates:
                expected = self._oracle_features(
                    group.question, answer, pos_table, df_tables, len(sentences)
                )
                actual = golden[(group.question_id, cid)]
                assert actual == pytest.approx(expected, abs=1e-9)
                checked += 1
        assert checked == 44
