import math

import numpy as np
import pytest

from qatrigger.corpus import Sentence
from qatrigger.ged import (
    SAME_TAG_COST,
    UPOS_TAGS,
    GedConfig,
    PosCostTable,
    _shortest_augmenting_paths,
    graph_edit_distances,
    group_cost_matrix,
    load_pos_table,
    solve_assignment,
)
from qatrigger.errors import IngestionError

from conftest import make_sentence, random_tree_sentence
from oracles import (
    brute_force_assignment,
    brute_force_ged,
    reference_shortest_augmenting_paths,
)


def pair_costs(q_rows, a_rows, config=GedConfig()):
    """(substitutions, deletions, insertions) of two sentences given as
    (form, lemma, upos, head, deprel) rows, the answer alone in its group."""
    gq = make_sentence(q_rows)
    ga = make_sentence(a_rows)
    return group_cost_matrix(gq, [ga], config)[:3]


def node_cost(u, v):
    """Substitution cell of two single-node graphs: the node cost alone."""
    substitution, _, _ = pair_costs(
        [(u[0], u[0], u[1], 0, "root")], [(v[0], v[0], v[1], 0, "root")]
    )
    return substitution[0, 0]


def edge_cost(u_relations, v_relations):
    """Substitution cell of two equal-lemma hubs with the given dependents' relations."""
    def star(relations):
        return [("hub", "hub", "VERB", 0, "root")] + [
            ("leaf", "leaf", "NOUN", 1, rel) for rel in relations
        ]

    substitution, _, _ = pair_costs(star(u_relations), star(v_relations))
    return substitution[0, 0]


class TestNodeCost:
    def test_same_lemma_is_free(self):
        assert node_cost(("die", "VERB"), ("die", "VERB")) == 0.0

    def test_same_lemma_case_insensitive(self):
        assert node_cost(("Die", "VERB"), ("die", "AUX")) == 0.0

    def test_noun_vs_verb_costs_more_than_verb_vs_verb(self):
        noun_verb = node_cost(("dog", "NOUN"), ("run", "VERB"))
        verb_verb = node_cost(("walk", "VERB"), ("run", "VERB"))
        assert noun_verb == 1.0
        assert verb_verb == 0.3
        assert noun_verb > verb_verb

    def test_same_class_discount(self):
        assert node_cost(("she", "PRON"), ("alice", "PROPN")) == 0.5

    def test_unknown_tag_against_itself_costs_the_default(self):
        # The table names no pair with XYZ, so XYZ/XYZ is not a same-tag pair.
        assert node_cost(("a", "XYZ"), ("b", "XYZ")) == 1.0 != SAME_TAG_COST
        assert node_cost(("a", "XYZ"), ("b", "_")) == 1.0
        assert node_cost(("a", "XYZ"), ("b", "NOUN")) == 1.0
        table = PosCostTable({("NOUN", "NOUN"): 0.2}, default_cost=0.9)
        gq = make_sentence([("a", "a", "XYZ", 0, "root")])
        ga = make_sentence([("b", "b", "XYZ", 0, "root")])
        substitution = group_cost_matrix(gq, [ga], GedConfig(pos_table=table))[0]
        assert substitution[0, 0] == 0.9


class TestIncidentEdgeCost:
    def test_identical_multisets_cost_zero(self):
        assert edge_cost(["nsubj", "obj"], ["obj", "nsubj"]) == 0.0

    def test_one_sided_relation(self):
        assert edge_cost(["nsubj"], []) == 0.25

    def test_partial_overlap(self):
        assert edge_cost(["nsubj", "dobj"], ["nsubj", "advmod"]) == 0.5


class TestCostMatrix:
    def test_empty_graphs_give_empty_matrix(self):
        g = make_sentence([("x", "x", "NOUN", 0, "root")])
        empty = Sentence((), (), (), ())
        substitution, deletion, insertion, _ = group_cost_matrix(g, [empty], GedConfig())
        assert substitution.shape == (1, 0)
        assert deletion.tolist() == [1.0]
        assert insertion.shape == (0,)
        substitution, deletion, insertion, _ = group_cost_matrix(empty, [g], GedConfig())
        assert substitution.shape == (0, 1)
        assert deletion.shape == (0,)
        assert insertion.tolist() == [1.0]

    def test_one_node_same_lemma(self):
        g = make_sentence([("die", "die", "VERB", 0, "root")])
        substitution, deletion, insertion, _ = group_cost_matrix(g, [g], GedConfig())
        assert substitution.tolist() == [[0.0]]
        assert deletion.tolist() == [1.0]  # deletion of a degree-0 node
        assert insertion.tolist() == [1.0]

    def test_two_vs_one_matches_hand_computation(self):
        substitution, deletion, insertion = pair_costs(
            [("dog", "dog", "NOUN", 2, "nsubj"), ("ran", "run", "VERB", 0, "root")],
            [("run", "run", "VERB", 0, "root")],
        )
        assert substitution.shape == (2, 1)
        # dog vs run: POS default 1.0 plus {nsubj} vs {} edge mismatch 0.25
        assert substitution[0, 0] == 1.25
        # run vs run: lemma match, {nsubj} vs {} edges
        assert substitution[1, 0] == 0.25
        # deletions and insertions carry degree * edge weight
        assert deletion.tolist() == [1.5, 1.5]
        assert insertion.tolist() == [1.0]

    def test_chain_degrees(self):
        _, deletion, _ = pair_costs(
            [
                ("a", "a", "NOUN", 2, "dep"),
                ("b", "b", "NOUN", 0, "root"),
                ("c", "c", "NOUN", 2, "dep"),
            ],
            [("x", "x", "NOUN", 0, "root")],
            GedConfig(edge_weight=1.0, delete_cost=0.0),
        )
        assert deletion.tolist() == [1.0, 2.0, 1.0]


class TestSolveAssignment:
    def test_two_by_two(self):
        assignment, cost = solve_assignment([[1.0, 2.0], [3.0, 0.0]])
        assert assignment == (0, 1)
        assert cost == 1.0

    def test_zero_diagonal_prefers_identity(self):
        matrix = np.ones((4, 4)) - np.eye(4)
        assignment, cost = solve_assignment(matrix)
        assert assignment == (0, 1, 2, 3)
        assert cost == 0.0

    def test_all_zero_matrix_breaks_ties_in_row_order(self):
        assignment, cost = solve_assignment(np.zeros((5, 5)))
        assert assignment == (0, 1, 2, 3, 4)
        assert cost == 0.0

    def test_tied_costs_pick_smallest(self):
        # both permutations cost 2; (0, 1) is the smaller assignment vector
        assignment, cost = solve_assignment([[1.0, 1.0], [1.0, 1.0]])
        assert assignment == (0, 1)
        assert cost == 2.0

    def test_structured_tie(self):
        # optimal cost 2 via (1, 0) or (2, 1, 0)-style mixes; check minimality
        matrix = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        assignment, cost = solve_assignment(matrix)
        assert cost == 0.0
        assert assignment == (0, 1, 2)

    def test_empty_matrix(self):
        assert solve_assignment(np.zeros((0, 0))) == ((), 0.0)
        assert solve_assignment(np.zeros((0, 3))) == ((), 0.0)
        assert solve_assignment(np.zeros((2, 0))) == ((-1, -1), 0.0)

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            matrix = rng.random((n, n))
            _, cost = solve_assignment(matrix)
            assert cost == brute_force_assignment(matrix.tolist())

    def test_rectangular_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rows, cols = (int(k) for k in rng.integers(1, 7, size=2))
            matrix = rng.random((rows, cols))
            assignment, cost = solve_assignment(matrix)
            if rows <= cols:
                expected = brute_force_assignment(matrix.tolist())
            else:
                expected = brute_force_assignment(matrix.T.tolist())
            assert cost == expected
            chosen = [(i, j) for i, j in enumerate(assignment) if j >= 0]
            assert len(chosen) == min(rows, cols)
            assert len({j for _, j in chosen}) == len(chosen)
            assert cost == math.fsum(matrix[i, j] for i, j in chosen)


def random_matrix(rng, n, m):
    """n x m costs; about half the matrices draw from a few values, 0.0 and
    -0.0 among them, so that ties between columns are common."""
    if rng.random() < 0.5:
        values = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0]
        return [[values[int(k)] for k in rng.integers(0, len(values), m)] for _ in range(n)]
    return (rng.standard_normal((n, m)) * rng.choice([1.0, 10.0])).tolist()


class TestSolverMatchesReference:
    def test_identical_row_to_col_on_seeded_matrices(self):
        rng = np.random.default_rng(41)
        shapes = set()
        for _ in range(6000):
            n = int(rng.integers(0, 8))
            m = n + int(rng.integers(0, 6))
            cost = random_matrix(rng, n, m)
            shapes.add((n == 0, m == 0, n < m))
            assert _shortest_augmenting_paths(cost, m) == reference_shortest_augmenting_paths(
                cost, m
            )
        assert shapes == {(True, True, False), (True, False, True), (False, False, True),
                          (False, False, False)}

    def test_solve_assignment_with_more_rows_than_columns(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            m = int(rng.integers(0, 6))
            n = m + int(rng.integers(1, 5))
            matrix = np.asarray(random_matrix(rng, n, m)).reshape(n, m)
            assignment, total = solve_assignment(matrix)
            by_column = reference_shortest_augmenting_paths(matrix.T.tolist(), n)
            expected = [-1] * n
            for j, i in enumerate(by_column):
                expected[i] = j
            assert assignment == tuple(expected)
            assert total == math.fsum(matrix[i, j] for j, i in enumerate(by_column))


def random_group(rng):
    """A question and up to 10 answers: some empty, some shorter than the
    question, tags partly outside UPOS."""
    tags = ["NOUN", "VERB", "PROPN", "AUX", "XYZ", "_", "ADJ"]
    rels = ["nsubj", "obj", "amod", "x", "case"]
    lemmas = ["a", "b", "c", "d", "e"][: int(rng.integers(2, 6))]

    def sentence(max_nodes):
        n = int(rng.integers(0, max_nodes + 1))
        if n == 0:
            return Sentence((), (), (), ())
        rows = []
        for i in range(1, n + 1):
            head = 0 if i == 1 else int(rng.integers(1, i))
            lemma = lemmas[int(rng.integers(0, len(lemmas)))]
            tag = tags[int(rng.integers(0, len(tags)))]
            rel = "root" if head == 0 else rels[int(rng.integers(0, len(rels)))]
            rows.append((lemma, lemma, tag, head, rel))
        return make_sentence(rows)

    question = sentence(7)
    return question, [sentence(9) for k in range(int(rng.integers(0, 11)))]


class TestGroupCostPass:
    def configs(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text("DEFAULT\t0.8\nNOUN\tNOUN\t0.3\nXYZ\tXYZ\t0.1\nXYZ\tVERB\t0.6\n")
        return (
            GedConfig(),
            GedConfig(pos_table=load_pos_table(path), edge_weight=0.25, delete_cost=0.75),
        )

    def test_group_equals_one_answer_groups_bitwise(self, tmp_path):
        rng = np.random.default_rng(47)
        configs = self.configs(tmp_path)
        seen = set()
        for k in range(400):
            config = configs[k % 2]
            question, answers = random_group(rng)
            group = graph_edit_distances(question, answers, config)
            single = [graph_edit_distances(question, [a], config)[0] for a in answers]
            assert [d.hex() for d in group] == [d.hex() for d in single]
            n = len(question.heads)
            for a in answers:
                m = len(a.heads)
                seen.add("empty answer" if m == 0 else "n > m" if n > m else "n <= m")
        assert seen == {"empty answer", "n > m", "n <= m"}

    def test_one_answer_group_is_its_slice_of_the_group(self, tmp_path):
        rng = np.random.default_rng(53)
        configs = self.configs(tmp_path)
        for k in range(200):
            config = configs[k % 2]
            question, answers = random_group(rng)
            substitution, deletion, insertion, bounds = group_cost_matrix(
                question, answers, config
            )
            assert bounds == [0, *np.cumsum([len(a.heads) for a in answers]).tolist()]
            for a, lo, hi in zip(answers, bounds, bounds[1:]):
                pair = group_cost_matrix(question, [a], config)[:3]
                group = (substitution[:, lo:hi], deletion, insertion[lo:hi])
                for mine, theirs in zip(pair, group):
                    assert mine.shape == theirs.shape
                    assert mine.tobytes() == np.ascontiguousarray(theirs).tobytes()

    def test_cost_rows_cover_every_named_tag(self, tmp_path):
        table = self.configs(tmp_path)[1].pos_table
        index, costs = table.cost_rows
        assert list(index) == [*UPOS_TAGS, "XYZ"] and "_" not in index
        assert costs.shape == (len(index) + 1, len(index) + 1)
        for a in [*index, "_"]:
            for b in [*index, "_"]:
                cell = costs[index.get(a, len(index)), index.get(b, len(index))]
                assert cell == table.cost(a, b)


class TestGraphEditDistance:
    def test_identical_graphs_distance_zero(self, question_sentence):
        assert graph_edit_distances(question_sentence, [question_sentence], GedConfig())[0] == 0.0

    def test_empty_question_vs_answer_is_one(self, answer_sentence):
        empty = Sentence((), (), (), ())
        assert graph_edit_distances(empty, [answer_sentence], GedConfig())[0] == 1.0
        assert graph_edit_distances(answer_sentence, [empty], GedConfig())[0] == 1.0

    def test_both_empty_is_zero(self):
        empty = Sentence((), (), (), ())
        assert graph_edit_distances(empty, [empty], GedConfig())[0] == 0.0

    def test_matches_partial_injection_oracle(self, mini_dir):
        # Every third pair draws from five lemmas, so equal-cost matchings
        # abound; each pair is scored in both orientations, so both n < m and
        # n > m occur; odd pairs use the mini corpus's POS table file with
        # other edge and deletion weights.
        rng = np.random.default_rng(23)
        table = load_pos_table(mini_dir / "pos_costs.tsv")
        configs = (
            GedConfig(),
            GedConfig(pos_table=table, edge_weight=0.25, delete_cost=0.75),
        )
        tie_pool = ["die", "win", "city", "man", "sun"]
        orientations = set()
        for k in range(120):
            cfg = configs[k % 2]
            pool = tie_pool if k % 3 == 0 else None
            gq = random_tree_sentence(rng, max_nodes=5, lemma_pool=pool)
            ga = random_tree_sentence(rng, max_nodes=5, lemma_pool=pool)
            for first, second in ((gq, ga), (ga, gq)):
                orientations.add(np.sign(len(first.lemmas) - len(second.lemmas)))
                fast = graph_edit_distances(first, [second], cfg)[0]
                slow = brute_force_ged(
                    first, second, cfg.pos_table, cfg.edge_weight, cfg.delete_cost
                )
                assert fast == pytest.approx(slow, abs=1e-12)
        assert orientations == {-1, 0, 1}

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            gq = random_tree_sentence(rng, max_nodes=6)
            ga = random_tree_sentence(rng, max_nodes=6)
            d1 = graph_edit_distances(gq, [ga], GedConfig())[0]
            d2 = graph_edit_distances(ga, [gq], GedConfig())[0]
            assert abs(d1 - d2) <= 1e-12
            assert 0.0 <= d1 <= 1.0

    def test_correct_answer_ranks_first_on_table_style_example(self):
        # "how old was sue lyon when she made lolita" against three candidates;
        # the one sharing sue/lyon/lolita/be should attain the minimum distance.
        question = make_sentence(
            [
                ("how", "how", "ADV", 2, "advmod"),
                ("old", "old", "ADJ", 0, "root"),
                ("was", "be", "AUX", 2, "cop"),
                ("sue", "sue", "PROPN", 5, "compound"),
                ("lyon", "lyon", "PROPN", 2, "nsubj"),
                ("when", "when", "ADV", 8, "advmod"),
                ("she", "she", "PRON", 8, "nsubj"),
                ("made", "make", "VERB", 2, "advcl"),
                ("lolita", "lolita", "PROPN", 8, "obj"),
            ],
        )
        wrong_film = make_sentence(
            [
                ("lolita", "lolita", "PROPN", 4, "nsubj"),
                ("is", "be", "AUX", 4, "cop"),
                ("a", "a", "DET", 4, "det"),
                ("film", "film", "NOUN", 0, "root"),
                ("by", "by", "ADP", 6, "case"),
                ("kubrick", "kubrick", "PROPN", 4, "nmod"),
                ("from", "from", "ADP", 8, "case"),
                ("1962", "1962", "NUM", 4, "nmod"),
            ],
        )
        correct = make_sentence(
            [
                ("the", "the", "DET", 2, "det"),
                ("actress", "actress", "NOUN", 8, "nsubj"),
                ("who", "who", "PRON", 4, "nsubj"),
                ("played", "play", "VERB", 2, "acl"),
                ("lolita", "lolita", "PROPN", 4, "obj"),
                ("sue", "sue", "PROPN", 7, "compound"),
                ("lyon", "lyon", "PROPN", 2, "appos"),
                ("was", "be", "VERB", 0, "root"),
                ("fourteen", "fourteen", "NUM", 8, "obj"),
            ],
        )
        wrong_censor = make_sentence(
            [
                ("kubrick", "kubrick", "PROPN", 3, "nsubj"),
                ("later", "later", "ADV", 3, "advmod"),
                ("said", "say", "VERB", 0, "root"),
                ("censorship", "censorship", "NOUN", 6, "nsubj"),
                ("was", "be", "AUX", 6, "cop"),
                ("severe", "severe", "ADJ", 3, "ccomp"),
                ("for", "for", "ADP", 9, "case"),
                ("the", "the", "DET", 9, "det"),
                ("film", "film", "NOUN", 6, "obl"),
            ],
        )
        distances = graph_edit_distances(
            question, [wrong_film, correct, wrong_censor], GedConfig()
        )
        assert distances[1] == min(distances)
        assert distances[1] < distances[0]
        assert distances[1] < distances[2]


class TestPosTableFile:
    def test_load_round_trip(self, tmp_path, mini_dir):
        table = load_pos_table(mini_dir / "pos_costs.tsv")
        assert table.cost("NOUN", "NOUN") == 0.3
        assert table.cost("PROPN", "NOUN") == 0.5
        assert table.cost("NOUN", "PUNCT") == 1.0
        assert table.default_cost == 1.0

    def test_missing_default_line_fails(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("NOUN\tNOUN\t0.3\n")
        with pytest.raises(IngestionError, match="DEFAULT"):
            load_pos_table(path)

    def test_out_of_range_cost_fails(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("DEFAULT\t1.0\nNOUN\tVERB\t1.5\n")
        with pytest.raises(IngestionError, match="0, 1"):
            load_pos_table(path)

    def test_asymmetric_entries_fail(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("DEFAULT\t1.0\nNOUN\tVERB\t0.4\nVERB\tNOUN\t0.6\n")
        with pytest.raises(IngestionError, match="asymmetric"):
            load_pos_table(path)
