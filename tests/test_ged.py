import inspect
import math

import numpy as np
import pytest

from qatrigger.corpus import Sentence
import qatrigger
from qatrigger import ged
from qatrigger.ged import (
    DELETE_COST,
    EDGE_WEIGHT,
    OTHER_COST,
    SAME_CLASS_COST,
    SAME_TAG_COST,
    UPOS_TAGS,
    _POS_INDEX,
    _POS_WEIGHTS,
    _shortest_augmenting_paths,
    graph_edit_distances,
    group_cost_matrix,
    solve_assignment,
)

from conftest import make_sentence, random_tree_sentence
from oracles import (
    UPOS,
    brute_force_assignment,
    brute_force_ged,
    pos_cost,
    reference_shortest_augmenting_paths,
)


# (EDGE_WEIGHT, DELETE_COST) settings: the constants, then another pair.
WEIGHTS = ((EDGE_WEIGHT, DELETE_COST), (0.25, 0.75))


def set_weights(monkeypatch, edge_weight, delete_cost):
    """Make ged charge these edit weights until the test ends."""
    monkeypatch.setattr(ged, "EDGE_WEIGHT", edge_weight)
    monkeypatch.setattr(ged, "DELETE_COST", delete_cost)


def pair_costs(q_rows, a_rows):
    """(substitutions, deletions, insertions) of two sentences given as
    (form, lemma, upos, head, deprel) rows, the answer alone in its group."""
    gq = make_sentence(q_rows)
    ga = make_sentence(a_rows)
    return group_cost_matrix(gq, [ga])[:3]


def assignment_total(matrix, assignment):
    """The exact float sum of the entries an assignment selects."""
    return math.fsum(matrix[i][j] for i, j in enumerate(assignment) if j >= 0)


def oracle_total(matrix):
    """The permutation oracle's minimum of an ndarray, over its transpose when
    rows outnumber columns."""
    rows, cols = matrix.shape
    return brute_force_assignment((matrix if rows <= cols else matrix.T).tolist())


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
        # XYZ is no UPOS tag, so XYZ/XYZ is not a same-tag pair.
        assert node_cost(("a", "XYZ"), ("b", "XYZ")) == 1.0 != SAME_TAG_COST
        assert node_cost(("a", "XYZ"), ("b", "_")) == 1.0
        assert node_cost(("a", "XYZ"), ("b", "NOUN")) == 1.0

    def test_every_tag_pair_matches_the_oracle(self):
        # The 17 UPOS tags and one unknown tag, every ordered pair.
        assert set(UPOS_TAGS) == UPOS and len(UPOS_TAGS) == 17
        tags = [*UPOS_TAGS, "XYZ"]
        pairs = [(a, b) for a in tags for b in tags]
        assert len(pairs) == 324
        for a, b in pairs:
            assert node_cost(("dog", a), ("run", b)) == pos_cost(a, b), (a, b)
            assert node_cost(("dog", a), ("dog", b)) == 0.0, (a, b)


class TestPosWeights:
    """The substitute-weight array built at import, row and column T standing
    for every tag outside UPOS_TAGS."""

    def test_weights_are_symmetric(self):
        assert np.array_equal(_POS_WEIGHTS, _POS_WEIGHTS.T)

    def test_weights_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            _POS_WEIGHTS[0, 0] = 0.0
        assert _POS_WEIGHTS[0, 0] == SAME_TAG_COST

    def test_weights_hold_the_three_named_costs(self):
        # 17 same-tag cells; 3 * 2 + 2 + 2 ordered same-class pairs.
        values, counts = np.unique(_POS_WEIGHTS, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == {
            SAME_TAG_COST: 17, SAME_CLASS_COST: 10, OTHER_COST: 18 * 18 - 27,
        }
        assert (SAME_TAG_COST, SAME_CLASS_COST, OTHER_COST) == (0.3, 0.5, 1.0)

    def test_unknown_index_costs_other_against_every_tag(self):
        other = len(UPOS_TAGS)
        assert _POS_WEIGHTS.shape == (other + 1, other + 1)
        assert (_POS_WEIGHTS[other, :] == OTHER_COST).all()
        assert (_POS_WEIGHTS[:, other] == OTHER_COST).all()

    @pytest.mark.parametrize("tag", ["_", "", "XYZ", "noun", "Verb", "NOUN "])
    def test_tag_outside_upos_costs_other_against_every_tag(self, tag):
        # Tags are matched as written: no case folding, no trimming.
        assert tag not in _POS_INDEX
        for other in [*UPOS_TAGS, tag]:
            assert node_cost(("dog", tag), ("run", other)) == OTHER_COST == pos_cost(tag, other)
            assert node_cost(("dog", other), ("run", tag)) == OTHER_COST == pos_cost(other, tag)

    @pytest.mark.parametrize("name", ["PosCostTable", "default_pos_table", "load_pos_table"])
    def test_table_api_is_gone(self, name):
        assert not hasattr(qatrigger, name)
        assert not hasattr(ged, name)

    def test_edit_weights_are_constants(self):
        assert (EDGE_WEIGHT, DELETE_COST) == (0.5, 1.0)
        assert not hasattr(qatrigger, "GedConfig")
        assert not hasattr(ged, "GedConfig")
        assert list(inspect.signature(graph_edit_distances).parameters) == ["groups"]
        assert list(inspect.signature(group_cost_matrix).parameters) == ["gq", "answers"]


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
        substitution, deletion, insertion, _ = group_cost_matrix(g, [empty])
        assert substitution.shape == (1, 0)
        assert deletion.tolist() == [1.0]
        assert insertion.shape == (0,)
        substitution, deletion, insertion, _ = group_cost_matrix(empty, [g])
        assert substitution.shape == (0, 1)
        assert deletion.shape == (0,)
        assert insertion.tolist() == [1.0]

    def test_one_node_same_lemma(self):
        g = make_sentence([("die", "die", "VERB", 0, "root")])
        substitution, deletion, insertion, _ = group_cost_matrix(g, [g])
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

    def test_chain_degrees(self, monkeypatch):
        set_weights(monkeypatch, 1.0, 0.0)
        _, deletion, _ = pair_costs(
            [
                ("a", "a", "NOUN", 2, "dep"),
                ("b", "b", "NOUN", 0, "root"),
                ("c", "c", "NOUN", 2, "dep"),
            ],
            [("x", "x", "NOUN", 0, "root")],
        )
        assert deletion.tolist() == [1.0, 2.0, 1.0]


class TestSolveAssignment:
    def test_two_by_two(self):
        assert solve_assignment([[1.0, 2.0], [3.0, 0.0]]) == [0, 1]

    def test_zero_diagonal_prefers_identity(self):
        assert solve_assignment(np.ones((4, 4)) - np.eye(4)) == [0, 1, 2, 3]

    def test_all_zero_matrix_breaks_ties_in_row_order(self):
        assert solve_assignment(np.zeros((5, 5))) == [0, 1, 2, 3, 4]

    def test_tied_costs_pick_smallest(self):
        # both permutations cost 2; (0, 1) is the smaller assignment vector
        assert solve_assignment([[1.0, 1.0], [1.0, 1.0]]) == [0, 1]

    def test_structured_tie(self):
        matrix = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        assignment = solve_assignment(matrix)
        assert assignment == [0, 1, 2]
        assert assignment_total(matrix, assignment) == 0.0

    def test_lists_and_ndarray_give_one_assignment(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rows, cols = (int(k) for k in rng.integers(0, 6, size=2))
            matrix = rng.random((rows, cols))
            assert solve_assignment(matrix) == solve_assignment(matrix.tolist())

    def test_empty_matrix(self):
        # No row, no column, and rows without columns: every row maps to -1.
        for rows, cols, expected in ((0, 0, []), (0, 3, []), (2, 0, [-1, -1])):
            matrix = np.zeros((rows, cols))
            assignment = solve_assignment(matrix)
            assert assignment == expected
            assert assignment_total(matrix, assignment) == oracle_total(matrix) == 0.0
            assert solve_assignment(matrix.tolist()) == expected

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            matrix = rng.random((n, n))
            assignment = solve_assignment(matrix)
            assert assignment_total(matrix, assignment) == oracle_total(matrix)

    def test_rectangular_matches_brute_force(self):
        rng = np.random.default_rng(13)
        shapes = set()
        for _ in range(100):
            rows, cols = (int(k) for k in rng.integers(1, 7, size=2))
            shapes.add(np.sign(rows - cols))
            matrix = rng.random((rows, cols))
            assignment = solve_assignment(matrix)
            assert assignment_total(matrix, assignment) == oracle_total(matrix)
            chosen = [(i, j) for i, j in enumerate(assignment) if j >= 0]
            assert len(assignment) == rows
            assert len(chosen) == min(rows, cols)
            assert len({j for _, j in chosen}) == len(chosen)
        assert shapes == {-1, 0, 1}


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
            assignment = solve_assignment(matrix)
            by_column = reference_shortest_augmenting_paths(matrix.T.tolist(), n)
            expected = [-1] * n
            for j, i in enumerate(by_column):
                expected[i] = j
            assert assignment == expected
            assert assignment_total(matrix, assignment) == math.fsum(
                matrix[i, j] for j, i in enumerate(by_column)
            )


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
    def test_group_equals_one_answer_groups_bitwise(self, monkeypatch):
        rng = np.random.default_rng(47)
        seen = set()
        for k in range(400):
            set_weights(monkeypatch, *WEIGHTS[k % 2])
            question, answers = random_group(rng)
            group = graph_edit_distances([(question, answers)])
            single = [graph_edit_distances([(question, [a])])[0] for a in answers]
            assert [d.hex() for d in group] == [d.hex() for d in single]
            n = len(question.heads)
            for a in answers:
                m = len(a.heads)
                seen.add("empty answer" if m == 0 else "n > m" if n > m else "n <= m")
        assert seen == {"empty answer", "n > m", "n <= m"}

    def test_one_answer_group_is_its_slice_of_the_group(self, monkeypatch):
        rng = np.random.default_rng(53)
        for k in range(200):
            set_weights(monkeypatch, *WEIGHTS[k % 2])
            question, answers = random_group(rng)
            substitution, deletion, insertion, bounds = group_cost_matrix(question, answers)
            assert bounds == [0, *np.cumsum([len(a.heads) for a in answers]).tolist()]
            for a, lo, hi in zip(answers, bounds, bounds[1:]):
                pair = group_cost_matrix(question, [a])[:3]
                group = (substitution[:, lo:hi], deletion, insertion[lo:hi])
                for mine, theirs in zip(pair, group):
                    assert mine.shape == theirs.shape
                    assert mine.tobytes() == np.ascontiguousarray(theirs).tobytes()

    def test_cost_rows_cover_every_named_tag(self):
        index = _POS_INDEX
        assert list(index) == list(UPOS_TAGS) and "_" not in index
        assert _POS_WEIGHTS.shape == (len(index) + 1, len(index) + 1)
        for a in [*index, "_", "XYZ"]:
            for b in [*index, "_", "XYZ"]:
                cell = _POS_WEIGHTS[index.get(a, len(index)), index.get(b, len(index))]
                assert cell == pos_cost(a, b), (a, b)


class TestGraphEditDistance:
    def test_solves_one_assignment_per_answer(self, monkeypatch):
        # bench/tracing.py times the assignment by wrapping
        # ged.solve_assignment, so every answer, empty or not, goes through it.
        rng = np.random.default_rng(59)
        batch = [random_group(rng) for _ in range(30)]
        expected = graph_edit_distances(batch)
        solve, rows_seen = ged.solve_assignment, []

        def counted(rows):
            rows_seen.append(len(rows))
            return solve(rows)

        monkeypatch.setattr(ged, "solve_assignment", counted)
        assert graph_edit_distances(batch) == expected
        assert rows_seen == [len(question.heads) for question, answers in batch for _ in answers]
        assert len(rows_seen) == len(expected) > 0

    def test_identical_graphs_distance_zero(self, question_sentence):
        group = [(question_sentence, [question_sentence])]
        assert graph_edit_distances(group)[0] == 0.0

    def test_empty_question_vs_answer_is_one(self, answer_sentence):
        empty = Sentence((), (), (), ())
        assert graph_edit_distances([(empty, [answer_sentence])])[0] == 1.0
        assert graph_edit_distances([(answer_sentence, [empty])])[0] == 1.0

    def test_both_empty_is_zero(self):
        empty = Sentence((), (), (), ())
        assert graph_edit_distances([(empty, [empty])])[0] == 0.0

    def test_tags_outside_upos_match_the_partial_injection_oracle(self):
        # Retagged trees whose tags are partly outside UPOS, "_" among them.
        rng = np.random.default_rng(29)
        tags = ["NOUN", "PRON", "VERB", "AUX", "_", "XYZ", "noun"]

        def retagged(sentence):
            upos = tuple(tags[int(rng.integers(0, len(tags)))] for _ in sentence.upos)
            return Sentence(sentence.lemmas, upos, sentence.heads, sentence.deprels)

        for k in range(60):
            gq = retagged(random_tree_sentence(rng, max_nodes=5))
            ga = retagged(random_tree_sentence(rng, max_nodes=5))
            fast = graph_edit_distances([(gq, [ga])])[0]
            assert fast == pytest.approx(brute_force_ged(gq, ga, 0.5, 1.0), abs=1e-12)

    def test_matches_partial_injection_oracle(self, monkeypatch):
        # Every third pair draws from five lemmas, so equal-cost matchings
        # abound; each pair is scored in both orientations, so both n < m and
        # n > m occur; odd pairs use other edge and deletion weights.
        rng = np.random.default_rng(23)
        tie_pool = ["die", "win", "city", "man", "sun"]
        orientations = set()
        for k in range(120):
            weights = WEIGHTS[k % 2]
            set_weights(monkeypatch, *weights)
            pool = tie_pool if k % 3 == 0 else None
            gq = random_tree_sentence(rng, max_nodes=5, lemma_pool=pool)
            ga = random_tree_sentence(rng, max_nodes=5, lemma_pool=pool)
            for first, second in ((gq, ga), (ga, gq)):
                orientations.add(np.sign(len(first.lemmas) - len(second.lemmas)))
                fast = graph_edit_distances([(first, [second])])[0]
                slow = brute_force_ged(first, second, *weights)
                assert fast == pytest.approx(slow, abs=1e-12)
        assert orientations == {-1, 0, 1}

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            gq = random_tree_sentence(rng, max_nodes=6)
            ga = random_tree_sentence(rng, max_nodes=6)
            d1 = graph_edit_distances([(gq, [ga])])[0]
            d2 = graph_edit_distances([(ga, [gq])])[0]
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
        distances = graph_edit_distances([(question, [wrong_film, correct, wrong_censor])])
        assert distances[1] == min(distances)
        assert distances[1] < distances[0]
        assert distances[1] < distances[2]
