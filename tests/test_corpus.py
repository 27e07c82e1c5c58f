import dataclasses

import numpy as np
import pytest

from qatrigger.corpus import (
    Sentence,
    attach_parses,
    load_scores,
    load_wikiqa,
)
from qatrigger.coverage import (
    edge_signatures,
    graph_coverage_features,
    relation_coverages,
    vocabulary_coverages,
)
from qatrigger.errors import IngestionError
from qatrigger.ged import GedConfig, graph_edit_distances
from qatrigger.graphsim import build_df, graph_similarities

from conftest import make_sentence, random_tree_sentence
from oracles import head_edges, tree_arrays

HEADER = "QuestionID\tQuestion\tDocumentID\tDocumentTitle\tSentenceID\tSentence\tLabel\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def save_wikiqa(groups, path):
    """Write groups back to the 7-column TSV layout (placeholder doc fields)."""
    rows = [
        f"{g.question_id}\t{g.question.text}\tD0\t-\t{cid}\t{sent.text}\t{label}\n"
        for g in groups
        for cid, sent, label in g.candidates
    ]
    write(path, HEADER + "".join(rows))


def test_three_row_file_single_group(tmp_path):
    path = write(
        tmp_path / "c.tsv",
        HEADER
        + "Q1\twho won\tD1\tt\tS1\tnobody won\t0\n"
        + "Q1\twho won\tD1\tt\tS2\talice won\t1\n"
        + "Q1\twho won\tD1\tt\tS3\tbob lost\t0\n",
    )
    groups = load_wikiqa(path)
    assert len(groups) == 1
    group = groups[0]
    assert group.question_id == "Q1"
    assert [cid for cid, _, _ in group.candidates] == ["S1", "S2", "S3"]
    assert [label for _, _, label in group.candidates] == [0, 1, 0]
    assert group.answerable


def test_empty_file_gives_empty_list(tmp_path):
    assert load_wikiqa(write(tmp_path / "e.tsv", "")) == []


def test_headerless_file_is_accepted(tmp_path):
    path = write(tmp_path / "c.tsv", "Q1\tq\tD1\tt\tS1\ts\t1\n")
    assert len(load_wikiqa(path)) == 1


def test_leading_byte_order_mark_is_not_part_of_the_question_id(tmp_path):
    path = write(tmp_path / "c.tsv", "\ufeffQ1\tq\tD1\tt\tS1\ts\t1\n")
    assert [group.question_id for group in load_wikiqa(path)] == ["Q1"]


def test_groups_preserve_first_appearance_order(tmp_path):
    path = write(
        tmp_path / "c.tsv",
        "Q2\tq2\tD\tt\tS1\ts\t0\nQ1\tq1\tD\tt\tS2\ts\t0\nQ2\tq2\tD\tt\tS3\ts\t1\n",
    )
    groups = load_wikiqa(path)
    assert [g.question_id for g in groups] == ["Q2", "Q1"]
    assert len(groups[0].candidates) == 2


def test_group_sizes_sum_to_row_count(mini_dir):
    groups = load_wikiqa(mini_dir / "train.tsv")
    n_rows = sum(
        1 for line in (mini_dir / "train.tsv").read_text().splitlines()[1:] if line
    )
    assert sum(len(g.candidates) for g in groups) == n_rows


def test_short_row_is_an_error_with_line_number(tmp_path):
    path = write(tmp_path / "c.tsv", HEADER + "Q1\tq\tD1\tt\tS1\n")
    with pytest.raises(IngestionError, match="line 2"):
        load_wikiqa(path)


def test_non_binary_label_is_an_error(tmp_path):
    path = write(tmp_path / "c.tsv", "Q1\tq\tD1\tt\tS1\ts\t2\n")
    with pytest.raises(IngestionError, match="label"):
        load_wikiqa(path)


def test_duplicate_candidate_id_is_an_error(tmp_path):
    path = write(
        tmp_path / "c.tsv",
        "Q1\tq\tD1\tt\tS1\ts\t0\nQ1\tq\tD1\tt\tS1\ts\t1\n",
    )
    with pytest.raises(IngestionError, match="duplicate"):
        load_wikiqa(path)


def test_round_trip_preserves_groups(mini_dir, tmp_path):
    groups = load_wikiqa(mini_dir / "dev.tsv")
    out = tmp_path / "again.tsv"
    save_wikiqa(groups, out)
    assert load_wikiqa(out) == groups


CONLLU_TWO = """1\tnobody\tnobody\tPRON\tNN\t_\t2\tnsubj\t_\t_
2\twon\twin\tVERB\tVBD\t_\t0\troot\t_\t_

1\talice\talice\tPROPN\tNNP\t_\t2\tnsubj\t_\t_
2\twon\twin\tVERB\tVBD\t_\t0\troot\t_\t_
"""


def test_attach_parses_positional(tmp_path):
    corpus = write(tmp_path / "c.tsv", "Q1\tnobody won\tD\tt\tS1\talice won\t1\n")
    conllu = write(tmp_path / "p.conllu", CONLLU_TWO)
    groups = attach_parses(load_wikiqa(corpus), conllu)
    question = groups[0].question
    assert question.lemmas == ("nobody", "win")
    assert question.upos == ("PRON", "VERB")
    assert question.heads == (2, 0)
    assert question.deprels == ("nsubj", "root")
    _, answer, _ = groups[0].candidates[0]
    assert answer.lemmas[0] == "alice"


def test_attach_parses_by_index_file(tmp_path):
    corpus = write(tmp_path / "c.tsv", "Q1\tnobody won\tD\tt\tS1\talice won\t1\n")
    blocks = (
        "# sent_id = p-answer\n"
        "1\talice\talice\tPROPN\tNNP\t_\t2\tnsubj\t_\t_\n"
        "2\twon\twin\tVERB\tVBD\t_\t0\troot\t_\t_\n\n"
        "# sent_id = p-question\n"
        "1\tnobody\tnobody\tPRON\tNN\t_\t2\tnsubj\t_\t_\n"
        "2\twon\twin\tVERB\tVBD\t_\t0\troot\t_\t_\n"
    )
    conllu = write(tmp_path / "p.conllu", blocks)
    index = write(tmp_path / "i.tsv", "p-question\tQ1\np-answer\tS1\n")
    groups = attach_parses(load_wikiqa(corpus), conllu, index)
    assert groups[0].question.lemmas[0] == "nobody"
    assert groups[0].candidates[0][1].lemmas[0] == "alice"


def test_sent_id_key_is_matched_exactly(tmp_path):
    corpus = write(tmp_path / "c.tsv", "Q1\tnobody won\tD\tt\tS1\talice won\t1\n")
    block = (
        "1\tnobody\tnobody\tPRON\tNN\t_\t2\tnsubj\t_\t_\n"
        "2\twon\twin\tVERB\tVBD\t_\t0\troot\t_\t_\n"
    )
    conllu = write(
        tmp_path / "p.conllu",
        "# sent_id = q1\n# sent_id_orig = 17\n" + block + "\n# sent_id = a1\n" + block,
    )
    index = write(tmp_path / "i.tsv", "q1\tQ1\na1\tS1\n")
    groups = attach_parses(load_wikiqa(corpus), conllu, index)
    assert groups[0].question.lemmas == ("nobody", "win")


def test_attach_parses_skips_mwt_and_empty_nodes(tmp_path):
    corpus = write(tmp_path / "c.tsv", "Q1\tdo it\tD\tt\tS1\tdo it\t0\n")
    block = (
        "1-2\tdoit\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdo\tdo\tVERB\tVB\t_\t0\troot\t_\t_\n"
        "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\tit\tit\tPRON\tPRP\t_\t1\tobj\t_\t_\n"
    )
    conllu = write(tmp_path / "p.conllu", block + "\n" + block)
    groups = attach_parses(load_wikiqa(corpus), conllu)
    assert groups[0].question.lemmas == ("do", "it")
    assert groups[0].question.heads == (0, 1)


def test_attach_parses_rejects_double_root(tmp_path):
    corpus = write(tmp_path / "c.tsv", "Q1\ta b\tD\tt\tS1\ta b\t0\n")
    bad = (
        "1\ta\ta\tNOUN\tNN\t_\t0\troot\t_\t_\n"
        "2\tb\tb\tNOUN\tNN\t_\t0\troot\t_\t_\n"
    )
    good = (
        "1\ta\ta\tNOUN\tNN\t_\t2\tnsubj\t_\t_\n"
        "2\tb\tb\tNOUN\tNN\t_\t0\troot\t_\t_\n"
    )
    conllu = write(tmp_path / "p.conllu", bad + "\n" + good)
    with pytest.raises(IngestionError, match="single-root"):
        attach_parses(load_wikiqa(corpus), conllu)


def test_attach_parses_rejects_cycle(tmp_path):
    # Heads 1->2, 2->1, 3->0: one root, in-range heads, but 2 edges over 3 nodes.
    corpus = write(tmp_path / "c.tsv", "Q1\ta b c\tD\tt\tS1\tc\t0\n")
    cyclic = (
        "1\ta\ta\tNOUN\tNN\t_\t2\tdep\t_\t_\n"
        "2\tb\tb\tNOUN\tNN\t_\t1\tdep\t_\t_\n"
        "3\tc\tc\tVERB\tVB\t_\t0\troot\t_\t_\n"
    )
    good = "1\tc\tc\tVERB\tVB\t_\t0\troot\t_\t_\n"
    conllu = write(tmp_path / "p.conllu", cyclic + "\n" + good)
    with pytest.raises(IngestionError, match="cycle"):
        attach_parses(load_wikiqa(corpus), conllu)


def ingest_second_block(tmp_path, rows):
    """attach_parses over a root-only question parse and a candidate parse
    of `(id, head)` rows; returns the IngestionError and the CoNLL-U path."""
    corpus = write(tmp_path / "c.tsv", "Q1\tw\tD\tt\tS1\tw\t0\n")
    good = "1\tw\tw\tNOUN\tNN\t_\t0\troot\t_\t_\n"
    bad = "".join(f"{i}\tw\tw\tNOUN\tNN\t_\t{head}\tdep\t_\t_\n" for i, head in rows)
    conllu = write(tmp_path / "p.conllu", good + "\n" + bad)
    with pytest.raises(IngestionError) as ingested:
        attach_parses(load_wikiqa(corpus), conllu)
    return ingested.value, conllu


NON_TREES = [
    pytest.param([0, 0], "single-root violation (2 roots in 2 tokens)", id="two-roots"),
    pytest.param([0, 3], "head 3 out of range 0..2", id="head-out-of-range"),
    pytest.param([0, 2], "token 2 is its own head", id="self-head"),
    pytest.param([2, 1, 0], "cycle through token 1", id="two-cycle"),
]


@pytest.mark.parametrize("heads, message", NON_TREES)
def test_non_tree_rejected_when_sentence_is_built(tmp_path, heads, message):
    """heads[i] is the head of token i + 1."""
    n = len(heads)
    with pytest.raises(ValueError) as built:
        Sentence("S1", "w", ("w",) * n, ("NOUN",) * n, tuple(heads), ("dep",) * n)
    assert str(built.value) == message
    error, conllu = ingest_second_block(tmp_path, enumerate(heads, start=1))
    assert str(error) == f"{conllu}: sentence 'S1': {message}"


BAD_IDS = [
    pytest.param([(2, 0), (1, 2)], "token indices are not contiguous 1..2", id="out-of-order"),
    pytest.param([(1, 0), (0, 1)], "token index 0 out of range 1..2", id="index-0"),
    pytest.param([(1, 0), (-1, 1)], "token index -1 out of range 1..2", id="index-minus-1"),
    pytest.param([(1, 0), (3, 1)], "token index 3 out of range 1..2", id="index-3"),
]


@pytest.mark.parametrize("rows, message", BAD_IDS)
def test_conllu_ids_outside_1_to_n_in_order_rejected(tmp_path, rows, message):
    """rows: (CoNLL-U id, head) per token line."""
    error, conllu = ingest_second_block(tmp_path, rows)
    assert str(error) == f"{conllu}: sentence 'S1': {message}"


@pytest.mark.parametrize("heads, message", [
    ((0, 3), "head 3 out of range 0..2"),
    ((0, -1), "head -1 out of range 0..2"),
    ((0, 1, 1), "lemma, UPOS, head and deprel columns differ in length"),
])
def test_copied_sentence_rejects_bad_heads(heads, message):
    # coverage indexes per-token arrays by head, so the Sentence (which is the
    # dependency graph) checks its columns whenever it is built, including
    # when an existing Sentence is copied with new heads
    root = make_sentence("s", [("a", "a", "NOUN", 0, "root"), ("b", "b", "NOUN", 1, "dep")])
    with pytest.raises(ValueError) as copied:
        dataclasses.replace(root, heads=heads)
    assert str(copied.value) == message


def test_attach_parses_missing_parse_lists_ids(tmp_path):
    corpus = write(tmp_path / "c.tsv", "Q1\tnobody won\tD\tt\tS1\talice won\t1\n")
    conllu = write(
        tmp_path / "p.conllu",
        "# sent_id = only\n1\twon\twin\tVERB\tVBD\t_\t0\troot\t_\t_\n",
    )
    index = write(tmp_path / "i.tsv", "only\tQ1\n")
    with pytest.raises(IngestionError, match="S1"):
        attach_parses(load_wikiqa(corpus), conllu, index)


def test_attach_parses_duplicate_mapping_is_an_error(tmp_path):
    corpus = write(tmp_path / "c.tsv", "Q1\tnobody won\tD\tt\tS1\talice won\t1\n")
    conllu = write(tmp_path / "p.conllu", CONLLU_TWO)
    index = write(tmp_path / "i.tsv", "1\tQ1\n1\tS1\n")
    with pytest.raises(IngestionError, match="duplicate"):
        attach_parses(load_wikiqa(corpus), conllu, index)


def test_attach_parses_mini_corpus_invariants(mini_dir):
    groups = attach_parses(
        load_wikiqa(mini_dir / "train.tsv"),
        mini_dir / "parses_train.conllu",
        mini_dir / "index_train.tsv",
    )
    for group in groups:
        sentences = [group.question] + [s for _, s, _ in group.candidates]
        for sentence in sentences:
            n = len(sentence.heads)
            assert n > 0
            assert len(sentence.lemmas) == len(sentence.upos) == len(sentence.deprels) == n
            assert sentence.heads.count(0) == 1
            assert all(0 <= h <= n and h != i for i, h in enumerate(sentence.heads, start=1))
            assert all(lemma and lemma == lemma.lower() for lemma in sentence.lemmas)


def test_fig_style_question_graph(question_sentence):
    assert ("carradine", "david", "compound") in edge_signatures(question_sentence)
    assert len(question_sentence.edges) == len(question_sentence.lemmas) - 1


def test_single_token_sentence():
    sentence = make_sentence("s", [("go", "go", "VERB", 0, "root")])
    assert sentence.lemmas == ("go",)
    assert sentence.edges == ()
    assert Sentence("s", "go").edges == ()


def test_five_token_fixture_edges():
    sentence = make_sentence(
        "s",
        [
            ("the", "the", "DET", 2, "det"),
            ("dog", "dog", "NOUN", 3, "nsubj"),
            ("bit", "bite", "VERB", 0, "root"),
            ("the", "the", "DET", 5, "det"),
            ("man", "man", "NOUN", 3, "obj"),
        ],
    )
    assert sentence.edges == (
        (2, 1, "det"),
        (3, 2, "nsubj"),
        (5, 4, "det"),
        (3, 5, "obj"),
    )


def test_edge_signature_multiset_counts_repeats():
    sentence = make_sentence(
        "s",
        [
            ("run", "run", "VERB", 0, "root"),
            ("fast", "fast", "ADV", 1, "advmod"),
            ("fast", "fast", "ADV", 1, "advmod"),
        ],
    )
    assert edge_signatures(sentence)[("run", "fast", "advmod")] == 2


def test_graph_depth_matches_bfs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(500):
        sentence = random_tree_sentence(rng, max_nodes=10, relabel=True)
        assert list(sentence.depth) == tree_arrays(sentence)[1]


def test_random_trees_satisfy_tree_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        sentence = random_tree_sentence(rng, max_nodes=10, relabel=True)
        assert len(sentence.edges) == len(sentence.heads) - 1
        assert list(sentence.edges) == head_edges(sentence)
        assert all(gov != dep for gov, dep, _ in sentence.edges)


def test_lemma_falls_back_to_lowercased_form(tmp_path):
    corpus = write(tmp_path / "c.tsv", "Q1\tParis\tD\tt\tS1\tParis\t0\n")
    block = "1\tParis\t_\tPROPN\tNNP\t_\t0\troot\t_\t_\n"
    conllu = write(tmp_path / "p.conllu", block + "\n" + block)
    groups = attach_parses(load_wikiqa(corpus), conllu)
    assert groups[0].question.lemmas == ("paris",)


QUESTION_ROWS = [
    ("how", "how", "ADV", 4, "advmod"),
    ("did", "do", "AUX", 4, "aux"),
    ("carradine", "carradine", "PROPN", 4, "nsubj"),
    ("die", "die", "VERB", 0, "root"),
]
ANSWER_ROWS = [
    ("carradine", "carradine", "PROPN", 2, "nsubj"),
    ("died", "die", "VERB", 0, "root"),
    ("of", "of", "ADP", 4, "case"),
    ("asphyxiation", "asphyxiation", "NOUN", 2, "obl"),
]


def graph_features(gq, ga):
    """Every graph feature of a pair, with DF tables built from the pair."""
    tables = build_df([gq, ga])
    return (
        graph_edit_distances(gq, [ga], GedConfig())[0],
        *graph_similarities(gq, [ga], tables, (0.0, 0.0, 0.0))[0],
        relation_coverages(gq, [ga])[0],
        vocabulary_coverages(gq, [ga])[0],
        *graph_coverage_features(gq, [ga], 3)[0],
    )


def test_lemma_case_is_normalized_once_for_every_feature():
    # A Sentence lowercases its lemmas when it is built, so a pair that
    # differs only in lemma case gets the same value from every feature.
    def recased(rows, case):
        return [(form, case(lemma), upos, head, rel) for form, lemma, upos, head, rel in rows]

    lower = graph_features(make_sentence("q", QUESTION_ROWS), make_sentence("a", ANSWER_ROWS))
    gq = make_sentence("q", recased(QUESTION_ROWS, str.upper))
    ga = make_sentence("a", recased(ANSWER_ROWS, str.title))
    assert gq.lemmas == ("how", "do", "carradine", "die")
    assert graph_features(gq, ga) == lower
    assert lower[5] == 0.5  # vocab_cov: carradine and die of four question lemmas


def test_load_scores_roundtrip_and_duplicates(tmp_path):
    path = write(
        tmp_path / "s.tsv",
        "Q1\tA1\t0.73\nQ1\tA2\t0.2\nQ1\tA2\t0.9\nQ2\tA1\t-1.5\n",
    )
    scores, duplicates = load_scores(path)
    assert scores[("Q1", "A1")] == 0.73
    assert scores[("Q1", "A2")] == 0.9
    assert duplicates == 1
    assert len(scores) == 3


def test_load_scores_five_row_fixture(tmp_path):
    rows = "\n".join(f"Q{i}\tA{i}\t0.{i}" for i in range(1, 6))
    scores, duplicates = load_scores(write(tmp_path / "s.tsv", rows + "\n"))
    assert len(scores) == 5
    assert duplicates == 0


def test_load_scores_non_numeric_is_an_error(tmp_path):
    path = write(tmp_path / "s.tsv", "Q1\tA1\thigh\n")
    with pytest.raises(IngestionError, match="line 1"):
        load_scores(path)
