import dataclasses
import random
import re

import numpy as np
import pytest

from qatrigger.corpus import (
    QuestionGroup,
    Sentence,
    _read_conllu_blocks,
    attach_parses,
    load_scores,
    load_wikiqa,
    tree_depths,
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
from oracles import head_edges, reference_conllu_blocks, reference_tree_depths, tree_arrays

HEADER = "QuestionID\tQuestion\tDocumentID\tDocumentTitle\tSentenceID\tSentence\tLabel\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def save_wikiqa(groups, path):
    """Write groups back to the 7-column TSV layout (placeholder doc fields)."""
    rows = [
        f"{g.question_id}\t{g.question}\tD0\t-\t{cid}\t{text}\t{label}\n"
        for g in groups
        for cid, text, label in g.candidates
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
    assert group.question == "who won"
    assert group.candidates == (
        ("S1", "nobody won", 0), ("S2", "alice won", 1), ("S3", "bob lost", 0),
    )
    assert group.parses is None


def test_parses_must_match_the_candidates(question_sentence):
    # The question's parse, then one per candidate, or none at all.
    candidates = (("S1", "nobody won", 0), ("S2", "alice won", 1))
    for count in (0, 1, 2, 4):
        with pytest.raises(ValueError, match=f"^expected 3 parses, got {count}$"):
            QuestionGroup("Q1", "who won", candidates, (question_sentence,) * count)
    assert QuestionGroup("Q1", "who won", candidates, (question_sentence,) * 3).parses
    assert QuestionGroup("Q1", "who won", candidates).parses is None


def test_empty_file_gives_empty_list(tmp_path):
    assert load_wikiqa(write(tmp_path / "e.tsv", "")) == []


def test_headerless_file_is_accepted(tmp_path):
    path = write(tmp_path / "c.tsv", "Q1\tq\tD1\tt\tS1\ts\t1\n")
    assert len(load_wikiqa(path)) == 1


def test_header_is_the_first_non_empty_row_only(tmp_path):
    row = "Q1\tq\tD1\tt\tS1\ts\t1\n"
    path = write(tmp_path / "c.tsv", "\n\n" + HEADER + row)
    assert [group.question_id for group in load_wikiqa(path)] == ["Q1"]
    write(path, "\n" + row + HEADER)
    with pytest.raises(IngestionError, match="line 3: label must be 0 or 1, got 'Label'"):
        load_wikiqa(path)


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
    [group] = attach_parses(load_wikiqa(corpus), conllu)
    assert (group.question, group.candidates) == ("nobody won", (("S1", "alice won", 1),))
    question, answer = group.parses
    assert question.lemmas == ("nobody", "win")
    assert question.upos == ("PRON", "VERB")
    assert question.heads == (2, 0)
    assert question.deprels == ("nsubj", "root")
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
    assert groups[0].parses[0].lemmas[0] == "nobody"
    assert groups[0].parses[1].lemmas[0] == "alice"


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
    assert groups[0].parses[0].lemmas == ("nobody", "win")


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
    assert groups[0].parses[0].lemmas == ("do", "it")
    assert groups[0].parses[0].heads == (0, 1)


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
        Sentence(("w",) * n, ("NOUN",) * n, tuple(heads), ("dep",) * n)
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
    root = make_sentence([("a", "a", "NOUN", 0, "root"), ("b", "b", "NOUN", 1, "dep")])
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
    with pytest.raises(IngestionError) as missing:
        attach_parses(load_wikiqa(corpus), conllu, index)
    assert str(missing.value) == f"{conllu}: no parse for 1 of 2 ids: S1"


@pytest.mark.parametrize("candidates, shown", [
    (4, "Q1, S1, S2, S3, S4"),
    (11, "Q1, S1, S2, S3, S4, ..."),
])
def test_attach_parses_missing_ids_are_counted_and_the_first_five_named(
    tmp_path, candidates, shown
):
    # An index that covers none of a large corpus must not print every id.
    rows = "".join(f"Q1\tq\tD\tt\tS{i}\tc\t0\n" for i in range(1, candidates + 1))
    corpus = write(tmp_path / "c.tsv", rows)
    conllu = write(tmp_path / "p.conllu", "# sent_id = x\n1\tw\tw\tX\t_\t_\t0\troot\t_\t_\n")
    index = write(tmp_path / "i.tsv", "")
    n = candidates + 1  # the question too
    with pytest.raises(IngestionError) as missing:
        attach_parses(load_wikiqa(corpus), conllu, index)
    assert str(missing.value) == f"{conllu}: no parse for {n} of {n} ids: {shown}"


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
        assert len(group.parses) == 1 + len(group.candidates)
        for sentence in group.parses:
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
    sentence = make_sentence([("go", "go", "VERB", 0, "root")])
    assert sentence.lemmas == ("go",)
    assert sentence.edges == ()
    assert Sentence((), (), (), ()).edges == ()


def test_five_token_fixture_edges():
    sentence = make_sentence(
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
        [
            ("run", "run", "VERB", 0, "root"),
            ("fast", "fast", "ADV", 1, "advmod"),
            ("fast", "fast", "ADV", 1, "advmod"),
        ],
    )
    assert edge_signatures(sentence) == [("run", "fast", "advmod")] * 2


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
    assert groups[0].parses[0].lemmas == ("paris",)


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
        relation_coverages([(gq, [ga])])[0],
        vocabulary_coverages([(gq, [ga])])[0],
        *graph_coverage_features(gq, [ga], 3)[0],
    )


def test_lemma_case_is_normalized_once_for_every_feature():
    # A Sentence lowercases its lemmas when it is built, so a pair that
    # differs only in lemma case gets the same value from every feature.
    def recased(rows, case):
        return [(form, case(lemma), upos, head, rel) for form, lemma, upos, head, rel in rows]

    lower = graph_features(make_sentence(QUESTION_ROWS), make_sentence(ANSWER_ROWS))
    gq = make_sentence(recased(QUESTION_ROWS, str.upper))
    ga = make_sentence(recased(ANSWER_ROWS, str.title))
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


# Parity with the ingestion loops as first written (oracles.py): the reader
# and the depth walk must return what they returned, or raise the same error.


def outcome(function, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return function(*args)
    except (ValueError, IngestionError) as exc:
        return type(exc).__name__, str(exc)


def message_kind(result, prefix=""):
    """The kind of an outcome: "read" for a returned value, else the error
    text after `prefix` with every number replaced by N."""
    if not isinstance(result[0], str):
        return "read"
    return re.sub(r"-?\d+", "N", result[1].removeprefix(prefix))


def seeded_head_arrays(rng, count):
    """Head arrays of random trees of 1 to 12 tokens (root anywhere); six
    of every seven are broken where the size allows: a self-head, a
    2-cycle, a longer cycle, no root, two or more roots, or a head out of
    range."""
    for i in range(count):
        n = rng.randint(1, 12)
        order = rng.sample(range(1, n + 1), n)  # order[0] is the root
        heads = [0] * n
        for k, token in enumerate(order[1:], start=1):
            heads[token - 1] = order[rng.randrange(k)]
        dependents = order[1:]
        kind = i % 7
        if kind == 1:
            token = rng.choice(order)
            heads[token - 1] = token
        elif kind == 2 and n >= 3:
            a, b = rng.sample(dependents, 2)
            heads[a - 1], heads[b - 1] = b, a
        elif kind == 3 and n >= 4:
            cycle = rng.sample(dependents, rng.randint(3, len(dependents)))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                heads[a - 1] = b
        elif kind == 4:
            heads[order[0] - 1] = rng.randint(1, n)
        elif kind == 5 and n >= 2:
            for token in rng.sample(dependents, rng.randint(1, len(dependents))):
                heads[token - 1] = 0
        elif kind == 6:
            heads[rng.randrange(n)] = rng.choice((-2, -1, n + 1, n + 5))
        yield tuple(heads)


def test_tree_depths_match_the_first_written_walk():
    kinds = set()
    for heads in seeded_head_arrays(random.Random(2403), 3000):
        result = outcome(tree_depths, heads)
        assert result == outcome(reference_tree_depths, heads), heads
        kinds.add(message_kind(result))
    # trees were drawn, and arrays that meet each error of tree_depths
    assert kinds == {
        "read", "single-root violation (N roots in N tokens)", "head N out of range N..N",
        "token N is its own head", "cycle through token N",
    }


# Texts a mutation writes into the ID or HEAD column.
ID_TEXTS = ("01", "+1", " 1", "1_0", "1-2", "1.1", "1-", ".5", "_")


def mutate_conllu(lines, rng):
    """A copy of CoNLL-U lines with one to three edits: an odd ID or HEAD
    text, a LEMMA of "_", "" or " ", a column dropped or added, a
    `#sent_id=x` or `# sent_id_orig` comment, an empty or whitespace line,
    or a lone CR inside a line."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        columns = lines[i].split("\t")
        op = rng.randrange(7)
        if op == 0 and len(columns) == 10:
            columns[rng.choice((0, 0, 6))] = rng.choice(ID_TEXTS)
        elif op == 1 and len(columns) == 10:
            columns[2] = rng.choice(("_", "", " "))
        elif op == 2:
            del columns[rng.randrange(len(columns))]
        elif op == 3:
            columns.insert(rng.randrange(len(columns) + 1), "x")
        elif op == 4:
            lines.insert(i, rng.choice(("#sent_id=x", "# sent_id_orig = 7", "#")))
            continue
        elif op == 5:
            lines.insert(i, rng.choice(("", "", " ", "\t")))
            continue
        else:
            line = lines[i]
            cut = rng.randrange(len(line) + 1)
            lines[i] = line[:cut] + "\r" + line[cut:]
            continue
        lines[i] = "\t".join(columns)
    return lines


def test_conllu_reader_matches_the_first_written_loop(mini_dir, tmp_path):
    lines = (mini_dir / "parses_train.conllu").read_text(encoding="utf-8").splitlines()[:60]
    rng = random.Random(2404)
    path = tmp_path / "p.conllu"
    kinds = set()
    for _ in range(400):
        end = rng.choice(("\n", "\r\n", "\r"))
        text = end.join(mutate_conllu(lines, rng)) + rng.choice(("", end))
        path.write_bytes(text.encode("utf-8"))
        result = outcome(_read_conllu_blocks, path)
        assert result == outcome(reference_conllu_blocks, path), text
        kinds.add(message_kind(result, f"{path}: "))
    # blocks were read, and both line errors were met
    assert kinds == {
        "read", "line N: expected N columns, got N", "line N: non-numeric id or head",
    }


def test_conllu_reader_reads_each_odd_number_text_as_int_does(tmp_path):
    # Each distinct ID or HEAD text is parsed once and reused: "01", "+1",
    # " 1" and "1" are all 1, and "1_0" is 10, wherever they appear.
    rows = [("01", "0"), ("+2", "01"), (" 3", "+2"), ("1_0", "1")]
    block = "".join(f"{i}\tw\tw\tX\t_\t_\t{h}\tdep\t_\t_\n" for i, h in rows)
    path = write(tmp_path / "p.conllu", block + "\n" + block)
    expected = ((1, 2, 3, 10), ("w",) * 4, ("X",) * 4, (0, 1, 2, 1), ("dep",) * 4)
    assert _read_conllu_blocks(path) == [("1", expected), ("2", expected)]
    assert reference_conllu_blocks(path) == _read_conllu_blocks(path)


@pytest.mark.parametrize("heads", [(0, 1, 1, 3), (2, 0, 2, 3), (4, 4, 2, 0)],
                         ids=["root-first", "root-middle", "root-last"])
def test_edges_leave_out_the_root_wherever_it_is(heads):
    n = len(heads)
    sentence = Sentence(("w",) * n, ("X",) * n, heads, ("a", "b", "c", "d"))
    assert list(sentence.edges) == head_edges(sentence)
    assert len(sentence.edges) == n - 1
