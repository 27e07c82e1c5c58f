#!/usr/bin/env python3
"""Generate the bundled mini corpus, by default under tests/data/mini/.

    python3 scripts/make_mini_corpus.py [--out DIR]

Three WikiQA-style splits of 12 questions each, with hand-designed synthetic
parses.  Correct answers share dependency edges with their question; each
answerable question also gets a "salad" distractor that reuses the question's
surface words under a scrambled parse, so lexical scorers rank it high while
the graph features stay at zero.  Unanswerable questions get salads and
related-but-wrong candidates.  Deterministic: rerunning reproduces the same
bytes.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "mini"

# token = (form, lemma, upos, xpos, head, deprel)
Token = tuple[str, str, str, str, int, str]

A_NAMES = {
    "train": ["alice", "bob", "carol", "david"],
    "dev": ["irene", "jack", "kate", "liam"],
    "test": ["quinn", "rosa", "sam", "tina"],
}
CAUSES = ["fever", "storm", "crash", "fall"]
B_NAMES = {
    "train": ["emma", "frank", "grace", "henry"],
    "dev": ["mona", "noah", "olga", "peter"],
    "test": ["uma", "vlad", "wendy", "xavier"],
}
BOOKS = {
    "train": ["iliad", "odyssey", "hamlet", "beowulf"],
    "dev": ["dune", "solaris", "ivanhoe", "dracula"],
    "test": ["walden", "rebecca", "gatsby", "ulysses"],
}
C_CITIES = {"train": ["paris", "rome"], "dev": ["tokyo", "oslo"], "test": ["cairo", "lima"]}
D_RACES = {"train": ["derby", "regatta"], "dev": ["marathon", "rally"], "test": ["slalom", "sprint"]}

PAINTERS = ["yuri", "zoe", "omar", "nadia"]
ARTS = ["mural", "fresco", "statue", "sketch"]
CITIES_FILLER = ["bergen", "quito", "dodoma", "hanoi"]
SINGERS = ["pablo", "mira", "teo", "sana"]
SONGS = ["hymn", "ballad", "anthem", "chorus"]


def propn(form: str, head: int, rel: str) -> Token:
    return (form, form, "PROPN", "NNP", head, rel)


def noun(form: str, head: int, rel: str) -> Token:
    return (form, form, "NOUN", "NN", head, rel)


def q_how_die(name: str) -> list[Token]:
    return [
        ("how", "how", "ADV", "WRB", 4, "advmod"),
        ("did", "do", "AUX", "VBD", 4, "aux"),
        propn(name, 4, "nsubj"),
        ("die", "die", "VERB", "VB", 0, "root"),
    ]


def a_pos(name: str, cause: str) -> list[Token]:
    return [
        propn(name, 2, "nsubj"),
        ("died", "die", "VERB", "VBD", 0, "root"),
        ("of", "of", "ADP", "IN", 4, "case"),
        noun(cause, 2, "obl"),
    ]


def a_salad(name: str) -> list[Token]:
    return [
        ("how", "how", "ADV", "WRB", 5, "advmod"),
        ("did", "do", "AUX", "VBD", 5, "aux"),
        propn(name, 5, "nsubj"),
        ("die", "die", "VERB", "VB", 3, "acl"),
        ("quickly", "quickly", "ADV", "RB", 0, "root"),
    ]


def filler_paint(i: int) -> list[Token]:
    return [
        propn(PAINTERS[i % 4], 2, "nsubj"),
        ("painted", "paint", "VERB", "VBD", 0, "root"),
        noun(ARTS[i % 4], 2, "obj"),
        ("in", "in", "ADP", "IN", 5, "case"),
        propn(CITIES_FILLER[i % 4], 2, "obl"),
    ]


def filler_sing(i: int) -> list[Token]:
    return [
        propn(SINGERS[i % 4], 2, "nsubj"),
        ("sang", "sing", "VERB", "VBD", 0, "root"),
        noun(SONGS[i % 4], 2, "obj"),
        ("loudly", "loudly", "ADV", "RB", 2, "advmod"),
    ]


def filler_carve(i: int) -> list[Token]:
    return [
        propn(PAINTERS[(i + 2) % 4], 2, "nsubj"),
        ("carved", "carve", "VERB", "VBD", 0, "root"),
        noun(ARTS[(i + 2) % 4], 2, "obj"),
        ("quietly", "quietly", "ADV", "RB", 2, "advmod"),
    ]


def filler_cook(i: int, dish: str) -> list[Token]:
    return [
        propn(SINGERS[(i + 1) % 4], 2, "nsubj"),
        ("cooked", "cook", "VERB", "VBD", 0, "root"),
        noun(dish, 2, "obj"),
        ("slowly", "slowly", "ADV", "RB", 2, "advmod"),
    ]


def q_who_wrote(book: str) -> list[Token]:
    return [
        ("who", "who", "PRON", "WP", 2, "nsubj"),
        ("wrote", "write", "VERB", "VBD", 0, "root"),
        ("the", "the", "DET", "DT", 4, "det"),
        propn(book, 2, "obj"),
    ]


def b_pos(writer: str, book: str) -> list[Token]:
    return [
        propn(writer, 2, "nsubj"),
        ("wrote", "write", "VERB", "VBD", 0, "root"),
        ("the", "the", "DET", "DT", 4, "det"),
        propn(book, 2, "obj"),
    ]


def b_salad(book: str) -> list[Token]:
    return [
        ("the", "the", "DET", "DT", 4, "det"),
        propn(book, 0, "root"),
        ("who", "who", "PRON", "WP", 2, "nsubj"),
        ("him", "he", "PRON", "PRP", 5, "obj"),
        ("inspired", "inspire", "VERB", "VBD", 2, "acl"),
    ]


def q_where_located(city: str) -> list[Token]:
    return [
        ("where", "where", "ADV", "WRB", 4, "advmod"),
        ("is", "be", "AUX", "VBZ", 4, "aux"),
        propn(city, 4, "nsubj"),
        ("located", "locate", "VERB", "VBN", 0, "root"),
    ]


def c_salad(city: str) -> list[Token]:
    return [
        ("is", "be", "AUX", "VBZ", 5, "aux"),
        propn(city, 5, "nsubj"),
        ("located", "locate", "VERB", "VBN", 2, "acl"),
        ("where", "where", "ADV", "WRB", 5, "advmod"),
        ("maybe", "maybe", "ADV", "RB", 0, "root"),
    ]


def c_related(city: str) -> list[Token]:
    return [
        propn(city, 5, "nsubj"),
        ("is", "be", "AUX", "VBZ", 5, "cop"),
        ("a", "a", "DET", "DT", 5, "det"),
        ("big", "big", "ADJ", "JJ", 5, "amod"),
        ("town", "town", "NOUN", "NN", 0, "root"),
    ]


def q_when_held(race: str) -> list[Token]:
    return [
        ("when", "when", "ADV", "WRB", 4, "advmod"),
        ("was", "be", "AUX", "VBD", 4, "aux"),
        propn(race, 4, "nsubjpass"),
        ("held", "hold", "VERB", "VBN", 0, "root"),
    ]


def d_salad(race: str) -> list[Token]:
    return [
        propn(race, 5, "nsubj"),
        ("was", "be", "AUX", "VBD", 5, "aux"),
        ("held", "hold", "VERB", "VBN", 1, "acl"),
        ("when", "when", "ADV", "WRB", 5, "advmod"),
        ("exactly", "exactly", "ADV", "RB", 0, "root"),
    ]


def d_related(winner: str, race: str) -> list[Token]:
    return [
        propn(winner, 2, "nsubj"),
        ("won", "win", "VERB", "VBD", 0, "root"),
        propn(race, 2, "obj"),
        ("today", "today", "NOUN", "NN", 2, "obl"),
    ]


def build_split(split: str):
    """Return (groups, sentences): groups carry candidate rows, sentences carry parses."""
    groups = []  # (qid, question_text, doc_title, [(cid, text, label), ...])
    parses = {}  # sentence id -> token list
    qnum = 0

    def add(question_tokens, candidates):
        nonlocal qnum
        qnum += 1
        qid = f"{split}-q{qnum:02d}"
        parses[qid] = question_tokens
        rows = []
        for k, (tokens, label) in enumerate(candidates, start=1):
            cid = f"{qid}-c{k}"
            parses[cid] = tokens
            rows.append((cid, " ".join(t[0] for t in tokens), label))
        text = " ".join(t[0] for t in question_tokens)
        groups.append((qid, text, rows))

    for i in range(4):
        name, cause = A_NAMES[split][i], CAUSES[i]
        add(
            q_how_die(name),
            [
                (a_salad(name), 0),
                (a_pos(name, cause), 1),
                (filler_paint(i), 0),
                (filler_sing(i), 0),
            ],
        )
    for i in range(4):
        writer, book = B_NAMES[split][i], BOOKS[split][i]
        add(
            q_who_wrote(book),
            [
                (filler_sing(i + 1), 0),
                (b_salad(book), 0),
                (b_pos(writer, book), 1),
                (filler_carve(i), 0),
            ],
        )
    for i in range(2):
        city = C_CITIES[split][i]
        add(
            q_where_located(city),
            [(c_salad(city), 0), (c_related(city), 0), (filler_cook(i, "stew"), 0)],
        )
    for i in range(2):
        race = D_RACES[split][i]
        winner = PAINTERS[(i + 1) % 4]
        add(
            q_when_held(race),
            [(d_salad(race), 0), (d_related(winner, race), 0), (filler_cook(i + 2, "meal"), 0)],
        )
    return groups, parses


def write_split(out: Path, split: str) -> tuple[list, dict]:
    groups, parses = build_split(split)
    tsv = ["QuestionID\tQuestion\tDocumentID\tDocumentTitle\tSentenceID\tSentence\tLabel"]
    for qid, qtext, rows in groups:
        for cid, text, label in rows:
            tsv.append(f"{qid}\t{qtext}\tD-{qid}\t{qtext.split()[-1]}\t{cid}\t{text}\t{label}")
    (out / f"{split}.tsv").write_text("\n".join(tsv) + "\n", encoding="utf-8")

    conllu_lines = []
    index_lines = []
    ordered_ids = [qid for qid, _, _ in groups]
    ordered_ids += [cid for _, _, rows in groups for cid, _, _ in rows]
    for sent_id in ordered_ids:
        tokens = parses[sent_id]
        conllu_lines.append(f"# sent_id = {sent_id}")
        conllu_lines.append(f"# text = {' '.join(t[0] for t in tokens)}")
        for idx, (form, lemma, upos, xpos, head, rel) in enumerate(tokens, start=1):
            conllu_lines.append(
                f"{idx}\t{form}\t{lemma}\t{upos}\t{xpos}\t_\t{head}\t{rel}\t_\t_"
            )
        conllu_lines.append("")
        index_lines.append(f"{sent_id}\t{sent_id}")
    (out / f"parses_{split}.conllu").write_text(
        "\n".join(conllu_lines) + "\n", encoding="utf-8"
    )
    (out / f"index_{split}.tsv").write_text(
        "\n".join(index_lines) + "\n", encoding="utf-8"
    )
    return groups, parses


def write_scores(out: Path, all_groups: dict) -> None:
    lines = []
    flip = 0
    for split, groups in all_groups.items():
        for qid, _, rows in groups:
            for k, (cid, _, label) in enumerate(rows):
                if label == 1:
                    score = 0.76 + 0.02 * (k % 3)
                else:
                    score = 0.12 + 0.03 * ((flip + k) % 4)
                flip += 1
                lines.append(f"{qid}\t{cid}\t{score:.2f}")
    (out / "scores.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_embeddings(out: Path, all_parses: list[dict]) -> None:
    vocab = set()
    skip = {"how", "did", "the", "a", "who", "him", "is", "was", "where", "when", "of", "in"}
    for parses in all_parses:
        for tokens in parses.values():
            for form, _, _, _, _, _ in tokens:
                if form not in skip:
                    vocab.add(form)
    lines = []
    for k, word in enumerate(sorted(vocab)):
        angle = 0.37 * (k + 1)
        lines.append(f"{word} {math.cos(angle):.6f} {math.sin(angle):.6f}")
    (out / "embeddings.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pos_costs(out: Path) -> None:
    tags = [
        "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
        "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
    ]
    classes = [("NOUN", "PROPN", "PRON"), ("VERB", "AUX"), ("ADJ", "ADV")]
    lines = ["DEFAULT\t1.0"]
    for tag in tags:
        lines.append(f"{tag}\t{tag}\t0.3")
    for group in classes:
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                lines.append(f"{a}\t{b}\t0.5")
    (out / "pos_costs.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config(out: Path) -> None:
    config = """[data]
train = train.tsv
dev = dev.tsv
test = test.tsv
conllu_train = parses_train.conllu
conllu_dev = parses_dev.conllu
conllu_test = parses_test.conllu
index_train = index_train.tsv
index_dev = index_dev.tsv
index_test = index_test.tsv
scores = scores.tsv
embeddings = embeddings.txt

[resources]
pos_costs = pos_costs.tsv

[features]
manifest = ged,sim_word,sim_pair,sim_triplet,rel_cov,graph_cov_ans,graph_cov_ques,vocab_cov

[hyper]
alpha1 = 0
alpha2 = 0
alpha3 = 0
m = 3
"""
    (out / "config.ini").write_text(config, encoding="utf-8")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="output directory")
    out = parser.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    all_groups = {}
    all_parses = []
    for split in ("train", "dev", "test"):
        groups, parses = write_split(out, split)
        all_groups[split] = groups
        all_parses.append(parses)
    write_scores(out, all_groups)
    write_embeddings(out, all_parses)
    write_pos_costs(out)
    write_config(out)
    n = sum(len(g) for g in all_groups.values())
    print(f"wrote mini corpus ({n} questions) to {out}")


if __name__ == "__main__":
    main()
