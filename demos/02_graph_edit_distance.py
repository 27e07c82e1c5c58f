#!/usr/bin/env python3
"""Rank candidate answers by normalized graph edit distance.

The distance is a single assignment problem over node substitutions,
deletions, and insertions.  Substituting a node is free when the lemmas
match, otherwise it costs a POS-pair substitute weight; every operation
also charges for the mismatch between incident relation multisets.  The
total is normalized by the all-delete/all-insert cost, so 0 means
identical graphs and 1 means nothing aligns.
"""

from qatrigger import GedConfig, graph_edit_distances
from qatrigger.corpus import Sentence


def sentence(rows):
    """rows: (form, lemma, upos, head, deprel) of tokens 1, 2, ...; a Sentence
    is the parse, and keeps the lemma, UPOS, head and deprel columns."""
    _, lemmas, upos, heads, deprels = zip(*rows)
    return Sentence(lemmas, upos, heads, deprels)


question_text = "how old was sue lyon when she made lolita"
question = sentence(
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

candidates = {
    "lolita is a film by kubrick from 1962": sentence(
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
    ),
    "the actress who played lolita sue lyon was fourteen": sentence(
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
    ),
    "kubrick later said censorship was severe for the film": sentence(
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
    ),
}

config = GedConfig()  # the default POS weights, edge weight and delete cost

print("question:", question_text, "\n")
# One call scores the whole group: the question's side is prepared once.
distances = graph_edit_distances(question, list(candidates.values()), config)
ranked = sorted(zip(distances, candidates))
for distance, text in ranked:
    print(f"  {distance:.4f}  {text}")

print("\nThe candidate naming sue lyon and lolita attains the smallest distance;")
print("lower is better, so edit distance alone already ranks it first.")
