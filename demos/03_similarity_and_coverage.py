#!/usr/bin/env python3
"""TF-IDF graph similarity and coverage features on one question/answer pair.

Every feature function scores a question against a group of answers and
returns one value per answer; here the group holds one answer.  Relation
and vocabulary coverage score a batch of such groups at once, here a batch
of one group.

Similarity renders each graph as weighted vectors of lemmas, lemma pairs,
and (pair, relation) triplets, then takes cosines.  Coverage counts how
much of the question's structure the answer reproduces: matched edge
signatures, matched lemmas, and the sub-graph spanned by short paths
between shared nodes.
"""

from qatrigger import (
    align_subgraph,
    build_df,
    graph_coverage_features,
    graph_similarities,
    relation_coverages,
    vocabulary_coverages,
)
from qatrigger.corpus import Sentence


def sentence(rows):
    """rows: (form, lemma, upos, head, deprel) of tokens 1, 2, ...; returns
    the text, the forms joined by spaces, and the parse: a Sentence keeps the
    lemma, UPOS, head and deprel columns."""
    forms, lemmas, upos, heads, deprels = zip(*rows)
    return " ".join(forms), Sentence(lemmas, upos, heads, deprels)


question_text, question = sentence(
    [
        ("how", "how", "ADV", 5, "advmod"),
        ("did", "do", "AUX", 5, "aux"),
        ("david", "david", "PROPN", 4, "compound"),
        ("carradine", "carradine", "PROPN", 5, "nsubj"),
        ("die", "die", "VERB", 0, "root"),
    ],
)
answer_text, answer = sentence(
    [
        ("david", "david", "PROPN", 2, "compound"),
        ("carradine", "carradine", "PROPN", 3, "nsubj"),
        ("died", "die", "VERB", 0, "root"),
        ("of", "of", "ADP", 5, "case"),
        ("asphyxiation", "asphyxiation", "NOUN", 3, "obl"),
    ],
)

# Document frequencies normally come from the training split (or a file);
# here the two sentences themselves act as a two-document corpus.
tables = build_df([question, answer])

[(sim_word, sim_pair, sim_triplet)] = graph_similarities(
    question, [answer], tables, alphas=(0.0, 0.0, 0.0)
)
print("question:", question_text)
print("answer:  ", answer_text, "\n")
print(f"word-level similarity:    {sim_word:.4f}")
print(f"pair-level similarity:    {sim_pair:.4f}")
print(f"triplet-level similarity: {sim_triplet:.4f}")

# Raising a threshold only ever removes vector entries, never adds them.
[(strict_word, _, _)] = graph_similarities(question, [answer], tables, alphas=(1.5, 0.0, 0.0))
print(f"word similarity with alpha=1.5:  {strict_word:.4f} (filtering drops weights)")

[rel_cov] = relation_coverages([(question, [answer])])
[vocab_cov] = vocabulary_coverages([(question, [answer])])
print(f"\nrelation coverage:  {rel_cov:.4f}  (matched edges / question edges)")
print(f"vocabulary coverage: {vocab_cov:.4f}  (matched lemmas / question nodes)")

edges = align_subgraph(set(question.lemmas), answer, m=3)
nodes = {node for edge in edges for node in edge}
print(f"\naligned sub-graph over shared lemmas: nodes {sorted(nodes)}, edges {sorted(edges)}")
[(cov_ans, cov_ques)] = graph_coverage_features(question, [answer], m=3)
print(f"graph coverage vs answer:   {cov_ans:.4f}")
print(f"graph coverage vs question: {cov_ques:.4f}")
