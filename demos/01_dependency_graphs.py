#!/usr/bin/env python3
"""Read dependency graphs from CoNLL-U parses and inspect their structure.

A parsed sentence is a rooted tree: one node per token, one labeled edge per
non-root token running from governor to dependent.  A Sentence is one such
parse: it keeps four CoNLL-U columns of each token (lemma, UPOS, head,
deprel), so token i's lemma is `sentence.lemmas[i - 1]`.  A question group
holds the texts, and `attach_parses` adds `group.parses`: the question's
parse, then each candidate's.
"""

from collections import Counter
from pathlib import Path
import tempfile

from qatrigger import attach_parses, load_wikiqa
from qatrigger.coverage import edge_signatures

# A two-row corpus: one question with one candidate answer.
corpus = (
    "QuestionID\tQuestion\tDocumentID\tDocumentTitle\tSentenceID\tSentence\tLabel\n"
    "Q1\thow did david carradine die\tD1\tDavid Carradine\t"
    "S1\tdavid carradine died of asphyxiation\t1\n"
)

# Parses for both sentences, questions first (positional alignment).
conllu = """\
1\thow\thow\tADV\tWRB\t_\t5\tadvmod\t_\t_
2\tdid\tdo\tAUX\tVBD\t_\t5\taux\t_\t_
3\tdavid\tdavid\tPROPN\tNNP\t_\t4\tcompound\t_\t_
4\tcarradine\tcarradine\tPROPN\tNNP\t_\t5\tnsubj\t_\t_
5\tdie\tdie\tVERB\tVB\t_\t0\troot\t_\t_

1\tdavid\tdavid\tPROPN\tNNP\t_\t2\tcompound\t_\t_
2\tcarradine\tcarradine\tPROPN\tNNP\t_\t3\tnsubj\t_\t_
3\tdied\tdie\tVERB\tVBD\t_\t0\troot\t_\t_
4\tof\tof\tADP\tIN\t_\t5\tcase\t_\t_
5\tasphyxiation\tasphyxiation\tNOUN\tNN\t_\t3\tobl\t_\t_
"""

with tempfile.TemporaryDirectory() as tmp:
    corpus_path = Path(tmp) / "corpus.tsv"
    conllu_path = Path(tmp) / "parses.conllu"
    corpus_path.write_text(corpus)
    conllu_path.write_text(conllu)

    groups = load_wikiqa(corpus_path)
    groups = attach_parses(groups, conllu_path)  # no index file -> positional

group = groups[0]
question, answer = group.parses
texts = (group.question, group.candidates[0][1])

for label, text, sentence in zip(("question", "answer"), texts, group.parses):
    print(f"{label}:", text)
    print("  edges (head, dependent, relation):", sentence.edges)
    for gov, dep, rel in sentence.edges:
        print(f"  {sentence.lemmas[gov - 1]} -[{rel}]-> {sentence.lemmas[dep - 1]}")
    print()

# Edge signatures are (governor lemma, dependent lemma, relation) triples;
# the question and the answer share the compound and nsubj links even though
# "die" and "died" differ on the surface.
shared = Counter(edge_signatures(question)) & Counter(edge_signatures(answer))
print("shared edge signatures:", sorted(shared))
