#!/usr/bin/env python3
"""The three standalone lexical scorers: BM25, n-gram coverage, embeddings.

Each scorer takes a batch of (question tokens, candidate token lists)
groups, here a batch of one, and returns one score per candidate.  BM25
treats each group's candidates as a tiny document pool.  No parses are
involved.
"""

import math

import numpy as np

from qatrigger import (
    EmbeddingTable,
    FeatureResources,
    bm25_scores,
    ngram_scores,
    semantic_similarities,
    tokenize,
)

question = tokenize("how did david carradine die")
answers = [
    "david carradine died of asphyxiation in 2009.",
    "Carradine starred in the kung fu television series.",
    "how did the dinosaurs die out?",
]
tokenized = [tokenize(a) for a in answers]
# The published defaults, which the feature pipeline and the CLI use too.
defaults = FeatureResources()
k1, b, n_max = defaults.k1, defaults.b, defaults.n_max

print(f"BM25 (k1={k1}, b={b}); pool idf saturates for terms shared across candidates")
for text, score in zip(answers, bm25_scores([(question, tokenized)], k1, b)):
    print(f"  {score:7.3f}  {text}")


def idf(term):
    """ln((N - n + 0.5) / (n + 0.5)) over the pool: N answers, n holding `term`."""
    n = sum(term in tokens for tokens in tokenized)
    return math.log((len(tokenized) - n + 0.5) / (n + 0.5))


print(f"  idf('die') = {idf('die'):.3f}, idf('carradine') = {idf('carradine'):.3f}")

orders = range(1, n_max + 1)
weights = "+".join(map(str, orders))
print(f"\nn-gram coverage up to trigrams (clipped counts, weighted by {weights})")
for text, tokens, score in zip(answers, tokenized, ngram_scores([(question, tokenized)], n_max)):
    # The same answer scored alone with each shorter n_max.
    by_n = [round(ngram_scores([(question, [tokens])], n)[0], 3) for n in orders]
    print(f"  score {score:.3f}  by n_max {by_n}  {text}")

# A toy embedding table; real runs load word2vec/GloVe-style text files.
rng = np.random.default_rng(0)
vocab = sorted({w for tokens in [question, *tokenized] for w in tokens} - {"how", "the", "did"})
table = EmbeddingTable(
    matrix=rng.normal(size=(len(vocab), 8)), rows={w: i for i, w in enumerate(vocab)}
)

print("\naveraged-embedding cosine (out-of-vocabulary words are skipped)")
for text, score in zip(answers, semantic_similarities([(question, tokenized)], table)):
    print(f"  {score:7.3f}  {text}")
