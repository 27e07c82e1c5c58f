#!/usr/bin/env python3
"""The three standalone lexical scorers: BM25, n-gram coverage, embeddings.

Each treats the candidate answers of one question as a tiny document pool;
no parses are involved.
"""

import numpy as np

from qatrigger import (
    AnswerPool,
    EmbeddingTable,
    bm25_idf,
    bm25_score,
    ngram_coverage,
    ngram_score,
    semantic_similarity,
    tokenize,
)

question = tokenize("how did david carradine die")
answers = [
    "david carradine died of asphyxiation in 2009.",
    "Carradine starred in the kung fu television series.",
    "how did the dinosaurs die out?",
]
tokenized = [tokenize(a) for a in answers]
pool = AnswerPool.build(tokenized)

print("BM25 (k1=1.5, b=0.75); pool idf saturates for terms shared across candidates")
for text, tokens in zip(answers, tokenized):
    print(f"  {bm25_score(question, tokens, pool):7.3f}  {text}")
print(f"  idf('die') = {bm25_idf(pool, 'die'):.3f}, idf('carradine') = {bm25_idf(pool, 'carradine'):.3f}")

print("\nn-gram coverage up to trigrams (clipped counts, weighted by 1+2+3)")
for text, tokens in zip(answers, tokenized):
    per_n = [ngram_coverage(question, tokens, n) for n in (1, 2, 3)]
    print(f"  score {ngram_score(question, tokens):.3f}  per-n {per_n}  {text}")

# A toy embedding table; real runs load word2vec/GloVe-style text files.
rng = np.random.default_rng(0)
vocab = sorted({w for tokens in [question, *tokenized] for w in tokens} - {"how", "the", "did"})
table = EmbeddingTable(
    matrix=rng.normal(size=(len(vocab), 8)), rows={w: i for i, w in enumerate(vocab)}
)

print("\naveraged-embedding cosine (out-of-vocabulary words are skipped)")
for text, tokens in zip(answers, tokenized):
    print(f"  {semantic_similarity(question, tokens, table):7.3f}  {text}")
