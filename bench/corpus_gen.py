"""Seeded generator of WikiQA-shaped synthetic corpora for the benchmark.

The shape follows WikiQA (Yang et al., EMNLP 2015): about 9.6 candidate
sentences per question and about one third of questions answerable.  Lemmas
follow a Zipf law (s = 1) over a fixed 20k-lemma vocabulary, so the most
frequent lemmas behave like function words and are shared by many sentences.
Sentence lengths are lognormal: questions about 7 tokens, candidates about 25
tokens with a tail near 100.  Every parse is a single-rooted, acyclic,
projective tree.

Lengths and pool sizes are stratified: one value from the middle of each
quantile stratum, shuffled.  Every seed therefore gets the same multiset of
lengths and nearly the same amount of work, while the content differs; with
independent draws, the few answers in the tail near 100 tokens would swing
the cubic assignment cost by several percent from seed to seed.
The generator checks its own output (trees, unique ids) before writing.
bench/run.py runs it as a child process, so that the generator's memory does
not count in the benchmark's peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

SPLITS = ("train", "dev", "test")
VOCAB_SIZE = 20_000
FUNCTION_RANKS = 150  # the most frequent lemmas get function-word tags
OOV_RANKS = 1_000  # the rarest lemmas have no embedding
WH_WORDS = (("what", "PRON"), ("who", "PRON"), ("how", "ADV"), ("when", "ADV"),
            ("where", "ADV"), ("which", "DET"))
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
_FUNCTION_TAGS = (("DET", 3), ("ADP", 4), ("AUX", 2), ("PRON", 3), ("CCONJ", 1),
                  ("SCONJ", 1), ("PART", 1))
_CONTENT_TAGS = (("NOUN", 45), ("VERB", 20), ("ADJ", 12), ("PROPN", 13), ("ADV", 6),
                 ("NUM", 4))
_DEPRELS = {
    "DET": ("det",), "ADP": ("case",), "AUX": ("aux", "cop"),
    "PRON": ("nsubj", "obj", "nmod"), "CCONJ": ("cc",), "SCONJ": ("mark",),
    "PART": ("advmod", "mark"),
    "NOUN": ("nsubj", "obj", "obl", "nmod", "compound", "conj"),
    "PROPN": ("nsubj", "obj", "flat", "compound", "nmod"),
    "VERB": ("ccomp", "xcomp", "advcl", "conj", "acl"),
    "ADJ": ("amod", "xcomp"), "ADV": ("advmod",), "NUM": ("nummod",),
}
# Lognormal (median, sigma) and clip range of sentence lengths in tokens.
QUESTION_LENGTH = (6.5, 0.35, 3, 30)
ANSWER_LENGTH = (22.0, 0.5, 5, 100)
POOL_SIGMA, POOL_RANGE = 0.5, (2, 30)
TOPIC_SIZE, QUESTION_TOPIC_P, ANSWER_TOPIC_P = 4, 0.3, 0.08


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes and content knobs of one generated corpus."""

    questions: tuple[int, int, int]  # train / dev / test
    pairs: tuple[int, int, int]
    parses: bool  # write CoNLL-U parses and index files
    overlap: float  # share of candidate tokens copied from the question
    embedding_dim: int = 0  # 0: no embedding table
    scores: bool = False  # write an ext_score file


class Tok(NamedTuple):
    lemma: str
    upos: str
    head: int  # 1-based; 0 marks the root
    deprel: str


def _word(rank: int) -> str:
    digits, value = [], rank + len(_SYLLABLES)  # at least two syllables
    while value:
        value, digit = divmod(value, len(_SYLLABLES))
        digits.append(_SYLLABLES[digit])
    return "".join(reversed(digits))


class Vocabulary:
    """Fixed lemma list with Zipf(s=1) rank probabilities and one tag per lemma."""

    def __init__(self) -> None:
        tag_rng = random.Random(0)  # the vocabulary is the same for every seed
        self.lemmas = [_word(rank) for rank in range(VOCAB_SIZE)]
        self.upos = {}
        for rank, lemma in enumerate(self.lemmas):
            tags = _FUNCTION_TAGS if rank < FUNCTION_RANKS else _CONTENT_TAGS
            self.upos[lemma] = tag_rng.choices([t for t, _ in tags], [w for _, w in tags])[0]
        for lemma, tag in WH_WORDS:
            self.upos[lemma] = tag
        cumulative, total = [], 0.0
        for rank in range(VOCAB_SIZE):
            total += 1.0 / (rank + 1)
            cumulative.append(total)
        self._cumulative = cumulative

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.lemmas, cum_weights=self._cumulative, k=k)

    def content(self, rng: random.Random, k: int) -> list[str]:
        """Mid-frequency content lemmas, used as a question group's topic."""
        return [self.lemmas[rng.randrange(FUNCTION_RANKS, 5_000)] for _ in range(k)]


def stratified_lognormal(
    rng: random.Random, count: int, median: float, sigma: float, low: int, high: int
) -> list[int]:
    """The lognormal value at the middle of each of `count` quantile strata,
    clipped, rounded and shuffled: the multiset of values is the same for
    every seed, and only their order is random."""
    normal = statistics.NormalDist(math.log(median), sigma)
    values = [
        min(high, max(low, round(math.exp(normal.inv_cdf((i + 0.5) / count)))))
        for i in range(count)
    ]
    rng.shuffle(values)
    return values


def pool_sizes(rng: random.Random, questions: int, pairs: int) -> list[int]:
    """Candidates per question: lognormal shape, summing to exactly `pairs`."""
    low, high = POOL_RANGE
    if not low * questions <= pairs <= high * questions:
        raise ValueError(f"cannot split {pairs} pairs over {questions} questions")
    sizes = stratified_lognormal(rng, questions, pairs / questions, POOL_SIGMA, low, high)
    while sum(sizes) != pairs:
        i = rng.randrange(questions)
        step = 1 if sum(sizes) < pairs else -1
        if low <= sizes[i] + step <= high:
            sizes[i] += step
    return sizes


def projective_heads(rng: random.Random, n: int) -> list[int]:
    """Heads of a random projective tree over tokens 1..n (0 marks the root).

    Each segment of tokens that hangs off one parent is cut into 1-3
    contiguous chunks; each chunk's root attaches to the parent and the
    chunk's remaining tokens hang off that root on either side.
    """
    heads = [0] * (n + 1)
    root = rng.randint(1, n)
    stack = [(1, root, root), (root + 1, n + 1, root)]
    while stack:
        lo, hi, parent = stack.pop()
        if lo >= hi:
            continue
        k = min(hi - lo, rng.randint(1, 3))
        bounds = [lo, *sorted(rng.sample(range(lo + 1, hi), k - 1)), hi]
        for start, end in zip(bounds, bounds[1:]):
            head = rng.randrange(start, end)
            heads[head] = parent
            stack.append((start, head, head))
            stack.append((head + 1, end, head))
    return heads[1:]


def check_tree(heads: list[int]) -> None:
    """Raise ValueError unless heads form a single-rooted acyclic projective tree."""
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1:
        raise ValueError(f"parse has {sum(1 for h in heads if h == 0)} roots")
    ancestors: list[set[int]] = []
    for token in range(1, n + 1):
        seen, node = set(), token
        while heads[node - 1] != 0:
            node = heads[node - 1]
            if not 1 <= node <= n or node in seen or node == token:
                raise ValueError(f"parse has a cycle or bad head at token {token}")
            seen.add(node)
        ancestors.append(seen)
    for dep, head in enumerate(heads, start=1):
        if head == 0:
            continue
        for between in range(min(head, dep) + 1, max(head, dep)):
            if head not in ancestors[between - 1]:
                raise ValueError(f"arc {head}->{dep} is not projective")


def _sentence(rng: random.Random, vocab: Vocabulary, lemmas: list[str], parsed: bool) -> list[Tok]:
    if not parsed:
        return [Tok(lemma, vocab.upos[lemma], 0, "_") for lemma in lemmas]
    heads = projective_heads(rng, len(lemmas))
    tokens = []
    for lemma, head in zip(lemmas, heads):
        upos = vocab.upos[lemma]
        deprel = "root" if head == 0 else rng.choice(_DEPRELS[upos])
        tokens.append(Tok(lemma, upos, head, deprel))
    return tokens


def _plant_edges(rng: random.Random, question: list[Tok], answer: list[Tok], count: int) -> list[Tok]:
    """Copy `count` question edges (both lemmas and the relation) onto answer edges."""
    q_edges = [t for t in question if t.head]
    a_edges = [i for i, t in enumerate(answer) if t.head]
    answer = list(answer)
    for q_dep, a_dep in zip(rng.sample(q_edges, min(count, len(q_edges))),
                            rng.sample(a_edges, min(count, len(a_edges)))):
        q_gov = question[q_dep.head - 1]
        a_gov = answer[a_dep].head - 1
        answer[a_gov] = Tok(q_gov.lemma, q_gov.upos, answer[a_gov].head, answer[a_gov].deprel)
        answer[a_dep] = Tok(q_dep.lemma, q_dep.upos, answer[a_dep].head, q_dep.deprel)
    return answer


@dataclass
class Group:
    question_id: str
    question: list[Tok]
    topic: str
    candidates: list[tuple[str, list[Tok], int]]


def generate_split(
    rng: random.Random, vocab: Vocabulary, spec: CorpusSpec, split: str,
    questions: int, pairs: int,
) -> list[Group]:
    sizes = pool_sizes(rng, questions, pairs)
    q_lengths = stratified_lognormal(rng, questions, *QUESTION_LENGTH)
    a_lengths = stratified_lognormal(rng, pairs, *ANSWER_LENGTH)
    answerable = set(rng.sample(range(questions), round(questions / 3)))
    groups, next_answer = [], 0
    for qi in range(questions):
        qid = f"{split}-q{qi:05d}"
        topic = vocab.content(rng, TOPIC_SIZE)
        wh, _ = rng.choice(WH_WORDS)
        q_lemmas = [wh] + [
            rng.choice(topic) if rng.random() < QUESTION_TOPIC_P else vocab.draw(rng, 1)[0]
            for _ in range(q_lengths[qi] - 1)
        ]
        question = _sentence(rng, vocab, q_lemmas, spec.parses)
        positives = set()
        if qi in answerable:
            positives.add(rng.randrange(sizes[qi]))
            if sizes[qi] >= 4 and rng.random() < 0.2:
                positives.add(rng.randrange(sizes[qi]))
        candidates = []
        for ci in range(sizes[qi]):
            length = a_lengths[next_answer]
            next_answer += 1
            zipf = iter(vocab.draw(rng, length))
            lemmas = []
            for _ in range(length):
                roll = rng.random()
                if roll < spec.overlap:
                    lemmas.append(rng.choice(q_lemmas[1:]))
                elif roll < spec.overlap + ANSWER_TOPIC_P:
                    lemmas.append(rng.choice(topic))
                else:
                    lemmas.append(next(zipf))
            answer = _sentence(rng, vocab, lemmas, spec.parses)
            label = int(ci in positives)
            if spec.parses:  # answers share question edges, and so do some distractors
                answer = _plant_edges(rng, question, answer, 2 if label else int(rng.random() < 0.3))
            candidates.append((f"{qid}-c{ci:02d}", answer, label))
        groups.append(Group(qid, question, topic[0], candidates))
    return groups


def _text(tokens: list[Tok], end: str) -> str:
    words = [t.lemma for t in tokens]
    words[0] = words[0].capitalize()
    return " ".join(words) + end


def _check(splits: dict[str, list[Group]], spec: CorpusSpec) -> None:
    seen: set[str] = set()
    for groups in splits.values():
        for group in groups:
            for sid, tokens in [(group.question_id, group.question)] + [
                (cid, sent) for cid, sent, _ in group.candidates
            ]:
                if sid in seen:
                    raise ValueError(f"duplicate sentence id {sid!r}")
                seen.add(sid)
                if spec.parses:
                    try:
                        check_tree([t.head for t in tokens])
                    except ValueError as exc:
                        raise ValueError(f"{sid}: {exc}") from exc


def _write_conllu(groups: list[Group], conllu: Path, index: Path) -> None:
    blocks, index_lines = [], []
    for group in groups:
        for sid, tokens, end in [(group.question_id, group.question, "?")] + [
            (cid, sent, ".") for cid, sent, _ in group.candidates
        ]:
            lines = [f"# sent_id = {sid}", f"# text = {_text(tokens, end)}"]
            lines += [
                f"{i}\t{t.lemma}\t{t.lemma}\t{t.upos}\t_\t_\t{t.head}\t{t.deprel}\t_\t_"
                for i, t in enumerate(tokens, start=1)
            ]
            blocks.append("\n".join(lines) + "\n")
            index_lines.append(f"{sid}\t{sid}\n")
    conllu.write_text("\n".join(blocks), encoding="utf-8")
    index.write_text("".join(index_lines), encoding="utf-8")


def _write_embeddings(rng: random.Random, vocab: Vocabulary, dim: int, path: Path) -> None:
    # Components are multiples of 1/1000, formatted once and looked up.
    formatted = [f"{v / 1000:.3f}" for v in range(-999, 1000)]
    words = [w for w, _ in WH_WORDS] + vocab.lemmas[: VOCAB_SIZE - OOV_RANKS]
    draws = np.random.default_rng(rng.getrandbits(64))
    lines = [f"{len(words)} {dim}\n"]
    for word in words:
        row = draws.integers(0, 1999, size=dim).tolist()
        lines.append(word + " " + " ".join(map(formatted.__getitem__, row)) + "\n")
    path.write_text("".join(lines), encoding="utf-8")


def generate(spec: CorpusSpec, seed: int, out_dir: Path, manifest: tuple[str, ...]) -> dict:
    """Write one corpus and its config.ini under out_dir; return its statistics.

    The statistics hold, per split, the question and pair counts, the
    answerable share and the mean count of shared answer nodes per pair.
    """
    rng = random.Random(seed)
    vocab = Vocabulary()
    splits = {
        split: generate_split(rng, vocab, spec, split, q, p)
        for split, q, p in zip(SPLITS, spec.questions, spec.pairs)
    }
    _check(splits, spec)

    out_dir.mkdir(parents=True, exist_ok=True)
    stats: dict = {}
    score_lines = []
    for split, groups in splits.items():
        rows = ["QuestionID\tQuestion\tDocumentID\tDocumentTitle\tSentenceID\tSentence\tLabel\n"]
        shared = 0
        for group in groups:
            q_text = _text(group.question, "?")
            q_lemmas = {t.lemma for t in group.question}
            for cid, sent, label in group.candidates:
                rows.append(f"{group.question_id}\t{q_text}\tD-{group.question_id}\t"
                            f"{group.topic}\t{cid}\t{_text(sent, '.')}\t{label}\n")
                shared += sum(1 for t in sent if t.lemma in q_lemmas)
                score = min(1.0, max(0.0, 0.3 * label + rng.gauss(0.3, 0.15)))
                score_lines.append(f"{group.question_id}\t{cid}\t{score:.6f}\n")
        (out_dir / f"{split}.tsv").write_text("".join(rows), encoding="utf-8")
        if spec.parses:
            _write_conllu(groups, out_dir / f"parses_{split}.conllu", out_dir / f"index_{split}.tsv")
        pairs = len(rows) - 1
        stats[split] = {
            "questions": len(groups),
            "pairs": pairs,
            "answerable_share": sum(1 for g in groups if any(c[2] for c in g.candidates)) / len(groups),
            "mean_shared_answer_nodes": shared / pairs,
        }
    if spec.scores:
        (out_dir / "scores.tsv").write_text("".join(score_lines), encoding="utf-8")
    if spec.embedding_dim:
        _write_embeddings(rng, vocab, spec.embedding_dim, out_dir / "embeddings.txt")
    _write_config(spec, manifest, out_dir / "config.ini")
    return stats


def _write_config(spec: CorpusSpec, manifest: tuple[str, ...], path: Path) -> None:
    lines = ["[data]"]
    lines += [f"{split} = {split}.tsv" for split in SPLITS]
    if spec.parses:
        lines += [f"conllu_{split} = parses_{split}.conllu" for split in SPLITS]
        lines += [f"index_{split} = index_{split}.tsv" for split in SPLITS]
    if spec.scores:
        lines.append("scores = scores.tsv")
    if spec.embedding_dim:
        lines.append("embeddings = embeddings.txt")
    if spec.parses:
        lines += ["", "[resources]"]
        lines += [f"df_{level} = out/df_{level}.tsv" for level in ("word", "pair", "triplet")]
    lines += ["", "[features]", "manifest = " + ",".join(manifest), "", "[hyper]",
              # The DF tables come from a small train split, so the paper's
              # idf thresholds (7/5/2, set for about 22k sentences) would drop
              # almost every key; keep every key as the mini corpus does.
              "alpha1 = 0", "alpha2 = 0", "alpha3 = 0", "m = 3", ""]
    path.write_text("\n".join(lines), encoding="utf-8")


def describe(stats: dict) -> str:
    """One line per split: sizes, answerable share and mean shared answer nodes."""
    return "\n".join(
        f"corpus {split}: {s['questions']} questions, {s['pairs']} pairs, "
        f"answerable {s['answerable_share']:.3f}, "
        f"shared answer nodes/pair {s['mean_shared_answer_nodes']:.2f}"
        for split, s in stats.items()
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True,
                        help='JSON: {"corpus": CorpusSpec fields, "manifest": [features]}')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads(args.spec)
    corpus = CorpusSpec(**{k: tuple(v) if isinstance(v, list) else v
                           for k, v in spec["corpus"].items()})
    stats = generate(corpus, args.seed, args.out, tuple(spec["manifest"]))
    (args.out / "stats.json").write_text(json.dumps(stats, indent=1), encoding="utf-8")
    print(describe(stats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
