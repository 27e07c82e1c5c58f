"""WikiQA-format corpus ingestion.

Reads the public 7-column WikiQA TSV (QuestionID, Question, DocumentID,
DocumentTitle, SentenceID, Sentence, Label) into question groups of texts,
and attaches each sentence's dependency parse from a CoNLL-U sidecar file.
Parsing itself is out of scope: parses are ingested, never produced.  A
Sentence is one parse, built once, by `attach_parses`: the graph that every
graph feature reads, held as four columns (lemmas, UPOS tags, heads,
deprels).  Token i is position i - 1 of each, and `Sentence.edges` holds one
labeled edge per non-root token, from governor to dependent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .errors import IngestionError, open_text, parse_number, tsv_rows

WIKIQA_COLUMNS = 7

# CoNLL-U ids of lines that are not tree tokens: a multi-word range or an
# empty node.
_RANGE_OR_EMPTY_NODE = re.compile(r"\d+-\d+|\d+\.\d+")


def tree_depths(heads: Sequence[int]) -> tuple[int, ...]:
    """Depth of each token of a dependency tree; slot 0 is the virtual root.

    heads[i - 1] is the head of token i, and 0 marks the root, whose depth
    is 1.  Raises ValueError unless the heads form one tree: exactly one
    root, every head in range, no self-head, and no cycle.  Linear in n:
    a token already placed is skipped, one whose head is placed is placed
    without a walk, and each head chain is walked only up to the first
    token already placed.
    """
    n = len(heads)
    roots = heads.count(0)
    if roots != 1:
        raise ValueError(f"single-root violation ({roots} roots in {n} tokens)")
    if min(heads) < 0 or max(heads) > n:
        head = next(h for h in heads if not 0 <= h <= n)
        raise ValueError(f"head {head} out of range 0..{n}")
    head_of = (0, *heads)
    # -1 marks a token not yet reached, -2 one on the chain being walked.
    depth = [0] + [-1] * n
    for start in range(1, n + 1):
        if depth[start] > 0:
            continue
        node = head_of[start]
        if (level := depth[node]) >= 0:
            depth[start] = level + 1
            continue
        chain = [start]
        depth[start] = -2
        while (level := depth[node]) < 0:
            if level == -2:
                if node == chain[-1]:
                    raise ValueError(f"token {node} is its own head")
                raise ValueError(f"cycle through token {node}")
            depth[node] = -2
            chain.append(node)
            node = head_of[node]
        for node in reversed(chain):
            level += 1
            depth[node] = level
    return tuple(depth)


@dataclass(frozen=True)
class Sentence:
    """The dependency parse of a sentence.

    Position i - 1 of each column describes token i: its lemma, its UPOS
    tag, its head (0 for the root) and the relation to that head.  Lemmas
    are lowercased here and nowhere else.  The heads must form a dependency
    tree (see `tree_depths`), else ValueError; `depth` then holds each
    token's depth, and `edges` the (head, index, deprel) of each non-root
    token, in token order.  A Sentence of no tokens is the empty graph.
    """

    lemmas: tuple[str, ...]
    upos: tuple[str, ...]
    heads: tuple[int, ...]
    deprels: tuple[str, ...]
    depth: tuple[int, ...] = field(default=(), init=False, compare=False, repr=False)
    edges: tuple[tuple[int, int, str], ...] = field(
        default=(), init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        heads = self.heads
        if not len(self.lemmas) == len(self.upos) == len(self.deprels) == len(heads):
            raise ValueError("lemma, UPOS, head and deprel columns differ in length")
        if not heads:
            return
        object.__setattr__(self, "lemmas", tuple(map(str.lower, self.lemmas)))
        object.__setattr__(self, "depth", tree_depths(heads))
        edges = list(zip(heads, range(1, len(heads) + 1), self.deprels))
        del edges[heads.index(0)]  # tree_depths found exactly one root
        object.__setattr__(self, "edges", tuple(edges))


@dataclass(frozen=True)
class QuestionGroup:
    """One question with its (candidate id, text, label) answers in corpus
    order.  `parses`, when set, holds the question's parse, then each
    candidate's, in candidate order."""

    question_id: str
    question: str
    candidates: tuple[tuple[str, str, int], ...]
    parses: tuple[Sentence, ...] | None = None

    def __post_init__(self) -> None:
        if self.parses is not None and len(self.parses) != 1 + len(self.candidates):
            raise ValueError(f"expected {1 + len(self.candidates)} parses, got {len(self.parses)}")


def load_wikiqa(tsv_path: str | Path) -> list[QuestionGroup]:
    """Load a WikiQA TSV into question groups in first-appearance order.

    Rows need at least 7 tab-separated columns; extra columns are ignored.
    The first non-empty row is skipped when it is a header.  Malformed rows
    (too few columns, a label other than 0/1, a duplicate SentenceID within
    one question) raise IngestionError naming the line.
    """
    path = Path(tsv_path)
    grouped: dict[str, dict] = {}
    for row, (lineno, columns) in enumerate(tsv_rows(path)):
        # A header, on the first row only, has a non-numeric Label column.
        if row == 0 and len(columns) >= WIKIQA_COLUMNS and not columns[6].strip().isdigit():
            continue
        if len(columns) < WIKIQA_COLUMNS:
            raise IngestionError(
                f"{path}: line {lineno}: expected >= {WIKIQA_COLUMNS} columns, "
                f"got {len(columns)}"
            )
        qid, question_text = columns[0], columns[1]
        sent_id, sent_text, label_text = columns[4], columns[5], columns[6].strip()
        if label_text not in ("0", "1"):
            raise IngestionError(
                f"{path}: line {lineno}: label must be 0 or 1, got {label_text!r}"
            )
        entry = grouped.setdefault(
            qid, {"question": question_text, "candidates": [], "seen": set()}
        )
        if sent_id in entry["seen"]:
            raise IngestionError(
                f"{path}: line {lineno}: duplicate candidate id {sent_id!r} "
                f"for question {qid!r}"
            )
        entry["seen"].add(sent_id)
        entry["candidates"].append((sent_id, sent_text, int(label_text)))
    return [
        QuestionGroup(qid, entry["question"], tuple(entry["candidates"]))
        for qid, entry in grouped.items()
    ]


# The columns of one CoNLL-U block, in token order: ids, lemmas, UPOS tags,
# heads and deprels.
_Block = tuple[tuple[int, ...], tuple[str, ...], tuple[str, ...], tuple[int, ...], tuple[str, ...]]


def _read_conllu_blocks(conllu_path: Path) -> list[tuple[str, _Block]]:
    """Read CoNLL-U blocks as (block_id, columns).

    The block id is the `# sent_id = ...` comment when present, otherwise the
    1-based block ordinal as a string.  Only ID, LEMMA (FORM when LEMMA is
    empty or `_`), UPOS, HEAD and DEPREL are read.  Multi-word-token lines
    (id "1-2") and empty-node lines (id "1.1") are skipped; any other id that
    is not an integer raises IngestionError naming the line.  The file is
    read line by line, and each distinct ID or HEAD text is parsed once.
    """
    blocks: list[tuple[str, _Block]] = []
    sent_id: str | None = None
    rows: list[tuple[int, str, str, int, str]] = []
    numbers: dict[str, int] = {}  # each ID or HEAD text parsed so far

    def flush() -> None:
        nonlocal sent_id, rows
        if rows:
            blocks.append((sent_id or str(len(blocks) + 1), tuple(zip(*rows))))
        sent_id, rows = None, []

    with open_text(conllu_path) as handle:
        for lineno, line in enumerate(handle, start=1):
            # Universal newlines end each line but the last in one "\n",
            # which stays on MISC, a column never read.
            if line == "\n":
                flush()
                continue
            if line[0] == "#":
                key, _, value = line[1:].partition("=")
                if key.strip() == "sent_id":
                    sent_id = value.strip()
                continue
            columns = line.split("\t")
            if len(columns) != 10:
                raise IngestionError(
                    f"{conllu_path}: line {lineno}: expected 10 columns, got {len(columns)}"
                )
            index = numbers.get(columns[0])
            head = numbers.get(columns[6])
            if index is None or head is None:
                try:
                    index = numbers[columns[0]] = int(columns[0])
                    head = numbers[columns[6]] = int(columns[6])
                except ValueError as exc:
                    if _RANGE_OR_EMPTY_NODE.fullmatch(columns[0]):
                        continue
                    raise IngestionError(
                        f"{conllu_path}: line {lineno}: non-numeric id or head"
                    ) from exc
            # The only texts `in "_"` are "" and "_".
            lemma = columns[2] if columns[2] not in "_" else columns[1]
            rows.append((index, lemma, columns[3], head, columns[7]))
    flush()
    return blocks


def _check_ids(ids: tuple[int, ...]) -> None:
    """Raise ValueError unless the CoNLL-U ids of a block run 1..n in order."""
    n = len(ids)
    if ids == tuple(range(1, n + 1)):
        return
    for index in ids:
        if not 1 <= index <= n:
            raise ValueError(f"token index {index} out of range 1..{n}")
    raise ValueError(f"token indices are not contiguous 1..{n}")


def _read_index(index_path: Path) -> dict[str, str]:
    """Read `conllu_sent_id<TAB>wikiqa_id` lines; duplicates on either side fail."""
    mapping: dict[str, str] = {}
    seen_targets: set[str] = set()
    for lineno, (conllu_id, wikiqa_id) in tsv_rows(index_path, 2):
        if conllu_id in mapping:
            raise IngestionError(
                f"{index_path}: line {lineno}: duplicate mapping for {conllu_id!r}"
            )
        if wikiqa_id in seen_targets:
            raise IngestionError(
                f"{index_path}: line {lineno}: duplicate mapping for {wikiqa_id!r}"
            )
        mapping[conllu_id] = wikiqa_id
        seen_targets.add(wikiqa_id)
    return mapping


def attach_parses(
    groups: list[QuestionGroup],
    conllu_path: str | Path,
    index_path: str | Path | None = None,
) -> list[QuestionGroup]:
    """Return new groups that carry the parse of every sentence, built once
    from the columns of a CoNLL-U file.

    With an index file, each CoNLL-U block (keyed by `# sent_id` comment or by
    1-based order) is mapped to a WikiQA QuestionID or SentenceID.  Without
    one, alignment is positional: all questions first, then all candidates,
    both in corpus order.  A parse whose ids do not run 1..n in order, or
    that is not a tree (see `tree_depths`), raises IngestionError naming the
    file and the sentence; sentences left without a parse raise
    IngestionError giving their count and the first five of their ids.
    """
    conllu_path = Path(conllu_path)
    blocks = _read_conllu_blocks(conllu_path)

    targets = [g.question_id for g in groups]
    targets += [cid for g in groups for cid, _, _ in g.candidates]
    by_wikiqa_id: dict[str, _Block] = {}
    if index_path is not None:
        by_block_id = {}
        for block_id, block in blocks:
            if block_id in by_block_id:
                raise IngestionError(
                    f"{conllu_path}: duplicate sent_id {block_id!r}"
                )
            by_block_id[block_id] = block
        for conllu_id, wikiqa_id in _read_index(Path(index_path)).items():
            if conllu_id not in by_block_id:
                raise IngestionError(
                    f"{index_path}: mapped sent_id {conllu_id!r} not found in {conllu_path}"
                )
            by_wikiqa_id[wikiqa_id] = by_block_id[conllu_id]
    else:
        if len(blocks) != len(targets):
            raise IngestionError(
                f"{conllu_path}: positional alignment needs {len(targets)} parses, "
                f"found {len(blocks)}"
            )
        by_wikiqa_id = {target: block for target, (_, block) in zip(targets, blocks)}

    missing = [target for target in targets if target not in by_wikiqa_id]
    if missing:
        more = ", ..." if len(missing) > 5 else ""
        raise IngestionError(
            f"{conllu_path}: no parse for {len(missing)} of {len(targets)} ids: "
            f"{', '.join(missing[:5])}{more}"
        )

    def parse(key: str) -> Sentence:
        ids, lemmas, upos, heads, deprels = by_wikiqa_id[key]
        try:
            _check_ids(ids)
            return Sentence(lemmas, upos, heads, deprels)
        except ValueError as exc:
            raise IngestionError(f"{conllu_path}: sentence {key!r}: {exc}") from exc

    return [
        replace(group, parses=tuple(
            map(parse, (group.question_id, *(cid for cid, _, _ in group.candidates)))
        ))
        for group in groups
    ]


def load_scores(tsv_path: str | Path) -> tuple[dict[tuple[str, str], float], int]:
    """Load an external per-pair score file.

    Rows are `question_id<TAB>candidate_id<TAB>score`.  Returns the score map
    and the number of duplicate keys encountered (last value wins).
    """
    path = Path(tsv_path)
    scores: dict[tuple[str, str], float] = {}
    duplicates = 0
    for lineno, (qid, cid, raw) in tsv_rows(path, 3):
        value = parse_number(raw, path, lineno)
        key = (qid, cid)
        if key in scores:
            duplicates += 1
        scores[key] = value
    return scores, duplicates
