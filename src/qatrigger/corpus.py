"""WikiQA-format corpus ingestion.

Reads the public 7-column WikiQA TSV (QuestionID, Question, DocumentID,
DocumentTitle, SentenceID, Sentence, Label), groups candidate answers by
question, and aligns every sentence with a dependency parse supplied as a
CoNLL-U sidecar file.  Parsing itself is out of scope: parses are ingested,
never produced.  A parsed Sentence is the dependency graph every feature
reads, held as four columns (lemmas, UPOS tags, heads, deprels): token i is
position i - 1 of each, and `Sentence.edges` gives one labeled edge per
non-root token, from governor to dependent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import IngestionError, open_text, parse_number

WIKIQA_COLUMNS = 7

# CoNLL-U ids of lines that are not tree tokens: a multi-word range or an
# empty node.
_RANGE_OR_EMPTY_NODE = re.compile(r"\d+-\d+|\d+\.\d+")


def tree_depths(heads: Sequence[int]) -> tuple[int, ...]:
    """Depth of each token of a dependency tree; slot 0 is the virtual root.

    heads[i - 1] is the head of token i, and 0 marks the root, whose depth
    is 1.  Raises ValueError unless the heads form one tree: exactly one
    root, every head in range, no self-head, and no cycle.  Linear in n:
    each head chain is walked only up to the first token already placed.
    """
    n = len(heads)
    roots = heads.count(0)
    if roots != 1:
        raise ValueError(f"single-root violation ({roots} roots in {n} tokens)")
    if min(heads) < 0 or max(heads) > n:
        head = next(h for h in heads if not 0 <= h <= n)
        raise ValueError(f"head {head} out of range 0..{n}")
    # -1 marks a token not yet reached, -2 one on the chain being walked.
    depth = [0] + [-1] * n
    for start in range(1, n + 1):
        chain = []
        node = start
        while depth[node] < 0:
            if depth[node] == -2:
                if node == chain[-1]:
                    raise ValueError(f"token {node} is its own head")
                raise ValueError(f"cycle through token {node}")
            depth[node] = -2
            chain.append(node)
            node = heads[node - 1]
        level = depth[node]
        for node in reversed(chain):
            level += 1
            depth[node] = level
    return tuple(depth)


@dataclass(frozen=True)
class Sentence:
    """A sentence, parsed when it carries columns.

    Position i - 1 of each column describes token i of a parse: its lemma,
    its UPOS tag, its head (0 for the root) and the relation to that head.  Lemmas
    are lowercased here and nowhere else.  The heads must form a dependency
    tree (see `tree_depths`), else ValueError; `depth` then holds each
    token's depth, and `edges` the (head, index, deprel) of each non-root
    token, in token order.
    """

    sentence_id: str
    text: str
    lemmas: tuple[str, ...] = ()
    upos: tuple[str, ...] = ()
    heads: tuple[int, ...] = ()
    deprels: tuple[str, ...] = ()
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
        object.__setattr__(self, "lemmas", tuple([lemma.lower() for lemma in self.lemmas]))
        object.__setattr__(self, "depth", tree_depths(heads))
        object.__setattr__(self, "edges", tuple([
            (head, index, rel)
            for index, (head, rel) in enumerate(zip(heads, self.deprels), start=1)
            if head
        ]))

    @property
    def parsed(self) -> bool:
        return bool(self.heads)


@dataclass(frozen=True)
class QuestionGroup:
    """One question with its candidate answers in corpus order."""

    question_id: str
    question: Sentence
    candidates: tuple[tuple[str, Sentence, int], ...]

    @property
    def answerable(self) -> bool:
        return any(label == 1 for _, _, label in self.candidates)


def _is_header(columns: list[str]) -> bool:
    # Header rows are recognised by a non-numeric Label column.
    return len(columns) >= WIKIQA_COLUMNS and not columns[6].strip().isdigit()


def load_wikiqa(tsv_path: str | Path) -> list[QuestionGroup]:
    """Load a WikiQA TSV into question groups in first-appearance order.

    Rows need at least 7 tab-separated columns; extra columns are ignored.
    A header row is auto-detected and skipped.  Malformed rows (too few
    columns, a label other than 0/1, a duplicate SentenceID within one
    question) raise IngestionError naming the line.
    """
    path = Path(tsv_path)
    grouped: dict[str, dict] = {}
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            columns = line.split("\t")
            if lineno == 1 and _is_header(columns):
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
            entry["candidates"].append(
                (sent_id, Sentence(sent_id, sent_text), int(label_text))
            )
    return [
        QuestionGroup(qid, Sentence(qid, entry["question"]), tuple(entry["candidates"]))
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
    is not an integer raises IngestionError naming the line.
    """
    blocks: list[tuple[str, _Block]] = []
    sent_id: str | None = None
    rows: list[tuple[int, str, str, int, str]] = []

    def flush() -> None:
        nonlocal sent_id, rows
        if rows:
            blocks.append((sent_id or str(len(blocks) + 1), tuple(zip(*rows))))
        sent_id, rows = None, []

    with open_text(conllu_path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line:
                flush()
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                if key.strip() == "sent_id":
                    sent_id = value.strip()
                continue
            columns = line.split("\t")
            if len(columns) != 10:
                raise IngestionError(
                    f"{conllu_path}: line {lineno}: expected 10 columns, got {len(columns)}"
                )
            try:
                index = int(columns[0])
                head = int(columns[6])
            except ValueError as exc:
                if _RANGE_OR_EMPTY_NODE.fullmatch(columns[0]):
                    continue
                raise IngestionError(
                    f"{conllu_path}: line {lineno}: non-numeric id or head"
                ) from exc
            lemma = columns[2] if columns[2] not in ("", "_") else columns[1]
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
    with open_text(index_path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            columns = line.split("\t")
            if len(columns) != 2:
                raise IngestionError(
                    f"{index_path}: line {lineno}: expected 2 columns, got {len(columns)}"
                )
            conllu_id, wikiqa_id = columns
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
    """Return new groups whose sentences carry columns from a CoNLL-U file.

    With an index file, each CoNLL-U block (keyed by `# sent_id` comment or by
    1-based order) is mapped to a WikiQA QuestionID or SentenceID.  Without
    one, alignment is positional: all questions first, then all candidates,
    both in corpus order.  A parse whose ids do not run 1..n in order, or
    that is not a tree (see `tree_depths`), raises IngestionError naming the
    file and the sentence; sentences left without a parse raise
    IngestionError listing the missing ids.
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
        raise IngestionError(
            f"{conllu_path}: no parse for ids: {', '.join(missing)}"
        )

    def parsed(sentence: Sentence, key: str) -> Sentence:
        ids, lemmas, upos, heads, deprels = by_wikiqa_id[key]
        try:
            _check_ids(ids)
            return Sentence(sentence.sentence_id, sentence.text, lemmas, upos, heads, deprels)
        except ValueError as exc:
            raise IngestionError(f"{conllu_path}: sentence {key!r}: {exc}") from exc

    return [
        QuestionGroup(
            group.question_id,
            parsed(group.question, group.question_id),
            tuple((cid, parsed(sent, cid), label) for cid, sent, label in group.candidates),
        )
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
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            columns = line.split("\t")
            if len(columns) != 3:
                raise IngestionError(
                    f"{path}: line {lineno}: expected 3 columns, got {len(columns)}"
                )
            value = parse_number(columns[2], path, lineno)
            key = (columns[0], columns[1])
            if key in scores:
                duplicates += 1
            scores[key] = value
    return scores, duplicates
