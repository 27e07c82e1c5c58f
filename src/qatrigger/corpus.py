"""WikiQA-format corpus ingestion.

Reads the public 7-column WikiQA TSV (QuestionID, Question, DocumentID,
DocumentTitle, SentenceID, Sentence, Label), groups candidate answers by
question, and aligns every sentence with a dependency parse supplied as a
CoNLL-U sidecar file.  Parsing itself is out of scope: parses are ingested,
never produced.  A parsed Sentence is the dependency graph every feature
reads: its tokens are the nodes, and `Sentence.edges` gives one labeled edge
per non-root token, from governor to dependent.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import IngestionError, open_text, parse_number

WIKIQA_COLUMNS = 7

# CoNLL-U ids of lines that are not tree tokens: a multi-word range or an
# empty node.
_RANGE_OR_EMPTY_NODE = re.compile(r"\d+-\d+|\d+\.\d+")


@dataclass(frozen=True)
class Token:
    """One parsed token; indices are 1-based, head 0 marks the root."""

    index: int
    form: str
    lemma: str
    upos: str
    xpos: str
    head: int
    deprel: str


def tree_depths(tokens: Sequence[Token]) -> tuple[int, ...]:
    """Depth of each token of a dependency tree; slot 0 is the virtual root.

    The root token has depth 1.  Raises ValueError unless the tokens form one
    tree: exactly one root, every index and head in range, no self-head,
    indices 1..n in order, and no cycle.  Linear in n: each head chain is
    walked only up to the first token already placed.
    """
    n = len(tokens)
    roots = sum(1 for t in tokens if t.head == 0)
    if roots != 1:
        raise ValueError(f"single-root violation ({roots} roots in {n} tokens)")
    for t in tokens:
        if t.index < 1 or t.index > n:
            raise ValueError(f"token index {t.index} out of range 1..{n}")
        if t.head < 0 or t.head > n:
            raise ValueError(f"head {t.head} out of range 0..{n}")
        if t.head == t.index:
            raise ValueError(f"token {t.index} is its own head")
    if [t.index for t in tokens] != list(range(1, n + 1)):
        raise ValueError(f"token indices are not contiguous 1..{n}")
    # -1 marks a token not yet reached, -2 one on the chain being walked.
    depth = [0] + [-1] * n
    for t in tokens:
        chain = []
        node = t.index
        while depth[node] < 0:
            if depth[node] == -2:
                raise ValueError(f"cycle through token {node}")
            depth[node] = -2
            chain.append(node)
            node = tokens[node - 1].head
        level = depth[node]
        for node in reversed(chain):
            level += 1
            depth[node] = level
    return tuple(depth)


@dataclass(frozen=True)
class Sentence:
    """A sentence, parsed when it carries tokens.

    Tokens given at construction must form a dependency tree (see
    `tree_depths`), else ValueError; `depth` then holds each token's depth.
    """

    sentence_id: str
    text: str
    tokens: tuple[Token, ...] = ()
    depth: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "depth", tree_depths(self.tokens) if self.tokens else ())

    @property
    def parsed(self) -> bool:
        return bool(self.tokens)

    @property
    def edges(self) -> tuple[tuple[int, int, str], ...]:
        """(head, index, deprel) of each non-root token, in token order."""
        return tuple([(t.head, t.index, t.deprel) for t in self.tokens if t.head])


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


def _read_conllu_blocks(conllu_path: Path) -> list[tuple[str, list[Token]]]:
    """Read CoNLL-U blocks as (block_id, tokens).

    The block id is the `# sent_id = ...` comment when present, otherwise the
    1-based block ordinal as a string.  Multi-word-token lines (id "1-2") and
    empty-node lines (id "1.1") are skipped; any other id that is not an
    integer raises IngestionError naming the line.
    """
    blocks: list[tuple[str, list[Token]]] = []
    sent_id: str | None = None
    tokens: list[Token] = []

    def flush() -> None:
        nonlocal sent_id, tokens
        if tokens:
            blocks.append((sent_id or str(len(blocks) + 1), tokens))
        sent_id, tokens = None, []

    with open_text(conllu_path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line:
                flush()
                continue
            if line.startswith("#"):
                if line[1:].strip().startswith("sent_id"):
                    _, _, value = line.partition("=")
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
            form = columns[1]
            lemma = columns[2] if columns[2] not in ("", "_") else form
            tokens.append(
                Token(
                    index=index,
                    form=form,
                    lemma=lemma.lower(),
                    upos=columns[3],
                    xpos=columns[4],
                    head=head,
                    deprel=columns[7],
                )
            )
    flush()
    return blocks


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
    """Return new groups whose sentences carry tokens from a CoNLL-U file.

    With an index file, each CoNLL-U block (keyed by `# sent_id` comment or by
    1-based order) is mapped to a WikiQA QuestionID or SentenceID.  Without
    one, alignment is positional: all questions first, then all candidates,
    both in corpus order.  A parse that is not a tree (see `tree_depths`)
    raises IngestionError naming the file and the sentence; sentences left
    without a parse raise IngestionError listing the missing ids.
    """
    conllu_path = Path(conllu_path)
    blocks = _read_conllu_blocks(conllu_path)

    by_wikiqa_id: dict[str, list[Token]] = {}
    if index_path is not None:
        by_block_id = {}
        for block_id, tokens in blocks:
            if block_id in by_block_id:
                raise IngestionError(
                    f"{conllu_path}: duplicate sent_id {block_id!r}"
                )
            by_block_id[block_id] = tokens
        for conllu_id, wikiqa_id in _read_index(Path(index_path)).items():
            if conllu_id not in by_block_id:
                raise IngestionError(
                    f"{index_path}: mapped sent_id {conllu_id!r} not found in {conllu_path}"
                )
            by_wikiqa_id[wikiqa_id] = by_block_id[conllu_id]
    else:
        targets = [g.question_id for g in groups]
        targets += [cid for g in groups for cid, _, _ in g.candidates]
        if len(blocks) != len(targets):
            raise IngestionError(
                f"{conllu_path}: positional alignment needs {len(targets)} parses, "
                f"found {len(blocks)}"
            )
        for target, (_, tokens) in zip(targets, blocks):
            by_wikiqa_id[target] = tokens

    missing = [g.question_id for g in groups if g.question_id not in by_wikiqa_id]
    missing += [
        cid
        for g in groups
        for cid, _, _ in g.candidates
        if cid not in by_wikiqa_id
    ]
    if missing:
        raise IngestionError(
            f"{conllu_path}: no parse for ids: {', '.join(missing)}"
        )

    def parsed(sentence: Sentence, key: str) -> Sentence:
        try:
            return dataclasses.replace(sentence, tokens=tuple(by_wikiqa_id[key]))
        except ValueError as exc:
            raise IngestionError(f"{conllu_path}: sentence {key!r}: {exc}") from exc

    result = []
    for group in groups:
        candidates = tuple(
            (cid, parsed(sent, cid), label) for cid, sent, label in group.candidates
        )
        result.append(
            QuestionGroup(
                group.question_id,
                parsed(group.question, group.question_id),
                candidates,
            )
        )
    return result


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
