"""Independent brute-force reference implementations used only by tests.

Everything here but `prob`, `reference_df_table` and `reference_read_features`
deliberately avoids the
library's own code paths: the assignment oracle enumerates permutations, the
reference shortest-augmenting-path solver scans every column at every step,
the edit-distance oracle enumerates partial injections, paths come from
plain BFS, the pairwise sub-graph walks one tree path per pair of shared
nodes with `find_path` (itself checked against BFS), and the formula oracles
transcribe the defining equations directly.  Graph oracles take a parsed
Sentence and derive its edges and depths from the head column themselves,
never from `Sentence.edges` or `Sentence.depth`.  The metric oracles
group a file's rows by question in a dict of their own, sort each question
for MAP and MRR, and find each top candidate with a loop; the threshold
oracle runs that loop once per candidate threshold.  None of them imports
`qatrigger.evaluation`.  The
gradient-descent reference takes plain fixed-size steps down its own
transcription of the log-loss gradient.  The looped lexical oracles
transcribe the per-answer n-gram, BM25 and embedding-cosine loops as first
written, which the group scorers must equal bit for bit.  The ingestion
references transcribe the CoNLL-U line loop and the head-chain depth walk as
first written: the library's reader and `tree_depths` must return the same
blocks and depths, or raise the same first error text.  The DF table
reference reads through the library's `tsv_rows`, as the loader first did,
so the loader's own line loop must keep the shared TSV rules.  The feature
file reference is the row loop that read every feature file before numpy's
reader parsed valid ones: `read_features` must return the same names, keys
and matrix bits, or raise the same first error text.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from contextlib import closing
from pathlib import Path
from typing import Sequence

import numpy as np

from qatrigger.combiner import sigmoid
from qatrigger.errors import IngestionError, parse_number, tsv_rows
from qatrigger.graphsim import DfTable


def head_edges(sentence) -> list[tuple[int, int, str]]:
    """(governor, dependent, relation) for every token with a head."""
    rows = enumerate(zip(sentence.heads, sentence.deprels), start=1)
    return [(head, index, rel) for index, (head, rel) in rows if head != 0]


def token_indices(sentence) -> range:
    """Token indices 1..n."""
    return range(1, len(sentence.heads) + 1)


def reference_tree_depths(heads) -> tuple[int, ...]:
    """Depths of a head array (slot 0 the virtual root) by the walk as first
    written: every token starts a walk up its head chain, which stops at the
    first token already placed; the same ValueError texts on a non-tree."""
    n = len(heads)
    roots = heads.count(0)
    if roots != 1:
        raise ValueError(f"single-root violation ({roots} roots in {n} tokens)")
    if min(heads) < 0 or max(heads) > n:
        head = next(h for h in heads if not 0 <= h <= n)
        raise ValueError(f"head {head} out of range 0..{n}")
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


def reference_conllu_blocks(path) -> list[tuple[str, tuple]]:
    """(block id, (ids, lemmas, UPOS tags, heads, deprels)) of each CoNLL-U
    block by the line loop as first written: every line stripped of its end,
    int() on every ID and HEAD, multi-word and empty-node lines skipped; the
    same IngestionError texts on a malformed line."""
    blocks = []
    sent_id = None
    rows = []

    def flush():
        nonlocal sent_id, rows
        if rows:
            blocks.append((sent_id or str(len(blocks) + 1), tuple(zip(*rows))))
        sent_id, rows = None, []

    with open(path, encoding="utf-8-sig") as handle:
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
                    f"{path}: line {lineno}: expected 10 columns, got {len(columns)}"
                )
            try:
                index = int(columns[0])
                head = int(columns[6])
            except ValueError as exc:
                if re.fullmatch(r"\d+-\d+|\d+\.\d+", columns[0]):
                    continue
                raise IngestionError(f"{path}: line {lineno}: non-numeric id or head") from exc
            lemma = columns[2] if columns[2] not in ("", "_") else columns[1]
            rows.append((index, lemma, columns[3], head, columns[7]))
    flush()
    return blocks


def reference_df_table(path, level) -> DfTable:
    """The DF table of `path` read line by line through tsv_rows, as first
    written: IngestionError at the first line that breaks a rule."""
    df: dict[str, int] = {}
    n_docs = None
    for lineno, (key, count) in tsv_rows(path, 2):
        if n_docs is None:  # the first non-empty line
            if key != "N":
                raise IngestionError(f"{path}: first line must be `N<TAB>n_docs`")
            n_docs = parse_number(count, path, lineno, int)
            continue
        if key in df:
            raise IngestionError(f"{path}: line {lineno}: duplicate key {key!r}")
        try:
            df[key] = int(count)
        except ValueError:
            # Parsing the same field again raises the named error.
            parse_number(count, path, lineno, int)
    if n_docs is None:
        raise IngestionError(f"{path}: empty DF table file")
    try:
        return DfTable(level=level, n_docs=n_docs, df=df)
    except ValueError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


def reference_read_features(path):
    """The feature file `path` read one row at a time through tsv_rows, with
    int() and float(), as first written: IngestionError at the first fault."""
    path = Path(path)
    keys: list[tuple[str, str, int]] = []
    seen: set[tuple[str, str]] = set()
    values: list[float] = []
    linenos: list[int] = []
    with closing(tsv_rows(path)) as rows:
        lineno, header = next(rows, (0, []))
        if header[:3] != ["question_id", "candidate_id", "gold_label"]:
            raise IngestionError(f"{path}: not a feature file (bad header)")
        names = tuple(header[3:])
        if not names:
            raise IngestionError(f"{path}: line {lineno}: no feature columns")
        twice = [name for name in dict.fromkeys(names) if names.count(name) > 1]
        if twice:
            raise IngestionError(
                f"{path}: line {lineno}: features named twice: {', '.join(twice)}"
            )
        for lineno, columns in rows:
            if len(columns) != len(header):
                raise IngestionError(
                    f"{path}: line {lineno}: expected {len(header)} columns, got {len(columns)}"
                )
            try:
                label = int(columns[2])
                values.extend(map(float, columns[3:]))
            except ValueError:
                # Parsing the same fields again raises the named error.
                parse_number(columns[2], path, lineno, int)
                for v in columns[3:]:
                    parse_number(v, path, lineno)
            if label not in (0, 1):
                raise IngestionError(
                    f"{path}: line {lineno}: label must be 0 or 1, got {columns[2]!r}"
                )
            pair = (columns[0], columns[1])
            if pair in seen:
                raise IngestionError(f"{path}: line {lineno}: duplicate pair {pair}")
            seen.add(pair)
            keys.append((*pair, label))
            linenos.append(lineno)
    if not keys:
        raise IngestionError(f"{path}: no feature rows")
    matrix = np.array(values, dtype=float).reshape(len(keys), len(names))
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise IngestionError(f"{path}: line {linenos[row]}: feature value is not finite")
    return names, keys, matrix


def prob(model, x) -> float:
    """Trigger probability of one feature row through the model's own
    standardization: the per-row reference TriggerModel.scores must equal
    bitwise."""
    z = model.standardize(x)
    return sigmoid(float(np.dot(model.weights, z)) + model.bias)


def brute_force_assignment(matrix) -> float:
    """Minimum assignment cost of a rows <= columns matrix by trying every
    injection of rows into columns (row-order sums)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    best = math.inf
    for perm in itertools.permutations(range(cols), rows):
        total = math.fsum(matrix[i][perm[i]] for i in range(rows))
        if total < best:
            best = total
    return 0.0 if rows == 0 else best


def reference_shortest_augmenting_paths(cost, n_cols) -> list[int]:
    """The shortest-augmenting-path loop as first written, as row_to_col of
    a rows <= columns matrix: every step scans all columns, and `minv` is
    updated after every step.  The library's solver must return the same
    assignment, tie-breaks included."""
    n = len(cost)
    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n_cols + 1)
    col_row = [0] * (n_cols + 1)  # 1-based; 0 means unassigned
    way = [0] * (n_cols + 1)
    for i in range(1, n + 1):
        col_row[0] = i
        j0 = 0
        minv = [inf] * (n_cols + 1)
        used = [False] * (n_cols + 1)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            delta = inf
            j1 = 0
            row = cost[i0 - 1]
            ui0 = u[i0]
            for j in range(1, n_cols + 1):
                if used[j]:
                    continue
                current = row[j - 1] - ui0 - v[j]
                if current < minv[j]:
                    minv[j] = current
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n_cols + 1):
                if used[j]:
                    u[col_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if col_row[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    row_to_col = [0] * n
    for j in range(1, n_cols + 1):
        if col_row[j]:
            row_to_col[col_row[j] - 1] = j - 1
    return row_to_col


def _incident(graph) -> dict[int, Counter]:
    rels: dict[int, Counter] = {i: Counter() for i in token_indices(graph)}
    for gov, dep, rel in head_edges(graph):
        rels[gov][rel] += 1
        rels[dep][rel] += 1
    return rels


def _degree(graph) -> dict[int, int]:
    deg = {i: 0 for i in token_indices(graph)}
    for gov, dep, _ in head_edges(graph):
        deg[gov] += 1
        deg[dep] += 1
    return deg


def brute_force_ged(gq, ga, pos_table, edge_weight, delete_cost) -> float:
    """Normalized edit distance by enumerating every partial injection."""
    nodes_q = list(token_indices(gq))
    nodes_a = list(token_indices(ga))
    rels_q, rels_a = _incident(gq), _incident(ga)
    deg_q, deg_a = _degree(gq), _degree(ga)

    def node_sub(u, v):
        if gq.lemmas[u - 1].lower() == ga.lemmas[v - 1].lower():
            base = 0.0
        else:
            base = pos_table.cost(gq.upos[u - 1], ga.upos[v - 1])
        diff = (rels_q[u] - rels_a[v]) + (rels_a[v] - rels_q[u])
        return base + edge_weight * sum(diff.values()) / 2.0

    def del_cost_of(u):
        return delete_cost + edge_weight * deg_q[u]

    def ins_cost_of(v):
        return delete_cost + edge_weight * deg_a[v]

    n, m = len(nodes_q), len(nodes_a)
    if n == 0 and m == 0:
        return 0.0
    best = math.inf
    for k in range(0, min(n, m) + 1):
        for q_subset in itertools.combinations(range(n), k):
            for a_perm in itertools.permutations(range(m), k):
                total = math.fsum(
                    node_sub(nodes_q[i], nodes_a[j]) for i, j in zip(q_subset, a_perm)
                )
                total += math.fsum(
                    del_cost_of(nodes_q[i]) for i in range(n) if i not in q_subset
                )
                total += math.fsum(
                    ins_cost_of(nodes_a[j]) for j in range(m) if j not in set(a_perm)
                )
                if total < best:
                    best = total
    denom = math.fsum(del_cost_of(u) for u in nodes_q) + math.fsum(
        ins_cost_of(v) for v in nodes_a
    )
    return best / denom


def bfs_distances(adjacency, source) -> dict[int, int]:
    """Hop counts from source over an undirected adjacency map."""
    seen = {source: 0}
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in seen:
                    seen[v] = level
                    nxt.append(v)
        frontier = nxt
    return seen


def adjacency(graph) -> dict[int, set[int]]:
    """Symmetric adjacency over node indices, ignoring edge direction."""
    neighbors: dict[int, set[int]] = {i: set() for i in token_indices(graph)}
    for gov, dep, _ in head_edges(graph):
        neighbors[gov].add(dep)
        neighbors[dep].add(gov)
    return neighbors


def find_path(
    parent: Sequence[int], depth: Sequence[int], source: int, dest: int, m: int
) -> list[int]:
    """Tree path from source to dest when it has at most m edges, else [].

    parent[v] is v's head and depth[v] its level (only differences matter).
    The two endpoints climb toward their lowest common ancestor, the deeper
    one first, and the walk stops as soon as it would need more than m edges.
    """
    up, down = [source], [dest]
    while up[-1] != down[-1]:
        if len(up) + len(down) - 2 >= m:
            return []  # not met yet, so the path needs at least one more edge
        if depth[up[-1]] >= depth[down[-1]]:
            up.append(parent[up[-1]])
        else:
            down.append(parent[down[-1]])
    return up + down[-2::-1]


def tree_arrays(graph) -> tuple[list[int], list[int]]:
    """(parent, depth) lists indexed by token, slot 0 the virtual root.

    Depth is the BFS hop count from the root token plus one, so the root
    token sits at depth 1 as in Sentence.depth.
    """
    parent = [0] * (len(graph.heads) + 1)
    for gov, dep, _ in head_edges(graph):
        parent[dep] = gov
    root = graph.heads.index(0) + 1
    depth = [0] * len(parent)
    for node, hops in bfs_distances(adjacency(graph), root).items():
        depth[node] = hops + 1
    return parent, depth


def bfs_subgraph(graph, question_lemmas, m) -> tuple[set[int], set[tuple[int, int]]]:
    """(nodes, sorted-pair edges) spanned by BFS-parent paths of at most m
    edges between every pair of answer nodes whose lemma is in question_lemmas.

    Trees have one path per pair, so the BFS path is the aligned one.
    """
    neighbors = adjacency(graph)
    common = [i for i in token_indices(graph) if graph.lemmas[i - 1] in question_lemmas]
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for idx, s in enumerate(common):
        for d in common[idx + 1:]:
            parents = {s: None}
            frontier = [s]
            while frontier and d not in parents:
                nxt = []
                for u in frontier:
                    for v in sorted(neighbors[u]):
                        if v not in parents:
                            parents[v] = u
                            nxt.append(v)
                frontier = nxt
            if d not in parents:
                continue
            path = [d]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])
            if len(path) - 1 <= m:
                nodes.update(path)
                edges.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
    return nodes, edges


def pairwise_subgraph(graph, question_lemmas, m) -> tuple[set[int], set[tuple[int, int]]]:
    """(nodes, sorted-pair edges) spanned by the find_path walk of at most m
    edges between every pair of answer nodes whose lemma is in
    question_lemmas, with parents and depths from tree_arrays."""
    parent, depth = tree_arrays(graph)
    common = [i for i in token_indices(graph) if graph.lemmas[i - 1] in question_lemmas]
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for idx, source in enumerate(common):
        for dest in common[idx + 1:]:
            path = find_path(parent, depth, source, dest, m)
            nodes.update(path)
            edges.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
    return nodes, edges


def direct_tfidf_vector(graph, keys_of, n_docs, df, alpha) -> dict[str, float]:
    counts = Counter(keys_of(graph))
    out = {}
    for key, tf in counts.items():
        weight = tf * (math.log((n_docs + 1) / (df.get(key, 0) + 1)) + 1.0)
        if weight > alpha:
            out[key] = weight
    return out


def direct_cosine(v1, v2) -> float:
    if not v1 or not v2:
        return 0.0
    dot = sum(v1[k] * v2.get(k, 0.0) for k in v1)
    n1 = math.sqrt(sum(w * w for w in v1.values()))
    n2 = math.sqrt(sum(w * w for w in v2.values()))
    if n1 == 0 or n2 == 0:
        return 0.0
    return dot / (n1 * n2)


def cosine(v1, v2) -> float:
    """Cosine over the key union; 0 when either vector is empty.  Every sum
    is a math.fsum, which is correctly rounded, so the order of the keys
    cannot change the result; `graph_similarities` must give these bits for
    the tfidf_vectors of a question and an answer."""
    if not v1 or not v2:
        return 0.0
    norm1 = math.sqrt(math.fsum([w * w for w in v1.values()]))
    norm2 = math.sqrt(math.fsum([w * w for w in v2.values()]))
    if norm1 == 0.0 or norm2 == 0.0:
        return 0.0
    return min(1.0, math.fsum([w * v2[k] for k, w in v1.items() if k in v2]) / (norm1 * norm2))


def sorted_cosine(v1, v2) -> float:
    """Cosine with every math.fsum taken over keys in sorted order."""
    if not v1 or not v2:
        return 0.0
    dot = math.fsum(v1[k] * v2[k] for k in sorted(v1.keys() & v2.keys()))
    norm1 = math.sqrt(math.fsum(v1[k] ** 2 for k in sorted(v1)))
    norm2 = math.sqrt(math.fsum(v2[k] ** 2 for k in sorted(v2)))
    if norm1 == 0.0 or norm2 == 0.0:
        return 0.0
    return min(1.0, dot / (norm1 * norm2))


def direct_bm25(question, answer, pool_tokens, k1, b) -> float:
    """Literal transcription of the Okapi scoring and idf formulas."""
    n_docs = len(pool_tokens)
    avgdl = sum(len(d) for d in pool_tokens) / n_docs
    total = 0.0
    for term in question:
        f = sum(1 for t in answer if t == term)
        if f == 0:
            continue
        containing = sum(1 for d in pool_tokens if term in d)
        idf = math.log((n_docs - containing + 0.5) / (containing + 0.5))
        total += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(answer) / avgdl))
    return total


def clipped_overlap(question, answer) -> float:
    """Multiset intersection size of `question` and `answer` over the
    question's length; 0 for an empty question."""
    return (Counter(question) & Counter(answer)).total() / len(question) if question else 0.0


def direct_ngram_score(question, answer, n_max) -> float:
    def grams(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    total = 0.0
    for n in range(1, n_max + 1):
        gq, ga = grams(question, n), grams(answer, n)
        denom = sum(gq.values())
        if denom:
            total += sum(min(c, ga[g]) for g, c in gq.items()) / denom
    return total / sum(range(1, n_max + 1))


def direct_semantic_similarity(question, answer, vectors) -> float:
    """Cosine of the mean word vectors, averaged from a word -> vector dict
    by stacking the vectors of the tokens found as spelled (no case folding)."""

    def mean(tokens):
        found = [vectors.get(t) for t in tokens]
        found = [v for v in found if v is not None]
        return np.sum(found, axis=0) / len(found) if found else None

    vq, va = mean(question), mean(answer)
    if vq is None or va is None:
        return 0.0
    norm = float(np.linalg.norm(vq) * np.linalg.norm(va))
    return 0.0 if norm == 0.0 else float(np.dot(vq, va) / norm)


def looped_ngram_scores(question, answers, n_max) -> list[float]:
    """The n-gram score as first written: every n-gram of each side, each
    order's clipped_overlap summed with math.fsum and divided by
    1 + 2 + ... + n_max."""

    def grams(tokens, n):
        return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]

    return [
        math.fsum(clipped_overlap(grams(question, n), grams(answer, n)) for n in range(1, n_max + 1))
        / (n_max * (n_max + 1) / 2)
        for answer in answers
    ]


def counter_bm25_scores(question, answers, k1, b) -> list[float]:
    """The BM25 loop as first written, with the answers as the pool: N,
    avgdl and each term's n from a Counter of each answer's token set, and
    each answer's term frequencies from a Counter."""
    if not answers:
        return []
    size = len(answers)
    avgdl = sum(len(answer) for answer in answers) / size
    df: Counter = Counter()
    for answer in answers:
        df.update(set(answer))
    idf = {term: math.log((size - df.get(term, 0) + 0.5) / (df.get(term, 0) + 0.5))
           for term in question}
    scores = []
    for answer in answers:
        tf = Counter(answer)
        length_ratio = len(answer) / avgdl if avgdl > 0 else 0.0
        saturation = k1 * (1.0 - b + b * length_ratio)
        total = 0.0
        for term in question:
            f = tf.get(term, 0)
            if f:
                total += idf[term] * f * (k1 + 1.0) / (f + saturation)
        scores.append(total)
    return scores


def looped_semantic_similarities(question, answers, matrix, rows) -> list[float]:
    """The embedding cosine loop as first written, over a (words x dim)
    matrix and a word -> row dict: one mean vector per answer, each side's
    norm from np.linalg.norm, and the dot product from np.dot.  A token is
    looked up exactly as spelled."""

    def mean(tokens):
        found = [rows.get(t) for t in tokens]
        found = [row for row in found if row is not None]
        return matrix[found].sum(axis=0) / len(found) if found else None

    vq = mean(question)
    if vq is None:
        return [0.0] * len(answers)
    norm_q = np.linalg.norm(vq)
    scores = []
    for answer in answers:
        va = mean(answer)
        norm = 0.0 if va is None else float(norm_q * np.linalg.norm(va))
        scores.append(0.0 if norm == 0.0 else float(np.dot(vq, va) / norm))
    return scores


def question_groups(rows, scores) -> list[list[tuple[float, int]]]:
    """(score, label) of each question's rows in file order, questions in the
    order of their first row; `rows` are (question_id, candidate_id, label)."""
    groups: dict = {}
    for (qid, _, label), score in zip(rows, scores, strict=True):
        groups.setdefault(qid, []).append((score, label))
    return list(groups.values())


def looped_map_mrr(rows, scores) -> tuple[float, float]:
    """MAP and MRR as first written: each answerable question sorted twice,
    once for a running AP sum and once for the rank of its first positive."""

    def ranked(group):
        return sorted(group, key=lambda c: -c[0])

    ap_values, rr_values = [], []
    for group in question_groups(rows, scores):
        if not any(label == 1 for _, label in group):
            continue
        positives, precision_sum = 0, 0.0
        for rank, (_, label) in enumerate(ranked(group), start=1):
            if label == 1:
                positives += 1
                precision_sum += positives / rank
        ap_values.append(precision_sum / positives)
        rr_values.append(next(
            1.0 / rank for rank, (_, label) in enumerate(ranked(group), start=1) if label == 1
        ))
    n = len(ap_values)
    return (sum(ap_values) / n if n else 0.0, sum(rr_values) / n if n else 0.0)


def looped_triggering(rows, scores, threshold) -> dict:
    """Question counts and P/R/F by one loop per question: its top candidate
    is its first row of highest score, it triggers when that score is above
    the threshold, and the trigger is correct when its label is 1.  P/R/F
    transcribe the defining formulas as percentages."""
    total = answerable = triggered = correct = 0
    for group in question_groups(rows, scores):
        total += 1
        answerable += any(label == 1 for _, label in group)
        top_score, top_label = group[0]
        for score, label in group[1:]:
            if score > top_score:
                top_score, top_label = score, label
        if top_score > threshold:
            triggered += 1
            correct += top_label == 1
    precision = 100.0 * correct / triggered if triggered else 0.0
    recall = 100.0 * correct / answerable if answerable else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "questions_total": total, "questions_answerable": answerable,
        "questions_triggered": triggered, "triggers_correct": correct,
        "precision": precision, "recall": recall, "f1": f1,
    }


def tune_threshold_exhaustive(rows, scores) -> tuple[float, float]:
    """The tuner's contract by brute force: one full triggering loop per
    candidate threshold.

    Candidates are the sentinel below the lowest top score, the midpoints of
    consecutive distinct top scores, and the highest top score; the first
    best F-score wins, and a best of zero means trigger nothing.
    """
    groups = question_groups(rows, scores)
    if not any(label == 1 for group in groups for _, label in group):
        raise ValueError("threshold tuning needs at least one answerable group")
    tops = sorted({max(score for score, _ in group) for group in groups})
    candidates = [tops[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(tops, tops[1:])]
    candidates.append(tops[-1])
    best_threshold = candidates[0]
    best_f1 = -1.0
    for threshold in candidates:
        f1 = looped_triggering(rows, scores, threshold)["f1"]
        if f1 > best_f1:
            best_f1 = f1
            best_threshold = threshold
    if best_f1 == 0.0:
        return candidates[-1], 0.0
    return best_threshold, best_f1


def gradient_descent(z, y, l2, lr=0.1, epochs=20000) -> tuple[np.ndarray, float]:
    """Weights and bias after `epochs` full-batch steps of size `lr` from
    zero, down the gradient of mean log loss plus l2/2 * |weights|^2 (the
    bias unregularized), on standardized features `z` and 0/1 labels `y`."""
    weights, bias = np.zeros(z.shape[1]), 0.0
    for _ in range(epochs):
        residual = 1.0 / (1.0 + np.exp(-(z @ weights + bias))) - y
        weights = weights - lr * (z.T @ residual / len(y) + l2 * weights)
        bias -= lr * float(np.mean(residual))
    return weights, bias
