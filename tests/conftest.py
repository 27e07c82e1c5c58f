from pathlib import Path

import pytest

from qatrigger import cli
from qatrigger.corpus import Sentence

from oracles import adjacency, bfs_distances, find_path, tree_arrays

MINI_DIR = Path(__file__).resolve().parent / "data" / "mini"


@pytest.fixture(autouse=True)
def no_held_tables(monkeypatch):
    """Each test starts with a process-wide memo of DF tables that holds
    nothing yet, so a test that counts reader calls sees them all."""
    monkeypatch.setattr(cli, "_HELD", {})


def make_sentence(rows):
    """rows: (form, lemma, upos, head, deprel) of tokens 1..n; the form is
    not part of a parse."""
    _, lemmas, upos, heads, deprels = zip(*rows)
    return Sentence(lemmas, upos, heads, deprels)


def endpoints(edges):
    """The nodes of a sub-graph: every endpoint of its edges."""
    return frozenset(node for edge in edges for node in edge)


@pytest.fixture
def question_sentence():
    # "how did david carradine die", rooted at "die"
    return make_sentence(
        [
            ("how", "how", "ADV", 5, "advmod"),
            ("did", "do", "AUX", 5, "aux"),
            ("david", "david", "PROPN", 4, "compound"),
            ("carradine", "carradine", "PROPN", 5, "nsubj"),
            ("die", "die", "VERB", 0, "root"),
        ],
    )


@pytest.fixture
def answer_sentence():
    # "david carradine died on june 3 2009 apparently of asphyxiation"
    return make_sentence(
        [
            ("david", "david", "PROPN", 2, "compound"),
            ("carradine", "carradine", "PROPN", 3, "nsubj"),
            ("died", "die", "VERB", 0, "root"),
            ("on", "on", "ADP", 5, "case"),
            ("june", "june", "PROPN", 3, "obl"),
            ("3", "3", "NUM", 5, "nummod"),
            ("2009", "2009", "NUM", 5, "nummod"),
            ("apparently", "apparently", "ADV", 3, "advmod"),
            ("of", "of", "ADP", 10, "case"),
            ("asphyxiation", "asphyxiation", "NOUN", 3, "obl"),
        ],
    )


@pytest.fixture
def mini_dir():
    return MINI_DIR


def random_tree_sentence(rng, max_nodes=8, lemma_pool=None, relabel=False):
    """Random labeled tree as a Sentence.

    Parent indices precede children unless relabel is set, which renumbers the
    tokens by a random permutation so the root can be any token and heads can
    point forward.
    """
    lemmas = lemma_pool or ["die", "live", "win", "run", "city", "man", "dog", "sun"]
    upos = ["NOUN", "VERB", "PROPN", "ADV", "ADJ", "AUX", "DET"]
    rels = ["nsubj", "obj", "advmod", "det", "obl", "amod"]
    n = int(rng.integers(1, max_nodes + 1))
    rows = []
    for i in range(1, n + 1):
        head = 0 if i == 1 else int(rng.integers(1, i))
        lemma = lemmas[int(rng.integers(0, len(lemmas)))]
        tag = upos[int(rng.integers(0, len(upos)))]
        rel = "root" if head == 0 else rels[int(rng.integers(0, len(rels)))]
        rows.append((lemma, lemma, tag, head, rel))
    if relabel:
        new_index = [0] + [int(v) + 1 for v in rng.permutation(n)]
        moved = [None] * n
        for old, (form, lemma, tag, head, rel) in enumerate(rows, start=1):
            moved[new_index[old] - 1] = (form, lemma, tag, new_index[head], rel)
        rows = moved
    return make_sentence(rows)


def check_tree_paths_against_bfs(graph) -> int:
    """Check find_path on every ordered node pair and every m from 0 to the
    diameter + 1 against BFS distances; returns the number of paths kept."""
    parent, depth = tree_arrays(graph)
    neighbors = adjacency(graph)
    kept = 0
    for source in neighbors:
        distances = bfs_distances(neighbors, source)
        assert len(distances) == len(neighbors)  # trees are connected
        for dest in neighbors:
            for m in range(max(distances.values()) + 2):
                path = find_path(parent, depth, source, dest, m)
                if distances[dest] > m:
                    assert path == []
                    continue
                assert path[0] == source and path[-1] == dest
                assert len(path) - 1 == distances[dest]
                assert all(b in neighbors[a] for a, b in zip(path, path[1:]))
                kept += 1
    return kept
