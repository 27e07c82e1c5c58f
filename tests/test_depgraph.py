import dataclasses

import pytest

from conftest import make_sentence


@pytest.mark.parametrize("index", [0, -1, 3])
def test_build_graph_rejects_out_of_order_index(index):
    # coverage indexes per-token arrays by position, so the Sentence (which is
    # the dependency graph) rejects an index outside 1..n whenever it is built,
    # including when an existing Sentence is copied with new tokens
    root = make_sentence("s", [("a", "a", "NOUN", 0, "root"), ("b", "b", "NOUN", 1, "dep")])
    tokens = (root.tokens[0], dataclasses.replace(root.tokens[1], index=index))
    with pytest.raises(ValueError, match=f"token index {index} out of range 1..2"):
        dataclasses.replace(root, tokens=tokens)
