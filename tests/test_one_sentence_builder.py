"""A Sentence is a dependency parse, and only corpus.attach_parses builds one.

The lexical features read a group's texts, and the graph features its
parses.  A `Sentence(` call anywhere else in the package would bring back a
Sentence with no parse, or a second build of one that attach_parses makes
from the CoNLL-U columns.  The check reads each module with the stdlib
`ast` module and names, for each call, the top-level function or class
that holds it; a name that `Sentence` is imported under counts as
`Sentence`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qatrigger"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "corpus.py")


def sentence_calls(source: str) -> list[str]:
    """`<owner>: line N` for each call in `source` that builds a Sentence;
    the owner is the enclosing top-level def or class, or `<module>`."""
    tree = ast.parse(source)
    names = {"Sentence"} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == "Sentence" and alias.asname
    }
    found = []
    for statement in tree.body:
        owner = getattr(statement, "name", "<module>")
        for node in ast.walk(statement):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append(f"{owner}: line {node.lineno}")
    return found


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("module", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_but_corpus_builds_a_sentence(module):
    assert sentence_calls(module.read_text(encoding="utf-8")) == []


def test_corpus_builds_sentences_only_in_attach_parses():
    calls = sentence_calls((PACKAGE / "corpus.py").read_text(encoding="utf-8"))
    assert calls
    assert [call.split(":")[0] for call in calls] == ["attach_parses"] * len(calls)


def test_the_check_sees_each_kind_of_call():
    source = (
        "from .corpus import Sentence as Parse\n"
        "def f(x: Sentence) -> Sentence:\n"
        "    return x\n"
        "Sentence((), (), (), ())\n"
        "def load():\n"
        "    return corpus.Sentence(lemmas, upos, heads, deprels)\n"
        "class Group:\n"
        "    def parse(self):\n"
        "        return Parse(*self.columns)\n"
    )
    assert sentence_calls(source) == ["<module>: line 4", "load: line 6", "Group: line 9"]
