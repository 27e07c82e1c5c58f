import math
import random
import struct

import numpy as np
import pytest

from qatrigger import baselines
from qatrigger.baselines import (
    AnswerPool,
    EmbeddingTable,
    bm25_idf,
    bm25_scores,
    load_embeddings,
    ngram_coverage,
    ngram_scores,
    semantic_similarities,
    semantic_vector,
    tokenize,
)
from qatrigger.errors import IngestionError

from oracles import direct_bm25, direct_ngram_score


def test_tokenize_lowercases_and_strips_edge_punctuation():
    assert tokenize("The cat, sat-down!  (Twice).") == [
        "the", "cat", "sat-down", "twice",
    ]
    assert tokenize("...") == []


class TestBm25Idf:
    def pool(self, *answers):
        return AnswerPool.build([tokenize(a) for a in answers])

    def test_one_of_three(self):
        pool = self.pool("alpha beta", "gamma", "delta")
        assert bm25_idf(pool, "alpha") == pytest.approx(math.log(2.5 / 1.5))

    def test_single_candidate_can_go_negative(self):
        pool = self.pool("alpha")
        assert bm25_idf(pool, "alpha") == pytest.approx(math.log(0.5 / 1.5))

    def test_absent_term(self):
        pool = self.pool("a", "b", "c")
        assert bm25_idf(pool, "zzz") == pytest.approx(math.log(3.5 / 0.5))


class TestBm25Score:
    def test_empty_question_scores_zero(self):
        pool = AnswerPool.build([["a"], ["b"]])
        assert bm25_scores([], [["a"]], pool, 1.5, 0.75)[0] == 0.0

    def test_absent_term_contributes_nothing(self):
        pool = AnswerPool.build([["alpha", "beta"], ["gamma"]])
        with_term = bm25_scores(["alpha"], [["alpha", "beta"]], pool, 1.5, 0.75)[0]
        with_extra = bm25_scores(["alpha", "zzz"], [["alpha", "beta"]], pool, 1.5, 0.75)[0]
        assert with_term == with_extra

    def test_matches_hand_oracle_on_three_candidate_pool(self):
        answers = [
            ["the", "cat", "sat", "down"],
            ["a", "dog", "sat", "on", "the", "mat"],
            ["birds", "fly"],
        ]
        pool = AnswerPool.build(answers)
        question = ["the", "cat", "sat", "where"]
        mine = bm25_scores(question, answers, pool, k1=1.5, b=0.75)
        reference = [direct_bm25(question, answer, answers, k1=1.5, b=0.75) for answer in answers]
        assert mine == pytest.approx(reference, abs=1e-9)

    def test_repeated_query_terms_count_each_occurrence(self):
        pool = AnswerPool.build([["x", "y"], ["z"]])
        once = bm25_scores(["x"], [["x", "y"]], pool, 1.5, 0.75)[0]
        twice = bm25_scores(["x", "x"], [["x", "y"]], pool, 1.5, 0.75)[0]
        assert twice == pytest.approx(2 * once)


class TestNgram:
    def test_identical_sentences_cover_fully(self):
        tokens = ["a", "b", "c", "d"]
        for n in (1, 2, 3):
            assert ngram_coverage(tokens, tokens, n) == 1.0

    def test_disjoint_sentences(self):
        assert ngram_coverage(["a", "b"], ["c", "d"], 1) == 0.0

    def test_clipped_counts(self):
        assert ngram_coverage(["a", "b", "a"], ["a", "b"], 1) == pytest.approx(2 / 3)

    def test_ngram_score_identical_three_tokens(self):
        tokens = ["a", "b", "c"]
        assert ngram_scores(tokens, [tokens], 3)[0] == pytest.approx(0.5)

    def test_ngram_score_two_token_sentences(self):
        tokens = ["a", "b"]
        assert ngram_scores(tokens, [tokens], 3)[0] == pytest.approx((1 + 1 + 0) / 6)

    def test_ngram_score_disjoint(self):
        assert ngram_scores(["a", "b"], [["c", "d"]], 3)[0] == 0.0

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(41)
        vocab = list("abcde")
        for _ in range(50):
            q = [vocab[int(rng.integers(0, 5))] for _ in range(int(rng.integers(1, 8)))]
            answers = [
                [vocab[int(rng.integers(0, 5))] for _ in range(int(rng.integers(1, 8)))]
                for _ in range(int(rng.integers(1, 5)))
            ]
            assert ngram_scores(q, answers, 3) == pytest.approx(
                [direct_ngram_score(q, a, 3) for a in answers], abs=1e-12
            )


class TestSemanticVector:
    def embeddings(self):
        return EmbeddingTable(
            matrix=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            rows={"sun": 0, "moon": 1, "star": 2},
        )

    def test_all_oov_gives_none(self):
        assert semantic_vector(["zzz", "qqq"], self.embeddings()) is None

    def test_single_token_mean_is_itself(self):
        vector = semantic_vector(["sun", "zzz"], self.embeddings())
        assert vector == pytest.approx([1.0, 0.0])

    def test_mean_of_two(self):
        vector = semantic_vector(["sun", "moon"], self.embeddings())
        assert vector == pytest.approx([0.5, 0.5])

    def test_uppercase_falls_back_to_lowercase(self):
        vector = semantic_vector(["SUN"], self.embeddings())
        assert vector == pytest.approx([1.0, 0.0])

    def test_similarity_identical_sentences(self):
        emb = self.embeddings()
        assert semantic_similarities(["sun", "moon"], [["sun", "moon"]], emb)[0] == pytest.approx(1.0)

    def test_similarity_oov_side_is_zero(self):
        assert semantic_similarities(["sun"], [["zzz"]], self.embeddings())[0] == 0.0

    def test_similarity_hand_cosine(self):
        emb = self.embeddings()
        value = semantic_similarities(["sun"], [["star"]], emb)[0]
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_similarity_symmetric_and_bounded(self):
        emb = self.embeddings()
        value_ab = semantic_similarities(["sun", "star"], [["moon"]], emb)[0]
        value_ba = semantic_similarities(["moon"], [["sun", "star"]], emb)[0]
        assert value_ab == pytest.approx(value_ba)
        assert -1.0 <= value_ab <= 1.0


# More vector lines than one chunk of the C reader holds, and the first line
# of its third chunk.
MANY = 2 * baselines._CHUNK_LINES + 17
CHUNK_EDGE = 2 * baselines._CHUNK_LINES + 1
# The first line of the last, partial chunk of a _long_table.
LAST_CHUNK = 3 * baselines._CHUNK_LINES + 1


def _long_table(faults):
    """A 2,000-line table of 2-dim vectors with the lines in `faults` replaced."""
    return "".join(faults.get(i, f"w{i} 0.5 0.25") + "\n" for i in range(1, 2001))


def _random_field(rng):
    """One vector value, spelled in one of the ways embedding tables use."""
    kind = rng.randrange(6)
    if kind == 0:
        # Any finite double, from 64 random bits.
        while True:
            value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(value):
                return repr(value)
    if kind == 1:
        return repr(rng.uniform(-1.0, 1.0))
    if kind == 2:
        return rng.choice(
            ["-0.0", "0", "1e-310", "-4.9e-324", "2.2250738585072014e-308",
             "1.7976931348623157e+308", "+.5", "-7."]
        )
    if kind == 3:
        return f"{rng.uniform(-10.0, 10.0):.{rng.randrange(1, 10)}{rng.choice('eE')}}"
    if kind == 4:
        return str(rng.randrange(-1000, 1000))
    return f"{rng.uniform(-1.0, 1.0):.6f}"


def _random_table(rng, n_words, dim, header=False, crlf=False, blanks=False, repeats=0):
    """The text of a random table, and the rows and matrix a reader must
    return for it: words in order of first line, each with its last vector,
    each field parsed by float()."""
    words = [f"w{i}" for i in range(n_words)]
    for _ in range(repeats):
        words.insert(rng.randrange(1, len(words) + 1), rng.choice(words))
    lines = [f"{n_words} {dim}"] if header else []
    vectors: dict[str, list[str]] = {}
    for word in words:
        fields = [_random_field(rng) for _ in range(dim)]
        vectors[word] = fields
        separators = [rng.choice([" ", "\t", "   ", " \t "]) for _ in fields]
        tail = rng.choice(["", " ", "\t"])
        lines.append(word + "".join(sep + f for sep, f in zip(separators, fields)) + tail)
        if blanks and rng.random() < 0.1:
            lines.append(rng.choice(["", "  ", "\t"]))
    newline = "\r\n" if crlf else "\n"
    rows = {word: i for i, word in enumerate(vectors)}
    matrix = np.array([[float(f) for f in fields] for fields in vectors.values()])
    return newline.join(lines) + newline, rows, matrix


def _must_not_run(*args):
    raise AssertionError("the per-line parser must not run")


def _chunks_fail(*args, **kwargs):
    raise ValueError("numpy's reader disabled")


def _load_with(monkeypatch, path, owner, name, replacement):
    """load_embeddings with `owner.name` replaced."""
    with monkeypatch.context() as patch:
        patch.setattr(owner, name, replacement)
        return load_embeddings(path)


def _assert_same_bits(table, rows, matrix):
    assert table.rows == rows
    assert table.matrix.shape == matrix.shape
    assert table.matrix.tobytes() == matrix.tobytes()


class TestEmbeddingReaders:
    """numpy's chunk reader and the per-line float() parser, each bit for bit
    against float(), and which chunks reach the per-line parser."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "n_words, dim, options",
        [
            (1, 4, {}),
            (1, 1, {"header": True}),
            (60, 1, {"blanks": True}),
            (30, 300, {"header": True, "crlf": True}),
            (MANY, 3, {"blanks": True, "crlf": True, "repeats": 40}),
            (MANY, 1, {"header": True, "repeats": 3}),
            (200, 8, {"header": True, "repeats": 60}),
        ],
        ids=[
            "one-row", "one-row-header", "dim-1-blanks", "dim-300-header-crlf",
            "past-one-chunk-repeats", "past-one-chunk-dim-1", "repeats-header",
        ],
    )
    def test_both_parsers_match_float(self, monkeypatch, tmp_path, seed, n_words, dim, options):
        text, rows, matrix = _random_table(random.Random(seed), n_words, dim, **options)
        path = tmp_path / "emb.txt"
        path.write_bytes(text.encode("utf-8"))
        _assert_same_bits(
            _load_with(monkeypatch, path, baselines, "_parse_lines", _must_not_run), rows, matrix
        )
        _assert_same_bits(_load_with(monkeypatch, path, np, "loadtxt", _chunks_fail), rows, matrix)

    def test_well_formed_tables_never_reach_the_per_line_parser(
        self, monkeypatch, mini_dir, tmp_path
    ):
        mini = mini_dir / "embeddings.txt"
        table = _load_with(monkeypatch, mini, baselines, "_parse_lines", _must_not_run)
        expected = _load_with(monkeypatch, mini, np, "loadtxt", _chunks_fail)
        _assert_same_bits(table, expected.rows, expected.matrix)
        assert table.dim == 2 and len(table.rows) > 0

        text, rows, matrix = _random_table(random.Random(300), 50, 300, header=True)
        path = tmp_path / "emb300.txt"
        path.write_text(text, encoding="utf-8")
        _assert_same_bits(
            _load_with(monkeypatch, path, baselines, "_parse_lines", _must_not_run), rows, matrix
        )

    @pytest.mark.parametrize(
        "content, word, vector",
        [
            ("sun 1_0 2\nmoon 0 1\n", "sun", [10.0, 2.0]),
            ("sun 0 1\nmoon \uff11 \uff12.5\n", "moon", [1.0, 2.5]),
            ("sun 0 1\nmoon \u0663 -\u0664\n", "moon", [3.0, -4.0]),
            (_long_table({1500: "w1500 1_000.5 0.25"}), "w1500", [1000.5, 0.25]),
        ],
        ids=["underscore", "full-width-digits", "arabic-indic-digits", "underscore-line-1500"],
    )
    def test_fields_only_float_parses_are_read_line_by_line(
        self, monkeypatch, tmp_path, content, word, vector
    ):
        path = tmp_path / "emb.txt"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(AssertionError, match="must not run"):
            _load_with(monkeypatch, path, baselines, "_parse_lines", _must_not_run)
        table = load_embeddings(path)
        assert table.matrix[table.rows[word]].tolist() == vector
        assert len(table.rows) == len(content.splitlines())

    def test_only_the_rejected_chunk_is_parsed_line_by_line(self, monkeypatch, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text(_long_table({1500: "w1500 1_0 0.25"}), encoding="utf-8")
        parsed = []

        def spy(chunk, dim, path):
            parsed.append((chunk[0][0], chunk[-1][0], dim))
            return parse_lines(chunk, dim, path)

        parse_lines = baselines._parse_lines
        table = _load_with(monkeypatch, path, baselines, "_parse_lines", spy)
        assert parsed == [(CHUNK_EDGE, LAST_CHUNK - 1, 2)]
        assert table.matrix[table.rows["w1500"]].tolist() == [10.0, 0.25]

    @pytest.mark.parametrize(
        "content, message",
        [
            pytest.param(
                _long_table({3: "w3 0.1 high"}), "line 3: not a number: 'high'",
                id="first-chunk",
            ),
            pytest.param(
                _long_table({1999: "w1999 inf 0.1"}), "line 1999: vector value is not finite",
                id="last-partial-chunk",
            ),
            pytest.param(
                _long_table({100: "w100 1_0 0.5", 1800: "w1800 0.1"}),
                "line 1800: expected 2 dims, got 1",
                id="float-only-chunk-then-later-fault",
            ),
            pytest.param(
                _long_table({100: "w100 1_0 0.5", 300: "w300 nan 0.1"}),
                "line 300: vector value is not finite",
                id="float-only-line-then-fault-in-its-chunk",
            ),
            pytest.param(
                _long_table(
                    {5: "w5 1_0 0.5", **{i: f"w{i} 0.5" for i in range(LAST_CHUNK, 2001)}}
                ),
                f"line {LAST_CHUNK}: expected 2 dims, got 1",
                id="width-set-line-by-line-then-a-narrower-chunk",
            ),
        ],
    )
    def test_fault_is_named_in_any_chunk(self, tmp_path, content, message):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(IngestionError) as error:
            load_embeddings(path)
        assert str(error.value) == f"{path}: {message}"


class TestEmbeddingFile:
    def test_load_plain_and_with_header(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("sun 1.0 0.0\nmoon 0.0 1.0\n")
        table = load_embeddings(plain)
        assert table.dim == 2
        assert table.matrix[table.lookup("moon")] == pytest.approx([0.0, 1.0])

        headed = tmp_path / "headed.txt"
        headed.write_text("2 3\nsun 1 0 0\nmoon 0 1 0\n")
        table = load_embeddings(headed)
        assert table.dim == 3
        assert table.rows == {"sun": 0, "moon": 1}
        assert table.matrix.tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_duplicate_word_keeps_later_vector(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("sun 1 0\n\nmoon 0 1\nsun 2 2\n")
        table = load_embeddings(path)
        assert table.rows == {"sun": 0, "moon": 1}
        assert table.matrix.tolist() == [[2, 2], [0, 1]]

    @pytest.mark.parametrize(
        "content, message",
        [
            # The messages featurize reports for corrupt embedding files.
            ("who 0.1 high\n", "line 1: not a number: 'high'"),
            ("who 0.1 nan\n", "line 1: vector value is not finite"),
            ("who 0.1 0.2\nwon 0.3\n", "line 2: expected 2 dims, got 1"),
            ("who\n", "line 1: empty vector"),
            ("\n\n", "no vectors found"),
            # The first fault in file order is the one reported.
            ("who 0.1 0.2\nwon inf 0.3\nwhy 0.4\n", "line 2: vector value is not finite"),
            ("who 0.1 0.2\nwon 0.3\nwhy nan 0.4\n", "line 2: expected 2 dims, got 1"),
            # Past the first chunk of the C reader, each fault still names its line.
            pytest.param(
                _long_table({1500: "w1500 0.1 high"}), "line 1500: not a number: 'high'",
                id="line-1500-not-a-number",
            ),
            pytest.param(
                _long_table({1500: "w1500 0.1 inf"}), "line 1500: vector value is not finite",
                id="line-1500-not-finite",
            ),
            pytest.param(
                _long_table({1500: "w1500 0.1"}), "line 1500: expected 2 dims, got 1",
                id="line-1500-wrong-dims",
            ),
            pytest.param(
                _long_table({1500: "w1500"}), "line 1500: expected 2 dims, got 0",
                id="line-1500-word-only",
            ),
            pytest.param(
                _long_table({i: f"w{i} 0.5" for i in range(CHUNK_EDGE, 2001)}),
                f"line {CHUNK_EDGE}: expected 2 dims, got 1",
                id="whole-chunks-of-wrong-dims",
            ),
            pytest.param(
                "who 0.1\nwon 0.2 #3\n", "line 2: not a number: '#3'",
                id="hash-is-not-a-comment",
            ),
            pytest.param(
                _long_table({700: "w700 nan 0.1", 1500: "w1500 0.1 high"}),
                "line 700: vector value is not finite",
                id="two-faults-earlier-chunk-wins",
            ),
            pytest.param(
                _long_table({600: "w600 0.3", 1800: "w1800 inf 0.1"}),
                "line 600: expected 2 dims, got 1",
                id="two-faults-ragged-before-not-finite",
            ),
        ],
    )
    def test_corrupt_file_names_its_first_bad_line(self, tmp_path, content, message):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(IngestionError) as error:
            load_embeddings(path)
        assert str(error.value) == f"{path}: {message}"

    def test_inconsistent_dims_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("sun 1.0 0.0\nmoon 0.0\n")
        with pytest.raises(IngestionError):
            load_embeddings(path)

    def test_mini_embeddings_load(self, mini_dir):
        table = load_embeddings(mini_dir / "embeddings.txt")
        assert table.dim == 2
        assert table.lookup("alice") is not None


@pytest.mark.parametrize(
    "content", ["\ufeffsun 1 0\nmoon 0 1\n", "\ufeff2 2\nsun 1 0\nmoon 0 1\n"],
    ids=["before-first-word", "before-header"],
)
def test_leading_byte_order_mark_is_ignored(tmp_path, content):
    path = tmp_path / "bom.txt"
    path.write_text(content, encoding="utf-8")
    table = load_embeddings(path)
    assert table.rows == {"sun": 0, "moon": 1}
    assert table.matrix.tolist() == [[1, 0], [0, 1]]
