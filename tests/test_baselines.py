import math
import random
import struct
import time

import numpy as np
import pytest

from qatrigger import baselines
from qatrigger.baselines import (
    EmbeddingTable,
    bm25_scores,
    load_embeddings,
    ngram_scores,
    semantic_similarities,
    tokenize,
)
from qatrigger.corpus import load_wikiqa
from qatrigger.errors import IngestionError

from oracles import (
    counter_bm25_scores,
    direct_bm25,
    direct_ngram_score,
    looped_ngram_scores,
    looped_semantic_similarities,
)


def test_tokenize_lowercases_and_strips_edge_punctuation():
    assert tokenize("The cat, sat-down!  (Twice).") == [
        "the", "cat", "sat-down", "twice",
    ]
    assert tokenize("...") == []


class TestBm25Idf:
    """One-term questions, whose score is the term's idf times its
    saturated frequency, with the scored answers as the pool."""

    @staticmethod
    def scores(term, *answers):
        tokens = [tokenize(a) for a in answers]
        mine = bm25_scores([term], tokens, 1.5, 0.75)
        assert mine == pytest.approx([direct_bm25([term], a, tokens, 1.5, 0.75) for a in tokens])
        return mine

    def test_one_of_three(self):
        # idf = ln(2.5 / 1.5) > 0: the term is rare in the pool.
        alpha, gamma, delta = self.scores("alpha", "alpha beta", "gamma", "delta")
        assert alpha > 0 and gamma == delta == 0.0

    def test_single_candidate_can_go_negative(self):
        # idf = ln(0.5 / 1.5) < 0: the only answer holds the term.
        [score] = self.scores("alpha", "alpha")
        assert score == pytest.approx(math.log(0.5 / 1.5))

    def test_absent_term(self):
        assert self.scores("zzz", "a", "b", "c") == [0.0, 0.0, 0.0]


class TestBm25Score:
    def test_empty_question_scores_zero(self):
        assert bm25_scores([], [["a"], ["b"]], 1.5, 0.75) == [0.0, 0.0]

    def test_no_answers_give_no_scores(self):
        assert bm25_scores(["a"], [], 1.5, 0.75) == []

    def test_absent_term_contributes_nothing(self):
        answers = [["alpha", "beta"], ["gamma"]]
        with_term = bm25_scores(["alpha"], answers, 1.5, 0.75)
        with_extra = bm25_scores(["alpha", "zzz"], answers, 1.5, 0.75)
        assert with_term == with_extra

    def test_matches_hand_oracle_on_three_candidate_pool(self):
        answers = [
            ["the", "cat", "sat", "down"],
            ["a", "dog", "sat", "on", "the", "mat"],
            ["birds", "fly"],
        ]
        question = ["the", "cat", "sat", "where"]
        mine = bm25_scores(question, answers, k1=1.5, b=0.75)
        reference = [direct_bm25(question, answer, answers, k1=1.5, b=0.75) for answer in answers]
        assert mine == pytest.approx(reference, abs=1e-9)

    def test_repeated_query_terms_count_each_occurrence(self):
        answers = [["x", "y"], ["z"]]
        once = bm25_scores(["x"], answers, 1.5, 0.75)[0]
        twice = bm25_scores(["x", "x"], answers, 1.5, 0.75)[0]
        assert twice == pytest.approx(2 * once)


class TestNgram:
    def test_identical_sentences_cover_fully(self):
        # Each order's coverage is 1, so the score is n_max / (1 + ... + n_max).
        tokens = ["a", "b", "c", "d"]
        for n_max in (1, 2, 3):
            assert ngram_scores(tokens, [tokens], n_max) == [2 / (n_max + 1)]

    def test_disjoint_sentences(self):
        assert ngram_scores(["a", "b"], [["c", "d"]], 1) == [0.0]

    def test_clipped_counts(self):
        assert ngram_scores(["a", "b", "a"], [["a", "b"]], 1) == [pytest.approx(2 / 3)]

    def test_ngram_score_identical_three_tokens(self):
        tokens = ["a", "b", "c"]
        assert ngram_scores(tokens, [tokens], 3)[0] == pytest.approx(0.5)

    def test_ngram_score_two_token_sentences(self):
        tokens = ["a", "b"]
        assert ngram_scores(tokens, [tokens], 3)[0] == pytest.approx((1 + 1 + 0) / 6)

    def test_ngram_score_disjoint(self):
        assert ngram_scores(["a", "b"], [["c", "d"]], 3)[0] == 0.0

    def test_orders_past_the_question_match_every_order_bitwise(self, mini_dir):
        # Orders longer than the question are skipped; the all-orders
        # reference builds each of them, up to 40 on the mini groups.
        groups = [group for split in ("train", "dev", "test")
                  for group in load_wikiqa(mini_dir / f"{split}.tsv")]
        for group in groups:
            question = tokenize(group.question)
            answers = [tokenize(text) for _, text, _ in group.candidates]
            for n_max in range(1, 41):
                assert repr(ngram_scores(question, answers, n_max)) == repr(
                    looped_ngram_scores(question, answers, n_max)
                )

    def test_huge_order_costs_no_more_than_the_question_length(self):
        question, answers = ["a", "b", "c"], [["a", "b", "c"], ["c", "a"]]
        started = time.perf_counter()
        scores = ngram_scores(question, answers, 10**6)
        assert time.perf_counter() - started < 0.5
        assert scores == [3 / (10**6 * (10**6 + 1) / 2), 2 / 3 / (10**6 * (10**6 + 1) / 2)]

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
    """The averaged word vectors, seen through the cosines they give."""

    def embeddings(self):
        return EmbeddingTable(
            matrix=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, -1.0]]),
            rows={"sun": 0, "moon": 1, "star": 2, "Sky": 3},
        )

    def test_all_oov_gives_none(self):
        # No question token has a vector: the mean is undefined, every score 0.
        emb = self.embeddings()
        groups = [(["zzz", "qqq"], [["zzz", "qqq"], ["sun"]])]
        assert semantic_similarities(groups, emb) == [0.0, 0.0]

    def test_single_token_mean_is_itself(self):
        emb = self.embeddings()
        scores = semantic_similarities([(["sun", "zzz"], [["sun"], ["moon"], ["star"]])], emb)
        assert scores == pytest.approx([1.0, 0.0, 1 / math.sqrt(2)], abs=1e-12)

    def test_mean_of_two(self):
        emb = self.embeddings()
        groups = [(["sun", "moon"], [["star"], ["sun"], ["moon", "zzz"]])]
        scores = semantic_similarities(groups, emb)
        assert scores == pytest.approx([1.0, 1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-12)

    def test_lookup_is_exact(self):
        emb = self.embeddings()
        # SUN has no row of its own, and tokenize() never yields it.
        assert semantic_similarities([(["SUN"], [["sun"]])], emb) == [0.0]
        assert semantic_similarities([(["sun"], [["SUN"], ["Moon"]])], emb) == [0.0, 0.0]
        # Sky keeps its own row, and sky has none.
        scores = semantic_similarities([(["Sky"], [["moon"], ["sky"]])], emb)
        assert scores == pytest.approx([-1.0, 0.0])

    def test_similarity_identical_sentences(self):
        emb = self.embeddings()
        [score] = semantic_similarities([(["sun", "moon"], [["sun", "moon"]])], emb)
        assert score == pytest.approx(1.0)

    def test_similarity_oov_side_is_zero(self):
        assert semantic_similarities([(["sun"], [["zzz"]])], self.embeddings())[0] == 0.0

    def test_similarity_hand_cosine(self):
        emb = self.embeddings()
        value = semantic_similarities([(["sun"], [["star"]])], emb)[0]
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_integer_table_scores_as_its_float_copy(self, dim):
        matrix = np.array([[1, 0], [0, 3], [2, 2], [0, -1]])[:, :dim]
        rows = self.embeddings().rows
        groups = [(["sun", "star"], [["moon"], ["star", "Sky", "sun"], ["sun"]])]
        assert semantic_similarities(groups, EmbeddingTable(matrix, rows)) == (
            semantic_similarities(groups, EmbeddingTable(matrix.astype(float), rows)))

    def test_similarity_symmetric_and_bounded(self):
        emb = self.embeddings()
        value_ab = semantic_similarities([(["sun", "star"], [["moon"]])], emb)[0]
        value_ba = semantic_similarities([(["moon"], [["sun", "star"]])], emb)[0]
        assert value_ab == pytest.approx(value_ba)
        assert -1.0 <= value_ab <= 1.0


class TestAgainstFirstLoops:
    """ngram, bm25 and semvec against transcriptions of their first loops,
    bit for bit: repr tells every float apart, 0.0 from -0.0 included."""

    WORDS = ["sun", "moon", "star", "sky", "sea"]
    # Upper-case forms (Sky has a vector of its own) and a word with none.
    RARE = ["SUN", "Moon", "Sky", "zzz"]
    EDGES = [
        ([], [[], ["sun"], ["sun", "sun"]]),
        (["sun"], [[]]),
        (["zzz"], [["zzz"], ["sun"]]),
        (["sea"], [["sea"], ["sun", "sea"]]),  # sea's vector is zero
        (["sun", "sun", "moon"], [["sun"], ["sun", "sun", "sun", "moon"], ["moon", "sun"]]),
    ]

    def groups(self, seed):
        rng = random.Random(seed)

        def tokens(longest):
            return [
                rng.choice(self.WORDS) if rng.random() < 0.85 else rng.choice(self.RARE)
                for _ in range(rng.randrange(longest + 1))
            ]

        yield from self.EDGES
        for _ in range(300):
            yield tokens(7), [tokens(9) for _ in range(rng.randrange(1, 7))]

    def test_ngram_scores(self):
        for question, answers in self.groups(1):
            for n_max in range(1, 5):
                assert repr(ngram_scores(question, answers, n_max)) == repr(
                    looped_ngram_scores(question, answers, n_max)
                )

    def test_bm25_scores(self):
        for question, answers in self.groups(2):
            for k1, b in ((1.2, 0.75), (1.5, 0.0), (0.9, 1.0)):
                assert repr(bm25_scores(question, answers, k1, b)) == repr(
                    counter_bm25_scores(question, answers, k1, b)
                )

    def long_groups(self, seed):
        """Groups whose answers have 8 to 140 tokens, where numpy sums a
        one-column block pairwise; `big` and `minus` are +-2**53 in every
        dimension, so the order of a sum shows in its bits."""
        rng = random.Random(seed)
        words = self.WORDS + ["big", "minus"]
        for _ in range(20):
            question = [rng.choice(words) for _ in range(rng.randrange(1, 8))]
            answers = [[rng.choice(words) for _ in range(rng.randrange(8, 141))]
                       for _ in range(rng.randrange(1, 4))]
            yield question, answers
        yield ["sun"], [["big", *["sun"] * k, "minus"] for k in (5, 6, 7, 30, 138)]

    @pytest.mark.parametrize("dim", [1, 2, 3, 50, 300])
    def test_semantic_similarities(self, tmp_path, dim):
        rng = random.Random(dim)
        lines = []
        for word in ["sun", "moon", "star", "sky", "Sky", "moon"]:  # moon twice
            lines.append(" ".join([word, *(repr(rng.uniform(-1.0, 1.0)) for _ in range(dim))]))
        lines.append(" ".join(["sea", *["0"] * dim]))
        lines.append(" ".join(["big", *[repr(2.0**53)] * dim]))
        lines.append(" ".join(["minus", *[repr(-(2.0**53))] * dim]))
        path = tmp_path / "vectors.txt"
        path.write_text("\n".join(lines) + "\n")
        table = load_embeddings(path)
        assert len(table.rows) == 8
        groups = [*self.groups(3), *self.long_groups(dim)]
        looped = [looped_semantic_similarities(q, a, table.matrix, table.rows) for q, a in groups]
        for (question, answers), expected in zip(groups, looped):
            assert repr(semantic_similarities([(question, answers)], table)) == repr(expected)
        # All groups in one batch: each answer keeps its bits.
        assert repr(semantic_similarities(groups, table)) == repr(sum(looped, []))

    def test_a_square_that_overflows_beside_a_finite_dot_product(self):
        # |big|**2 overflows while big . one stays finite: without a second
        # scoring, dot / inf would be a false 0.
        rows = {"one": 0, "big": 1}
        huge = EmbeddingTable(np.array([[1.0, 0.5], [2.0**600, 2.0**599]]), rows)
        plain = EmbeddingTable(np.array([[1.0, 0.5], [1.0, 0.5]]), rows)
        groups = [(["big"], [["one"], ["big"]])]
        assert semantic_similarities(groups, huge) == semantic_similarities(groups, plain)

    @pytest.mark.parametrize("factor", [2.0**600, 2.0**-520, 2.0**-600],
                             ids=["2**600", "2**-520", "2**-600"])
    @pytest.mark.parametrize("dim", [1, 2, 50])
    def test_scaling_the_table_by_a_power_of_two_changes_no_score(self, dim, factor):
        # At 2**600 the squares overflow, at 2**-520 they lose bits to
        # underflow and at 2**-600 they underflow to 0; the pairs they touch
        # are scored again from rescaled means, with no warning
        # (filterwarnings = error).
        rng = np.random.default_rng(dim)
        words = [*self.WORDS, "Sky"]
        matrix = rng.uniform(-1.0, 1.0, size=(len(words), dim))
        matrix[words.index("sea")] = 0.0
        table = EmbeddingTable(matrix, {w: i for i, w in enumerate(words)})
        scaled = EmbeddingTable(matrix * factor, table.rows)
        groups = [*self.groups(4), *self.long_groups(4)]
        expected = semantic_similarities(groups, table)
        assert any(score not in (0.0, 1.0, -1.0) for score in expected) or dim == 1
        assert repr(semantic_similarities(groups, scaled)) == repr(expected)


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
    lines = [f"{len(words)} {dim}"] if header else []  # one count per vector line
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
        assert table.matrix.shape[1] == 2 and len(table.rows) > 0

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
        assert table.matrix.shape[1] == 2
        assert table.matrix[table.rows["moon"]] == pytest.approx([0.0, 1.0])

        headed = tmp_path / "headed.txt"
        headed.write_text("2 3\nsun 1 0 0\nmoon 0 1 0\n")
        table = load_embeddings(headed)
        assert table.matrix.shape[1] == 3
        assert table.rows == {"sun": 0, "moon": 1}
        assert table.matrix.tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_header_is_the_first_non_empty_line_only(self, tmp_path):
        path = tmp_path / "headed.txt"
        path.write_text("\n \n2 3\nsun 1 0 0\nmoon 0 1 0\n")
        table = load_embeddings(path)
        assert table.rows == {"sun": 0, "moon": 1}
        assert table.matrix.tolist() == [[1, 0, 0], [0, 1, 0]]
        path.write_text("\n2 3\n2 3\nsun 1 0 0\n")
        with pytest.raises(IngestionError, match="line 4: expected 1 dims, got 3"):
            load_embeddings(path)

    @pytest.mark.parametrize("header, message", [
        ("7 2", "line 1: header says 7 vectors of 2 dims, file has 3 of 2"),
        ("2 2", "line 1: header says 2 vectors of 2 dims, file has 3 of 2"),  # sun twice
        ("3 5", "line 1: header says 3 vectors of 5 dims, file has 3 of 2"),
        ("0 0", "line 1: header says 0 vectors of 0 dims, file has 3 of 2"),
    ], ids=["count", "count-of-words-not-lines", "dim", "zeros"])
    def test_header_must_match_the_vectors(self, tmp_path, header, message):
        path = tmp_path / "headed.txt"
        path.write_text(f"{header}\nsun 1 0\nmoon 0 1\n\nsun 2 2\n")
        with pytest.raises(IngestionError) as error:
            load_embeddings(path)
        assert str(error.value) == f"{path}: {message}"
        path.write_text("\n3 2\nsun 1 0\nmoon 0 1\n\nsun 2 2\n")
        assert load_embeddings(path).matrix.tolist() == [[2, 2], [0, 1]]

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
            # The first bad field, read left to right, decides the message.
            ("who nan high\n", "line 1: vector value is not finite"),
            ("who high nan\n", "line 1: not a number: 'high'"),
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
                _long_table({1500: "w1500 nan high"}), "line 1500: vector value is not finite",
                id="line-1500-not-finite-before-not-a-number",
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
        assert table.matrix.shape[1] == 2
        assert "alice" in table.rows


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
