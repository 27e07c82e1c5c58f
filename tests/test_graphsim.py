import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest

from qatrigger.corpus import Sentence
from qatrigger.errors import IngestionError
from qatrigger.graphsim import (
    LEVELS,
    DfTable,
    build_df,
    extract_keys,
    graph_similarities,
    load_df_table,
    save_df_table,
    tfidf_vector,
)

from conftest import make_sentence, random_tree_sentence
from oracles import (
    cosine,
    direct_cosine,
    direct_tfidf_vector,
    head_edges,
    reference_df_table,
    sorted_cosine,
)


def word_keys(graph):
    return extract_keys(graph)["word"]


class TestExtractKeys:
    def test_word_level_is_lemma_multiset(self, question_sentence):
        keys = extract_keys(question_sentence)["word"]
        assert keys == {"how": 1, "do": 1, "david": 1, "carradine": 1, "die": 1}

    def test_pair_and_triplet_keys(self, answer_sentence):
        keys = extract_keys(answer_sentence)
        pairs, triplets = keys["pair"], keys["triplet"]
        assert "carradine|david" in pairs
        assert "carradine|david|compound" in triplets
        assert sum(pairs.values()) == len(answer_sentence.edges)
        assert sum(triplets.values()) == len(answer_sentence.edges)

    def test_single_node_has_no_pairs(self):
        graph = make_sentence([("hi", "hi", "INTJ", 0, "root")])
        keys = extract_keys(graph)
        assert not keys["pair"] and not keys["triplet"]

    def test_edges_derived_once_for_every_level(self, answer_sentence):
        # A Sentence stores its edges (and depths) when it is built, so every
        # level reads the same tuple and none derives it again.
        stored = {f.name for f in dataclasses.fields(Sentence) if not f.init}
        assert stored == {"depth", "edges"}
        keys = extract_keys(answer_sentence)
        assert list(keys) == list(LEVELS)


class TestBuildDf:
    def test_counts_sentences_containing_key(self):
        s1 = make_sentence([("die", "die", "VERB", 0, "root")])
        s2 = make_sentence(
            [("he", "he", "PRON", 2, "nsubj"), ("die", "die", "VERB", 0, "root")],
        )
        table = build_df([s1, s2])["word"]
        assert table.n_docs == 2
        assert table.df["die"] == 2
        assert table.df["he"] == 1
        assert "run" not in table.df

    def test_repeats_within_one_sentence_count_once(self):
        s = make_sentence(
            [("fast", "fast", "ADV", 2, "advmod"),
             ("go", "go", "VERB", 0, "root"),
             ("fast", "fast", "ADV", 2, "advmod")],
        )
        assert build_df([s])["word"].df["fast"] == 1

    def test_ten_sentence_hand_count(self):
        sentences = []
        for i in range(10):
            lemma = "even" if i % 2 == 0 else "odd"
            sentences.append(
                make_sentence(
                    [(lemma, lemma, "NOUN", 2, "nsubj"), ("is", "be", "AUX", 0, "root")],
                )
            )
        table = build_df(sentences)["word"]
        assert table.df == {"even": 5, "odd": 5, "be": 10}

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError):
            build_df([])

    def test_one_graph_per_sentence_for_all_levels(self):
        rng = np.random.default_rng(73)
        sentences = [
            random_tree_sentence(rng, lemma_pool=["a", "b", "c"])
            for i in range(30)
        ]
        tables = build_df(sentences)
        assert list(tables) == ["word", "pair", "triplet"]
        for level, table in tables.items():
            expected = Counter()
            for sentence in sentences:
                expected.update(set(extract_keys(sentence)[level]))
            assert (table.level, table.n_docs, table.df) == (level, 30, dict(expected))


class TestIdfByDf:
    def test_one_bitwise_idf_per_document_frequency(self):
        table = DfTable("word", n_docs=40, df={f"k{d}": d for d in range(1, 41, 3)})
        assert set(table.idf_by_df) == {0, *table.df.values()}
        for d, idf in table.idf_by_df.items():
            assert idf.hex() == (math.log((40 + 1) / (d + 1)) + 1.0).hex()

    def test_n_docs_is_bounded_so_every_idf_is_finite(self):
        table = DfTable("word", n_docs=2**53, df={"k": 1})
        assert all(math.isfinite(idf) for idf in table.idf_by_df.values())
        with pytest.raises(ValueError, match=r"^n_docs must be at most 2\*\*53$"):
            DfTable("word", n_docs=2**53 + 1, df={})


class TestTfidfVector:
    def test_formula_with_saturated_df(self):
        graph = make_sentence([("die", "die", "VERB", 0, "root")])
        table = DfTable("word", n_docs=4, df={"die": 4})
        vector = tfidf_vector(word_keys(graph), table, alpha=0.0)
        assert vector["die"] == pytest.approx(math.log(5 / 5) + 1.0)

    def test_unseen_key_uses_zero_df(self):
        graph = make_sentence([("new", "new", "ADJ", 0, "root")])
        table = DfTable("word", n_docs=9, df={"old": 1})
        assert tfidf_vector(word_keys(graph), table, 0.0)["new"] == pytest.approx(math.log(10) + 1)

    def test_alpha_above_everything_empties_vector(self, question_sentence):
        table = DfTable("word", n_docs=2, df={})
        assert tfidf_vector(word_keys(question_sentence), table, alpha=100.0) == {}

    def test_raising_alpha_never_adds_keys(self):
        rng = np.random.default_rng(3)
        table = DfTable("word", n_docs=50, df={"die": 10, "live": 40, "win": 2})
        for _ in range(25):
            graph = random_tree_sentence(rng, max_nodes=7)
            low = tfidf_vector(word_keys(graph), table, 0.5)
            high = tfidf_vector(word_keys(graph), table, 1.5)
            assert set(high) <= set(low)

    def test_matches_direct_formula(self, answer_sentence):
        table = DfTable("word", n_docs=12, df={"die": 3, "david": 1, "june": 2})
        mine = tfidf_vector(word_keys(answer_sentence), table, 0.0)
        direct = direct_tfidf_vector(
            answer_sentence,
            lambda g: list(g.lemmas),
            12,
            table.df,
            0.0,
        )
        assert mine == pytest.approx(direct)

    def test_bitwise_equal_to_direct_formula_at_every_level(self):
        rng = np.random.default_rng(79)
        graphs = [random_tree_sentence(rng, max_nodes=9) for i in range(60)]
        tables = build_df(graphs[:30])
        for graph in graphs:
            for level, table in tables.items():
                alpha = float(rng.random()) * 3
                mine = tfidf_vector(extract_keys(graph)[level], table, alpha)
                direct = direct_tfidf_vector(
                    graph, lambda g: list(extract_keys(g)[level].elements()),
                    table.n_docs, table.df, alpha,
                )
                assert {k: w.hex() for k, w in mine.items()} == {
                    k: w.hex() for k, w in direct.items()
                }


class TestCosine:
    def test_identical_vectors(self):
        v = {"a": 2.0, "b": 1.0}
        assert cosine(v, v) == pytest.approx(1.0)

    def test_disjoint_vectors(self):
        assert cosine({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_hand_value(self):
        assert cosine({"a": 1.0, "b": 1.0}, {"a": 1.0}) == pytest.approx(1 / math.sqrt(2))

    def test_empty_vector_gives_zero(self):
        assert cosine({}, {"a": 1.0}) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        keys = list("abcdefgh")
        for _ in range(25):
            v1 = {k: float(rng.random()) + 0.01 for k in keys if rng.random() < 0.7}
            v2 = {k: float(rng.random()) + 0.01 for k in keys if rng.random() < 0.7}
            scale = float(rng.random()) * 9 + 0.1
            scaled1 = {k: w * scale for k, w in v1.items()}
            scaled2 = {k: w * scale for k, w in v2.items()}
            assert cosine(scaled1, scaled2) == pytest.approx(cosine(v1, v2), abs=1e-12)

    def test_key_order_does_not_change_the_bits(self):
        rng = np.random.default_rng(83)
        keys = [f"k{i}" for i in range(30)]
        for _ in range(300):
            v1 = {k: float(rng.lognormal(0, 3)) for k in keys if rng.random() < 0.6}
            v2 = {k: float(rng.lognormal(0, 3)) for k in keys if rng.random() < 0.6}
            expected = sorted_cosine(v1, v2).hex()
            for _ in range(3):
                shuffled1 = dict(sorted(v1.items(), key=lambda _: rng.random()))
                shuffled2 = dict(sorted(v2.items(), key=lambda _: rng.random()))
                assert cosine(shuffled1, shuffled2).hex() == expected

    def test_matches_direct_formula(self):
        v1 = {"x": 0.3, "y": 1.7, "z": 0.2}
        v2 = {"y": 0.9, "z": 2.2, "w": 1.0}
        assert cosine(v1, v2) == pytest.approx(direct_cosine(v1, v2), abs=1e-12)


class TestSimilarityFeatures:
    def tables_for(self, graphs):
        tables = {}
        for level in ("word", "pair", "triplet"):
            df = {}
            for g in graphs:
                for key in set(extract_keys(g)[level]):
                    df[key] = df.get(key, 0) + 1
            tables[level] = DfTable(level, n_docs=len(graphs), df=df)
        return tables

    def test_identical_graphs_score_one(self, question_sentence):
        tables = self.tables_for([question_sentence])
        sims = graph_similarities(
            [(question_sentence, [question_sentence])], tables, (0.0, 0.0, 0.0)
        )[0]
        assert sims == pytest.approx((1.0, 1.0, 1.0))

    def test_disjoint_graphs_score_zero(self):
        g1 = make_sentence([("sun", "sun", "NOUN", 0, "root")])
        g2 = make_sentence([("rain", "rain", "NOUN", 0, "root")])
        tables = self.tables_for([g1, g2])
        assert graph_similarities([(g1, [g2])], tables, (0.0, 0.0, 0.0))[0] == (0, 0, 0)

    def test_fig_pair_shares_word_level_mass(self, question_sentence, answer_sentence):
        tables = self.tables_for([question_sentence, answer_sentence])
        sims = graph_similarities(
            [(question_sentence, [answer_sentence])], tables, (0.0, 0.0, 0.0)
        )[0]
        assert sims[0] > 0  # die, david, carradine shared
        assert sims[1] > 0  # carradine|david pair shared
        assert sims[2] > 0  # compound triplet shared
        assert all(0.0 <= s <= 1.0 for s in sims)

    def test_groups_match_direct_oracle(self):
        # Keys come from the head column, weights and cosines from the direct
        # formulas; a third of the sentences stay out of the DF tables, so
        # unseen keys occur.
        def keys_of(level):
            def keys(graph):
                lemma = dict(enumerate(graph.lemmas, start=1))
                if level == "word":
                    return list(graph.lemmas)
                pairs = [(f"{lemma[g]}|{lemma[d]}", r) for g, d, r in head_edges(graph)]
                return [p if level == "pair" else f"{p}|{r}" for p, r in pairs]
            return keys

        rng = np.random.default_rng(89)
        pool = ["die", "win", "sun", "man", "city"]
        for _ in range(60):
            gq = random_tree_sentence(rng, max_nodes=7, lemma_pool=pool, relabel=True)
            answers = [
                random_tree_sentence(rng, max_nodes=9, lemma_pool=pool, relabel=True)
                for _ in range(int(rng.integers(1, 7)))
            ]
            tables = build_df([gq, *answers][: 1 + 2 * len(answers) // 3])
            alphas = tuple(float(rng.random()) * 2 for _ in LEVELS)
            rows = graph_similarities([(gq, answers)], tables, alphas)
            for ga, row in zip(answers, rows):
                expected = []
                for level, alpha in zip(LEVELS, alphas):
                    table = tables[level]
                    vectors = [
                        direct_tfidf_vector(g, keys_of(level), table.n_docs, table.df, alpha)
                        for g in (gq, ga)
                    ]
                    expected.append(direct_cosine(*vectors))
                assert row == pytest.approx(tuple(expected), abs=1e-12)

    def test_bitwise_equal_to_cosine_of_tfidf_vectors(self):
        # graph_similarities builds no answer vector; every value must keep the
        # bits of `cosine` over the two tfidf_vectors.  Alphas up to 2 empty
        # some vectors, and a third of the sentences stay out of the tables.
        rng = np.random.default_rng(101)
        pool = ["die", "win", "sun", "man", "city", "dog"]
        empty = nonempty = 0
        for _ in range(200):
            gq = random_tree_sentence(rng, max_nodes=7, lemma_pool=pool, relabel=True)
            answers = [
                random_tree_sentence(rng, max_nodes=9, lemma_pool=pool, relabel=True)
                for _ in range(int(rng.integers(1, 8)))
            ]
            tables = build_df([gq, *answers][: 1 + 2 * len(answers) // 3])
            alphas = tuple(float(rng.random()) * 2 for _ in LEVELS)
            keys_q = extract_keys(gq)
            rows = graph_similarities([(gq, answers)], tables, alphas)
            for ga, row in zip(answers, rows):
                keys_a = extract_keys(ga)
                for level, alpha, value in zip(LEVELS, alphas, row):
                    vq, va = (
                        tfidf_vector(keys[level], tables[level], alpha) for keys in (keys_q, keys_a)
                    )
                    assert value.hex() == cosine(vq, va).hex()
                    empty += not vq or not va
                    nonempty += bool(vq and va)
        assert empty and nonempty

    def test_symmetry(self, question_sentence, answer_sentence):
        tables = self.tables_for([question_sentence, answer_sentence])
        forward = graph_similarities(
            [(question_sentence, [answer_sentence])], tables, (0.0, 0.0, 0.0)
        )[0]
        backward = graph_similarities(
            [(answer_sentence, [question_sentence])], tables, (0.0, 0.0, 0.0)
        )[0]
        assert forward == pytest.approx(backward, abs=1e-12)


class TestDfTableIO:
    def test_round_trip(self, tmp_path):
        table = DfTable("pair", n_docs=7, df={"a|b": 3, "c|d": 1})
        path = tmp_path / "df.tsv"
        save_df_table(table, path)
        loaded = load_df_table(path, "pair")
        assert loaded == table

    def test_df_above_n_docs_rejected(self, tmp_path):
        path = tmp_path / "df.tsv"
        path.write_text("N\t2\nkey\t5\n")
        with pytest.raises(IngestionError):
            load_df_table(path, "word")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "df.tsv"
        path.write_text("key\t5\n")
        with pytest.raises(IngestionError):
            load_df_table(path, "word")

    def test_n_line_is_the_first_non_empty_line(self, tmp_path):
        path = tmp_path / "df.tsv"
        path.write_text("\n\r\nN\t5\nkey\t2\n")
        assert load_df_table(path, "word") == DfTable("word", n_docs=5, df={"key": 2})
        path.write_text("\nkey\t2\nN\t5\n")
        with pytest.raises(IngestionError, match="first line must be `N<TAB>n_docs`"):
            load_df_table(path, "word")

    def test_table_bigger_than_one_chunk_round_trips(self, tmp_path):
        # The file spans many of the text reader's 8 KiB reads.
        table = DfTable("triplet", n_docs=50, df={f"k{i}|w|obj": 1 + i % 50 for i in range(20000)})
        path = tmp_path / "df.tsv"
        save_df_table(table, path)
        loaded = load_df_table(path, "triplet")
        assert loaded == table
        assert list(loaded.df) == sorted(table.df)

    def test_duplicate_key_in_a_later_chunk_names_its_line(self, tmp_path):
        # Line 1 is blank, line 3 a CRLF blank line; keys fill lines 4-20003.
        rows = "".join(f"k{i}\t1\r\n" for i in range(20000))
        path = tmp_path / "df.tsv"
        path.write_bytes(f"\nN\t9\r\n\r\n{rows}k3\t1\n".encode())
        with pytest.raises(IngestionError, match=r"line 20004: duplicate key 'k3'$"):
            load_df_table(path, "word")

    @pytest.mark.parametrize("lead_chars", [24, 1 << 16])
    def test_bulk_split_matches_the_line_reader(self, lead_chars, tmp_path):
        # Seeded valid and mutated DF files must give the same table, in the
        # same key order, or the same message from load_df_table, which
        # splits each line inline, as from the line reader on tsv_rows.  A
        # 64 Ki-character lead of valid rows puts the mutations, and some
        # CRLF pairs, past several of the text reader's 8 KiB reads.
        accepted = rejected = 0
        rng = random.Random(4111 + lead_chars)
        for path in mutated_df_files(rng, 150, tmp_path, lead_chars):
            expected = df_outcome(reference_df_table, path)
            assert df_outcome(load_df_table, path) == expected, path.read_bytes()
            if isinstance(expected, str):
                rejected += 1
            else:
                accepted += 1
        assert accepted > 20 and rejected > 20


def df_outcome(load, path):
    """The table and its items in key order that `load` reads from `path`,
    or the text of the IngestionError it raises."""
    try:
        table = load(path, "pair")
    except IngestionError as exc:
        return str(exc)
    return table, list(table.df.items())


def mutated_df_files(rng, n_files, directory, lead_chars=0):
    """Write and yield `n_files` DF table files: every third one valid, the
    rest with up to three seeded line mutations (a dropped or an extra tab, a
    bad count, a repeated, extra or missing line), CRLF line ends or no
    final line end.  At least `lead_chars` characters of valid rows, keys
    `k0|v`, `k1|v`, ..., follow the first line."""
    lead, total = [], 0
    while total < lead_chars:
        lead.append(f"k{len(lead)}|v\t{1 + len(lead) % 12}\n".encode())
        total += len(lead[-1])
    lead = b"".join(lead)
    counts = ["x", "", "nan", "1.5", " 3", "+2", "0", "-1", "1_0", "\u0663", "2\t", "99", "7"]
    extras = [b"\n", b"\r\n", b" \n", b"\r", b"\xff", b"\xef\xbb\xbf", b"N\t4\n",
              b"\t\n", b"a\tb\tc\n", b"lone\n"]
    for case in range(n_files):
        keys = rng.sample(["N", "a|b", "b|a", "7", "x y|z", "\u00e9|e", "q|r", "s|t", "u|v"]
                          + [f"w{i}|v" for i in range(40)], rng.randint(3, 30))
        lines = [f"{key}\t{rng.randint(1, 12)}\n".encode() for key in keys]
        lines.insert(0, b"N\t12\n")
        for _ in range(rng.randint(0, 3) if case % 3 else 0):
            i = rng.randrange(len(lines))
            op = rng.randrange(6)
            if op == 0:
                lines[i] = lines[i].replace(b"\t", b"", 1)
            elif op == 1:
                lines[i] = lines[i].rstrip(b"\n") + b"\t1\n"
            elif op == 2:
                key = lines[i].split(b"\t")[0]
                lines[i] = key + b"\t" + rng.choice(counts).encode() + b"\n"
            elif op == 3:
                lines.insert(i, lines[rng.randrange(len(lines))])
            elif op == 4:
                lines.insert(i, rng.choice(extras))
            else:
                del lines[i]
        lines.insert(1, lead)
        if rng.random() < 0.3:
            lines = [line.replace(b"\n", b"\r\n") for line in lines]
        if rng.random() < 0.3:
            lines[-1] = lines[-1].rstrip(b"\r\n")
        path = directory / f"df{case}.tsv"
        path.write_bytes(b"".join(lines))
        yield path
