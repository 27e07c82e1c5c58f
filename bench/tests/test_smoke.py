"""Smoke test of the benchmark at toy scale.

    PYTHONPATH=src python3 -m pytest -q bench/tests

Checks the generator's self-checks, that a run prints every declared metric
with its unit, that the correctness gates trip on a flipped output byte, and
that a deleted layer is reported as missing rather than crashing the trace.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import re
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import corpus_gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY_SIZES = {"questions": (6, 3, 3), "pairs": (40, 20, 20)}


@pytest.fixture
def toy(monkeypatch, tmp_path):
    """Shrink every workload and keep work files under tmp_path."""
    workloads = {
        name: dataclasses.replace(
            w, corpus=dataclasses.replace(
                w.corpus, **TOY_SIZES, embedding_dim=min(w.corpus.embedding_dim, 4)))
        for name, w in run.WORKLOADS.items()
    }
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


def bench_run(capsys, workload: str, trace: int, seed: int = 3) -> tuple[int, list[str], dict]:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.2, trace=trace)
    code = run.run_one(args, SPEC)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(tracing.SPAN_METRICS) <= layer_names
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_generator_writes_valid_wikiqa_shaped_corpus(tmp_path):
    spec = corpus_gen.CorpusSpec((30, 6, 9), (288, 58, 86), parses=True, overlap=0.5)
    stats = corpus_gen.generate(spec, 7, tmp_path, run.GRAPH_MANIFEST)
    for split, questions, pairs in zip(corpus_gen.SPLITS, spec.questions, spec.pairs):
        assert (stats[split]["questions"], stats[split]["pairs"]) == (questions, pairs)
        assert stats[split]["answerable_share"] == pytest.approx(1 / 3, abs=0.01)
    assert stats["train"]["mean_shared_answer_nodes"] > 5
    text = corpus_gen.describe(stats)
    assert "shared answer nodes/pair" in text and "answerable" in text
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    corpus_gen.generate(spec, 7, tmp_path, run.GRAPH_MANIFEST)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_tree_check_rejects_cycles_extra_roots_and_crossing_arcs():
    corpus_gen.check_tree([2, 0, 2])
    for heads in ([2, 1, 0], [0, 0, 2], [3, 4, 0, 3]):
        with pytest.raises(ValueError):
            corpus_gen.check_tree(heads)
    rng = random.Random(5)
    for n in range(1, 60):
        corpus_gen.check_tree(corpus_gen.projective_heads(rng, n))


def test_generator_rejects_duplicate_ids():
    token = corpus_gen.Tok("who", "PRON", 0, "root")
    groups = [corpus_gen.Group("q1", [token], "t", [("q1", [token], 0)])]
    with pytest.raises(ValueError, match="duplicate"):
        corpus_gen._check({"train": groups}, corpus_gen.CorpusSpec((1, 0, 0), (1, 0, 0), True, 0))


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(toy, capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, result = bench_run(capsys, workload, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0, lines
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        for metric in SPEC[section]:
            pattern = (rf"{workload} {re.escape(metric['name'])} = \S+ "
                       rf"{re.escape(metric['unit'])}(  \(wall \S+\))?$")
            assert any(re.match(pattern, line) for line in lines), metric["name"]
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if trace and workload.startswith("lexical"):
            for name in ("depgraph.build_graph.calls", "coverage.find_path.calls",
                         "ged.cost_cells", "graphsim.graph_similarity_features.s"):
                assert result["metrics"][name]["value"] == 0


def test_flipped_output_byte_fails_the_run(toy, capsys, monkeypatch):
    code, _, _ = bench_run(capsys, "graph-wikiqa", 0)
    assert code == 0
    cli = run.import_cli()
    original = cli.cmd_train

    def flipping_train(config, features_path, model_path):
        status = original(config, features_path, model_path)
        data = bytearray(Path(model_path).read_bytes())
        data[-2] ^= 1
        Path(model_path).write_bytes(bytes(data))
        return status

    monkeypatch.setattr(cli, "cmd_train", flipping_train)
    code, lines, result = bench_run(capsys, "graph-wikiqa", 0)
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("FAILED train/model.txt") for line in lines)


def test_golden_gate_trips_on_a_flipped_byte(toy, capsys, monkeypatch):
    mini = toy / "mini"
    shutil.copytree(run.MINI, mini)
    golden = mini / "golden_features_train.tsv"
    data = bytearray(golden.read_bytes())
    data[-2] ^= 1
    golden.write_bytes(bytes(data))
    monkeypatch.setattr(run, "MINI", mini)
    code, lines, result = bench_run(capsys, "graph-wikiqa", 0)
    assert code == 1 and not result["correct"] and result["metrics"] == {}
    assert any("golden gate" in line for line in lines)


def test_missing_layer_is_reported_not_fatal(toy, capsys, monkeypatch):
    # As if a refactor renamed the solver: the target no longer exists.
    targets = tuple(t if t != "ged.solve_assignment" else "ged.solve_gone" for t in tracing.TARGETS)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    monkeypatch.setitem(tracing.SPAN_METRICS, "ged.solve_assignment.s", ("ged.solve_gone", "s"))
    code, lines, result = bench_run(capsys, "graph-wikiqa", 1)
    assert code == 0 and result["correct"]
    assert result["metrics"]["trace.missing_layers"]["value"] == 1
    assert result["metrics"]["ged.solve_assignment.s"]["value"] == 0
    assert "missing layer: ged.solve_gone" in lines
