"""Every pipeline output at benchmark scale matches committed sha256 hashes.

bench/corpus_gen.py writes a corpus of the graph-wikiqa workload's size
(24/4/8 questions, 230/38/77 pairs, seed 1) with scores and 50-dimensional
embeddings, and all twelve features run through build-df, featurize on each
split, train, tune --update-model and evaluate --baselines, in-process.  The
hashes were written before `featurize --split train` began to build its
in-memory DF tables from the split it already holds; regenerate them with

    PYTHONPATH=src python tests/test_bench_scale.py > tests/data/bench_scale_hashes.json

only when an output is meant to change.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from qatrigger import cli
from qatrigger.cli import main
from qatrigger.combiner import FEATURE_NAMES

ROOT = Path(__file__).resolve().parent.parent
HASHES = ROOT / "tests" / "data" / "bench_scale_hashes.json"
SPEC = {
    "corpus": {"questions": [24, 4, 8], "pairs": [230, 38, 77], "parses": True,
               "overlap": 0.0, "embedding_dim": 50, "scores": True},
    "manifest": list(FEATURE_NAMES),
}


def generate(corpus: Path) -> None:
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "corpus_gen.py"), "--spec", json.dumps(SPEC),
         "--seed", "1", "--out", str(corpus)],
        capture_output=True, timeout=120, check=True,
    )
    (corpus / "out").mkdir()


def run_pipeline(corpus: Path) -> dict[str, str]:
    """sha256 of each stage's output, keyed `stage/file`; the generated
    config.ini reads and writes the DF tables under out/."""
    cfg, out = ["--config", str(corpus / "config.ini")], corpus / "out"
    model = str(out / "model.txt")
    stages = [("build-df", ["build-df"], ["df_word.tsv", "df_pair.tsv", "df_triplet.tsv"])]
    stages += [(f"featurize-{split}", ["featurize", "--split", split,
                                       "--out", str(out / f"feats_{split}.tsv")],
                [f"feats_{split}.tsv"]) for split in ("train", "dev", "test")]
    stages += [
        ("train", ["train", "--features", str(out / "feats_train.tsv"), "--model", model],
         ["model.txt"]),
        ("tune", ["tune", "--model", model, "--features", str(out / "feats_dev.tsv"),
                  "--update-model"], ["model.txt"]),
        ("evaluate", ["evaluate", "--model", model, "--features", str(out / "feats_test.tsv"),
                      "--report", str(out / "report.txt"), "--baselines"], ["report.txt"]),
    ]
    hashes = {}
    for stage, argv, outputs in stages:
        assert main(cfg + argv) == 0, stage
        for name in outputs:
            hashes[f"{stage}/{name}"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return hashes


def test_every_output_matches_its_committed_hash(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    generate(corpus)
    assert run_pipeline(corpus) == json.loads(HASHES.read_text(encoding="utf-8"))
    # Without [resources], featurize builds the DF tables in memory from the
    # train split: the same features as from the tables build-df wrote.
    config = corpus / "config.ini"
    lines = config.read_text(encoding="utf-8").splitlines(True)
    kept = [line for line in lines if not line.startswith(("[resources]", "df_"))]
    assert len(kept) == len(lines) - 4
    no_df = corpus / "config_no_df.ini"
    no_df.write_text("".join(kept), encoding="utf-8")
    in_memory = tmp_path / "feats_train.tsv"
    argv = ["--config", str(no_df), "featurize", "--split", "train", "--out", str(in_memory)]
    assert main(argv) == 0
    assert in_memory.read_bytes() == (corpus / "out" / "feats_train.tsv").read_bytes()
    capsys.readouterr()


def test_batch_boundaries_change_no_feature_row(tmp_path, monkeypatch, capsys):
    # featurize hands extract_features runs of groups of at most
    # cli._BATCH_TEXTS texts.  One group per run, runs of at most 64 texts,
    # the default (here a split of at most 254 texts is one run) and any
    # split in one run all write the committed bytes.
    corpus = tmp_path / "corpus"
    generate(corpus)
    cfg = ["--config", str(corpus / "config.ini")]
    assert main(cfg + ["build-df"]) == 0
    expected = json.loads(HASHES.read_text(encoding="utf-8"))
    for cap in (1, 64, cli._BATCH_TEXTS, 10**9):
        monkeypatch.setattr(cli, "_BATCH_TEXTS", cap)
        for split in ("train", "dev", "test"):
            out = tmp_path / f"feats_{split}_{cap}.tsv"
            assert main(cfg + ["featurize", "--split", split, "--out", str(out)]) == 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest == expected[f"featurize-{split}/feats_{split}.tsv"], (cap, split)
    capsys.readouterr()


if __name__ == "__main__":
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        generate(Path(tmp) / "corpus")
        hashes = run_pipeline(Path(tmp) / "corpus")
    print(json.dumps(hashes, indent=1, sort_keys=True))
